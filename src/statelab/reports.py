"""Machine-readable experiment reports: per-check records with value,
reference, tolerance and a pass flag; serialized deterministically."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckRecord:
    name: str
    value: float
    reference: float
    tolerance: float
    passed: bool
    mode: str = "abs"     # "abs" | "rel" | "upper"
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "reference": float(self.reference),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "mode": self.mode,
            "note": self.note,
        }


def check_abs(name: str, value: float, reference: float, tolerance: float) -> CheckRecord:
    """Pass when |value - reference| <= tolerance."""
    return CheckRecord(name, float(value), float(reference), float(tolerance),
                       abs(value - reference) <= tolerance, "abs")


def check_rel(name: str, value: float, reference: float, tolerance: float) -> CheckRecord:
    """Pass when |value - reference| <= tolerance * |reference|."""
    ok = abs(value - reference) <= tolerance * abs(reference)
    return CheckRecord(name, float(value), float(reference), float(tolerance), ok, "rel")


def check_upper(name: str, value: float, bound: float, note: str = "") -> CheckRecord:
    """Pass when value <= bound."""
    return CheckRecord(name, float(value), float(bound), float(bound),
                       value <= bound, "upper", note)


@dataclass
class Report:
    experiment: str
    config: dict
    checks: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)   # CSV file name -> (header, rows)

    def add(self, record: CheckRecord) -> CheckRecord:
        self.checks.append(record)
        return record

    @property
    def overall_pass(self) -> bool:
        return bool(all(c.passed for c in self.checks))

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "artifacts": sorted(self.tables),
            "overall_pass": self.overall_pass,
        }

    def to_json(self) -> str:
        # no timestamps or timings here: equal configs must give equal bytes
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def print_report(report: Report) -> None:
    for c in report.checks:
        flag = "PASS" if c.passed else "FAIL"
        print(f"[{flag}] {c.name}: value={c.value:.6g} reference={c.reference:.6g} "
              f"tolerance={c.tolerance:.3g} ({c.mode})"
              + (f"  {c.note}" if c.note else ""))
    print(f"[{'PASS' if report.overall_pass else 'FAIL'}] {report.experiment}: "
          f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks passed")
