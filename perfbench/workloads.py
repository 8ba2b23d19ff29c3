"""The benchmark's workloads: the config each generates from a seed, its op,
and the verdict on what the op left behind.

Every op sends its outputs to its own ``--out`` directory, which the caller
creates and removes.  An op never retries or skips a call: a call that raises
is recorded with its exception type and section, and the op goes on to its
next call.
"""

from __future__ import annotations

import hashlib
import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import statelab.cli as cli
from statelab import dynamics as dyn
from statelab import geometry as geo
from statelab.dynamics import PhysicsParams, PotentialSpec
from statelab.geometry import GaussianParams
from statelab.numerics import Grid, StateVector

FINE_GRID = 4096


@dataclass
class Step:
    """One call of an op.  CLI steps carry the exit code and the out
    directory; library steps carry (check, deviation, bound) triples."""

    section: str
    out: Path | None = None
    code: int | None = None
    log: str = ""
    checks: list = field(default_factory=list)
    error: BaseException | None = None


@dataclass
class Verdict:
    failures: list[str]
    digest: str           # hash of every output, for the determinism check
    consistent: bool      # exit code agrees with report.json and its artifacts


def _failed_section(exc: BaseException, default: str) -> str:
    """The innermost ``statelab.cli`` section function in the traceback."""
    names = {getattr(fn, "__wrapped__", fn).__name__: sec for sec, fn in cli.SECTIONS.items()}
    section = default
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        section = names.get(frame.f_code.co_name, section)
    return section


def cli_step(section: str, argv: list[str], out: Path) -> Step:
    """Run ``statelab <argv> --out <out>`` in process through ``cli.main``."""
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main([*argv, "--out", str(out)])
    except Exception as exc:     # the op boundary: record the crash, do not retry
        return Step(section, out, log=sink.getvalue(), error=exc)
    return Step(section, out, code=code, log=sink.getvalue())


def library_step(section: str, run) -> Step:
    try:
        return Step(section, checks=run())
    except Exception as exc:
        return Step(section, error=exc)


def _judge(step: Step) -> tuple[list[str], bytes, bool]:
    if step.error is not None:
        exc = step.error
        return ([f"{_failed_section(exc, step.section)}: {type(exc).__name__}: {exc}"],
                b"", True)
    if step.out is None:
        failures = [f"{step.section}: {name} = {dev:.3g} exceeds {bound:g}"
                    for name, dev, bound in step.checks if not dev <= bound]
        return failures, repr([(name, dev) for name, dev, _ in step.checks]).encode(), True
    report_path = step.out / "report.json"
    if not report_path.is_file():
        last = step.log.strip().splitlines()[-1:] or [""]
        return [f"{step.section}: exit {step.code} without report.json: {last[0]}"], b"", True
    report = json.loads(report_path.read_text(encoding="utf-8"))
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    missing = [a for a in report["artifacts"] if not (step.out / a).is_file()]
    problems = []
    if step.code != 0:
        problems.append(f"exit {step.code}")
    if failing or not report["overall_pass"]:
        problems.append(f"checks failed: {', '.join(failing)}")
    if missing:
        problems.append(f"missing artifacts: {', '.join(missing)}")
    failures = [f"{step.section}: {'; '.join(problems)}"] if problems else []
    ok = report["overall_pass"] and not missing
    consistent = step.code not in (0, 1) or (step.code == 0) == ok
    files = b"".join(str(p.relative_to(step.out)).encode() + b"\0" + p.read_bytes()
                     for p in sorted(step.out.rglob("*")) if p.is_file())
    return failures, files, consistent


def judge(steps: list[Step]) -> Verdict:
    failures, digest, consistent = [], hashlib.sha256(), True
    for step in steps:
        f, outputs, c = _judge(step)
        failures += f
        digest.update(step.section.encode() + b"\0" + outputs)
        consistent = consistent and c
    return Verdict(failures, digest.hexdigest(), consistent)


def dynamics_library_checks(cfg: cli.ExperimentConfig) -> list[tuple[str, float, float]]:
    """The public-function calls of ``statelab dynamics-checks``, each judged
    by the bound that section applies.  The configured-potential horizon and
    trajectory.csv are left out: they depend on ``cli._fit_horizon``, a
    private helper of the CLI rather than a library function."""
    grid, phys, sigma = cfg.grid, cfg.physics, cfg.kernel.sigma
    hbar = phys.hbar
    checks = []

    worst_closure = worst_comp = 0.0
    for V in (PotentialSpec.free(), PotentialSpec.linear(0.7),
              PotentialSpec.harmonic(1e-3, center=-40.0)):
        for a in np.linspace(-2.0, 2.0, 5):
            for p in np.linspace(-1.0, 1.0, 5):
                q = GaussianParams(float(a), float(p), sigma)
                d = dyn.velocity_decomposition(q, V, phys, grid)
                ref = dyn.closed_form_decomposition(q, V, phys, grid)
                closure = abs(d.total_norm ** 2 - d.component_sum_sq) / d.total_norm ** 2
                worst_closure = max(worst_closure, closure)
                comp_dev = max(
                    abs(d.fibre_component - ref.fibre_component),
                    abs(d.position_component - ref.position_component),
                    abs(d.momentum_component - ref.momentum_component),
                    abs(d.spread_component - ref.spread_component))
                worst_comp = max(worst_comp, comp_dev / max(abs(ref.total_norm), 1.0))
    checks += [("decomposition-closure-max-rel-dev", worst_closure, 1e-3),
               ("decomposition-closed-form-max-rel-dev", worst_comp, 1e-3)]

    d = dyn.velocity_decomposition(GaussianParams(0.0, 1.0, 0.5), PotentialSpec.free(),
                                   PhysicsParams(1.0, 1.0), grid)
    checks += [("free-packet-position-component", abs(d.position_component - 1.0), 1e-3),
               ("free-packet-momentum-component", abs(d.momentum_component), 1e-3),
               ("free-packet-spread-component",
                abs(d.spread_component - np.sqrt(2.0) / 2.0), 1e-3),
               ("free-packet-fibre-component", abs(d.fibre_component - 1.0), 1e-3),
               ("free-packet-total-norm-sq", abs(d.total_norm ** 2 - 2.5), 1e-3)]

    psi_h = geo.realize(GaussianParams(1.0, 0.0, sigma), grid, hbar=hbar)
    r1, r2 = dyn.ehrenfest_check(psi_h, PotentialSpec.harmonic(1.0), phys, dt=1e-3)
    rf1, rf2 = dyn.ehrenfest_check(psi_h, PotentialSpec.free(), phys, dt=1e-3)
    qgrid = Grid(512, -10.0, 10.0, True)
    psi_q = geo.realize(GaussianParams(0.0, 0.0, 1.0), qgrid, hbar=hbar)
    rq1, _ = dyn.ehrenfest_check(psi_q, PotentialSpec.tabulated(qgrid.x ** 4), phys, dt=2e-5)
    checks += [("ehrenfest-harmonic-residual-x", r1, 1e-5),
               ("ehrenfest-harmonic-residual-p", r2, 1e-5),
               ("ehrenfest-free-residual-x", rf1, 1e-8),
               ("ehrenfest-free-residual-p", rf2, 1e-8),
               ("ehrenfest-quartic-residual-x", rq1, 1e-5)]

    agrid = Grid(64, -8.0, 8.0, True)
    rng = cfg.stream(16).generator()
    psi_r = StateVector(agrid, rng.standard_normal(64) + 1j * rng.standard_normal(64)).normalized()
    Vh = PotentialSpec.harmonic(1.0)
    worst = max(dyn.anticommutator_identity_check(psi_r, "position", Vh, phys),
                dyn.anticommutator_identity_check(psi_r, "momentum", Vh, phys))
    checks += [("anticommutator-identity-residual", worst, 1e-6),
               ("anticommutator-identity-identity-obs",
                dyn.anticommutator_identity_check(psi_r, "identity", Vh, phys), 1e-8)]

    q0 = GaussianParams(1.0, 0.0, sigma)
    dev_x, dev_p = dyn.constrained_motion_check(q0, Vh, phys, grid,
                                                t_final=2.0 * np.pi, dt=1e-3)
    devf_x, _ = dyn.constrained_motion_check(GaussianParams(0.0, 1.0, sigma),
                                             PotentialSpec.free(), phys, grid,
                                             t_final=1.0, dt=1e-3)
    checks += [("constrained-motion-harmonic-max-dev-x", dev_x, 1e-4),
               ("constrained-motion-harmonic-max-dev-p", dev_p, 1e-4),
               ("constrained-motion-free-max-dev-x", devf_x, 1e-6)]

    noisy = PotentialSpec.noisy(Vh, 0.5, cfg.stream(15))
    psi_n = dyn.propagate(psi_h, noisy, phys, 1.0, 1e-3)
    checks.append(("unitarity-noisy-norm", abs(psi_n.norm() - 1.0), 1e-8))

    worst = 0.0
    for _ in range(5):
        vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
        speed, dh = dyn.projective_speed(StateVector(grid, vals).normalized(), Vh, phys)
        worst = max(worst, abs(speed - dh / hbar) / max(dh / hbar, 1e-12))
    checks.append(("projective-speed-vs-energy-uncertainty", worst, 1e-3))
    return checks


def _argv(cfg_path: Path, seed: int) -> list[str]:
    return ["--config", str(cfg_path), "--seed", str(seed)]


def _suite_default(cfg_path: Path, seed: int, out: Path) -> list[Step]:
    return [cli_step("all", ["all", *_argv(cfg_path, seed)], out)]


def _dynamics_fine_grid(cfg_path: Path, seed: int, out: Path) -> list[Step]:
    return [library_step("dynamics-checks", lambda: dynamics_library_checks(
                cli.load_config(str(cfg_path), {"seed": seed}))),
            cli_step("geometry-identities",
                     ["geometry-identities", *_argv(cfg_path, seed), "--grid", str(FINE_GRID)],
                     out / "geometry-identities")]


def _born_ensemble(cfg_path: Path, seed: int, out: Path) -> list[Step]:
    return [cli_step(section, [section, *_argv(cfg_path, seed)], out / section)
            for section in ("born-diffusion", "solid-com")]


# name -> (config written to config.json with the seed added, op); why each
# workload was chosen is in BENCHMARK.json and README.md
WORKLOADS = {
    "suite-default": ({}, _suite_default),
    "dynamics-fine-grid": ({"grid": {"n_points": FINE_GRID}}, _dynamics_fine_grid),
    "born-ensemble": ({"diffusion": {"n_walkers": 100000}}, _born_ensemble),
}
