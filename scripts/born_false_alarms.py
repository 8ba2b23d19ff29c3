#!/usr/bin/env python3
"""False-alarm rate of a Monte Carlo section's checks over a seed range.

Runs one section of the default config (correct sampling, 1e5 walkers) at
every seed and counts the seeds where it fails: born-diffusion by default, or
solid-com.  The rate is printed with its Clopper-Pearson 95% interval,
followed by the seeds each failing check failed on; every check of the
section counts, not only the statistical ones.  The exit code is 1 when the
lower end of the interval lies above 1%, so the check fails only where the
excess is significant.  1% is born-diffusion's declared family rate; solid-com
declares none yet, and is held to the same gate.

    PYTHONPATH=src python scripts/born_false_alarms.py               # seeds 0-399
    PYTHONPATH=src python scripts/born_false_alarms.py --seeds 0 200 # seeds 0-199
    PYTHONPATH=src python scripts/born_false_alarms.py --section solid-com --seeds 0 200
"""

from __future__ import annotations

import argparse
import sys

from scipy.special import betaincinv

from statelab.cli import SECTIONS, load_config

FAMILY_RATE = 0.01          # born-diffusion: two checks at alpha = 0.005 each
POOLED = ("born-component-mass-chi2", "born-arrival-ks-pooled")
LABELS = {
    "born-diffusion": f"with {' and '.join(POOLED)} (declared family rate {FAMILY_RATE:g})",
    "solid-com": f"with its fixed 10% bounds (no declared rate; gated at {FAMILY_RATE:g})",
}


def clopper_pearson(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    tail = (1.0 - level) / 2.0
    lo = betaincinv(k, n - k + 1, tail) if k > 0 else 0.0
    hi = betaincinv(k + 1, n - k, 1.0 - tail) if k < n else 1.0
    return float(lo), float(hi)


def failing_checks(section: str, seed: int) -> list[str]:
    """Names of the section's checks that fail at this seed."""
    rep = SECTIONS[section](load_config(None, {"seed": seed}))
    return [c.name for c in rep.checks if not c.passed]


def summarize(label: str, failures: dict[int, list[str]], n: int) -> float:
    """Print the failure rate with its interval and per-check failing seeds;
    returns the lower end of the interval."""
    k = sum(1 for names in failures.values() if names)
    lo, hi = clopper_pearson(k, n)
    print(f"{label}: {k} of {n} seeds fail, rate {k / n:.4f}, "
          f"95% interval [{lo:.4f}, {hi:.4f}]")
    for name in sorted({m for names in failures.values() for m in names}):
        seeds = [s for s, names in failures.items() if name in names]
        print(f"  {name}: {len(seeds)} {seeds}")
    return lo


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(0, 400), metavar=("FIRST", "STOP"),
                        help="seed range [FIRST, STOP)")
    parser.add_argument("--section", choices=sorted(LABELS), default="born-diffusion")
    args = parser.parse_args(argv)
    seeds = range(*args.seeds)
    failures = {seed: failing_checks(args.section, seed) for seed in seeds}
    print(f"{args.section} at seeds {seeds.start}-{seeds.stop - 1}, default config")
    lo = summarize(LABELS[args.section], failures, len(seeds))
    if lo > FAMILY_RATE:
        print(f"FAIL: the false-alarm rate is above {FAMILY_RATE:g} "
              f"(its interval starts at {lo:.4f})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
