#!/usr/bin/env python3
"""statelab benchmark: closed loop, one client, one op at a time.

    python3 perfbench/run.py --workload suite-default --seed 7 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  Each op's verdict is
printed as it finishes; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Outputs go to a temporary
directory under ``.bench_build/`` that is removed before exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build"
DEFAULT_SEED = 20250809          # statelab's own default master seed
# After the process's own cold op, the measured window repeats this pattern,
# so cold and warm samples both spread over the whole window: the host's
# speed drifts over seconds, and samples bunched in time see one phase.
PATTERN = ("fresh", "warm", "warm")
THREAD_VARS = ("STATELAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# A fresh interpreter: set-up is timed from spawn to the "ready" line; given
# an out directory it then runs one cold op and prints its result.
FRESH_CODE = """
import sys
sys.path[:0] = sys.argv[1:3]
from statelab.cli import load_config
load_config(sys.argv[4], {"seed": int(sys.argv[5])})
print("ready", flush=True)
if len(sys.argv) > 6:
    import json, run
    print(json.dumps(run.timed_op(sys.argv[3], sys.argv[4], int(sys.argv[5]), sys.argv[6])))
"""

END_TO_END_UNITS = {"setup_s": "s", "first_op_s": "s", "op_s_p50": "s",
                    "cpu_s_p50": "s", "peak_rss_mb": "MB"}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "git_commit": git_commit(), "seed": seed}


def timed_op(workload: str, cfg_path, seed: int, out, tracer=None, op_id: int = 0) -> dict:
    """Run one op and judge it once its timer has stopped."""
    from workloads import WORKLOADS, judge
    run = WORKLOADS[workload][1]
    if tracer:
        tracer.install(op_id)
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        steps = run(Path(cfg_path), seed, Path(out))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if tracer:
            tracer.uninstall()
    verdict = judge(steps)
    shutil.rmtree(out, ignore_errors=True)
    return {"wall": wall, "cpu": cpu, "failures": verdict.failures,
            "digest": verdict.digest, "consistent": verdict.consistent}


class Runner:
    """Runs one workload's ops back to back and keeps their verdicts."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        from workloads import WORKLOADS
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.cfg_path = tmp / "config.json"
        self.cfg_path.write_text(json.dumps({**WORKLOADS[workload][0], "seed": seed}))
        self.attempted = self.failed = 0
        self.consistent = True
        self._digest = None         # outputs of the first op; later ops must match
        self.setup: list[float] = []

    def fresh(self, out: Path | None = None) -> dict | None:
        """Start a fresh interpreter and record its set-up time; with out,
        return the result of the cold op it then runs."""
        argv = [sys.executable, "-c", FRESH_CODE, str(SRC), str(HERE), self.workload,
                str(self.cfg_path), str(self.seed), *([str(out)] if out else [])]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"fresh interpreter failed with exit code {proc.returncode}")
        self.setup.append(setup)
        return json.loads(rest.splitlines()[-1]) if out else None

    def op(self, label: str, tracer=None) -> tuple[float, float]:
        """One op in this process, or with label "fresh" in a new interpreter."""
        index = self.attempted
        out = self.tmp / f"op{index}"
        if label == "fresh":
            result = self.fresh(out)
        else:
            result = timed_op(self.workload, self.cfg_path, self.seed, out, tracer, index)
        self.attempted += 1
        self.failed += bool(result["failures"])
        notes = []
        if not result["consistent"]:
            self.consistent = False
            notes.append("INCONSISTENT exit code vs report.json")
        if self._digest is None:
            self._digest = result["digest"]
        elif result["digest"] != self._digest:
            self.consistent = False
            notes.append("OUTPUTS DIFFER from op 0 with the same seed")
        status = "FAIL " + "; ".join(result["failures"]) if result["failures"] else "PASS"
        print(f"op {index:3d} {label:7s} wall {result['wall']:8.4f} s  "
              f"cpu {result['cpu']:8.4f} s  {status}" + "".join(f"  [{n}]" for n in notes),
              flush=True)
        return result["wall"], result["cpu"]


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics, tracing off.  Every warm op is preceded by a
    set-up-only interpreter, so set-up samples spread like the op samples."""
    cold, walls, cpus = [runner.op("cold")[0]], [], []
    start = time.perf_counter()
    for label in itertools.cycle(PATTERN):
        expected = statistics.median(walls if label == "warm" and walls else cold)
        if (len(walls) >= 2 and time.perf_counter() - start + expected
                + statistics.median(runner.setup) > seconds):
            break
        if label == "fresh":
            cold.append(runner.op("fresh")[0])
        else:
            runner.fresh()
            wall, cpu = runner.op("warm")
            walls.append(wall)
            cpus.append(cpu)
    metrics = {"setup_s": statistics.median(runner.setup),
               "first_op_s": statistics.median(cold),
               "op_s_p50": statistics.median(walls), "cpu_s_p50": statistics.median(cpus),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    notes = {"setup_s": f"median of {len(runner.setup)} fresh interpreters",
             "first_op_s": f"median of {len(cold)} cold ops, each the first in its process",
             "op_s_p50": f"n={len(walls)} warm ops",
             "cpu_s_p50": f"n={len(cpus)} warm ops, all threads",
             "peak_rss_mb": "this process"}
    for k, v in metrics.items():
        print(f"{k:12s} {v:12.4f} {END_TO_END_UNITS[k]:3s} {notes[k]}")
    return metrics


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, bool]:
    """Per-layer metrics: traced ops alternate with untraced ones so the
    tracing overhead is measured in the same run.  Returns the metrics and
    whether the counts repeated exactly across the traced ops."""
    from tracing import COUNT_UNITS, PER_LAYER, Tracer, layer_metrics
    tracer = Tracer()
    runner.op("cold")
    traced, plain, per_op = [], [], []
    start = time.perf_counter()
    while (len(traced) < 2 or not plain
           or time.perf_counter() - start + statistics.median(traced) <= seconds):
        if len(traced) <= len(plain):
            traced.append(runner.op("traced", tracer)[0])
            op = runner.attempted - 1
            per_op.append(layer_metrics([s for s in tracer.spans if s.op == op]))
        else:
            plain.append(runner.op("warm")[0])
    counts = [k for k, (unit, _) in PER_LAYER.items() if unit in COUNT_UNITS]
    repeat = all(m[k] == per_op[0][k] for m in per_op for k in counts)
    if not repeat:
        print("COUNTS DIFFER between traced ops: "
              + ", ".join(k for k in counts if len({m[k] for m in per_op}) > 1))
    metrics = {k: per_op[0][k] if k in counts else statistics.median(m[k] for m in per_op)
               for k in per_op[0]}
    metrics["bench.trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    spans_path = WORK_DIR / f"spans-{runner.workload}-seed{runner.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
    for k, v in metrics.items():
        print(f"{k:42s} {v:16.6g} {PER_LAYER[k][0]}")
    print(f"traced ops {len(traced)}, untraced {len(plain)}; spans in {spans_path}")
    return metrics, repeat


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-", dir=WORK_DIR))
    try:
        runner = Runner(workload, seed, tmp)
        print("env " + json.dumps(fingerprint(seed)), flush=True)
        print(f"workload {workload}  seed {seed}  run {seconds:g} s  trace {int(trace)}")
        if trace:
            from tracing import PER_LAYER
            values, repeat = measure_traced(runner, seconds)
            units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        else:
            values, repeat = measure(runner, seconds), True
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"failed_ratio {runner.failed / runner.attempted:10.4f}     "
          f"{runner.failed} of {runner.attempted} ops failed")
    return {"correct": runner.consistent and repeat, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def run_all(args, workloads) -> dict:
    """Each workload in its own process, so peak RSS and caches stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{workload}.{k}"] = v
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "statelab" / "__init__.py").is_file():
        print(f"perfbench: no statelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import statelab
    if not Path(statelab.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported statelab from {statelab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    # workloads and tracing import statelab, so they load only once the
    # checkout's sources are known to be on the path
    from workloads import WORKLOADS
    if args.workload == "all":
        result = run_all(args, WORKLOADS)
    elif args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
