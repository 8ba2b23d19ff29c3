"""Call tracing for the per-layer metrics.

The tracer wraps the public functions of each statelab module (plus the few
methods named in METHODS) and rebinds every reference to them inside the
package, so calls between modules and through ``cli.SECTIONS`` are seen too.
Each call becomes a span: name, start, end, the span that caused it, the
exception type if it raised, and counts derived from its arguments.  Spans
stay in memory; ``layer_metrics`` turns one op's spans into the per-layer
metrics.  Nothing under ``src/`` is changed: ``uninstall`` restores every
original reference.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("cli", "reports", "numerics", "geometry", "dynamics", "reconstruct", "diffusion")

# Layer boundaries that are methods rather than module-level functions.
METHODS = {
    "reports": (("Report", "to_json"),),
    "geometry": (("KernelSpace", "kernel_matrix"), ("KernelSpace", "smoothing_matrix")),
}

SECTION_FUNCS = {
    "run_geometry": "cli.run_geometry_s",
    "run_dynamics": "cli.run_dynamics_s",
    "run_reconstruct": "cli.run_reconstruct_s",
    "run_born_diffusion": "cli.run_born_diffusion_s",
    "run_solid_com": "cli.run_solid_com_s",
}

SECTION_SPANS = {f"cli.{fn}" for fn in SECTION_FUNCS}

SPLIT_STEP_FUNCS = ("dynamics.propagate", "dynamics.wavepacket_trajectory",
                    "dynamics.ehrenfest_check")


def _steps(t_final: float, dt: float) -> int:
    # the step count statelab.dynamics derives from (t_final, dt)
    return max(1, int(round(t_final / dt)))


def _split_step(n_points: int, steps: int) -> dict:
    # per Strang step: one forward and one inverse FFT (5 N log2 N flops
    # each) and three complex multiplies by phase arrays (6 N flops each)
    flops = 2 * 5.0 * n_points * math.log2(n_points) + 3 * 6.0 * n_points
    return {"split_steps": steps, "split_step_flops": steps * flops}


def _section_outcome(args, result) -> dict:
    return {"report_failed": int(not result.overall_pass)}


# Counts derived from each call's arguments (and, for write_csv, the file it
# wrote); they describe the work requested, not a measurement.
COUNTERS = {
    "dynamics.propagate":
        lambda a, r: _split_step(a["psi"].grid.n_points, _steps(a["t_final"], a["dt"])),
    "dynamics.wavepacket_trajectory":
        lambda a, r: _split_step(a["psi"].grid.n_points, _steps(a["t_final"], a["dt"])),
    # one step forward and one back
    "dynamics.ehrenfest_check": lambda a, r: _split_step(a["psi"].grid.n_points, 2),
    "dynamics.newton_integrate": lambda a, r: {"newton_steps": _steps(a["t_final"], a["dt"])},
    # dense float64 design matrix: 4 r^2 constraint rows by n^2 Hermitian-basis columns
    "reconstruct.solve_hamiltonian":
        lambda a, r: {"lstsq_bytes": 8 * 4 * a["ops"].interior ** 2 * a["ops"].n ** 2},
    "diffusion.simulate_state_diffusion": lambda a, r: {"state_walkers": a["cfg"].n_walkers},
    "diffusion.solid_com_diffusion":
        lambda a, r: {"solid_com_normals": a["cfg"].n_walkers * a["n_cells"] * a["n_steps"]},
    "cli.write_csv": lambda a, r: {"csv_bytes": Path(a["path"]).stat().st_size},
    **{name: _section_outcome for name in SECTION_SPANS},
}


@dataclass
class Span:
    op: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    raised: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Wraps statelab's layer boundaries while installed; thread-safe, since
    ``statelab all`` runs its sections on a thread pool."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def install(self, op: int) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.op = op
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"statelab.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        for name, mod in list(sys.modules.items()):
            if name != "statelab" and not name.startswith("statelab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):      # e.g. cli.SECTIONS
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._set(obj, key, wrappers[val])

    def uninstall(self) -> None:
        while self._patched:
            target, key, old = self._patched.pop()
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)

    def _set(self, target, key, new) -> None:
        if isinstance(target, dict):
            self._patched.append((target, key, target[key]))
            target[key] = new
        else:
            self._patched.append((target, key, getattr(target, key)))
            setattr(target, key, new)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(self.op, next(self._ids), stack[-1] if stack else None, name, 0.0, 0.0)
            stack.append(span.span_id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                stack.pop()
                span.raised = type(exc).__name__
                self._record(span)
                raise
            span.end = time.perf_counter()
            stack.pop()
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            self._record(span)
            return result

        return traced

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)


# name -> (unit, better); units "count", "B" and "GFLOP" are counts derived
# from call arguments and must repeat exactly, the rest are measured.
PER_LAYER = {
    **{metric: ("s", "lower") for metric in SECTION_FUNCS.values()},
    "cli.section_wait_s": ("s", "lower"),
    "cli.sections_failed": ("count", "lower"),
    "cli.load_config_s": ("s", "lower"),
    "cli.write_csv_s": ("s", "lower"),
    "cli.csv_bytes": ("B", "lower"),
    "reports.to_json_s": ("s", "lower"),
    "numerics.spectral_derivative_calls": ("count", "lower"),
    "numerics.inner_l2_calls": ("count", "lower"),
    "geometry.completeness_rank_s": ("s", "lower"),
    "geometry.gram_matrix_s": ("s", "lower"),
    "geometry.dense_kernel_s": ("s", "lower"),
    "geometry.kernel_inner_calls": ("count", "lower"),
    "geometry.realize_calls": ("count", "lower"),
    "dynamics.split_step_s": ("s", "lower"),
    "dynamics.split_steps": ("count", "lower"),
    "dynamics.split_steps_per_s": ("1/s", "higher"),
    "dynamics.split_step_gflops_computed": ("GFLOP", "lower"),
    "dynamics.newton_integrate_s": ("s", "lower"),
    "dynamics.newton_steps": ("count", "lower"),
    "dynamics.newton_steps_per_s": ("1/s", "higher"),
    "dynamics.velocity_decomposition_s": ("s", "lower"),
    "reconstruct.solve_hamiltonian_s": ("s", "lower"),
    "reconstruct.solve_hamiltonian_calls": ("count", "lower"),
    "reconstruct.lstsq_bytes_computed": ("B", "lower"),
    "reconstruct.kernel_of_constraints_s": ("s", "lower"),
    "reconstruct.build_operators_s": ("s", "lower"),
    "diffusion.simulate_state_diffusion_s": ("s", "lower"),
    "diffusion.state_walkers_per_s": ("1/s", "higher"),
    "diffusion.decompose_state_s": ("s", "lower"),
    "diffusion.verify_diffusion_pde_s": ("s", "lower"),
    "diffusion.density_functional_s": ("s", "lower"),
    "diffusion.solid_com_diffusion_s": ("s", "lower"),
    "diffusion.solid_com_normals_per_s": ("1/s", "higher"),
    "diffusion.solid_com_kick_bytes_computed": ("B", "lower"),
    **{f"{layer}.raised": ("count", "lower") for layer in LAYERS},
    # traced over untraced median op time, measured by run.py
    "bench.trace_overhead_ratio": ("ratio", "lower"),
}

COUNT_UNITS = ("count", "B", "GFLOP")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one op from its spans.  Times are inclusive wall
    seconds summed over calls; a layer that did no work reports 0."""
    busy = defaultdict(float)
    calls = Counter()
    counts = Counter()
    raised = Counter()
    for s in spans:
        busy[s.name] += s.end - s.start
        calls[s.name] += 1
        counts.update(s.counts)
        if s.raised:
            raised[s.name.split(".", 1)[0]] += 1

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    sections = [s for s in spans if s.name in SECTION_SPANS]
    wait = sum(s.start - a.start for a in spans if a.name == "cli.run_all"
               for s in sections if a.start <= s.start <= a.end)
    split_s = sum(busy[n] for n in SPLIT_STEP_FUNCS)
    solid_s = busy["diffusion.solid_com_diffusion"]
    out = {metric: busy[f"cli.{fn}"] for fn, metric in SECTION_FUNCS.items()}
    out.update({
        "cli.section_wait_s": wait,
        "cli.sections_failed": sum(1 for s in sections
                                   if s.raised or s.counts.get("report_failed")),
        "cli.load_config_s": busy["cli.load_config"],
        "cli.write_csv_s": busy["cli.write_csv"],
        "cli.csv_bytes": counts["csv_bytes"],
        "reports.to_json_s": busy["reports.Report.to_json"],
        "numerics.spectral_derivative_calls": calls["numerics.spectral_derivative"],
        "numerics.inner_l2_calls": calls["numerics.inner_l2"],
        "geometry.completeness_rank_s": busy["geometry.completeness_rank"],
        "geometry.gram_matrix_s": busy["geometry.gram_matrix"],
        "geometry.dense_kernel_s": (busy["geometry.KernelSpace.kernel_matrix"]
                                    + busy["geometry.KernelSpace.smoothing_matrix"]),
        "geometry.kernel_inner_calls": calls["geometry.kernel_inner"],
        "geometry.realize_calls": calls["geometry.realize"],
        "dynamics.split_step_s": split_s,
        "dynamics.split_steps": counts["split_steps"],
        "dynamics.split_steps_per_s": rate(counts["split_steps"], split_s),
        "dynamics.split_step_gflops_computed": counts["split_step_flops"] / 1e9,
        "dynamics.newton_integrate_s": busy["dynamics.newton_integrate"],
        "dynamics.newton_steps": counts["newton_steps"],
        "dynamics.newton_steps_per_s": rate(counts["newton_steps"],
                                            busy["dynamics.newton_integrate"]),
        "dynamics.velocity_decomposition_s": busy["dynamics.velocity_decomposition"],
        "reconstruct.solve_hamiltonian_s": busy["reconstruct.solve_hamiltonian"],
        "reconstruct.solve_hamiltonian_calls": calls["reconstruct.solve_hamiltonian"],
        "reconstruct.lstsq_bytes_computed": counts["lstsq_bytes"],
        "reconstruct.kernel_of_constraints_s": busy["reconstruct.kernel_of_constraints"],
        "reconstruct.build_operators_s": busy["reconstruct.build_operators"],
        "diffusion.simulate_state_diffusion_s": busy["diffusion.simulate_state_diffusion"],
        "diffusion.state_walkers_per_s": rate(counts["state_walkers"],
                                              busy["diffusion.simulate_state_diffusion"]),
        "diffusion.decompose_state_s": busy["diffusion.decompose_state"],
        "diffusion.verify_diffusion_pde_s": busy["diffusion.verify_diffusion_pde"],
        "diffusion.density_functional_s": busy["diffusion.density_functional"],
        "diffusion.solid_com_diffusion_s": solid_s,
        "diffusion.solid_com_normals_per_s": rate(counts["solid_com_normals"], solid_s),
        "diffusion.solid_com_kick_bytes_computed": 8 * counts["solid_com_normals"],
    })
    out.update({f"{layer}.raised": raised[layer] for layer in LAYERS})
    return out
