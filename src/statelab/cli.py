"""Experiment runner: every verification suite as a reproducible subcommand.

Subcommands mirror the library's sections: geometry-identities,
dynamics-checks, reconstruct, born-diffusion, solid-com, and all.  Runs are
fully deterministic: equal configs produce byte-identical report.json and CSV
tables.  Sections compute checks and tables; ``main`` writes every file.
Exit codes: 0 all checks pass, 1 a check failed, 2 config error (also a
config too large to validate in memory), 3 numerical breakdown, 4 section
error (any other exception).  A section that raises leaves a failing
``section-error`` check, the other sections are still written, and the exit
code is the largest any section produced.  ``all`` runs solid-com on
diffusion's waiter thread and the other sections in order on the calling
thread; only the walker ensembles run in parallel, on diffusion's one pool.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .numerics import Grid, NumericalBreakdownError, RngStream, StateVector
from . import geometry as geo
from .geometry import GaussianParams, KernelSpace
from . import dynamics as dyn
from .dynamics import PhysicsParams, PotentialSpec
from . import reconstruct as rec
from . import diffusion as diff
from .reports import Report, check_abs, check_rel, check_upper, CheckRecord, print_report


class ValidationError(ValueError):
    """Configuration rejected before any computation."""


_NO_DEFAULT = object()   # a field that DEFAULT_CONFIG leaves out

# The config schema, path -> (type, unit, default), from which DEFAULT_CONFIG,
# its units and every key and type check come.  A float takes any finite JSON
# number; a field with a unit carries it in "units", except in potential.base.
SCHEMA = {
    # the sections, and the units block, whose default holds every unit below
    **{key: (dict, None, _NO_DEFAULT)
       for key in ("grid", "physics", "kernel", "potential", "diffusion", "units")},
    "grid.n_points": (int, None, 512),
    "grid.x_min": (float, "length", -16.0),
    "grid.x_max": (float, "length", 16.0),
    "grid.periodic": (bool, None, True),
    "physics.hbar": (float, "action", 1.0),
    "physics.mass": (float, "mass", 1.0),
    "kernel.sigma": (float, "length", 0.5),
    "potential.kind": (str, None, "harmonic"),
    "potential.slope": (float, "energy/length", _NO_DEFAULT),
    "potential.stiffness": (float, "energy/length^2", 1.0),
    "potential.center": (float, "length", 0.0),
    "potential.noise_std": (float, "energy/length", _NO_DEFAULT),
    "potential.base": (dict, None, _NO_DEFAULT),
    "diffusion.n_walkers": (int, None, 100000),
    "diffusion.tau": (float, "time", 1.0),
    "diffusion.diffusion_sigma": (float, "length", 0.5),
    "seed": (int, None, 20250809),
    "out_dir": ((str, type(None)), None, None),
}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               dict: "a JSON object", (str, type(None)): "a string or null"}
# the fields each potential kind takes; all but harmonic's center are required
_KIND_FIELDS = {"free": (), "linear": ("slope",), "harmonic": ("stiffness", "center"),
                "noisy": ("base", "noise_std")}
_FLAGS = {"seed": "seed", "walkers": "diffusion.n_walkers", "grid": "grid.n_points"}


def _default_config() -> dict:
    cfg = {}
    for path, (_, _, default) in SCHEMA.items():
        if default is not _NO_DEFAULT:
            *section, key = path.split(".")
            (cfg.setdefault(section[0], {}) if section else cfg)[key] = default
    cfg["units"] = {path: unit for path, (_, unit, default) in SCHEMA.items()
                    if unit and default is not _NO_DEFAULT}
    return cfg


DEFAULT_CONFIG = _default_config()
_TRAJECTORY_DT = 1e-3   # time step of the trajectory checks


def _check_field(value, kind, path: str) -> None:
    # int() would run 1.5 and true as 1, float() the string "1.0"; json reads
    # NaN and Infinity as floats, and 1e400 written out as an int float() refuses
    accepts = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepts):
        raise ValidationError(f"{path} must be {_TYPE_NAMES[kind]}, not {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{path} must be a finite number, not {value!r}")


def _check_keys(node: dict, units: dict, path: str = "", section: str = "") -> None:
    """Every key of the config object at path against the SCHEMA fields of
    section, down through the sections and a noisy potential's base."""
    for key, value in node.items():
        where, field = (f"{path}.{key}", f"{section}.{key}") if path else (key, key)
        if field not in SCHEMA:
            raise ValidationError(f"unknown config key {where!r}")
        kind, unit, _ = SCHEMA[field]
        _check_field(value, kind, where)
        if unit and where == field and where not in units:
            raise ValidationError(f"missing unit annotation for {where!r} (expected {unit!r})")
        if field == "units":
            for annotated, given in value.items():
                expected = SCHEMA.get(annotated, (None, None))[1]
                if given != expected or expected is None:
                    raise ValidationError(
                        f"unit for {annotated!r} is {given!r}, expected {expected!r}")
        elif kind is dict:
            _check_keys(value, units, where, "potential" if field == "potential.base" else field)


def _potential_from_config(d: dict, seed: int, path: str = "potential") -> PotentialSpec:
    kind = d.get("kind", "free")
    if kind not in _KIND_FIELDS or (kind == "noisy" and path != "potential"):
        raise ValidationError(f"{path}.kind {kind!r} not supported "
                              "(noisy potentials do not nest)")
    takes = _KIND_FIELDS[kind]
    bad = sorted(set(d) - {"kind", *takes}) + sorted(set(takes) - set(d) - {"center"})
    if bad:
        raise ValidationError(f"{path}.{bad[0]} is {'missing' if bad[0] in takes else 'extra'} "
                              f"for kind {kind!r}, which takes {', '.join(takes) or 'none'}")
    if kind == "free":
        return PotentialSpec.free()
    if kind == "linear":
        return PotentialSpec.linear(d["slope"])
    if kind == "harmonic":
        return PotentialSpec.harmonic(d["stiffness"], d.get("center", 0.0))
    base = _potential_from_config(d["base"], seed, f"{path}.base")
    return PotentialSpec.noisy(base, d["noise_std"], RngStream(seed, 15))


def _build(section: str, make, *args):
    """make(*args) under the library's own argument checks, whose messages
    start with the field at fault, so the error names that field's path."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValidationError(f"invalid config: {section}.{exc}") from exc


class ExperimentConfig:
    """Validated configuration bundle; fully determines every run.  overrides
    maps SCHEMA paths to values that replace the merged config's."""

    def __init__(self, data: dict, overrides: dict | None = None):
        merged = {k: (dict(v) if isinstance(v, dict) else v) for k, v in DEFAULT_CONFIG.items()}
        for key, value in data.items():
            if key not in merged:
                raise ValidationError(f"unknown config key {key!r}")
            if isinstance(merged[key], dict):
                _check_field(value, dict, key)
                if key != "potential":   # potential kinds carry disjoint fields: replace
                    value = {**merged[key], **value}
            merged[key] = value
        for path, value in (overrides or {}).items():
            *section, key = path.split(".")
            (merged[section[0]] if section else merged)[key] = value
        _check_keys(merged, merged["units"])
        g, ph, d = merged["grid"], merged["physics"], merged["diffusion"]
        self.seed, self.out_dir, self.echo = merged["seed"], merged["out_dir"], merged
        self.grid = _build("grid", Grid, g["n_points"], float(g["x_min"]), float(g["x_max"]),
                           g["periodic"])
        self.physics = _build("physics", PhysicsParams, float(ph["hbar"]), float(ph["mass"]))
        self.kernel = _build("kernel", KernelSpace, self.grid, float(merged["kernel"]["sigma"]))
        self.diffusion = _build("diffusion", diff.DiffusionConfig, d["n_walkers"],
                                float(d["tau"]), float(d["diffusion_sigma"]))
        sigma = self.kernel.sigma
        if self.grid.length <= 36.0 * sigma:
            raise ValidationError(
                "grid must span more than 36 kernel widths: born-diffusion places up to "
                "5 centers 6 sigma apart inside 6 sigma margins")
        self.potential = _potential_from_config(merged["potential"], self.seed)
        # measured on the default cell: geometry passes to dx = 0.94 sigma, and
        # the free-packet checks of dynamics (width 0.5) fail near dx = 0.7;
        # a spacing above 0.9 x 0.5, which no width admits, is rejected before
        # the step guard squares the nodes of the cell, which overflows for a
        # huge one
        dx_max, rule = 0.9 * min(sigma, 0.5), "0.9 min(kernel.sigma, 0.5)"
        if self.grid.dx > 0.9 * 0.5:
            _check_spacing(self.grid, dx_max, rule)
        # the trajectory checks' start packet must pass the propagator's step guard
        self.q0 = GaussianParams(1.0, 0.0, sigma)
        try:
            dyn._validate_step(geo.realize(self.q0, self.grid, hbar=self.physics.hbar),
                               self.potential, self.physics, _TRAJECTORY_DT)
        except (ValueError, ArithmeticError) as exc:   # 0.0 ** -0.25 for a tiny sigma
            raise ValidationError(
                f"trajectory checks at dt = {_TRAJECTORY_DT:g}: {exc}") from exc
        _check_spacing(self.grid, dx_max, rule)

    def stream(self, stream_id: int) -> RngStream:
        return RngStream(self.seed, stream_id)


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError as exc:
            raise ValidationError(f"config file not found: {path}") from exc
        except (OSError, UnicodeDecodeError) as exc:   # a directory, no permission, not UTF-8
            raise ValidationError(f"config file {path!r} is unreadable: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:   # or nested too deep
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError("config root must be a JSON object")
    return ExperimentConfig(data, {path: overrides[flag] for flag, path in _FLAGS.items()
                                   if overrides.get(flag) is not None})


def _check_spacing(grid: Grid, dx_max: float, rule: str) -> None:
    if grid.dx > dx_max:
        need = grid.length / dx_max
        # past 2**31 points one complex array alone takes 32 GiB
        fix = (f"raise grid.n_points to at least {math.ceil(need)}" if need <= 2 ** 31 else
               f"narrow the cell grid.x_min, grid.x_max = {grid.x_min:g}, {grid.x_max:g}, "
               f"which needs {need:.3g} points")
        raise ValidationError(f"grid spacing dx = {grid.dx:.4g} exceeds {rule} = {dx_max:.4g}: "
                              f"{fix}")


def _check_born_width(cfg: ExperimentConfig) -> None:
    """The Born checks compare arrivals N(b, diffusion_sigma^2) with |phi_b|^2,
    whose width is kernel.sigma, so born-diffusion needs the two equal;
    solid-com and the PDE check take any width.  The Born bins are sigma/4
    wide, with reference masses from the grid CDF, which needs dx <= sigma/4."""
    sigma, sigma_d = cfg.kernel.sigma, cfg.diffusion.diffusion_sigma
    if abs(sigma_d - sigma) > 1e-12 * sigma:
        raise ValidationError(
            f"diffusion.diffusion_sigma ({sigma_d!r}) must equal kernel.sigma ({sigma!r}) "
            "for born-diffusion: the Born identity holds only for equal widths")
    _check_spacing(cfg.grid, sigma / 4.0, "kernel.sigma / 4 for born-diffusion")


def write_csv(path: Path, header: list[str], rows) -> None:
    path.unlink(missing_ok=True)   # ext4 flushes an overwritten file on close: ~40 ms each
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


# ---------------------------------------------------------------- sections

# packet widths the configured-potential trajectory keeps from the periodic
# seam: the density there is below exp(-18), so wrap-around cannot reach
# the 1e-4 deviation bound
_SEAM_WIDTHS = 6.0


def _seam_horizon(newton: tuple, t_max: float, V: PotentialSpec, phys: PhysicsParams,
                  grid: Grid, sigma: float) -> float:
    """Largest t <= t_max up to which the Newtonian trajectory newton = (t, a, p)
    over t_max, widened by _SEAM_WIDTHS packet widths
    (dynamics.packet_width_bound), stays inside the periodic cell."""
    t, a, _ = newton
    reach = _SEAM_WIDTHS * dyn.packet_width_bound(t, sigma, V, phys)
    clear = (a - reach > grid.x_min) & (a + reach < grid.x_max)
    if clear.all():
        return t_max
    n_clear = int(np.argmin(clear))
    if n_clear < 2:
        raise ValidationError(
            f"the packet from a = {a[0]:g} comes within {_SEAM_WIDTHS:g} widths of the "
            f"periodic seam at t = {t[n_clear]:.3g}, leaving no positive horizon for the "
            "configured-potential trajectory (widen the grid or weaken the potential)")
    return float(t[n_clear - 1])


def run_geometry(cfg: ExperimentConfig) -> Report:
    rep = Report("geometry-identities", cfg.echo)
    ks = cfg.kernel
    sigma = ks.sigma

    rep.add(check_upper("kernel-composition-max-entry",
                        float(np.abs(ks.composition_deviation()).max()),
                        1e-8, note="rho*rho vs kernel, operator max-entry norm"))

    seps = np.array([0.5, 1.0, 2.0, 4.0]) * sigma
    rows = []
    for s in seps:
        f = geo.embed_point(-s / 2.0, ks)
        g = geo.embed_point(+s / 2.0, ks)
        c2 = np.cos(geo.fs_distance(f, g)) ** 2
        ref = np.exp(-s ** 2 / (4.0 * sigma ** 2))
        rows.append((s / sigma, c2, ref, abs(c2 - ref)))
    rep.add(check_upper("overlap-distance-identity-max-dev", max(r[3] for r in rows), 1e-8))
    rep.tables["overlap_distance.csv"] = (
        ["separation_over_sigma", "cos2_fs_distance", "closed_form", "deviation"], rows)

    # kernel-space speed is |da/dt| / (2 sigma): distance is in units of 2 sigma
    speed = geo.h_norm_velocity(lambda t: 1.0 * t, ks)
    rep.add(check_rel("isometry-unit-speed", speed, 1.0 / (2.0 * sigma), 1e-4))
    rng = cfg.stream(20).generator()
    worst_rel = 0.0
    for _ in range(20):
        v = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
        a0 = float(rng.uniform(-2.0, 2.0))
        got = geo.h_norm_velocity(lambda t: a0 + v * t, ks)
        worst_rel = max(worst_rel, abs(2.0 * sigma * got - abs(v)) / abs(v))
    rep.add(check_upper("isometry-random-paths-max-rel-dev", worst_rel, 1e-4))

    v0, g0 = 0.8, 1.7
    path = lambda t: 0.3 + v0 * t + 0.5 * g0 * t * t
    rep.add(check_abs("path-projection-velocity",
                      geo.delta_path_projection(path, 1, ks), v0, 1e-3))
    rep.add(check_abs("path-projection-acceleration",
                      geo.delta_path_projection(path, 2, ks), g0, 1e-3))
    rep.add(check_abs("path-projection-uniform-acceleration-zero",
                      geo.delta_path_projection(lambda t: 0.1 + 1.3 * t, 2, ks), 0.0, 1e-3))

    q = GaussianParams(0.5, 0.7, sigma)
    eps_a = 1e-3 * 2.0 * sigma
    eps_p = 1e-3 * cfg.physics.hbar / sigma
    stencil_rows = []
    for ia in (-1, 0, 1):
        for ip in (-1, 0, 1):
            lhs, rhs = geo.fs_metric_restriction_check(
                q, ia * eps_a, ip * eps_p, cfg.grid, hbar=cfg.physics.hbar)
            dev = 0.0 if rhs == 0.0 else abs(lhs - rhs) / rhs
            stencil_rows.append((ia * eps_a, ip * eps_p, lhs, rhs, dev))
    rep.add(check_upper("fs-metric-restriction-max-rel-dev",
                        max(r[4] for r in stencil_rows), 1e-3))
    rep.tables["fs_metric_stencil.csv"] = (
        ["da", "dp", "fd_distance_sq", "closed_form", "rel_dev"], stencil_rows)

    rank, m = geo.completeness_rank(ks)
    rep.add(check_upper("completeness-rank-deficit", 1.0 - rank / m, 0.1,
                        note=f"rank {rank} of {m} sigma-spaced centers"))
    return rep


def run_dynamics(cfg: ExperimentConfig) -> Report:
    rep = Report("dynamics-checks", cfg.echo)
    grid, phys, sigma = cfg.grid, cfg.physics, cfg.kernel.sigma
    hbar = phys.hbar

    # velocity decomposition: closure + closed forms over a 5x5 phase-space sample
    pots = [("free", PotentialSpec.free()),
            ("linear", PotentialSpec.linear(0.7)),
            ("harmonic-far", PotentialSpec.harmonic(1e-3, center=-40.0))]
    a_vals = np.linspace(-2.0, 2.0, 5)
    p_vals = np.linspace(-1.0, 1.0, 5)
    worst_closure = 0.0
    worst_comp = 0.0
    dec_rows = []
    for name, V in pots:
        for a in a_vals:
            for p in p_vals:
                q = GaussianParams(float(a), float(p), sigma)
                d = dyn.velocity_decomposition(q, V, phys, grid)
                ref = dyn.closed_form_decomposition(q, V, phys)
                closure = abs(d.total_norm ** 2 - d.component_sum_sq) / d.total_norm ** 2
                worst_closure = max(worst_closure, closure)
                scale = max(abs(ref.total_norm), 1.0)
                comp_dev = max(
                    abs(d.fibre_component - ref.fibre_component),
                    abs(d.position_component - ref.position_component),
                    abs(d.momentum_component - ref.momentum_component),
                    abs(d.spread_component - ref.spread_component)) / scale
                worst_comp = max(worst_comp, comp_dev)
                dec_rows.append((name, a, p, d.fibre_component, d.position_component,
                                 d.momentum_component, d.spread_component,
                                 d.total_norm, closure, int(dyn.linearity_flag(q, V))))
    rep.add(check_upper("decomposition-closure-max-rel-dev", worst_closure, 1e-3))
    rep.add(check_upper("decomposition-closed-form-max-rel-dev", worst_comp, 1e-3))
    rep.tables["decomposition.csv"] = (
        ["potential", "a", "p", "fibre", "position", "momentum", "spread", "total_norm",
         "closure_rel_dev", "linearity_ok"], dec_rows)

    d = dyn.velocity_decomposition(GaussianParams(0.0, 1.0, 0.5), PotentialSpec.free(),
                                   PhysicsParams(1.0, 1.0), grid)
    rep.add(check_abs("free-packet-position-component", d.position_component, 1.0, 1e-3))
    rep.add(check_abs("free-packet-momentum-component", d.momentum_component, 0.0, 1e-3))
    rep.add(check_abs("free-packet-spread-component", d.spread_component,
                      np.sqrt(2.0) / 2.0, 1e-3))
    rep.add(check_abs("free-packet-fibre-component", d.fibre_component, 1.0, 1e-3))
    rep.add(check_abs("free-packet-total-norm-sq", d.total_norm ** 2, 2.5, 1e-3))

    # Ehrenfest residuals
    q0 = cfg.q0
    psi_h = geo.realize(q0, grid, hbar=hbar)
    r1, r2 = dyn.ehrenfest_check(psi_h, PotentialSpec.harmonic(1.0), phys, dt=1e-3)
    rep.add(check_upper("ehrenfest-harmonic-residual-x", r1, 1e-5))
    rep.add(check_upper("ehrenfest-harmonic-residual-p", r2, 1e-5))
    rf1, rf2 = dyn.ehrenfest_check(psi_h, PotentialSpec.free(), phys, dt=1e-3)
    rep.add(check_upper("ehrenfest-free-residual-x", rf1, 1e-8))
    rep.add(check_upper("ehrenfest-free-residual-p", rf2, 1e-8))
    qgrid = Grid(512, -10.0, 10.0, True)
    quartic = PotentialSpec((0.0, 0.0, 0.0, 0.0, 1.0))
    psi_q = geo.realize(GaussianParams(0.0, 0.0, 1.0), qgrid, hbar=hbar)
    rq1, _ = dyn.ehrenfest_check(psi_q, quartic, phys, dt=2e-5)
    rep.add(check_upper("ehrenfest-quartic-residual-x", rq1, 1e-5))

    # anticommutator identity, spectral route
    agrid = Grid(64, -8.0, 8.0, True)
    rng = cfg.stream(16).generator()
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    psi_r = StateVector(agrid, vals).normalized()
    Vh = PotentialSpec.harmonic(1.0)
    worst = max(dyn.anticommutator_identity_check(psi_r, "position", Vh, phys),
                dyn.anticommutator_identity_check(psi_r, "momentum", Vh, phys))
    rep.add(check_upper("anticommutator-identity-residual", worst, 1e-6))
    rep.add(check_upper("anticommutator-identity-identity-obs",
                        dyn.anticommutator_identity_check(psi_r, "identity", Vh, phys), 1e-8))

    # constrained classical motion: canonical harmonic case over one period,
    # then the configured potential up to its seam horizon, cut from its one
    # leapfrog run over 2 pi.  On the default config it is the canonical one.
    @functools.cache
    def newton(q, V, t_max):
        return dyn.newton_integrate(q.a, q.p, V, phys, t_max, _TRAJECTORY_DT)

    @functools.cache
    def paired(q, V, t_final, t_max):
        return dyn._paired_trajectories(q, V, phys, grid, t_final, _TRAJECTORY_DT,
                                        newton(q, V, t_max))

    def max_dev(q, V, t_final):
        _, xs, ps, xn, pn = paired(q, V, t_final, t_final)
        return float(np.max(np.abs(xs - xn))), float(np.max(np.abs(ps - pn)))

    dev_x, dev_p = max_dev(q0, PotentialSpec.harmonic(1.0), 2.0 * np.pi)
    rep.add(check_upper("constrained-motion-harmonic-max-dev-x", dev_x, 1e-4))
    rep.add(check_upper("constrained-motion-harmonic-max-dev-p", dev_p, 1e-4))
    devf_x, _ = max_dev(GaussianParams(0.0, 1.0, sigma), PotentialSpec.free(), 1.0)
    rep.add(check_upper("constrained-motion-free-max-dev-x", devf_x, 1e-6))

    t_max = 2.0 * np.pi
    horizon = _seam_horizon(newton(q0, cfg.potential, t_max), t_max, cfg.potential,
                            phys, grid, sigma)
    t, xs, ps, xn, pn = paired(q0, cfg.potential, horizon, t_max)
    rep.add(check_upper("constrained-motion-config-max-dev-x",
                        float(np.max(np.abs(xs - xn))), 1e-4,
                        note=f"configured potential over t={horizon:.3g}"))
    rep.tables["trajectory.csv"] = (["t", "x_packet", "p_packet", "x_newton", "p_newton"],
                                    list(zip(t, xs, ps, xn, pn)))

    # unitarity, including a noisy potential
    noisy = PotentialSpec.noisy(PotentialSpec.harmonic(1.0), 0.5, cfg.stream(15))
    psi_n = dyn.propagate(psi_h, noisy, phys, 1.0, 1e-3)
    rep.add(check_abs("unitarity-noisy-norm", psi_n.norm(), 1.0, 1e-8))

    # projective speed equals energy uncertainty / hbar
    worst = 0.0
    for _ in range(5):
        vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
        psi = StateVector(grid, vals).normalized()
        speed, dh = dyn.projective_speed(psi, Vh, phys)
        worst = max(worst, abs(speed - dh / hbar) / max(dh / hbar, 1e-12))
    rep.add(check_upper("projective-speed-vs-energy-uncertainty", worst, 1e-3))
    return rep


def run_reconstruct(cfg: ExperimentConfig) -> Report:
    rep = Report("reconstruct", cfg.echo)
    phys = cfg.physics
    rows = []
    pots = {"free": PotentialSpec.free(), "linear": PotentialSpec.linear(0.7),
            "harmonic": PotentialSpec.harmonic(1.0)}
    # the n = 32 triples also serve the null dimension and the null test
    ops32 = {name: rec.build_operators(32, phys, V.coeffs) for name, V in pots.items()}
    for name, ops in ops32.items():
        res = rec.solve_hamiltonian(ops, phys)
        rep.add(check_upper(f"block-error-{name}", res.block_error, 1e-6))
        rep.add(check_upper(f"gauge-constant-{name}", abs(res.gauge_constant), 1e-6))
        rows.append((name, 32, res.interior, res.block_error, res.residual_x,
                     res.residual_p, res.gauge_constant))
    for n in (16, 32, 64):
        ops = (ops32["harmonic"] if n == 32
               else rec.build_operators(n, phys, pots["harmonic"].coeffs))
        dim = rec.kernel_of_constraints(ops)
        rep.add(check_abs(f"constraint-kernel-dimension-n{n}", dim, 1.0, 0.0))

    ops = ops32["free"]
    rng = cfg.stream(21).generator()
    gmat = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    fbad = (gmat + gmat.conj().T) / 2.0
    bad_ops = rec.OperatorTriple(n=32, buffer=4, X=ops.X, P=ops.P, F=fbad,
                                 v_coeffs=ops.v_coeffs)
    res_bad = rec.solve_hamiltonian(bad_ops, phys)
    ratio = res_bad.residual_p / np.linalg.norm(fbad)
    rep.add(CheckRecord("null-test-inconsistent-force", float(ratio), 1e-2, 1e-2,
                        ratio > 1e-2, "lower",
                        "residual_p must stay away from zero for a non-gradient force"))
    rep.tables["reconstruct.csv"] = (["potential", "n", "interior", "block_error",
                                      "residual_x", "residual_p", "gauge_constant"], rows)
    return rep


# false-alarm rate of each of born-diffusion's two statistical checks; the
# pair fails correct sampling on at most 2 alpha of seeds
_BORN_ALPHA = 0.005


def run_born_diffusion(cfg: ExperimentConfig) -> Report:
    rep = Report("born-diffusion", cfg.echo)
    ks, dcfg = cfg.kernel, cfg.diffusion

    def superposition(case: int):
        psi, dec = diff.random_superposition(ks, cfg.stream(11).child(case))
        est = diff.simulate_state_diffusion(psi, dcfg, cfg.stream(12).child(case), ks, dec)
        return dec.centers, est

    def single_component_l1():
        psi = geo.embed_point(0.0, ks)
        dec = diff.decompose_state(psi, ks, [0.0])
        return diff.simulate_state_diffusion(psi, dcfg, cfg.stream(18), ks, dec).l1_error

    def two_component_split():
        b1, b2 = -3.0 * ks.sigma, 3.0 * ks.sigma
        v2 = (0.6 * geo.embed_point(b1, ks).values + 0.8 * geo.embed_point(b2, ks).values)
        psi = StateVector(cfg.grid, v2).normalized()
        dec = diff.decompose_state(psi, ks, [b1, b2])
        est = diff.simulate_state_diffusion(psi, dcfg, cfg.stream(19), ks, dec)
        return float(est.component_masses[0]), float(est.expected_weights[0])

    # single- and two-component states, the PDE march and 10 random
    # superpositions: independent ensembles, each on its own stream.  The
    # first three return only what their checks read and run first, so their
    # walker arrays are freed before the superpositions' KS samples pile up.
    jobs = [single_component_l1, two_component_split,
            functools.partial(diff.verify_diffusion_pde, dcfg, cfg.stream(13)),
            *(functools.partial(superposition, case) for case in range(10))]
    pool = diff._pool()
    futures = [pool.submit(job) for job in jobs]

    # meanwhile on this thread, the transition density: exchange
    # symmetry and unitary invariance
    agrid = Grid(64, -8.0, 8.0, True)
    rng = cfg.stream(17).generator()
    worst_sym = worst_inv = 0.0
    for _ in range(20):
        fa = StateVector(agrid, rng.standard_normal(64) + 1j * rng.standard_normal(64)).normalized()
        fb = StateVector(agrid, rng.standard_normal(64) + 1j * rng.standard_normal(64)).normalized()
        d_ab = diff.density_functional(fa, fb, ks.sigma)
        d_ba = diff.density_functional(fb, fa, ks.sigma)
        worst_sym = max(worst_sym, abs(d_ab - d_ba))
        U = diff.random_unitary(64, rng)
        # both states in one product: two mat-vecs would each wake the BLAS threads
        ua, ub = (StateVector(agrid, v) for v in np.stack([fa.values, fb.values]) @ U.T)
        worst_inv = max(worst_inv, abs(diff.density_functional(ua, ub, ks.sigma) - d_ab))

    l1_single, (mass_two, weight_two), pde, *cases = [f.result() for f in futures]

    rep.add(check_upper("pde-heat-kernel-sup-residual", pde.max_sup_residual, 0.03))
    var_dev = float(np.max(np.abs(pde.variances / pde.expected_variances - 1.0)))
    rep.add(check_upper("pde-variance-additivity-rel-dev", var_dev, 0.05))

    mass_rows = []
    for case, (centers, est) in enumerate(cases):
        for j, (w, mass) in enumerate(zip(est.expected_weights, est.component_masses)):
            sd = np.sqrt(w * (1.0 - w) / est.n_walkers)
            z = (mass - w) / sd if sd > 0 else 0.0
            mass_rows.append((case, j, centers[j], w, mass, sd, z))
    estimates = [est for _, est in cases]
    rep.add(check_upper("born-l1-error-max", max(est.l1_error for est in estimates), 0.02,
                        note="total-variation distance to |psi|^2, 10 superpositions"))
    chi2, df, chi2_bound = diff.component_mass_chi2(estimates, _BORN_ALPHA)
    rep.add(check_upper("born-component-mass-chi2", chi2, chi2_bound,
                        note=f"Pearson chi2 of the component counts, df {df}, "
                             f"alpha {_BORN_ALPHA:g}"))
    ks_pooled, ks_bound = diff.pooled_arrival_ks(estimates, _BORN_ALPHA)
    rep.add(check_upper("born-arrival-ks-pooled", ks_pooled, ks_bound,
                        note="Kolmogorov-Smirnov of the arrivals, each through its own "
                             f"component's law, pooled over 10 superpositions, alpha {_BORN_ALPHA:g}"))
    rep.tables["born_masses.csv"] = (["case", "component", "center", "expected_weight",
                                      "observed_mass", "binomial_sd", "z_score"], mass_rows)
    est0 = estimates[0]
    rep.tables["born_histogram.csv"] = (["bin_left", "bin_right", "count", "density",
                                         "reference_density"],
                                        list(zip(est0.bin_edges[:-1], est0.bin_edges[1:], est0.counts,
                                                 est0.density, est0.reference_density)))

    rep.add(check_upper("transition-density-exchange-symmetry", worst_sym, 0.0))
    rep.add(check_upper("transition-density-unitary-invariance", worst_inv, 1e-8))
    rep.add(check_upper("single-component-l1-error", l1_single, 0.02))
    rep.add(check_abs("two-component-mass-split", mass_two, weight_two, 0.01))
    return rep


def run_solid_com(cfg: ExperimentConfig) -> Report:
    rep = Report("solid-com", cfg.echo)
    dcfg = cfg.diffusion
    kick = dcfg.diffusion_sigma
    k_estimates, rows = [], []
    for i, n_cells in enumerate((1, 10, 100)):
        k_est = diff.solid_com_diffusion(n_cells, kick, dcfg, cfg.stream(14).child(i))
        k_estimates.append(k_est)
        # k_1 is 0 only for a single walker, whose every estimate is 0
        ratio = k_est / k_estimates[0] if k_estimates[0] else 0.0
        rows.append((n_cells, k_est, ratio, 1.0 / n_cells))
    for (n_cells, k_est, ratio, expected) in rows:
        rep.add(check_rel(f"com-suppression-n{n_cells}", ratio, expected, 0.10))
    rep.add(check_upper("com-suppression-monotone",
                        float(max(np.diff(k_estimates))), 0.0,
                        note="diffusion coefficient decreases with n_cells"))
    zero = diff.solid_com_diffusion(10, 0.0, dataclasses.replace(dcfg, n_walkers=1000),
                                    cfg.stream(14).child(9))
    rep.add(check_abs("com-zero-kick", zero, 0.0, 0.0))
    rep.tables["solid_scaling.csv"] = (["n_cells", "k_estimate", "ratio_to_single",
                                        "expected_ratio"], rows)
    return rep


SECTIONS = {
    "geometry-identities": run_geometry,
    "dynamics-checks": run_dynamics,
    "reconstruct": run_reconstruct,
    "born-diffusion": run_born_diffusion,
    "solid-com": run_solid_com,
}


# exit codes of a section that raises; any other exception is a section error (4)
_ERROR_CODES = ((ValidationError, 2), (NumericalBreakdownError, 3))


def _run_section(name: str, cfg: ExperimentConfig) -> tuple[Report, int]:
    """One section and its exit code.  An exception becomes a failing
    ``section-error`` check and a one-line message, so the run's other
    sections are still reported."""
    try:
        return SECTIONS[name](cfg), 0
    except Exception as exc:
        code = next((c for kind, c in _ERROR_CODES if isinstance(exc, kind)), 4)
        msg = f"{type(exc).__name__}: {exc}"
        print(f"section error in {name}: {msg}", file=sys.stderr)
        return Report(name, cfg.echo, [check_upper("section-error", 1.0, 0.0, note=msg)]), code


def run_all(cfg: ExperimentConfig) -> tuple[Report, int]:
    """Every section, joined in SECTIONS order.  solid-com starts first, on
    diffusion's waiter thread, where it only submits its walker blocks to
    diffusion's pool and waits for them; so the blocks fill the cores while
    the other sections run in order on the calling thread, and its result is
    read last.  Only the walker ensembles of born-diffusion and solid-com
    run in parallel; no output depends on the core count, since each
    ensemble draws from its own stream."""
    early = diff._waiter().submit(_run_section, "solid-com", cfg)
    results = {name: _run_section(name, cfg) for name in SECTIONS if name != "solid-com"}
    results["solid-com"] = early.result()
    rep = Report("all", cfg.echo)
    for name in SECTIONS:
        sub, _ = results[name]
        rep.checks += [dataclasses.replace(c, name=f"{name}/{c.name}") for c in sub.checks]
        rep.tables.update(sub.tables)
    return rep, max(code for _, code in results.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="statelab",
        description="Run the verification experiment suites with reproducible "
                    "configuration and machine-readable reports.")
    parser.add_argument("subcommand", choices=sorted(SECTIONS) + ["all"])
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--walkers", type=int, default=None,
                        help="override diffusion.n_walkers")
    parser.add_argument("--grid", type=int, default=None, help="override grid.n_points")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = load_config(args.config, vars(args))
        if args.subcommand in ("born-diffusion", "all"):
            _check_born_width(cfg)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:   # a grid too large to build, e.g. --grid 1000000000
        print(f"config error: out of memory validating the config: "
              f"{exc or type(exc).__name__}", file=sys.stderr)
        return 2

    out = Path(args.out or cfg.out_dir or "statelab-out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:   # an existing file on the path, or no permission
        print(f"config error: output directory {str(out)!r}: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    if args.subcommand == "all":
        report, code = run_all(cfg)
    else:
        report, code = _run_section(args.subcommand, cfg)
    elapsed = time.perf_counter() - started

    try:
        for name, (header, rows) in report.tables.items():
            write_csv(out / name, header, rows)
        with open(out / "report.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_json())
    except OSError as exc:   # a directory on an output's path, a full disk
        print(f"config error: output directory {str(out)!r}: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    # timing goes to the console only; report files must be run-to-run identical
    print(f"wall time: {elapsed:.2f} s; outputs in {out}")
    return max(code, 0 if report.overall_pass else 1)


if __name__ == "__main__":
    raise SystemExit(main())
