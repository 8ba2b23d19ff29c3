"""Wave-packet propagation, Newtonian integration and velocity-of-state analysis.

The propagator is Strang split-step spectral (exactly unitary per step,
second order in dt; Feit, Fleck & Steiger, J. Comput. Phys. 47, 412, 1982).
Its kernel walks the intervals between records in one per-call buffer that
scipy.fft's transforms overwrite: adjacent half kicks merge into one full
kick and the inverse transform's 1/N rides on the kinetic phase, so the
result matches the one-line loop exp_v2 * ifft(exp_kin * fft(exp_v2 * vals))
to round-off (1e-12 in the tests), not bit for bit.  Classical trajectories
use symplectic leapfrog, with the force evaluated on Python floats through
the same polynomial evaluator as the grid values.  The velocity-of-state
decomposition projects d(phi)/dt onto the fibre direction, the two
phase-space tangent directions and the spreading direction; the four squared
components sum to the squared speed of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.fft
from numpy.polynomial.polynomial import polyder

from .numerics import (Grid, RngStream, StateVector, fft, inner_l2, quadrature,
                       spectral_derivative)
from .geometry import GaussianParams, _packet_directions, realize


@dataclass(frozen=True)
class PhysicsParams:
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


def _polynomial(coeffs, u):
    """sum_k coeffs[k] u^k over the nonzero terms, on an array or a Python
    float; each term is formed as c * u**k, so a one-term V costs what its
    closed form costs."""
    out = None
    for k, c in enumerate(coeffs):
        if c:
            term = c * u ** k
            out = term if out is None else out + term
    if out is None:
        return np.zeros_like(u) if isinstance(u, np.ndarray) else 0.0
    return out


@dataclass(frozen=True)
class PotentialSpec:
    """Potential V(x), optionally with reproducible per-step noise.

    V is the polynomial sum_k coeffs[k] (x - center)^k, evaluated by
    value_at.  Potentials compare and hash by value: trailing zero
    coefficients are dropped.  With a noise stream, a random linear slope of
    standard deviation noise_std is added, redrawn each propagation step
    from the stream, so stochastic runs stay piecewise-unitary and
    bit-reproducible.

    samples, built by tabulated, holds grid values that only values() reads;
    value_at refuses them.
    """

    coeffs: tuple = (0.0,)
    center: float = 0.0
    samples: Optional[tuple] = None
    noise_std: float = 0.0
    noise_stream: Optional[RngStream] = None

    def __post_init__(self):
        coeffs = [float(c) for c in self.coeffs] or [0.0]
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))
        if self.noise_std and self.noise_stream is None:
            raise ValueError("noisy potential without an RngStream")

    @classmethod
    def free(cls) -> "PotentialSpec":
        return cls()

    @classmethod
    def linear(cls, slope: float) -> "PotentialSpec":
        return cls((0.0, slope))

    @classmethod
    def harmonic(cls, stiffness: float, center: float = 0.0) -> "PotentialSpec":
        return cls((0.0, 0.0, 0.5 * float(stiffness)), float(center))

    # src/ builds none; kept, with samples and the grid branch of values,
    # because perfbench/workloads.py passes one to ehrenfest_check
    @classmethod
    def tabulated(cls, samples: np.ndarray) -> "PotentialSpec":
        return cls(samples=tuple(np.asarray(samples, dtype=float).tolist()))

    @classmethod
    def noisy(cls, base: "PotentialSpec", noise_std: float, stream: RngStream) -> "PotentialSpec":
        if base.noise_stream is not None:
            raise ValueError("noisy potentials cannot be nested")
        return replace(base, noise_std=float(noise_std), noise_stream=stream)

    @cached_property
    def _derivatives(self) -> tuple:
        """Coefficients of V, V' and V'', built once per potential."""
        d1 = polyder(self.coeffs)
        return self.coeffs, tuple(d1.tolist()), tuple(polyder(d1).tolist())

    def values(self, grid: Grid, order: int = 0) -> np.ndarray:
        """Static part of V (noise excluded), or its derivative of order 1
        or 2, sampled on the grid; tabulated samples are differentiated
        spectrally."""
        if self.samples is None:
            return self.value_at(grid.x, order)
        if len(self.samples) != grid.n_points:
            raise ValueError("tabulated potential does not match the grid")
        v = np.array(self.samples)
        if not np.all(np.isfinite(v)):
            raise ValueError("tabulated potential has non-finite samples")
        if order:
            return spectral_derivative(StateVector(grid, v), order=order).values.real
        return v

    def value_at(self, x, order: int = 0):
        """V or its derivative of order 1 or 2 at x, a float or an ndarray;
        a float stays a Python float, so the leapfrog runs on floats."""
        if self.samples is not None:
            raise ValueError("tabulated potential has no point evaluation")
        return _polynomial(self._derivatives[order], x - self.center)

    def noise_slopes(self, n_steps: int) -> np.ndarray:
        if self.noise_stream is None:
            return np.zeros(n_steps)
        return self.noise_std * self.noise_stream.generator().standard_normal(n_steps)


def expect_x(psi: StateVector) -> float:
    return quadrature(psi.grid, psi.grid.x * psi.density()).real


def apply_momentum(psi: StateVector, phys: PhysicsParams) -> StateVector:
    return StateVector(psi.grid, -1j * phys.hbar * spectral_derivative(psi).values)


def expect_p(psi: StateVector, phys: PhysicsParams) -> float:
    return inner_l2(apply_momentum(psi, phys), psi).real


def apply_hamiltonian(psi: StateVector, V: PotentialSpec, phys: PhysicsParams) -> StateVector:
    """h psi with h = -hbar^2/(2m) d^2/dx^2 + V(x), kinetic part spectral."""
    g = psi.grid
    kin = -(phys.hbar ** 2) / (2.0 * phys.mass) * spectral_derivative(psi, order=2).values
    return StateVector(g, kin + V.values(g) * psi.values)


def _occupied_bandwidth(psi: StateVector) -> float:
    """Largest |k| whose Fourier amplitude exceeds 1e-12 of the peak."""
    spectrum = np.abs(fft(psi.values))
    mask = spectrum > 1e-12 * spectrum.max()
    return float(np.max(np.abs(psi.grid.wavenumbers[mask])))


def _validate_step(psi: StateVector, V: PotentialSpec, phys: PhysicsParams,
                   dt: float) -> np.ndarray:
    """Reject a step whose phase advance is unresolvable; returns V's static
    grid values, which the propagation then reuses."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    v = V.values(psi.grid)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential is not finite on the grid")
    # phase advance per step must stay resolvable for the occupied modes
    k_eff = _occupied_bandwidth(psi)
    kin_phase = phys.hbar * k_eff ** 2 * dt / (2.0 * phys.mass)
    pot_phase = np.max(np.abs(v)) * dt / phys.hbar
    if max(kin_phase, pot_phase) >= 0.5:
        raise ValueError(
            f"dt too large: per-step phase advance {max(kin_phase, pot_phase):.3g} rad "
            "exceeds 0.5 (refine dt or the grid)")
    return v


def propagate(psi: StateVector, V: PotentialSpec, phys: PhysicsParams,
              t_final: float, dt: float) -> StateVector:
    """Evolve psi to t_final with the Strang split-step spectral propagator.

    Each step is exactly unitary; the splitting error is second order in dt.
    Noisy potentials are piecewise constant per step, with slopes drawn from
    the potential's RngStream.
    """
    v = _validate_step(psi, V, phys, dt)
    n_steps = max(1, int(round(t_final / dt)))
    dt_eff = t_final / n_steps
    out, _ = _run_steps(psi, V, v, phys, n_steps, dt_eff)
    return out


def _linear_phase(g: Grid):
    """A function sigma -> exp(i sigma x_j) at the nodes x_j = x_min + j dx.

    With j = a m + b and m = ceil(sqrt N), the phase is the outer product of
    exp(i sigma x_{a m}) and exp(i sigma b dx): about 2 sqrt(N) complex
    exponentials instead of N.  Each call overwrites the one buffer of this
    function and returns a view of it."""
    m = math.isqrt(g.n_points - 1) + 1
    x_rows = g.x_min + g.dx * (m * np.arange(-(-g.n_points // m)))
    x_cols = g.dx * np.arange(m)
    table = np.empty((len(x_rows), m), dtype=complex)
    flat = table.reshape(-1)[:g.n_points]

    def phase(sigma: float) -> np.ndarray:
        np.multiply(np.exp(1j * sigma * x_rows)[:, None], np.exp(1j * sigma * x_cols),
                    out=table)
        return flat
    return phase


def _run_steps(psi: StateVector, V: PotentialSpec, v: np.ndarray, phys: PhysicsParams,
               n_steps: int, dt: float, record_every: int = 0):
    """n_steps Strang steps of size dt from psi, with v = V.values(psi.grid);
    with record_every, (t, <x>, <p>) at the start, every record_every steps
    and at the end.  Returns (final state, records).

    Between two records the closing half kick of a step and the opening half
    kick of the next are one full kick, the inverse transform's 1/N rides on
    the kinetic phase, and a noisy kick is the static one times a linear
    phase built by _linear_phase.  A constant V without noise commutes with
    the drift, so an interval of n steps is one kinetic phase of n dt."""
    g, n = psi.grid, psi.grid.n_points
    drift = phys.hbar * g.wavenumbers ** 2 / (2.0 * phys.mass)
    ends = list(range(record_every, n_steps, record_every)) if record_every else []
    ends.append(n_steps)
    records = [(0.0, expect_x(psi), expect_p(psi, phys))] if record_every else []
    # vals and work belong to this call, so the transforms may overwrite them
    vals = psi.values.copy()
    noisy = V.noise_stream is not None
    constant = not noisy and v.min() == v.max()
    if constant:
        rate, phases = drift + v[0] / phys.hbar, {}
    else:
        exp_kin = np.exp(-1j * dt * drift) / n
        half = dt / (2.0 * phys.hbar)
        kick2, kick = np.exp(-1j * half * v), np.exp(-2j * half * v)
        work = np.empty_like(vals)
        if noisy:
            slopes, phase = V.noise_slopes(n_steps), _linear_phase(g)
    start = 0
    for end in ends:
        if constant:
            if end - start not in phases:
                phases[end - start] = np.exp(-1j * ((end - start) * dt) * rate) / n
            work = scipy.fft.fft(vals, overwrite_x=True)
            np.multiply(work, phases[end - start], out=work)
            vals = scipy.fft.ifft(work, overwrite_x=True, norm="forward")
        else:
            np.multiply(vals, kick2, out=work)
            if noisy:
                np.multiply(work, phase(-half * slopes[start]), out=work)
            for s in range(start, end):
                if s > start:   # step s-1's closing half kick and step s's opening one
                    np.multiply(work, kick, out=work)
                    if noisy:
                        np.multiply(work, phase(-half * (slopes[s - 1] + slopes[s])), out=work)
                work = scipy.fft.fft(work, overwrite_x=True)
                np.multiply(work, exp_kin, out=work)
                work = scipy.fft.ifft(work, overwrite_x=True, norm="forward")
            np.multiply(work, kick2, out=vals)
            if noisy:
                np.multiply(vals, phase(-half * slopes[end - 1]), out=vals)
        if record_every:
            cur = StateVector(g, vals)
            records.append((end * dt, expect_x(cur), expect_p(cur, phys)))
        start = end
    return StateVector(g, vals), records


# (t, <x>, <p>) records a packet trajectory takes, about evenly spaced
_N_RECORDS = 64


def wavepacket_trajectory(psi: StateVector, V: PotentialSpec, phys: PhysicsParams,
                          t_final: float, dt: float):
    """Propagate while recording (t, <x>, <p>) about _N_RECORDS times;
    returns (times, xs, ps, final)."""
    v = _validate_step(psi, V, phys, dt)
    n_steps = max(1, int(round(t_final / dt)))
    dt_eff = t_final / n_steps
    every = max(1, n_steps // _N_RECORDS)
    final, recs = _run_steps(psi, V, v, phys, n_steps, dt_eff, record_every=every)
    t, xs, ps = (np.array(col) for col in zip(*recs))
    return t, xs, ps, final


def newton_integrate(a0: float, p0: float, V: PotentialSpec, phys: PhysicsParams,
                     t_final: float, dt: float):
    """Leapfrog (kick-drift-kick) trajectory; symplectic and time-reversible.

    Returns (times, positions, momenta) including the initial point.  Noisy
    potentials contribute the same per-step random slopes the propagator
    uses (piecewise-constant force), so packet and point see one noise
    realization.  The steps run on Python floats, with V' from value_at,
    which refuses a tabulated V.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = max(1, int(round(t_final / dt)))
    dt_eff = t_final / n_steps
    slopes = V.noise_slopes(n_steps).tolist()
    a, p = [float(a0)], [float(p0)]
    for s in range(n_steps):
        p_half = p[s] + 0.5 * dt_eff * (-V.value_at(a[s], 1) - slopes[s])
        a.append(a[s] + dt_eff * p_half / phys.mass)
        p.append(p_half + 0.5 * dt_eff * (-V.value_at(a[s + 1], 1) - slopes[s]))
    return dt_eff * np.arange(n_steps + 1), np.array(a), np.array(p)


def packet_width_bound(t, sigma: float, V: PotentialSpec, phys: PhysicsParams) -> np.ndarray:
    """Upper bound on the packet width along the evolution.

    Polynomials of degree at most 1 spread exactly like the free packet,
    sigma(t)^2 = sigma^2 + (hbar t / 2 m sigma)^2.  A quadratic well of
    frequency omega makes the width breathe,
    sigma(t)^2 = sigma^2 cos^2(omega t) + (hbar / 2 m omega sigma)^2 sin^2(omega t),
    which stays under both the larger of sigma and the coherent-state width
    and the free curve (|sin(omega t)| <= omega t), so the bound is their
    minimum.  Noise adds a linear slope only and does not change the width.
    For other potentials the free-spreading curve is a heuristic, not a
    bound.
    """
    t = np.asarray(t, dtype=float)
    free = sigma * np.sqrt(1.0 + (phys.hbar * t / (2.0 * phys.mass * sigma**2)) ** 2)
    c = V.coeffs
    if len(c) == 3 and c[2] > 0:
        omega = np.sqrt(2.0 * c[2] / phys.mass)
        return np.minimum(free, max(sigma, phys.hbar / (2.0 * phys.mass * omega * sigma)))
    return free


@dataclass(frozen=True)
class VelocityDecomposition:
    """Named components of d(phi)/dt at a phase-space point, all in 1/time.

    total_norm^2 equals the sum of the four squared components (exactly for
    potentials at most quadratic).
    """

    fibre_component: float
    position_component: float
    momentum_component: float
    spread_component: float
    total_norm: float

    @property
    def component_sum_sq(self) -> float:
        return (self.fibre_component ** 2 + self.position_component ** 2
                + self.momentum_component ** 2 + self.spread_component ** 2)


def linearity_flag(q: GaussianParams, V: PotentialSpec) -> bool:
    """True when V is effectively linear across the packet width at q.a:
    |V''| sigma stays under 5% of |V'|, the regime where
    closed_form_decomposition holds."""
    v1 = abs(V.value_at(q.a, 1))
    v2 = abs(V.value_at(q.a, 2))
    return v2 * q.sigma / max(v1, 1e-6) < 0.05


def velocity_decomposition(q: GaussianParams, V: PotentialSpec, phys: PhysicsParams,
                           grid: Grid) -> VelocityDecomposition:
    """Project d(phi)/dt = -(i/hbar) h phi onto the fibre, position, momentum
    and spreading unit directions at the packet realize(q).

    The projections are Riemannian (real parts of L2 inner products), and
    they hold for every V; linearity_flag tells whether the closed forms
    of closed_form_decomposition apply at q.
    """
    phi, pos_dir, mom_dir, sp_dir = _packet_directions(q, grid, phys.hbar)
    hphi = apply_hamiltonian(phi, V, phys)
    dphi = StateVector(grid, -1j * hphi.values / phys.hbar)

    e_bar = inner_l2(hphi, phi).real
    h2 = inner_l2(hphi, hphi).real

    fibre = e_bar / phys.hbar
    pos = inner_l2(dphi, pos_dir).real
    mom = inner_l2(dphi, mom_dir).real
    spread = inner_l2(dphi, sp_dir).real
    total = float(np.sqrt(h2)) / phys.hbar
    return VelocityDecomposition(
        fibre_component=float(fibre), position_component=float(pos),
        momentum_component=float(mom), spread_component=float(spread),
        total_norm=total)


def closed_form_decomposition(q: GaussianParams, V: PotentialSpec, phys: PhysicsParams,
                              grid: Optional[Grid] = None) -> VelocityDecomposition:
    """Closed forms of the four components in the potential-linearity regime:
    Ebar/hbar, v/(2 sigma), m w sigma/hbar with m w = -V'(a), and
    sqrt(2) hbar/(8 sigma^2 m).  grid is unread, and kept because
    perfbench/workloads.py passes it."""
    hbar, m, s = phys.hbar, phys.mass, q.sigma
    v = q.p / m
    w = -V.value_at(q.a, 1) / m
    e_bar = q.p ** 2 / (2 * m) + hbar ** 2 / (8 * m * s ** 2) + V.value_at(q.a)
    comps = np.array([e_bar / hbar, v / (2 * s), m * w * s / hbar,
                      np.sqrt(2.0) * hbar / (8 * s ** 2 * m)])
    total = float(np.sqrt(np.sum(comps[1:] ** 2) + comps[0] ** 2))
    return VelocityDecomposition(*comps, total)


def projective_speed(psi: StateVector, V: PotentialSpec, phys: PhysicsParams):
    """Speed of the ray {psi} under Schroedinger evolution and the energy
    uncertainty; the two are related by speed = Delta_h / hbar."""
    hpsi = apply_hamiltonian(psi, V, phys)
    e_bar = inner_l2(hpsi, psi).real
    h2 = inner_l2(hpsi, hpsi).real
    total_sq = h2 / phys.hbar ** 2
    speed = float(np.sqrt(max(total_sq - (e_bar / phys.hbar) ** 2, 0.0)))
    dh = float(np.sqrt(max(h2 - e_bar ** 2, 0.0)))
    return speed, dh


def ehrenfest_check(psi: StateVector, V: PotentialSpec, phys: PhysicsParams,
                    dt: float = 1e-3):
    """Residuals |d<x>/dt - <p>/m| and |d<p>/dt + <V'>| from one centered
    propagation step each way."""
    v = _validate_step(psi, V, phys, dt)
    plus, _ = _run_steps(psi, V, v, phys, 1, dt)
    minus, _ = _run_steps(psi, V, v, phys, 1, -dt)
    dx_dt = (expect_x(plus) - expect_x(minus)) / (2.0 * dt)
    dp_dt = (expect_p(plus, phys) - expect_p(minus, phys)) / (2.0 * dt)
    vprime = quadrature(psi.grid, V.values(psi.grid, order=1) * psi.density()).real
    res1 = abs(dx_dt - expect_p(psi, phys) / phys.mass)
    res2 = abs(dp_dt + vprime)
    return res1, res2


_OBSERVABLES = ("position", "momentum", "identity")


def anticommutator_identity_check(psi: StateVector, observable: str,
                                  V: PotentialSpec, phys: PhysicsParams) -> float:
    """Residual of 2 hbar (dpsi/dt, -i A psi) = (psi, {A,h} psi) - (psi, [A,h] psi)
    with dpsi/dt = -(i/hbar) h psi evaluated spectrally."""
    if observable not in _OBSERVABLES:
        raise ValueError(f"observable must be one of {_OBSERVABLES}")

    def apply_a(f: StateVector) -> StateVector:
        if observable == "position":
            return StateVector(f.grid, f.grid.x * f.values)
        if observable == "momentum":
            return apply_momentum(f, phys)
        return f

    hpsi = apply_hamiltonian(psi, V, phys)
    dpsi = StateVector(psi.grid, -1j * hpsi.values / phys.hbar)
    a_psi = apply_a(psi)
    lhs = 2.0 * phys.hbar * inner_l2(dpsi, StateVector(psi.grid, -1j * a_psi.values))
    a_h = apply_a(hpsi)
    h_a = apply_hamiltonian(a_psi, V, phys)
    anti = StateVector(psi.grid, a_h.values + h_a.values)
    comm = StateVector(psi.grid, a_h.values - h_a.values)
    rhs = inner_l2(psi, anti) - inner_l2(psi, comm)
    return abs(lhs - rhs)


def _paired_trajectories(q0: GaussianParams, V: PotentialSpec, phys: PhysicsParams,
                         grid: Grid, t_final: float, dt: float, newton=None):
    """The packet's recorded (t, <x>, <p>) and the leapfrog trajectory started
    at the same phase-space point, sampled at the record times: newton, if
    given (a newton_integrate result on this step to t_final or beyond)."""
    psi = realize(q0, grid, hbar=phys.hbar)
    t, xs, ps, _ = wavepacket_trajectory(psi, V, phys, t_final, dt)
    n_steps = max(1, int(round(t_final / dt)))
    dt_eff = t_final / n_steps
    _, aa, pp = newton or newton_integrate(q0.a, q0.p, V, phys, t_final, dt_eff)
    idx = np.rint(t / dt_eff).astype(int)
    return t, xs, ps, aa[idx], pp[idx]


def constrained_motion_check(q0: GaussianParams, V: PotentialSpec, phys: PhysicsParams,
                             grid: Grid, t_final: float, dt: float = 1e-3):
    """Max deviation of the packet's (<x>, <p>) from the Newtonian trajectory
    started at the same phase-space point.  Exact up to solver error for
    potentials at most quadratic."""
    _, xs, ps, xn, pn = _paired_trajectories(q0, V, phys, grid, t_final, dt)
    return float(np.max(np.abs(xs - xn))), float(np.max(np.abs(ps - pn)))
