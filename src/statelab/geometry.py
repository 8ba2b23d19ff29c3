"""Gaussian-kernel state geometry.

The kernel k(x,y) = exp(-(x-y)^2 / (8 sigma^2)) defines an inner product under
which point states (delta functions) are unit vectors; the smoothing map
rho_sigma carries them to normalized Gaussians of width sigma in L2.  This
module implements that geometry on the grid: the kernel inner product, the
point and phase-space embeddings, the Fubini-Study distance and its relation
to Euclidean distance, tangent directions at a Gaussian packet, and the
velocity/acceleration projections of delta-function paths.

Conventions: hbar = 1, mass = 1, sigma = 0.5 by default, so distances in
units of 2*sigma make the isometric-embedding identities literal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import Grid, StateVector, fft, ifft, inner_l2, spectral_derivative

DEFAULT_SIGMA = 0.5


@dataclass(frozen=True)
class KernelSpace:
    """Width-sigma Gaussian kernel and smoothing map over a grid."""

    grid: Grid
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def _kernel(self, d):
        """k as a function of the minimal-image displacement d."""
        return np.exp(-(d ** 2) / (8.0 * self.sigma ** 2))

    def _smoothing(self, d):
        """rho_sigma as a function of d: Gaussian of width parameter
        2 sigma^2, normalized so that rho* rho reproduces the kernel."""
        return (2.0 * np.pi * self.sigma ** 2) ** (-0.25) * np.exp(
            -(d ** 2) / (4.0 * self.sigma ** 2))

    def _dense(self, profile) -> np.ndarray:
        return profile(self.grid.wrap(self.grid.x[:, None] - self.grid.x[None, :]))

    def _convolve(self, profile, f: StateVector) -> StateVector:
        """integral profile(y - x) f(x) dx, via circulant FFT convolution."""
        g = self.grid
        row = profile(g.wrap(g.x - g.x[0]))
        return StateVector(g, ifft(fft(row) * fft(f.values)) * g.dx)

    def kernel_matrix(self) -> np.ndarray:
        """Dense k(x_i, x_j) with minimal-image distances; symmetric, unit diagonal."""
        return self._dense(self._kernel)

    def smoothing_matrix(self) -> np.ndarray:
        """Dense rho_sigma(x_i, x_j)."""
        return self._dense(self._smoothing)

    def composition_deviation(self) -> np.ndarray:
        """rho_sigma applied to rho_sigma's own grid row, minus the kernel
        row: both operators are circulant, so this one row holds every
        entry of (rho_sigma^T rho_sigma) dx - k."""
        g = self.grid
        d = g.wrap(g.x - g.x[0])
        return self.smooth(StateVector(g, self._smoothing(d))).values - self._kernel(d)

    def apply_kernel(self, f: StateVector) -> StateVector:
        """(K f)(y) = integral k(y, x) f(x) dx."""
        return self._convolve(self._kernel, f)

    def smooth(self, f: StateVector) -> StateVector:
        """Apply rho_sigma; carries grid deltas to normalized Gaussians."""
        return self._convolve(self._smoothing, f)


@dataclass(frozen=True)
class GaussianParams:
    """A point of the classical phase-space submanifold: center a, momentum p,
    width sigma."""

    a: float
    p: float
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def _check_center(grid: Grid, a: float, sigma: float) -> None:
    if grid.periodic:
        if not (grid.x_min <= a <= grid.x_max):
            raise ValueError(f"center {a} outside the domain [{grid.x_min}, {grid.x_max}]")
    else:
        margin = 10.0 * sigma
        if not (grid.x_min + margin <= a <= grid.x_max - margin):
            raise ValueError(
                f"center {a} closer than 10 sigma to a non-periodic boundary")


def realize(q: GaussianParams, grid: Grid, hbar: float = 1.0) -> StateVector:
    """Normalized Gaussian packet of width q.sigma at q.a with momentum q.p.

    This is the phase-space embedding: amplitude
    (2 pi sigma^2)^(-1/4) exp(-(x-a)^2/(4 sigma^2)) exp(i p (x-a)/hbar).
    """
    _check_center(grid, q.a, q.sigma)
    u = grid.wrap(grid.x - q.a)
    vals = (2.0 * np.pi * q.sigma ** 2) ** (-0.25) * np.exp(
        -(u ** 2) / (4.0 * q.sigma ** 2) + 1j * q.p * u / hbar)
    return StateVector(grid, vals)


def embed_point(a: float, ks: KernelSpace) -> StateVector:
    """Image of the classical point a in state space: the normalized Gaussian
    of width sigma centered at a (smoothed delta)."""
    return realize(GaussianParams(float(a), 0.0, ks.sigma), ks.grid)


def grid_delta(grid: Grid, a: float) -> StateVector:
    """Band-limited delta function at a.

    On-node centers reduce to amplitude 1/dx at a single node; off-node
    centers use the periodic-sinc cardinal kernel so that quadrature against
    any band-limited f returns the trigonometric interpolant f(a) exactly.
    """
    if not grid.periodic:
        raise ValueError("grid deltas require a periodic grid")
    u = grid.wrap(grid.x - a)
    n, L, dx = grid.n_points, grid.length, grid.dx
    out = np.empty(n)
    on_node = np.abs(u) < 1e-12 * L
    out[on_node] = 1.0
    v = u[~on_node]
    with np.errstate(divide="ignore"):
        out[~on_node] = np.sin(np.pi * v / dx) / (n * np.tan(np.pi * v / L))
    return StateVector(grid, out / dx)


def kernel_inner(f: StateVector, g: StateVector, ks: KernelSpace) -> complex:
    """Kernel-space inner product: double quadrature of k(x,y) f(x) conj(g(y))."""
    if f.grid != ks.grid or g.grid != ks.grid:
        raise ValueError("state vectors do not live on the kernel-space grid")
    return inner_l2(ks.apply_kernel(f), g)


def kernel_norm(f: StateVector, ks: KernelSpace) -> float:
    return float(np.sqrt(max(kernel_inner(f, f, ks).real, 0.0)))


def fs_distance(f: StateVector, g: StateVector, norm_tol: float = 1e-6) -> float:
    """Fubini-Study distance arccos|<f, g>| between the rays of two normalized
    states; invariant under multiplication of either argument by a phase."""
    for s in (f, g):
        if abs(s.norm() - 1.0) > norm_tol:
            raise ValueError("fs_distance requires normalized states")
    overlap = abs(inner_l2(f, g))
    return float(np.arccos(np.clip(overlap, 0.0, 1.0)))


def h_norm_velocity(path: Callable[[float], float], ks: KernelSpace,
                    t: float = 0.0, dt: float = 1e-4) -> float:
    """Kernel-space speed of the delta path t -> delta_{a(t)}.

    Central finite difference of the grid deltas; with distance measured in
    units of 2*sigma (the default sigma = 1/2) this equals |da/dt|.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    d = StateVector(ks.grid, (grid_delta(ks.grid, path(t + dt)).values
                              - grid_delta(ks.grid, path(t - dt)).values) / (2.0 * dt))
    return kernel_norm(d, ks)


def delta_path_projection(path: Callable[[float], float], order: int,
                          ks: KernelSpace, t: float = 0.0, dt: float = 1e-4) -> float:
    """Component of the 1st/2nd time derivative of the delta path along the
    position direction -d/dx delta, expressed in spatial units.

    Recovers da/dt (order 1) and d^2a/dt^2 (order 2) of the underlying
    classical path.  Reversing the path flips the sign of order 1.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    a0 = path(t)
    d0 = grid_delta(ks.grid, a0)
    dp = grid_delta(ks.grid, path(t + dt))
    dm = grid_delta(ks.grid, path(t - dt))
    if order == 1:
        deriv = (dp.values - dm.values) / (2.0 * dt)
    else:
        deriv = (dp.values - 2.0 * d0.values + dm.values) / dt ** 2
    e = StateVector(ks.grid, -spectral_derivative(d0).values)
    num = kernel_inner(StateVector(ks.grid, deriv), e, ks).real
    den = kernel_inner(e, e, ks).real
    return float(num / den)


def tangent_basis(q: GaussianParams, grid: Grid, hbar: float = 1.0):
    """Unit tangent directions at the packet realize(q): (position-direction,
    momentum-direction).

    Both are orthogonal to each other and to the fibre direction i*phi in the
    Riemannian (real part) metric.  At p = 0 the position direction coincides
    with the normalized derivative of embed_point with respect to the center.
    """
    phi = realize(q, grid, hbar=hbar)
    u = grid.wrap(grid.x - q.a)
    pos = StateVector(grid, (u / q.sigma) * phi.values).normalized()
    mom = StateVector(grid, 1j * (u / q.sigma) * phi.values).normalized()
    return pos, mom


def spread_direction(q: GaussianParams, grid: Grid, hbar: float = 1.0) -> StateVector:
    """Unit direction of width change (spreading), orthogonal to the fibre and
    to both phase-space tangent directions."""
    phi = realize(q, grid, hbar=hbar)
    u = grid.wrap(grid.x - q.a)
    w = (u ** 2 / q.sigma ** 2 - 1.0)
    return StateVector(grid, 1j * w * phi.values / np.sqrt(2.0)).normalized()


def fs_metric_restriction_check(q: GaussianParams, da: float, dp: float,
                                grid: Grid, hbar: float = 1.0):
    """Compare the squared Fubini-Study distance for a small phase-space
    displacement against da^2/(4 sigma^2) + sigma^2 dp^2 / hbar^2.

    Returns (lhs, rhs); their ratio tends to 1 as the displacement shrinks.
    """
    f = realize(q, grid, hbar=hbar)
    g = realize(GaussianParams(q.a + da, q.p + dp, q.sigma), grid, hbar=hbar)
    lhs = fs_distance(f, g) ** 2
    rhs = da ** 2 / (4.0 * q.sigma ** 2) + (q.sigma ** 2) * dp ** 2 / hbar ** 2
    return float(lhs), float(rhs)


def gram_matrix(centers: np.ndarray, ks: KernelSpace) -> np.ndarray:
    """L2 Gram matrix of embedded points at the given centers (grid route).
    Embedded points are real packets (momentum 0), so it is real symmetric;
    filling one real row per point keeps the peak memory at one copy."""
    S = np.empty((len(centers), ks.grid.n_points))
    for i, a in enumerate(centers):
        S[i] = embed_point(float(a), ks).values.real
    return ks.grid.dx * (S @ S.T)


def completeness_rank(ks: KernelSpace, spacing: float | None = None,
                      margin_sigmas: float = 5.0) -> tuple[int, int]:
    """Numerical-rank proxy for completeness of the embedded point set.

    Builds the Gram matrix of embedded points on a sigma-spaced lattice of
    centers and returns (rank, n_centers).  A rank fraction near 1 supports
    completeness; it cannot prove the exact functional-analytic statement.
    """
    if spacing is None:
        spacing = ks.sigma
    lo = ks.grid.x_min + margin_sigmas * ks.sigma
    hi = ks.grid.x_max - margin_sigmas * ks.sigma
    centers = np.arange(lo, hi, spacing)
    G = gram_matrix(centers, ks).real
    return int(np.linalg.matrix_rank(G)), len(centers)
