"""Grids, quadrature, discrete Fourier transforms and reproducible random streams.

Everything downstream (kernel geometry, propagation, Monte Carlo) is built on
the uniform periodic grid defined here.  All types are immutable after
construction and all operations are pure functions, so they are safe to share
across threads.

Every FFT of the package goes through :func:`fft` and :func:`ifft`: they cast
their input to complex128 and run ``scipy.fft``'s complex-to-complex
transform, whose bits equal ``numpy.fft``'s with numpy >= 2 (both are the C++
pocketfft).  Real input is cast first because scipy's real-to-complex path
rounds differently.  Only fftfreq and the shifts stay on numpy.  No buffer or
plan is kept between calls.  The split-step kernel of dynamics calls
``scipy.fft`` itself, unscaled, on a buffer it allocates per call; its
results match the ``numpy.fft`` expression to round-off, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft


class NumericalBreakdownError(RuntimeError):
    """A solver hit a genuinely degenerate configuration (ill-conditioned
    frame, unexpected null space, ...).  Reported, never silently patched."""


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D spatial grid carrying equal-weight quadrature.

    Nodes are x_j = x_min + j*dx for j = 0..n_points-1 with
    dx = (x_max - x_min)/n_points; on a periodic grid x_max is identified
    with x_min, which makes the equal-weight rule spectrally accurate for
    smooth integrands.
    """

    n_points: int
    x_min: float
    x_max: float
    periodic: bool = True

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if not np.isfinite(float(self.x_max) - float(self.x_min)):
            raise ValueError(f"x_max - x_min is not finite (x_min {self.x_min!r}, "
                             f"x_max {self.x_max!r})")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @cached_property
    def x(self) -> np.ndarray:
        x = self.x_min + self.dx * np.arange(self.n_points)
        x.flags.writeable = False
        return x

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers in FFT ordering."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_points, self.dx)
        k.flags.writeable = False
        return k

    def wrap(self, displacement):
        """Minimal-image displacement on the periodic domain."""
        if not self.periodic:
            return displacement
        L = self.length
        return np.remainder(np.asarray(displacement) + 0.5 * L, L) - 0.5 * L


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over a grid; |psi|^2 integrates to a probability."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"amplitudes have shape {v.shape}, expected ({self.grid.n_points},)")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def norm(self) -> float:
        return float(np.sqrt(quadrature(self.grid, np.abs(self.values) ** 2).real))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return StateVector(self.grid, self.values / n)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def quadrature(grid: Grid, samples: np.ndarray) -> complex:
    """Equal-weight quadrature of grid samples; exact for the constant 1."""
    return complex(grid.dx * np.sum(samples))


def inner_l2(f: StateVector, g: StateVector) -> complex:
    """L2 inner product, linear in the first argument, conjugate in the second."""
    _check_same_grid(f, g)
    return complex(f.grid.dx * np.vdot(g.values, f.values))


def _check_same_grid(f: StateVector, g: StateVector) -> None:
    if f.grid != g.grid:
        raise ValueError("state vectors live on different grids")


def fft(values) -> np.ndarray:
    """Forward DFT with numpy's sign and scaling; the input is never written."""
    return scipy.fft.fft(np.asarray(values, dtype=np.complex128))


def ifft(values) -> np.ndarray:
    """Inverse of :func:`fft`, with the 1/N factor."""
    return scipy.fft.ifft(np.asarray(values, dtype=np.complex128))


def spectral_derivative(f: StateVector, order: int = 1) -> StateVector:
    """Differentiate a band-limited state by multiplication in Fourier space."""
    if not f.grid.periodic:
        raise ValueError("spectral derivative requires a periodic grid")
    k = f.grid.wavenumbers
    out = ifft((1j * k) ** order * fft(f.values))
    return StateVector(f.grid, out)


def dft(f: StateVector, hbar: float = 1.0) -> StateVector:
    """Unitary transform to the momentum representation.

    Conventions: psi~(p) = (2 pi hbar)^(-1/2) * integral psi(x) exp(-i p x/hbar) dx,
    discretised with the grid quadrature; the output lives on the natural
    momentum grid p in [-pi*hbar/dx, pi*hbar/dx).  Norms and inner products
    are preserved exactly (discrete Parseval).
    """
    g = f.grid
    if not g.periodic:
        raise ValueError("dft requires a periodic grid")
    k = g.wavenumbers
    coef = g.dx / np.sqrt(2.0 * np.pi * hbar) * np.exp(-1j * k * g.x_min)
    tilde = np.fft.fftshift(coef * fft(f.values))
    p = np.fft.fftshift(hbar * k)
    dp = 2.0 * np.pi * hbar / g.length
    pgrid = Grid(g.n_points, float(p[0]), float(p[0] + g.n_points * dp), periodic=True)
    return StateVector(pgrid, tilde)


def idft(f_tilde: StateVector, xgrid: Grid, hbar: float = 1.0) -> StateVector:
    """Inverse of :func:`dft` back onto the original position grid."""
    if not xgrid.periodic:
        raise ValueError("idft requires a periodic grid")
    est_dp = 2.0 * np.pi * hbar / xgrid.length
    if f_tilde.grid.n_points != xgrid.n_points or not np.isclose(f_tilde.grid.dx, est_dp):
        raise ValueError("momentum grid is not the dft image of the given position grid")
    k = xgrid.wavenumbers
    coef = xgrid.dx / np.sqrt(2.0 * np.pi * hbar) * np.exp(-1j * k * xgrid.x_min)
    tilde = np.fft.ifftshift(f_tilde.values)
    return StateVector(xgrid, ifft(tilde / coef))


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (master_seed, stream_id) fixes the sequence.

    Equal (master_seed, stream_id) pairs reproduce bit-identical draws;
    distinct pairs, after masking each part to 64 bits, give distinct
    statistically independent streams.  generator() is Philox keyed by the
    two masked parts as a uint64 array, so derived ensembles are
    order-independent; only the walker blocks of
    diffusion.solid_com_diffusion key an SFC64 generator from a stream
    instead, for speed.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        # a uint64 array, not a tuple: numpy converts a tuple of Python ints
        # through float64 once a part reaches 2**63, where distinct keys collide
        key = np.array([int(self.master_seed) & (2**64 - 1),
                        int(self.stream_id) & (2**64 - 1)], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive an independent sub-stream deterministically."""
        return RngStream(self.master_seed, (self.stream_id * 1000003 + index + 1) & (2**64 - 1))
