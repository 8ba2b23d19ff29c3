"""Monte Carlo engine: Brownian motion of state components and Born statistics.

A state is decomposed over near-orthogonal embedded Gaussians at given centers;
each walker picks a component with probability given by its squared
coefficient, starts at that component's center, and random-walks for the
observation time.  The stationary arrival statistics reproduce |psi(a)|^2,
the transition density depends only on the Fubini-Study distance, and the
center-of-mass diffusion of an n-cell solid is suppressed as 1/n: each cell
takes one Gaussian kick of the whole horizon's variance, and the center of
mass moves by the mean of the n kicks.  Two
tests at a stated false-alarm rate judge several ensembles at once: a
Pearson chi^2 of the component counts and one Kolmogorov-Smirnov test of the
pooled arrivals, each mapped through its own component's law.

Walkers are drawn, binned and mapped in fixed chunks, so an ensemble keeps
one walker-length array, its sorted KS sample (8 bytes a walker), and its
other buffers do not grow with the walker count.  The ensembles are
statelab's only parallel work, each on its own stream: _start submits a
list of them to one process-wide executor of one thread fewer than the
available cores, and its collector runs on the calling thread every job
that no thread has begun.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import chdtri, erf, kolmogi, ndtr

from .numerics import NumericalBreakdownError, RngStream, StateVector, inner_l2, quadrature
from .geometry import KernelSpace, embed_point


@dataclass(frozen=True)
class DiffusionConfig:
    """Walker ensemble configuration; diffusion_sigma is the Brownian
    displacement std over one observation time tau (defaults to the kernel
    width so the time-tau heat kernel matches the packet density)."""

    n_walkers: int
    tau: float = 1.0
    diffusion_sigma: float = 0.5

    def __post_init__(self):
        if self.n_walkers < 1:
            raise ValueError("n_walkers must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.diffusion_sigma <= 0:
            raise ValueError("diffusion_sigma must be positive")
        # a tau near 0 or a huge width overflows the coefficient to inf
        if not np.isfinite(self.diffusion_coefficient):
            raise ValueError(
                f"diffusion_sigma^2 / (2 tau) is not finite (diffusion_sigma "
                f"{self.diffusion_sigma!r}, tau {self.tau!r})")

    @property
    def diffusion_coefficient(self) -> float:
        # a product, not ** 2: float ** raises OverflowError where * gives inf
        return self.diffusion_sigma * self.diffusion_sigma / (2.0 * self.tau)


@dataclass(frozen=True, eq=False)
class ComponentDecomposition:
    """Least-squares coefficients of psi over the Gaussian frame."""

    centers: np.ndarray
    coefficients: np.ndarray
    residual: float
    sum_sq: float                  # sum |C_j|^2 before renormalization
    weights: np.ndarray            # |C_j|^2 renormalized to sum to 1
    max_offdiag_overlap: float
    near_orthogonal: bool
    condition_number: float


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    bin_edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray
    reference_density: np.ndarray
    l1_error: float
    component_masses: np.ndarray
    expected_weights: np.ndarray
    n_walkers: int
    # Phi((x_i - b_j(i)) / diffusion_sigma) over the walkers, sorted: each
    # arrival through the law of the component it started from, a sample of
    # U(0, 1) for a correct sampler
    arrival_uniforms: np.ndarray


# largest pairwise kernel overlap of a near-orthogonal frame, and the largest
# 2-norm condition number of a frame that decompose_state accepts
_OVERLAP_THRESHOLD = 0.05
_COND_LIMIT = 1e8


def decompose_state(psi: StateVector, ks: KernelSpace,
                    centers: Sequence[float]) -> ComponentDecomposition:
    """Least-squares decomposition of psi over the embedded points at centers.

    The near_orthogonal flag is set when all pairwise frame overlaps stay
    below _OVERLAP_THRESHOLD; only then do the squared coefficients behave
    as probabilities (they are renormalized to sum to one, and the size of
    that correction is reported via sum_sq).
    """
    g = psi.grid
    centers = np.asarray(centers, dtype=float)
    frame = np.column_stack([embed_point(float(b), ks).values for b in centers])
    scale = np.sqrt(g.dx)
    coef, _, _, sv = np.linalg.lstsq(frame * scale, psi.values * scale, rcond=None)
    # 2-norm condition number from the singular values lstsq already computed
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if cond > _COND_LIMIT:
        raise NumericalBreakdownError(
            f"Gaussian frame is ill-conditioned (cond {cond:.3g} > {_COND_LIMIT:.3g})")
    fit = frame @ coef
    residual = float(np.sqrt(quadrature(g, np.abs(fit - psi.values) ** 2).real))
    d = centers[:, None] - centers[None, :]
    overlaps = np.exp(-(d ** 2) / (8.0 * ks.sigma ** 2))
    np.fill_diagonal(overlaps, 0.0)
    max_ovl = float(overlaps.max()) if len(centers) > 1 else 0.0
    sumsq = float(np.sum(np.abs(coef) ** 2))
    weights = np.abs(coef) ** 2 / sumsq
    return ComponentDecomposition(
        centers=centers, coefficients=coef, residual=residual, sum_sq=sumsq,
        weights=weights, max_offdiag_overlap=max_ovl,
        near_orthogonal=max_ovl < _OVERLAP_THRESHOLD, condition_number=cond)


# normals per draw buffer (2**17 float64, 1 MiB) of verify_diffusion_pde and
# of each solid_com_diffusion block; a generator fills in C order, so row
# chunks consume its stream as one (rows, columns) draw would
_KICK_BUFFER_NORMALS = 2**17


def _bin_reference_masses(psi: StateVector, edges: np.ndarray) -> np.ndarray:
    """Probability mass of |psi|^2 per bin, from the grid cumulative density."""
    g = psi.grid
    dens = psi.density()
    cdf_x = np.concatenate([[g.x_min], g.x + 0.5 * g.dx])
    cdf = np.concatenate([[0.0], np.cumsum(dens) * g.dx])
    at_edges = np.interp(edges, cdf_x, cdf)
    return np.diff(at_edges)


def simulate_state_diffusion(psi: StateVector, cfg: DiffusionConfig, stream: RngStream,
                             ks: KernelSpace, dec: ComponentDecomposition) -> DensityEstimate:
    """Diffuse the components of psi, whose decomposition is dec, and
    histogram the arrivals.

    Each walker samples component j with probability w_j, starts at center
    b_j, and takes one Brownian displacement.  The histogram (bins of width
    sigma/4 covering all centers +- 6 sigma) is compared against the
    reference density |psi(a)|^2: l1_error is the total-variation distance
    between the binned probability masses.  arrival_uniforms feed
    pooled_arrival_ks, and component_masses component_mass_chi2.
    """
    if not dec.near_orthogonal:
        raise ValueError(
            f"state decomposition is not near-orthogonal "
            f"(max overlap {dec.max_offdiag_overlap:.3f} >= {_OVERLAP_THRESHOLD:g})")

    occupied = dec.centers[dec.weights > 1e-12]
    lo = occupied.min() - 6.0 * ks.sigma
    hi = occupied.max() + 6.0 * ks.sigma
    width = ks.sigma / 4.0
    n_bins = int(np.ceil((hi - lo) / width))
    edges = lo + width * np.arange(n_bins + 1)

    counts = np.zeros(n_bins, dtype=np.intp)
    comp_counts = np.zeros(len(dec.centers), dtype=np.intp)
    uniforms = np.empty(cfg.n_walkers)
    i0 = 0
    for comp, arrivals in _draw_arrivals(dec.centers, dec.weights, cfg, stream):
        counts += np.histogram(arrivals, bins=edges)[0]
        comp_counts += np.bincount(comp, minlength=len(dec.centers))
        # Phi((x - b_j) / diffusion_sigma) of the chunk, in its slice of the sample
        u = uniforms[i0:i0 + len(comp)]
        np.subtract(arrivals, dec.centers[comp], out=u)
        u /= cfg.diffusion_sigma
        ndtr(u, out=u)
        i0 += len(comp)
    uniforms.sort()

    n_in = counts.sum()
    density = counts / max(n_in, 1) / width
    ref_mass = _bin_reference_masses(psi, edges)
    est_mass = counts / cfg.n_walkers
    out_mismatch = abs((1.0 - est_mass.sum()) - (1.0 - ref_mass.sum()))
    l1 = 0.5 * (np.abs(est_mass - ref_mass).sum() + out_mismatch)
    masses = comp_counts / cfg.n_walkers
    return DensityEstimate(
        bin_edges=edges, counts=counts, density=density,
        reference_density=ref_mass / width, l1_error=float(l1),
        component_masses=masses, expected_weights=dec.weights, n_walkers=cfg.n_walkers,
        arrival_uniforms=uniforms)


# walkers per chunk of _draw_arrivals (2**14: 128 KiB per float64 array)
_ARRIVAL_CHUNK = 2**14


def _draw_arrivals(centers: np.ndarray, weights: np.ndarray, cfg: DiffusionConfig,
                   stream: RngStream):
    """The sampler: yields (comp, arrivals) for successive chunks of at most
    _ARRIVAL_CHUNK walkers, in walker order.  Each walker's component j is
    drawn with probability w_j from stream.child(0), and its arrival
    b_j + diffusion_sigma * N(0, 1) is formed in the array of its normal from
    stream.child(1).  A generator fills in order, so the joined chunks are
    the draw of one call over every walker, whatever the chunk size."""
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    picks = stream.child(0).generator()
    normals = stream.child(1).generator()
    for i0 in range(0, cfg.n_walkers, _ARRIVAL_CHUNK):
        size = min(_ARRIVAL_CHUNK, cfg.n_walkers - i0)
        comp = np.searchsorted(cum, picks.random(size))
        arrivals = normals.standard_normal(size)
        arrivals *= cfg.diffusion_sigma
        arrivals += centers[comp]
        yield comp, arrivals


def component_mass_chi2(estimates: Sequence[DensityEstimate], alpha: float):
    """Pearson chi^2 of every ensemble's component counts O against n w,
    sum (O - n w)^2 / (n w), with df = sum (m_c - 1); returns (statistic,
    df, the chi^2 quantile that correct sampling exceeds with probability
    alpha).  A component expecting fewer than 5 walkers is merged into its
    ensemble's largest component, which takes one off df."""
    stat, df = 0.0, 0
    for est in estimates:
        expected = est.n_walkers * est.expected_weights
        observed = np.rint(est.component_masses * est.n_walkers)
        small = expected < 5.0
        big = int(np.argmax(expected))
        small[big] = False
        expected[big] += expected[small].sum()
        observed[big] += observed[small].sum()
        expected, observed = expected[~small], observed[~small]
        stat += float(np.sum((observed - expected) ** 2 / expected))
        df += len(expected) - 1
    return stat, df, float(chdtri(df, alpha)) if df else 0.0


def pooled_arrival_ks(estimates: Sequence[DensityEstimate], alpha: float):
    """One Kolmogorov-Smirnov test of every ensemble's arrival_uniforms,
    pooled, against U(0, 1); returns (statistic, the asymptotic level-alpha
    critical value kolmogi(alpha) / sqrt(N)).  Each arrival is mapped
    through its own component's law, so a shape error cannot cancel between
    ensembles as it can through the mixture CDF.  The pooled order
    statistics are formed one slab of (0, 1) at a time from the sorted
    samples, max(16, N // 2**14) equal slabs, so no copy of the pool is held
    and a slab holds about 2**14 values however large the pool grows.  Every
    value keeps its pooled rank, so the statistic does not depend on the
    slab count."""
    parts = [est.arrival_uniforms for est in estimates]
    n = sum(len(u) for u in parts)
    n_slabs = max(16, n // 2**14)
    cuts = [np.concatenate([[0], np.searchsorted(u, np.arange(1, n_slabs) / n_slabs), [len(u)]])
            for u in parts]
    stat, below = 0.0, 0
    for s in range(n_slabs):
        slab = np.concatenate([u[c[s]:c[s + 1]] for u, c in zip(parts, cuts)])
        slab.sort()
        if len(slab):
            # ranks below + 1 .. below + len(slab) in the pool
            i = np.arange(below + 1, below + len(slab) + 1)
            stat = max(stat, float(np.max(i / n - slab)), float(np.max(slab - (i - 1) / n)))
            below += len(slab)
    return stat, float(kolmogi(alpha) / np.sqrt(n))


def density_functional(phi: StateVector, psi: StateVector, sigma: float) -> float:
    """Transition density |<phi, psi>|^2 / sigma between normalized states
    (norms within 1e-6 of 1).

    Evaluated both directly and as the literal double-quadrature quadratic
    form with kernel conj(psi(x)) psi(y) / sigma; the two routes are
    algebraically identical and must agree to 1e-10, which cross-checks the
    quadrature implementation.
    """
    for s in (phi, psi):
        if abs(s.norm() - 1.0) > 1e-6:
            raise ValueError("density_functional requires normalized states")
    g = phi.grid
    direct = abs(inner_l2(phi, psi)) ** 2 / sigma

    quad_form = 0.0 + 0.0j
    chunk = 256
    pv, fv = psi.values, phi.values
    right = pv * np.conj(fv)
    for i0 in range(0, g.n_points, chunk):
        i1 = min(i0 + chunk, g.n_points)
        block = (np.conj(pv[i0:i1]) * fv[i0:i1])[:, None] * right[None, :]
        quad_form += block.sum()
    quad_form = quad_form.real * g.dx ** 2 / sigma
    if abs(quad_form - direct) > 1e-10 * max(1.0, abs(direct)):
        raise NumericalBreakdownError(
            "quadratic-form and direct transition densities disagree "
            f"({quad_form!r} vs {direct!r})")
    return float(direct)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@dataclass(frozen=True, eq=False)
class PdeCheck:
    max_sup_residual: float
    variances: np.ndarray
    expected_variances: np.ndarray


# Brownian epochs that verify_diffusion_pde marches the walkers through
_PDE_EPOCHS = 2


def verify_diffusion_pde(cfg: DiffusionConfig, stream: RngStream) -> PdeCheck:
    """March the walker histogram of walkers started at 0 through Brownian
    epochs and compare against the heat kernel with diffusion coefficient
    k = diffusion_sigma^2/(2 tau).

    After e epochs the analytic density is a Gaussian of variance 2*k*(e*tau);
    the sup-norm residual is taken over bin-averaged densities, and the
    per-epoch variances exhibit additivity.  Walker i takes row i of one
    (n_walkers, epochs) draw of steps, drawn in chunks through one reused
    buffer.
    """
    rng = stream.generator()
    rows = max(1, _KICK_BUFFER_NORMALS // _PDE_EPOCHS)
    buf = np.empty((min(rows, cfg.n_walkers), _PDE_EPOCHS))
    disp = np.empty((_PDE_EPOCHS, cfg.n_walkers))
    for i0 in range(0, cfg.n_walkers, rows):
        chunk = rng.standard_normal(out=buf[:cfg.n_walkers - i0])
        chunk *= cfg.diffusion_sigma
        disp[:, i0:i0 + len(chunk)] = chunk.T
    del buf, chunk   # free the draw buffer before binning
    # running sums of the steps: disp[e] is the displacement after epoch e + 1
    for e in range(1, _PDE_EPOCHS):
        disp[e] += disp[e - 1]
    width = cfg.diffusion_sigma / 4.0
    sup = 0.0
    variances = np.empty(_PDE_EPOCHS)
    for e, xs in enumerate(disp, start=1):
        s_e = cfg.diffusion_sigma * np.sqrt(e)
        edges = np.arange(-8.0 * s_e, 8.0 * s_e + width, width)
        counts, _ = np.histogram(xs, bins=edges)
        dens = counts / cfg.n_walkers / width
        z = edges / (np.sqrt(2.0) * s_e)
        ref_mass = 0.5 * (erf(z[1:]) - erf(z[:-1]))
        sup = max(sup, float(np.max(np.abs(dens - ref_mass / width))))
        variances[e - 1] = np.var(xs)
    expected = cfg.diffusion_sigma ** 2 * np.arange(1, _PDE_EPOCHS + 1)
    return PdeCheck(max_sup_residual=sup, variances=variances,
                    expected_variances=expected)


# walker blocks of solid_com_diffusion; fixed, so no result depends on how
# many threads run them
_BLOCKS = 8


# the executor's thread names start with it; tests/test_threads.py tells
# those threads apart by it
_THREAD_NAME_PREFIX = "statelab-walkers"


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor | None:
    return (ThreadPoolExecutor(max_workers=workers, thread_name_prefix=_THREAD_NAME_PREFIX)
            if workers else None)


def _start(jobs):
    """Start the zero-argument callables jobs and return collect().

    Each job is submitted to one process-wide executor of one thread fewer
    than the available cores (none on one core), because the calling thread
    works too: collect() claims, in submission order, every job that no
    thread has begun and runs it on the calling thread, then waits only for
    the jobs already running.  It returns the results in submission order,
    or raises the first exception in that order once every job has ended.
    No collect waits on a job that has not started, so a job may start and
    collect jobs of its own, and no thread count deadlocks.  Jobs must be
    independent, each on its own stream, so no result depends on the thread
    count.  The threads live as long as the process; nothing in statelab
    forks, which would leave a child an executor without threads."""
    jobs = list(jobs)
    pool = _executor(len(os.sched_getaffinity(0)) - 1)
    futures = [pool.submit(job) if pool else None for job in jobs]

    def collect() -> list:
        for i, job in enumerate(jobs):
            if futures[i] is None or futures[i].cancel():
                futures[i] = Future()
                try:
                    futures[i].set_result(job())
                except Exception as exc:
                    futures[i].set_exception(exc)
        wait(futures)
        return [f.result() for f in futures]

    return collect


def _block_generator(stream: RngStream) -> np.random.Generator:
    """SFC64 keyed by the stream's (master_seed, stream_id), masked to 64 bits
    as RngStream.generator masks them (SeedSequence rejects negative entropy).
    SFC64 draws a normal in about 2/3 of Philox's time, and solid-com's kicks,
    one normal per walker and cell over the whole horizon, are most of the
    lab's draws; every other stream stays Philox."""
    mask = 2**64 - 1
    seq = np.random.SeedSequence(stream.master_seed & mask,
                                 spawn_key=(stream.stream_id & mask,))
    return np.random.Generator(np.random.SFC64(seq))


def solid_com_diffusion(n_cells: int, kick_std: float, cfg: DiffusionConfig,
                        stream: RngStream, n_steps: int = 8) -> float:
    """Estimated center-of-mass diffusion coefficient of an n-cell solid.

    Every cell receives one independent Gaussian kick over the n_steps * tau
    horizon, of std kick_std * sqrt(n_steps): the sum of n_steps iid
    N(0, kick_std^2) steps has exactly that law.  The COM moves by the mean of
    the n_cells kicks (equal masses), each drawn on its own, never as one
    N(0, 1/n_cells) draw.  The estimate is Var(displacement)
    / (2 * n_steps * tau); it scales as 1/n_cells.

    The walkers are split into _BLOCKS blocks (np.array_split sizes); block b
    draws from an SFC64 generator keyed by stream.child(b).  The blocks are
    _start's jobs: the executor's threads run some, and the calling thread
    runs every block none of them has begun.  Each block reuses one kick
    buffer of _KICK_BUFFER_NORMALS normals (at least one row), so memory
    stays flat as walkers x cells grow.  The fills and row means release the
    GIL, and the displacements are joined in block order, so the estimate is
    the same for every thread count.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be at least 1")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")

    rows = max(1, _KICK_BUFFER_NORMALS // n_cells)

    def block(b: int, size: int) -> np.ndarray:
        rng = _block_generator(stream.child(b))
        buf = np.empty((min(rows, size), n_cells))
        disp = np.empty(size)
        for i0 in range(0, size, rows):
            kicks = rng.standard_normal(out=buf[:size - i0])
            kicks.mean(axis=1, out=disp[i0:i0 + len(kicks)])
        return disp

    q, r = divmod(cfg.n_walkers, _BLOCKS)
    sizes = [q + (b < r) for b in range(_BLOCKS)]
    disp = np.concatenate(_start(functools.partial(block, b, size)
                                 for b, size in enumerate(sizes))())
    disp *= kick_std * math.sqrt(n_steps)
    return float(np.var(disp) / (2.0 * n_steps * cfg.tau))


# component counts of random_superposition, drawn uniformly between the two
_MIN_COMPONENTS, _MAX_COMPONENTS = 2, 5


def random_superposition(ks: KernelSpace, stream: RngStream):
    """Random near-orthogonal superposition of embedded points.

    Returns (psi, dec): psi has complex Gaussian coefficients over
    _MIN_COMPONENTS to _MAX_COMPONENTS centers of a 6 sigma lattice, 6 sigma
    inside the cell, and is normalized; dec is its decomposition over those
    centers, whose weights are the exact squared coefficients of the
    normalized state, renormalized to sum to 1 (simulate_state_diffusion
    takes it as is).
    """
    rng = stream.generator()
    n_comp = int(rng.integers(_MIN_COMPONENTS, _MAX_COMPONENTS + 1))
    g = ks.grid
    lo = g.x_min + 6.0 * ks.sigma
    hi = g.x_max - 6.0 * ks.sigma
    lattice = np.arange(lo, hi, 6.0 * ks.sigma)
    if len(lattice) < n_comp:
        raise ValueError("grid too small for the requested superposition")
    centers = np.sort(rng.choice(lattice, size=n_comp, replace=False))
    coef = rng.standard_normal(n_comp) + 1j * rng.standard_normal(n_comp)
    vals = np.zeros(g.n_points, dtype=complex)
    for b, c in zip(centers, coef):
        vals += c * embed_point(float(b), ks).values
    psi = StateVector(g, vals).normalized()
    return psi, decompose_state(psi, ks, centers)
