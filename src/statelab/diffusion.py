"""Monte Carlo engine: Brownian motion of state components and Born statistics.

A state is decomposed over a near-orthogonal lattice of embedded Gaussians;
each walker picks a component with probability given by its squared
coefficient, starts at that component's center, and random-walks for the
observation time.  The stationary arrival statistics reproduce |psi(a)|^2,
the transition density depends only on the Fubini-Study distance, and the
center-of-mass diffusion of an n-cell solid is suppressed as 1/n.  Two
tests at a stated false-alarm rate judge several ensembles at once: a
Pearson chi^2 of the component counts and one Kolmogorov-Smirnov test of the
pooled arrivals, each mapped through its own component's law.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

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


def decompose_state(psi: StateVector, ks: KernelSpace, spacing: float,
                    centers: Optional[Sequence[float]] = None,
                    overlap_threshold: float = 0.05,
                    cond_limit: float = 1e8) -> ComponentDecomposition:
    """Least-squares decomposition of psi over embedded points on a lattice.

    The near_orthogonal flag is set when all pairwise frame overlaps stay
    below overlap_threshold; only then do the squared coefficients behave as
    probabilities (they are renormalized to sum to one, and the size of that
    correction is reported via sum_sq).
    """
    g = psi.grid
    if centers is None:
        if spacing <= 0:
            raise ValueError("lattice spacing must be positive")
        lo = g.x_min + 5.0 * ks.sigma
        hi = g.x_max - 5.0 * ks.sigma
        centers = np.arange(lo, hi, spacing)
    centers = np.asarray(centers, dtype=float)
    frame = np.column_stack([embed_point(float(b), ks).values for b in centers])
    scale = np.sqrt(g.dx)
    coef, _, _, sv = np.linalg.lstsq(frame * scale, psi.values * scale, rcond=None)
    # 2-norm condition number from the singular values lstsq already computed
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if cond > cond_limit:
        raise NumericalBreakdownError(
            f"Gaussian frame is ill-conditioned (cond {cond:.3g} > {cond_limit:.3g})")
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
        near_orthogonal=max_ovl < overlap_threshold, condition_number=cond)


# normals per draw buffer (2**17 float64, 1 MiB) of _epoch_steps and of each
# solid_com_diffusion block; a generator fills in C order, so row chunks
# consume its stream as one (rows, columns) draw would
_KICK_BUFFER_NORMALS = 2**17


def _epoch_steps(cfg: DiffusionConfig, stream: RngStream, n_epochs: int) -> list[np.ndarray]:
    """Brownian displacements, one array over the walkers per epoch; walker
    i takes row i of one (n_walkers, n_epochs) draw.  The rows are drawn in
    chunks through one reused buffer, so no walkers x epochs array is built."""
    if n_epochs < 1:
        raise ValueError("n_epochs must be at least 1")
    rng = stream.generator()
    rows = max(1, _KICK_BUFFER_NORMALS // n_epochs)
    buf = np.empty((min(rows, cfg.n_walkers), n_epochs))
    steps = [np.empty(cfg.n_walkers) for _ in range(n_epochs)]
    for i0 in range(0, cfg.n_walkers, rows):
        chunk = rng.standard_normal(out=buf[:cfg.n_walkers - i0])
        chunk *= cfg.diffusion_sigma
        for e, s in enumerate(steps):
            s[i0:i0 + len(chunk)] = chunk[:, e]
    return steps


def _bin_reference_masses(psi: StateVector, edges: np.ndarray) -> np.ndarray:
    """Probability mass of |psi|^2 per bin, from the grid cumulative density."""
    g = psi.grid
    dens = psi.density()
    cdf_x = np.concatenate([[g.x_min], g.x + 0.5 * g.dx])
    cdf = np.concatenate([[0.0], np.cumsum(dens) * g.dx])
    at_edges = np.interp(edges, cdf_x, cdf)
    return np.diff(at_edges)


def simulate_state_diffusion(psi: StateVector, cfg: DiffusionConfig, stream: RngStream,
                             ks: KernelSpace, spacing: Optional[float] = None,
                             centers: Optional[Sequence[float]] = None,
                             dec: Optional[ComponentDecomposition] = None) -> DensityEstimate:
    """Diffuse the components of psi and histogram the arrivals.

    psi is decomposed over centers (or the lattice of the given spacing)
    unless dec, its decomposition, is passed in.  Each walker samples
    component j with probability w_j, starts at center b_j, and takes one
    Brownian displacement.  The histogram (bins of width sigma/4 covering all
    centers +- 6 sigma) is compared against the reference density
    |psi(a)|^2: l1_error is the total-variation distance between the binned
    probability masses.  arrival_uniforms feed pooled_arrival_ks, and
    component_masses component_mass_chi2.
    """
    if dec is None:
        if spacing is None:
            spacing = 6.0 * ks.sigma
        dec = decompose_state(psi, ks, spacing, centers=centers)
    if not dec.near_orthogonal:
        raise ValueError(
            f"state decomposition is not near-orthogonal "
            f"(max overlap {dec.max_offdiag_overlap:.3f} >= 0.05)")

    comp, finals = _draw_arrivals(dec.centers, dec.weights, cfg, stream)

    occupied = dec.centers[dec.weights > 1e-12]
    lo = occupied.min() - 6.0 * ks.sigma
    hi = occupied.max() + 6.0 * ks.sigma
    width = ks.sigma / 4.0
    n_bins = int(np.ceil((hi - lo) / width))
    edges = lo + width * np.arange(n_bins + 1)

    counts, _ = np.histogram(finals, bins=edges)
    n_in = counts.sum()
    density = counts / max(n_in, 1) / width
    ref_mass = _bin_reference_masses(psi, edges)
    est_mass = counts / cfg.n_walkers
    out_mismatch = abs((1.0 - est_mass.sum()) - (1.0 - ref_mass.sum()))
    l1 = 0.5 * (np.abs(est_mass - ref_mass).sum() + out_mismatch)

    masses = np.bincount(comp, minlength=len(dec.centers)) / cfg.n_walkers
    # Phi((x - b_j) / diffusion_sigma), written over the arrivals
    uniforms = finals
    uniforms -= dec.centers[comp]
    uniforms /= cfg.diffusion_sigma
    ndtr(uniforms, out=uniforms)
    uniforms.sort()
    return DensityEstimate(
        bin_edges=edges, counts=counts, density=density,
        reference_density=ref_mass / width, l1_error=float(l1),
        component_masses=masses, expected_weights=dec.weights, n_walkers=cfg.n_walkers,
        arrival_uniforms=uniforms)


def _draw_arrivals(centers: np.ndarray, weights: np.ndarray, cfg: DiffusionConfig,
                   stream: RngStream):
    """The sampler: each walker's component j, drawn with probability w_j,
    and its arrival b_j + diffusion_sigma * N(0, 1), formed in the normals'
    own array."""
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    comp = np.searchsorted(cum, stream.child(0).generator().random(cfg.n_walkers))
    arrivals = stream.child(1).generator().standard_normal(cfg.n_walkers)
    arrivals *= cfg.diffusion_sigma
    arrivals += centers[comp]
    return comp, arrivals


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
    statistics are formed one sixteenth of (0, 1) at a time from the sorted
    samples, so no copy of the pool is held."""
    parts = [est.arrival_uniforms for est in estimates]
    n = sum(len(u) for u in parts)
    cuts = [np.concatenate([[0], np.searchsorted(u, np.arange(1, 16) / 16), [len(u)]])
            for u in parts]
    stat, below = 0.0, 0
    for s in range(16):
        slab = np.sort(np.concatenate([u[c[s]:c[s + 1]] for u, c in zip(parts, cuts)]))
        if len(slab):
            # ranks below + 1 .. below + len(slab) in the pool
            i = np.arange(below + 1, below + len(slab) + 1)
            stat = max(stat, float(np.max(i / n - slab)), float(np.max(slab - (i - 1) / n)))
            below += len(slab)
    return stat, float(kolmogi(alpha) / np.sqrt(n))


def density_functional(phi: StateVector, psi: StateVector, sigma: float,
                       norm_tol: float = 1e-6) -> float:
    """Transition density |<phi, psi>|^2 / sigma between normalized states.

    Evaluated both directly and as the literal double-quadrature quadratic
    form with kernel conj(psi(x)) psi(y) / sigma; the two routes are
    algebraically identical and must agree to 1e-10, which cross-checks the
    quadrature implementation.
    """
    for s in (phi, psi):
        if abs(s.norm() - 1.0) > norm_tol:
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


def verify_diffusion_pde(cfg: DiffusionConfig, stream: RngStream, start: float = 0.0,
                         n_epochs: int = 2) -> PdeCheck:
    """March the walker histogram through Brownian epochs and compare against
    the heat kernel with diffusion coefficient k = diffusion_sigma^2/(2 tau).

    After e epochs the analytic density is a Gaussian of variance 2*k*(e*tau);
    the sup-norm residual is taken over bin-averaged densities, and the
    per-epoch variances exhibit additivity.
    """
    # displacement after each epoch, accumulated in place
    disp = _epoch_steps(cfg, stream, n_epochs)
    for e in range(1, n_epochs):
        disp[e] += disp[e - 1]
    width = cfg.diffusion_sigma / 4.0
    sup = 0.0
    variances = np.empty(n_epochs)
    for e in range(1, n_epochs + 1):
        xs = start + disp[e - 1]
        s_e = cfg.diffusion_sigma * np.sqrt(e)
        lo, hi = start - 8.0 * s_e, start + 8.0 * s_e
        edges = np.arange(lo, hi + width, width)
        counts, _ = np.histogram(xs, bins=edges)
        dens = counts / cfg.n_walkers / width
        z = (edges - start) / (np.sqrt(2.0) * s_e)
        ref_mass = 0.5 * (erf(z[1:]) - erf(z[:-1]))
        sup = max(sup, float(np.max(np.abs(dens - ref_mass / width))))
        variances[e - 1] = np.var(xs)
    expected = cfg.diffusion_sigma ** 2 * np.arange(1, n_epochs + 1)
    return PdeCheck(max_sup_residual=sup, variances=variances,
                    expected_variances=expected)


# walker blocks of solid_com_diffusion; fixed, so no result depends on how
# many threads run them
_BLOCKS = 8


def _thread_pool(jobs: int) -> ThreadPoolExecutor:
    """A pool of one thread per available core, at most one per job.  Its
    callers run independent jobs, each on its own stream, and collect the
    results in submission order, so no result depends on the thread count."""
    return ThreadPoolExecutor(max_workers=min(jobs, len(os.sched_getaffinity(0))))


def _block_generator(stream: RngStream) -> np.random.Generator:
    """SFC64 keyed by the stream's (master_seed, stream_id), masked to 64 bits
    as RngStream.generator masks them (SeedSequence rejects negative entropy).
    SFC64 draws a normal in about 2/3 of Philox's time, and solid-com's kicks
    are nearly all of the lab's draws; every other stream stays Philox."""
    mask = 2**64 - 1
    seq = np.random.SeedSequence(stream.master_seed & mask,
                                 spawn_key=(stream.stream_id & mask,))
    return np.random.Generator(np.random.SFC64(seq))


def solid_com_diffusion(n_cells: int, kick_std: float, cfg: DiffusionConfig,
                        stream: RngStream, n_steps: int = 8) -> float:
    """Estimated center-of-mass diffusion coefficient of an n-cell solid.

    Every cell receives an independent Gaussian kick each step; the COM moves
    by the mean kick (equal masses).  The estimate is Var(total displacement)
    / (2 * n_steps * tau); it scales as 1/n_cells.

    The walkers are split into _BLOCKS blocks (np.array_split sizes); block b
    draws from an SFC64 generator keyed by stream.child(b), and the
    blocks run on a _thread_pool.  Each block reuses one kick buffer of
    _KICK_BUFFER_NORMALS normals (at least one row), so memory stays flat as
    walkers x cells grow.  The fills and row means release the GIL, and the
    displacements are joined in block order, so the estimate is the same for
    every thread count.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be at least 1")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")

    rows = max(1, _KICK_BUFFER_NORMALS // n_cells)

    def block(b: int, size: int) -> np.ndarray:
        rng = _block_generator(stream.child(b))
        buf = np.empty((min(rows, size), n_cells))
        disp = np.zeros(size)
        for _ in range(n_steps):
            for i0 in range(0, size, rows):
                kicks = rng.standard_normal(out=buf[:size - i0])
                disp[i0:i0 + len(kicks)] += kick_std * kicks.mean(axis=1)
        return disp

    q, r = divmod(cfg.n_walkers, _BLOCKS)
    sizes = [q + (b < r) for b in range(_BLOCKS)]
    with _thread_pool(_BLOCKS) as pool:
        disp = np.concatenate(list(pool.map(block, range(_BLOCKS), sizes)))
    return float(np.var(disp) / (2.0 * n_steps * cfg.tau))


def random_superposition(ks: KernelSpace, stream: RngStream,
                         min_components: int = 2, max_components: int = 5,
                         spacing: Optional[float] = None):
    """Random near-orthogonal superposition of embedded points.

    Returns (psi, dec): psi has complex Gaussian coefficients over lattice
    centers spaced >= 6 sigma and is normalized; dec is its decomposition
    over those centers, whose weights are the exact squared coefficients of
    the normalized state, renormalized to sum to 1 (simulate_state_diffusion
    takes it as is).
    """
    if spacing is None:
        spacing = 6.0 * ks.sigma
    rng = stream.generator()
    n_comp = int(rng.integers(min_components, max_components + 1))
    g = ks.grid
    lo = g.x_min + 6.0 * ks.sigma
    hi = g.x_max - 6.0 * ks.sigma
    lattice = np.arange(lo, hi, spacing)
    if len(lattice) < n_comp:
        raise ValueError("grid too small for the requested superposition")
    centers = np.sort(rng.choice(lattice, size=n_comp, replace=False))
    coef = rng.standard_normal(n_comp) + 1j * rng.standard_normal(n_comp)
    vals = np.zeros(g.n_points, dtype=complex)
    for b, c in zip(centers, coef):
        vals += c * embed_point(float(b), ks).values
    psi = StateVector(g, vals).normalized()
    return psi, decompose_state(psi, ks, spacing, centers=centers)
