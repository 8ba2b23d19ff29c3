import tracemalloc

import numpy as np
import pytest

from statelab import (
    DiffusionConfig, diffusion, RngStream, StateVector,
    decompose_state, density_functional, embed_point,
    fs_distance, inner_l2, random_superposition, random_unitary,
    simulate_state_diffusion, solid_com_diffusion, verify_diffusion_pde,
)
from statelab.numerics import Grid, NumericalBreakdownError

SIGMA = 0.5


def cfg(n=100_000, ds=SIGMA):
    return DiffusionConfig(n, 1.0, ds)


def stream(stream_id=1, seed=77):
    return RngStream(seed, stream_id)


# ------------------------------------------------------------- decompose

def test_decompose_single_component(grid, ks):
    psi = embed_point(0.0, ks)
    dec = decompose_state(psi, ks, spacing=6 * SIGMA, centers=np.arange(-9.0, 9.1, 3.0))
    j = int(np.argmin(np.abs(dec.centers)))
    assert abs(dec.coefficients[j]) == pytest.approx(1.0, abs=1e-6)
    others = np.delete(np.abs(dec.coefficients), j)
    assert others.max() < 1e-6
    assert dec.residual < 1e-8


def test_decompose_two_component_weights(grid, ks):
    # renormalized squared coefficients recover 0.36 / 0.64 despite the
    # non-orthogonality of the frame (Gram-corrected normalization)
    b1, b2 = -1.5, 1.5   # separation 6 sigma
    vals = 0.6 * embed_point(b1, ks).values + 0.8 * embed_point(b2, ks).values
    psi = StateVector(grid, vals).normalized()
    dec = decompose_state(psi, ks, spacing=3.0, centers=np.array([b1, b2]))
    assert dec.weights[0] == pytest.approx(0.36, abs=1e-3)
    assert dec.weights[1] == pytest.approx(0.64, abs=1e-3)
    assert dec.near_orthogonal
    # Gram oracle: sum |C|^2 = 1 / (1 + 2*0.6*0.8*g12)
    g12 = np.exp(-(b1 - b2) ** 2 / (8 * SIGMA**2))
    assert dec.sum_sq == pytest.approx(1.0 / (1.0 + 0.96 * g12), rel=1e-6)


def test_decompose_residual_decreases_with_refinement(grid, ks):
    # generic smooth state not in the frame span
    vals = np.exp(-(grid.x - 0.4) ** 2 / 3.0) * np.exp(0.3j * grid.x)
    psi = StateVector(grid, vals).normalized()
    residuals = []
    for spacing in (3.0, 1.5, 0.75):
        dec = decompose_state(psi, ks, spacing=spacing)
        residuals.append(dec.residual)
    assert residuals[0] > residuals[1] > residuals[2]


def test_decompose_ill_conditioned_frame(grid, ks):
    with pytest.raises(NumericalBreakdownError):
        decompose_state(embed_point(0.0, ks), ks, spacing=SIGMA / 25.0)


def test_decompose_near_orthogonal_flag(grid, ks):
    psi = embed_point(0.0, ks)
    dec3 = decompose_state(psi, ks, spacing=3 * SIGMA)
    assert not dec3.near_orthogonal      # overlap exp(-9/8) ~ 0.32
    dec6 = decompose_state(psi, ks, spacing=6 * SIGMA)
    assert dec6.near_orthogonal          # overlap exp(-9/2) ~ 0.011


# ------------------------------------------------------------- brownian

def test_epoch_steps_moments():
    c = cfg()
    steps = diffusion._epoch_steps(c, stream(), 1)
    assert len(steps) == 1 and steps[0].shape == (c.n_walkers,)
    finals = steps[0]
    assert abs(finals.mean()) < 4 * c.diffusion_sigma / np.sqrt(c.n_walkers)
    assert finals.var() == pytest.approx(c.diffusion_sigma**2, rel=0.05)


def test_epoch_steps_deterministic():
    a = diffusion._epoch_steps(cfg(), stream(seed=5), 1)
    b = diffusion._epoch_steps(cfg(), stream(seed=5), 1)
    assert np.array_equal(a, b)
    c = diffusion._epoch_steps(cfg(), stream(seed=6), 1)
    assert not np.allclose(a, c)


@pytest.mark.parametrize("normals", [1, 7, 10**6])
def test_epoch_steps_are_rows_of_one_draw(monkeypatch, normals):
    # chunks of one row, of 3 rows over 2 epochs, and the whole ensemble
    # consume the stream as one (n_walkers, n_epochs) draw does
    c = cfg(n=1001)
    want = stream(8).generator().standard_normal((1001, 2)) * c.diffusion_sigma
    monkeypatch.setattr(diffusion, "_KICK_BUFFER_NORMALS", normals)
    steps = diffusion._epoch_steps(c, stream(8), 2)
    assert np.array_equal(np.column_stack(steps), want)


# ------------------------------------------------------------- born rule

def test_simulate_single_component(grid, ks):
    psi = embed_point(0.0, ks)
    est = simulate_state_diffusion(psi, cfg(), stream(2), ks, centers=np.array([0.0]))
    assert est.l1_error < 0.02
    assert est.component_masses[0] == 1.0
    total_mass = est.counts.sum() / est.n_walkers
    assert total_mass == pytest.approx(1.0, abs=1e-3)
    width = est.bin_edges[1] - est.bin_edges[0]
    assert (est.density * width).sum() == pytest.approx(1.0, abs=1e-10)


def test_simulate_two_component_split(grid, ks):
    b1, b2 = -1.5, 1.5
    vals = 0.6 * embed_point(b1, ks).values + 0.8 * embed_point(b2, ks).values
    psi = StateVector(grid, vals).normalized()
    est = simulate_state_diffusion(psi, cfg(), stream(3), ks, centers=np.array([b1, b2]))
    # mass on the two half-lines splits 0.36 / 0.64
    mids = 0.5 * (est.bin_edges[:-1] + est.bin_edges[1:])
    left = est.counts[mids < 0].sum() / est.n_walkers
    assert left == pytest.approx(0.36, abs=0.01)
    assert est.component_masses[0] == pytest.approx(0.36, abs=0.01)


def test_simulate_degenerate_kernel_limit(grid, ks):
    # diffusion_sigma -> 0: arrivals collapse onto the centers with weights |C|^2
    b1, b2 = -1.5, 1.5
    vals = 0.6 * embed_point(b1, ks).values + 0.8 * embed_point(b2, ks).values
    psi = StateVector(grid, vals).normalized()
    c = cfg(n=20_000, ds=1e-9)
    est = simulate_state_diffusion(psi, c, stream(4), ks, centers=np.array([b1, b2]))
    mids = 0.5 * (est.bin_edges[:-1] + est.bin_edges[1:])
    occupied = est.counts > 0
    assert np.all(np.minimum(np.abs(mids[occupied] - b1),
                             np.abs(mids[occupied] - b2)) < est.bin_edges[1] - est.bin_edges[0])
    assert est.component_masses[0] == pytest.approx(0.36, abs=0.01)


def test_simulate_requires_near_orthogonal(grid, ks):
    psi = embed_point(0.0, ks)
    with pytest.raises(ValueError):
        simulate_state_diffusion(psi, cfg(n=1000), stream(), ks, spacing=3 * SIGMA)


def test_born_statistics_random_superpositions(grid, ks, mixture_ks):
    # module-level spot check (3 cases); the acceptance suite runs all 10
    for case in range(3):
        psi, dec = random_superposition(ks, RngStream(42, 11).child(case))
        c, s = cfg(), stream(100 + case)
        est = simulate_state_diffusion(psi, c, s, ks, dec=dec)
        assert est.l1_error < 0.02
        for w, m in zip(est.expected_weights, est.component_masses):
            sd = np.sqrt(w * (1 - w) / est.n_walkers)
            assert abs(m - w) <= 3 * sd
        assert mixture_ks(dec.centers, dec.weights, c, s) < 1.628 / np.sqrt(est.n_walkers)


def test_superposition_decomposition_is_the_one_simulated(ks):
    # passing random_superposition's decomposition skips a second one over
    # the same centers, and changes no output
    psi, dec = random_superposition(ks, RngStream(42, 11).child(4))
    c = cfg(n=5000)
    given = simulate_state_diffusion(psi, c, stream(104), ks, dec=dec)
    redone = simulate_state_diffusion(psi, c, stream(104), ks, centers=dec.centers)
    for field in ("bin_edges", "counts", "density", "reference_density",
                  "component_masses", "expected_weights", "arrival_uniforms"):
        assert np.array_equal(getattr(given, field), getattr(redone, field)), field
    assert given.l1_error == redone.l1_error


def test_state_diffusion_memory_at_1e5_walkers(ks):
    # the arrivals are drawn, shifted, histogrammed and mapped to their
    # uniforms in one 0.8 MB array; the walkers' components take another
    psi, dec = random_superposition(ks, RngStream(42, 11).child(0))
    c = cfg()
    simulate_state_diffusion(psi, c, stream(18), ks, dec=dec)   # one-off allocations
    tracemalloc.start()
    try:
        simulate_state_diffusion(psi, c, stream(18), ks, dec=dec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_linearity_of_simulated_density(grid, ks):
    # mixture density equals the weight-sum of single-component densities
    b = np.array([-3.0, 3.0])
    vals = (np.sqrt(0.3) * embed_point(b[0], ks).values
            + np.sqrt(0.7) * embed_point(b[1], ks).values)
    psi = StateVector(grid, vals).normalized()
    est = simulate_state_diffusion(psi, cfg(), stream(5), ks, centers=b)

    singles = []
    for j, bj in enumerate(b):
        ej = simulate_state_diffusion(embed_point(bj, ks), cfg(), stream(6 + j), ks,
                                      centers=np.array([bj]))
        singles.append(np.interp(
            0.5 * (est.bin_edges[:-1] + est.bin_edges[1:]),
            0.5 * (ej.bin_edges[:-1] + ej.bin_edges[1:]), ej.density,
            left=0.0, right=0.0))
    mix = est.expected_weights[0] * singles[0] + est.expected_weights[1] * singles[1]
    width = est.bin_edges[1] - est.bin_edges[0]
    l1 = 0.5 * np.abs(est.density - mix).sum() * width
    assert l1 < 0.03      # two independent MC estimates at 1e5 walkers


# ------------------------------------------------------ transition density

def test_density_functional_unit_overlap(grid, ks):
    psi = embed_point(0.0, ks)
    assert density_functional(psi, psi, SIGMA) == pytest.approx(1.0 / SIGMA, rel=1e-10)


def test_density_functional_symmetric(grid, ks, rng):
    f = StateVector(grid, rng.standard_normal(grid.n_points)
                    + 1j * rng.standard_normal(grid.n_points)).normalized()
    g = StateVector(grid, rng.standard_normal(grid.n_points)
                    + 1j * rng.standard_normal(grid.n_points)).normalized()
    assert density_functional(f, g, SIGMA) == density_functional(g, f, SIGMA)


def test_density_functional_rejects_unnormalized(grid, ks):
    psi = embed_point(0.0, ks)
    with pytest.raises(ValueError):
        density_functional(psi, StateVector(grid, 2 * psi.values), SIGMA)


def test_density_functional_depends_only_on_fs_distance(rng):
    # pairs at equal FS distance (common unitary rotations) share the value
    g = Grid(64, -8.0, 8.0, True)
    f0 = StateVector(g, rng.standard_normal(64) + 1j * rng.standard_normal(64)).normalized()
    g0 = StateVector(g, rng.standard_normal(64) + 1j * rng.standard_normal(64)).normalized()
    base = density_functional(f0, g0, SIGMA)
    d0 = fs_distance(f0, g0)
    for _ in range(50):
        U = random_unitary(64, rng)
        fu = StateVector(g, U @ f0.values)
        gu = StateVector(g, U @ g0.values)
        assert fs_distance(fu, gu) == pytest.approx(d0, abs=1e-9)
        assert density_functional(fu, gu, SIGMA) == pytest.approx(base, abs=1e-8)


def test_density_functional_ray_invariance(grid, ks, rng):
    f = embed_point(-0.3, ks)
    g = embed_point(0.9, ks)
    base = density_functional(f, g, SIGMA)
    for _ in range(5):
        a, b = rng.uniform(0, 2 * np.pi, 2)
        fu = StateVector(grid, np.exp(1j * a) * f.values)
        gu = StateVector(grid, np.exp(1j * b) * g.values)
        assert density_functional(fu, gu, SIGMA) == pytest.approx(base, abs=1e-12)


# ------------------------------------------------------------- diffusion PDE

def test_verify_diffusion_pde(grid):
    res = verify_diffusion_pde(cfg(), stream(8), n_epochs=2)
    assert res.max_sup_residual < 0.03
    assert res.variances[0] == pytest.approx(res.expected_variances[0], rel=0.05)
    assert res.variances[1] == pytest.approx(res.expected_variances[1], rel=0.05)
    assert res.variances[1] / res.variances[0] == pytest.approx(2.0, rel=0.05)


def test_verify_diffusion_pde_zero_epochs_degenerate():
    c = DiffusionConfig(1000, 1.0, 1e-12)
    res = verify_diffusion_pde(c, RngStream(3, 9), n_epochs=1)
    assert res.variances[0] < 1e-20     # all walkers stay in the start bin


def test_epoch_count_must_be_positive():
    # zero epochs would check nothing: an empty PdeCheck passes any bound
    with pytest.raises(ValueError):
        verify_diffusion_pde(cfg(n=1000), stream(8), n_epochs=0)
    with pytest.raises(ValueError):
        diffusion._epoch_steps(cfg(n=1000), stream(), 0)


# ------------------------------------------------------------- solid COM

def test_solid_single_cell_matches_brownian():
    c = cfg()
    k1 = solid_com_diffusion(1, c.diffusion_sigma, c, stream(10), n_steps=4)
    expected = c.diffusion_sigma**2 / (2 * c.tau)
    assert k1 == pytest.approx(expected, rel=0.05)


def test_solid_com_scaling():
    base = solid_com_diffusion(1, 0.5, cfg(), stream(11), n_steps=4)
    k100 = solid_com_diffusion(100, 0.5, cfg(), stream(12), n_steps=4)
    assert k100 / base == pytest.approx(0.01, rel=0.10)


def test_solid_zero_kick():
    assert solid_com_diffusion(10, 0.0, cfg(n=1000), stream(13)) == 0.0


def test_solid_validation():
    with pytest.raises(ValueError):
        solid_com_diffusion(0, 0.5, cfg(n=10), stream())


def test_solid_step_count_must_be_positive():
    # no steps means no displacement variance to estimate (0 gives nan, -3 gives -0.0)
    for n_steps in (0, -3):
        with pytest.raises(ValueError):
            solid_com_diffusion(10, 0.5, cfg(n=10), stream(), n_steps=n_steps)


def test_solid_blocks_are_thread_count_invariant(monkeypatch):
    pools = []
    real_pool = diffusion.ThreadPoolExecutor

    def spy(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(diffusion, "ThreadPoolExecutor", spy)
    cores = len(diffusion.os.sched_getaffinity(0))
    c, s = cfg(n=20_000), stream(14)
    default = solid_com_diffusion(10, 0.5, c, s)
    monkeypatch.setattr(diffusion.os, "sched_getaffinity", lambda pid: {0})
    single = solid_com_diffusion(10, 0.5, c, s)
    assert pools == [min(diffusion._BLOCKS, cores), 1]
    assert single == default


def test_solid_kick_memory_is_one_buffer_per_block(monkeypatch):
    # 20,000 walkers x 1000 cells are 160 MB of kicks per step; on one worker
    # only one ~1 MiB buffer and the displacements are alive at a time
    monkeypatch.setattr(diffusion.os, "sched_getaffinity", lambda pid: {0})
    tracemalloc.start()
    try:
        solid_com_diffusion(1000, 0.5, cfg(n=20_000), stream(16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("normals", [1, 10**6])
def test_solid_kick_chunks_leave_the_estimate_unchanged(monkeypatch, normals):
    # blocks of 375-376 walkers over 1000 cells take three chunks by default,
    # one row per chunk at 1 normal and the whole block at 10**6
    c, s = cfg(n=3001), stream(17)
    default = solid_com_diffusion(1000, 0.5, c, s)
    monkeypatch.setattr(diffusion, "_KICK_BUFFER_NORMALS", normals)
    assert solid_com_diffusion(1000, 0.5, c, s) == default


@pytest.mark.parametrize("n_walkers", [1001, 3])
def test_solid_uneven_walker_blocks(n_walkers):
    # 1001 does not split evenly into the blocks; 3 leaves most blocks empty
    k = solid_com_diffusion(10, 0.5, cfg(n=n_walkers), stream(15))
    assert np.isfinite(k) and k > 0.0
