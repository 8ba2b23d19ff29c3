import functools
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from statelab import diffusion
from statelab.diffusion import (
    DiffusionConfig, decompose_state, density_functional, random_superposition,
    random_unitary, simulate_state_diffusion, solid_com_diffusion, verify_diffusion_pde,
)
from statelab.geometry import embed_point, fs_distance
from statelab.numerics import Grid, NumericalBreakdownError, RngStream, StateVector, inner_l2

SIGMA = 0.5


def cfg(n=100_000, ds=SIGMA):
    return DiffusionConfig(n, 1.0, ds)


def stream(stream_id=1, seed=77):
    return RngStream(seed, stream_id)


def simulate(psi, c, s, ks, centers):
    """simulate_state_diffusion of psi decomposed over centers."""
    return simulate_state_diffusion(psi, c, s, ks, decompose_state(psi, ks, centers))


# ------------------------------------------------------------- decompose

def test_decompose_single_component(grid, ks):
    psi = embed_point(0.0, ks)
    dec = decompose_state(psi, ks, np.arange(-9.0, 9.1, 3.0))
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
    dec = decompose_state(psi, ks, [b1, b2])
    assert dec.weights[0] == pytest.approx(0.36, abs=1e-3)
    assert dec.weights[1] == pytest.approx(0.64, abs=1e-3)
    assert dec.near_orthogonal
    # Gram oracle: sum |C|^2 = 1 / (1 + 2*0.6*0.8*g12)
    g12 = np.exp(-(b1 - b2) ** 2 / (8 * SIGMA**2))
    assert dec.sum_sq == pytest.approx(1.0 / (1.0 + 0.96 * g12), rel=1e-6)


def test_decompose_residual_decreases_with_refinement(grid, ks, lattice):
    # generic smooth state not in the frame span
    vals = np.exp(-(grid.x - 0.4) ** 2 / 3.0) * np.exp(0.3j * grid.x)
    psi = StateVector(grid, vals).normalized()
    residuals = []
    for spacing in (3.0, 1.5, 0.75):
        dec = decompose_state(psi, ks, lattice(ks, spacing))
        residuals.append(dec.residual)
    assert residuals[0] > residuals[1] > residuals[2]


def test_decompose_ill_conditioned_frame(grid, ks, lattice):
    with pytest.raises(NumericalBreakdownError):
        decompose_state(embed_point(0.0, ks), ks, lattice(ks, SIGMA / 25.0))


def test_decompose_near_orthogonal_flag(grid, ks, lattice):
    psi = embed_point(0.0, ks)
    dec3 = decompose_state(psi, ks, lattice(ks, 3 * SIGMA))
    assert not dec3.near_orthogonal      # overlap exp(-9/8) ~ 0.32
    dec6 = decompose_state(psi, ks, lattice(ks, 6 * SIGMA))
    assert dec6.near_orthogonal          # overlap exp(-9/2) ~ 0.011


# ------------------------------------------------------------- brownian

def pde_fields(res):
    return res.max_sup_residual, res.variances.tolist(), res.expected_variances.tolist()


def test_epoch_steps_moments():
    c = cfg()
    res = verify_diffusion_pde(c, stream())
    assert res.variances.shape == (diffusion._PDE_EPOCHS,)
    assert res.variances[0] == pytest.approx(c.diffusion_sigma**2, rel=0.05)
    # the first epoch's steps are the first column of one (n_walkers, epochs) draw
    steps = stream().generator().standard_normal((c.n_walkers, diffusion._PDE_EPOCHS))
    finals = np.ascontiguousarray(steps[:, 0] * c.diffusion_sigma)
    assert np.var(finals) == res.variances[0]
    assert abs(finals.mean()) < 4 * c.diffusion_sigma / np.sqrt(c.n_walkers)


def test_epoch_steps_deterministic():
    # verify_diffusion_pde draws its epoch steps from the stream alone
    a = verify_diffusion_pde(cfg(), stream(seed=5))
    assert pde_fields(verify_diffusion_pde(cfg(), stream(seed=5))) == pde_fields(a)
    c = verify_diffusion_pde(cfg(), stream(seed=6))
    assert not np.allclose(a.variances, c.variances, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("normals", [1, 7, 10**6])
def test_epoch_steps_are_rows_of_one_draw(monkeypatch, normals):
    # chunks of one row, of 3 rows over 2 epochs, and the whole ensemble
    # consume the stream as one (n_walkers, epochs) draw does, and give the
    # same PdeCheck to the bit
    c = cfg(n=1001)
    default = verify_diffusion_pde(c, stream(8))
    steps = stream(8).generator().standard_normal((1001, diffusion._PDE_EPOCHS))
    disp = np.cumsum(steps * c.diffusion_sigma, axis=1).T.copy()
    assert default.variances.tolist() == [np.var(xs) for xs in disp]
    monkeypatch.setattr(diffusion, "_KICK_BUFFER_NORMALS", normals)
    assert pde_fields(verify_diffusion_pde(c, stream(8))) == pde_fields(default)


# ------------------------------------------------------------- born rule

def test_simulate_single_component(grid, ks):
    psi = embed_point(0.0, ks)
    est = simulate(psi, cfg(), stream(2), ks, [0.0])
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
    est = simulate(psi, cfg(), stream(3), ks, [b1, b2])
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
    est = simulate(psi, c, stream(4), ks, [b1, b2])
    mids = 0.5 * (est.bin_edges[:-1] + est.bin_edges[1:])
    occupied = est.counts > 0
    assert np.all(np.minimum(np.abs(mids[occupied] - b1),
                             np.abs(mids[occupied] - b2)) < est.bin_edges[1] - est.bin_edges[0])
    assert est.component_masses[0] == pytest.approx(0.36, abs=0.01)


def test_simulate_requires_near_orthogonal(grid, ks, lattice):
    psi = embed_point(0.0, ks)
    with pytest.raises(ValueError):
        simulate(psi, cfg(n=1000), stream(), ks, lattice(ks, 3 * SIGMA))


def test_born_statistics_random_superpositions(grid, ks, mixture_ks):
    # module-level spot check (3 cases); the acceptance suite runs all 10
    for case in range(3):
        psi, dec = random_superposition(ks, RngStream(42, 11).child(case))
        c, s = cfg(), stream(100 + case)
        est = simulate_state_diffusion(psi, c, s, ks, dec)
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
    given = simulate_state_diffusion(psi, c, stream(104), ks, dec)
    redone = simulate(psi, c, stream(104), ks, dec.centers)
    for field in ("bin_edges", "counts", "density", "reference_density",
                  "component_masses", "expected_weights", "arrival_uniforms"):
        assert np.array_equal(getattr(given, field), getattr(redone, field)), field
    assert given.l1_error == redone.l1_error


@pytest.mark.parametrize("chunk", [1, 7, 2**14, 10**6])
def test_arrival_chunks_are_slices_of_one_draw(ks, monkeypatch, chunk):
    # chunks of one walker, of 7, the default (two chunks here) and the whole
    # ensemble consume both streams as one draw over every walker does
    psi, dec = random_superposition(ks, RngStream(42, 11).child(2))
    c, s = cfg(n=2**14 + 3), stream(19)
    cum = np.cumsum(dec.weights)
    cum[-1] = 1.0
    comp = np.searchsorted(cum, s.child(0).generator().random(c.n_walkers))
    finals = s.child(1).generator().standard_normal(c.n_walkers) * c.diffusion_sigma
    finals += dec.centers[comp]
    monkeypatch.setattr(diffusion, "_ARRIVAL_CHUNK", 10**6)
    whole = simulate_state_diffusion(psi, c, s, ks, dec)
    assert np.array_equal(whole.counts, np.histogram(finals, bins=whole.bin_edges)[0])
    assert np.array_equal(whole.component_masses,
                          np.bincount(comp, minlength=len(dec.centers)) / c.n_walkers)
    assert np.array_equal(whole.arrival_uniforms,
                          np.sort(ndtr((finals - dec.centers[comp]) / c.diffusion_sigma)))
    monkeypatch.setattr(diffusion, "_ARRIVAL_CHUNK", chunk)
    est = simulate_state_diffusion(psi, c, s, ks, dec)
    for field in ("counts", "density", "component_masses", "arrival_uniforms"):
        assert np.array_equal(getattr(est, field), getattr(whole, field)), field
    assert est.l1_error == whole.l1_error


def test_state_diffusion_memory_at_1e5_walkers(ks):
    # the arrivals are drawn, histogrammed and mapped to their uniforms in
    # chunks of _ARRIVAL_CHUNK walkers; only the 0.8 MB sample spans them all
    psi, dec = random_superposition(ks, RngStream(42, 11).child(0))
    c = cfg()
    simulate_state_diffusion(psi, c, stream(18), ks, dec)   # one-off allocations
    tracemalloc.start()
    try:
        simulate_state_diffusion(psi, c, stream(18), ks, dec)
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
    est = simulate(psi, cfg(), stream(5), ks, b)

    singles = []
    for j, bj in enumerate(b):
        ej = simulate(embed_point(bj, ks), cfg(), stream(6 + j), ks, [bj])
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
    res = verify_diffusion_pde(cfg(), stream(8))
    assert res.max_sup_residual < 0.03
    assert res.variances[0] == pytest.approx(res.expected_variances[0], rel=0.05)
    assert res.variances[1] == pytest.approx(res.expected_variances[1], rel=0.05)
    assert res.variances[1] / res.variances[0] == pytest.approx(2.0, rel=0.05)


def test_verify_diffusion_pde_zero_epochs_degenerate():
    c = DiffusionConfig(1000, 1.0, 1e-12)
    res = verify_diffusion_pde(c, RngStream(3, 9))
    assert res.variances.max() < 1e-20     # all walkers stay in the start bin


# ------------------------------------------------------------- solid COM

@pytest.mark.parametrize("n_steps", [1, 4, 8])
def test_solid_single_cell_matches_brownian(n_steps):
    # the n_steps kicks fold into one draw of std kick * sqrt(n_steps), and the
    # estimate divides by the n_steps * tau horizon
    c = cfg()
    k1 = solid_com_diffusion(1, c.diffusion_sigma, c, stream(10), n_steps=n_steps)
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


def test_solid_blocks_are_thread_count_invariant(affinity):
    # the blocks run on cores - 1 executor threads and the caller; no core
    # count changes the estimate
    c, s = cfg(n=20_000), stream(14)
    estimates = []
    for cores in ({0}, {0, 1}, {0, 1, 2}):
        sizes = affinity(cores)
        estimates.append(solid_com_diffusion(10, 0.5, c, s))
        assert set(sizes) == {len(cores) - 1}
    assert estimates[0] == estimates[1] == estimates[2]


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


# ------------------------------------------------------------- job runner

def _after(seconds, value):
    def job():
        time.sleep(seconds)
        return value
    return job


def _raising(seconds, exc):
    def job():
        time.sleep(seconds)
        raise exc
    return job


def test_start_returns_results_in_submission_order(affinity):
    affinity({0, 1, 2})
    # later jobs end first
    jobs = [_after(0.02 * (5 - i), i) for i in range(6)]
    assert diffusion._start(jobs)() == list(range(6))


def test_start_raises_the_first_exception_in_submission_order(affinity):
    affinity({0, 1, 2})
    ended = []

    def last():
        time.sleep(0.1)
        ended.append(True)
    first = ValueError("first")
    jobs = [_after(0.0, 0), _raising(0.05, first), _raising(0.0, KeyError("second")), last]
    with pytest.raises(ValueError) as info:
        diffusion._start(jobs)()
    assert info.value is first
    assert ended == [True]   # every job has ended before collect raises


# four jobs that each start and collect four jobs of their own, under the
# cores in argv[2] as the affinity that diffusion._start reads
_NESTED = """
import sys, time
sys.path.insert(0, sys.argv[1])
from statelab import diffusion
cores = {int(c) for c in sys.argv[2].split(",")}
diffusion.os.sched_getaffinity = lambda pid: cores

def inner(i, j):
    time.sleep(0.005)
    return 10 * i + j

def outer(i):
    return sum(diffusion._start(lambda j=j: inner(i, j) for j in range(4))())

print(diffusion._start(lambda i=i: outer(i) for i in range(4))())
"""


@pytest.mark.parametrize("cores", ["0", "0,1", "0,1,2"])
def test_start_nested_jobs_finish(cores):
    # on any thread count a collector runs its unstarted jobs itself, so no
    # job waits forever on jobs queued behind it.  In a child process with a
    # timeout, so a deadlock fails the test: deadlocked executor threads
    # would also hang this interpreter's exit
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _NESTED, str(src), cores],
                         capture_output=True, text=True, timeout=30, check=True)
    assert out.stdout.strip() == str([sum(10 * i + j for j in range(4)) for i in range(4)])


def test_start_on_one_core_runs_every_job_on_the_caller(affinity):
    sizes = affinity({0})
    idents = diffusion._start(threading.get_ident for _ in range(5))()
    assert sizes == [0]
    assert idents == [threading.get_ident()] * 5


def test_start_runs_each_job_once_under_contention(affinity):
    # seven threads on fewer cores and a short switch interval: the caller and
    # the threads race to claim every job, and each must run exactly once
    affinity(range(8))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ran = []

            def job(i):
                ran.append(i)
                return i
            assert diffusion._start(functools.partial(job, i) for i in range(50))() == list(range(50))
            assert sorted(ran) == list(range(50))
    finally:
        sys.setswitchinterval(interval)
