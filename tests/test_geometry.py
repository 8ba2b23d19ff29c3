import numpy as np
import pytest
from scipy.integrate import quad

from statelab.dynamics import expect_p
from statelab.geometry import (
    GaussianParams, KernelSpace, _packet_directions, completeness_rank,
    delta_path_projection, embed_point, fs_distance, fs_metric_restriction_check,
    gram_matrix, grid_delta, h_norm_velocity, kernel_inner, realize,
)
from statelab.numerics import Grid, StateVector, inner_l2

SIGMA = 0.5
EXP_HALF = 0.6065306597126334   # exp(-1/2), kernel value at separation 2 sigma


# ---------------------------------------------------------------- kernel

def test_kernel_delta_normalization(grid, ks):
    # the kernel integral of a point state against itself is 1
    d = grid_delta(grid, 0.3)
    assert kernel_inner(d, d, ks).real == pytest.approx(1.0, abs=1e-6)


def test_kernel_delta_pair_closed_form(grid, ks):
    a, b = -SIGMA, SIGMA   # separation 2 sigma
    val = kernel_inner(grid_delta(grid, a), grid_delta(grid, b), ks)
    assert val.real == pytest.approx(EXP_HALF, abs=1e-6)
    assert val.real == pytest.approx(np.exp(-(a - b) ** 2 / (8 * SIGMA**2)), abs=1e-9)


def test_kernel_inner_conjugate_symmetric(grid, ks, rng):
    for _ in range(5):
        f = StateVector(grid, rng.standard_normal(grid.n_points)
                        + 1j * rng.standard_normal(grid.n_points))
        g = StateVector(grid, rng.standard_normal(grid.n_points)
                        + 1j * rng.standard_normal(grid.n_points))
        assert kernel_inner(f, g, ks) == pytest.approx(
            np.conj(kernel_inner(g, f, ks)), abs=1e-10)
    assert kernel_inner(f, f, ks).real > 0


def test_kernel_space_rejects_bad_sigma(grid):
    with pytest.raises(ValueError):
        KernelSpace(grid, 0.0)


def test_smoothing_composition_reproduces_kernel():
    for n in (64, 256):
        g = Grid(n, -16.0, 16.0)
        ks = KernelSpace(g, SIGMA)
        R = ks.smoothing_matrix()
        K = ks.kernel_matrix()
        dense = (R.T @ R) * g.dx - K
        assert np.abs(dense).max() < 1e-8
        # the dense difference is circulant, and the FFT row is its row 0
        shifts = np.array([np.roll(dense[0], i) for i in range(n)])
        assert np.abs(dense - shifts).max() < 1e-14
        row = ks.composition_deviation()
        assert np.abs(row - dense[0]).max() < 1e-14
        assert np.abs(row).max() < 1e-8


def test_smoothing_carries_delta_to_embedded_point(grid, ks):
    smoothed = ks.smooth(grid_delta(grid, 0.7))
    target = embed_point(0.7, ks)
    assert np.max(np.abs(smoothed.values - target.values)) < 1e-8


# ---------------------------------------------------------------- embeddings

def test_embed_point_norm_and_peak(grid, ks):
    f = embed_point(0.0, ks)
    assert f.norm() == pytest.approx(1.0, abs=1e-10)
    assert grid.x[int(np.argmax(f.density()))] == pytest.approx(0.0, abs=grid.dx)


def test_embed_point_overlap_oracle(grid, ks):
    norm = (2 * np.pi * SIGMA**2) ** -0.25
    for a, b in [(0.0, 0.5), (-1.0, 1.0), (0.0, 2.0)]:
        def integrand(x, a=a, b=b):
            return (norm**2 * np.exp(-(x - a) ** 2 / (4 * SIGMA**2))
                    * np.exp(-(x - b) ** 2 / (4 * SIGMA**2)))
        oracle, _ = quad(integrand, -np.inf, np.inf)
        got = inner_l2(embed_point(a, ks), embed_point(b, ks)).real
        assert got == pytest.approx(oracle, abs=1e-8)
        assert got == pytest.approx(np.exp(-(a - b) ** 2 / (8 * SIGMA**2)), abs=1e-8)


def test_embed_point_equals_realize(grid, ks):
    a = 0.8
    f = embed_point(a, ks)
    g = realize(GaussianParams(a, 0.0, SIGMA), grid)
    assert np.array_equal(f.values, g.values)


def test_embed_point_rejects_out_of_domain(ks):
    with pytest.raises(ValueError):
        embed_point(100.0, ks)


def test_realize_reduces_to_embed_point_at_zero_momentum(grid, ks):
    q = GaussianParams(0.5, 0.0, SIGMA)
    f = realize(q, grid)
    assert np.max(np.abs(f.values - embed_point(0.5, ks).values)) < 1e-14


def test_realize_momentum_expectation(grid, phys):
    for p in (-1.5, 0.3, 2.0):
        f = realize(GaussianParams(0.0, p, SIGMA), grid)
        assert f.norm() == pytest.approx(1.0, abs=1e-10)
        assert expect_p(f, phys) == pytest.approx(p, abs=1e-8)


# ---------------------------------------------------------------- FS distance

def test_fs_distance_self_and_phase(grid, ks, rng):
    # arccos near unit overlap amplifies round-off to sqrt(eps) ~ 1.5e-8
    f = embed_point(0.0, ks)
    assert fs_distance(f, f) == pytest.approx(0.0, abs=1e-7)
    for _ in range(10):
        alpha = rng.uniform(0, 2 * np.pi)
        g = StateVector(grid, np.exp(1j * alpha) * f.values)
        assert fs_distance(f, g) == pytest.approx(0.0, abs=1e-6)


def test_fs_distance_rejects_unnormalized(grid, ks):
    f = embed_point(0.0, ks)
    bad = StateVector(grid, 2.0 * f.values)
    with pytest.raises(ValueError):
        fs_distance(f, bad)


def test_overlap_distance_identity(grid, ks):
    # flagship identity: cos^2 rho = exp(-(a-b)^2 / (4 sigma^2))
    for ratio in (0.5, 1.0, 2.0, 4.0):
        s = ratio * SIGMA
        f = embed_point(-s / 2, ks)
        g = embed_point(+s / 2, ks)
        lhs = np.cos(fs_distance(f, g)) ** 2
        rhs = np.exp(-(s ** 2) / (4 * SIGMA**2))
        assert abs(lhs - rhs) < 1e-8


def test_ray_invariance_of_phase_space_point(grid, ks):
    q = GaussianParams(0.3, 1.1, SIGMA)
    f = StateVector(grid, np.exp(1j * 0.0) * realize(q, grid).values)
    g = StateVector(grid, np.exp(1j * 2.1) * realize(q, grid).values)
    assert fs_distance(f, g) == pytest.approx(0.0, abs=1e-7)
    h = embed_point(1.5, ks)
    assert fs_distance(f, h) == pytest.approx(fs_distance(g, h), abs=1e-10)


# ---------------------------------------------------------------- delta paths

def test_h_norm_velocity_constant_path(ks):
    assert h_norm_velocity(lambda t: 0.7, ks) == pytest.approx(0.0, abs=1e-9)


def test_h_norm_velocity_unit_speed(ks):
    # units 2 sigma = 1: the embedding is isometric
    got = h_norm_velocity(lambda t: 1.0 * t, ks)
    assert got == pytest.approx(1.0, rel=1e-4)


def test_h_norm_velocity_linear_scaling(ks):
    v1 = h_norm_velocity(lambda t: 0.8 * t, ks)
    v2 = h_norm_velocity(lambda t: 1.6 * t, ks)
    assert v2 / v1 == pytest.approx(2.0, rel=1e-6)


def test_h_norm_velocity_random_straight_lines(ks, rng):
    for _ in range(20):
        v = rng.uniform(0.2, 3.0) * (1 if rng.random() < 0.5 else -1)
        a0 = rng.uniform(-2, 2)
        got = h_norm_velocity(lambda t: a0 + v * t, ks)
        assert got == pytest.approx(abs(v), rel=1e-4)


def test_delta_path_projection_uniform(ks):
    path = lambda t: 0.2 + 1.0 * t
    assert delta_path_projection(path, 1, ks) == pytest.approx(1.0, abs=1e-4)
    assert delta_path_projection(path, 2, ks) == pytest.approx(0.0, abs=1e-3)


def test_delta_path_projection_accelerated(ks):
    g0 = 2.3
    path = lambda t: 0.1 + 0.5 * g0 * t * t
    assert delta_path_projection(path, 2, ks) == pytest.approx(g0, abs=1e-3)


def test_delta_path_projection_sign_flip(ks):
    fwd = delta_path_projection(lambda t: 0.4 + 1.3 * t, 1, ks)
    rev = delta_path_projection(lambda t: 0.4 - 1.3 * t, 1, ks)
    assert fwd == pytest.approx(-rev, rel=1e-8)
    assert fwd > 0


def test_delta_path_projection_validates(ks):
    with pytest.raises(ValueError):
        delta_path_projection(lambda t: t, 3, ks)


# ---------------------------------------------------------------- tangent basis

def test_tangent_basis_matches_center_derivative_at_zero_momentum(grid, ks):
    q = GaussianParams(0.4, 0.0, SIGMA)
    _, pos, _, _ = _packet_directions(q, grid, 1.0)
    eps = 1e-6
    fd = (embed_point(q.a + eps, ks).values - embed_point(q.a - eps, ks).values) / (2 * eps)
    fd_state = StateVector(grid, fd).normalized()
    assert np.max(np.abs(pos.values - fd_state.values)) < 1e-7


def test_tangent_basis_orthogonality_triple(grid):
    for (a, p) in [(0.0, 0.0), (0.5, 1.2), (-1.0, -0.7)]:
        q = GaussianParams(a, p, SIGMA)
        _, pos, mom, sp = _packet_directions(q, grid, 1.0)
        fibre = StateVector(grid, 1j * realize(q, grid).values)
        assert pos.norm() == pytest.approx(1.0, abs=1e-10)
        assert mom.norm() == pytest.approx(1.0, abs=1e-10)
        for u, v in [(pos, mom), (pos, fibre), (mom, fibre)]:
            assert abs(inner_l2(u, v).real) < 1e-8
        assert abs(inner_l2(pos, mom).real) < 1e-8
        assert sp.norm() == pytest.approx(1.0, abs=1e-10)
        for u in (pos, mom, fibre):
            assert abs(inner_l2(sp, u).real) < 1e-8


# ---------------------------------------------------------------- FS metric

def test_fs_metric_restriction_position_leg(grid):
    q = GaussianParams(0.0, 0.5, SIGMA)
    lhs, rhs = fs_metric_restriction_check(q, 1e-3 * SIGMA, 0.0, grid)
    assert lhs / rhs == pytest.approx(1.0, abs=1e-3)


def test_fs_metric_restriction_momentum_leg(grid):
    q = GaussianParams(0.0, 0.5, SIGMA)
    lhs, rhs = fs_metric_restriction_check(q, 0.0, 1e-3 / SIGMA, grid)
    assert lhs / rhs == pytest.approx(1.0, abs=1e-3)


def test_fs_metric_restriction_zero_displacement(grid):
    q = GaussianParams(0.0, 0.5, SIGMA)
    lhs, rhs = fs_metric_restriction_check(q, 0.0, 0.0, grid)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == 0.0


# ---------------------------------------------------------------- completeness

def test_completeness_rank_proxy(ks):
    rank, m = completeness_rank(ks)
    assert rank >= 0.9 * m


def test_gram_matrix_matches_pairwise_inner_products(ks):
    # the pairwise loop is the reference; one matrix product reorders the
    # sums, so entries (of size <= 1) may differ by a few ulps per term
    centers = np.array([-3.0, -0.4, 0.0, 0.3, 1.25, 5.0])
    G = gram_matrix(centers, ks)
    states = [embed_point(float(a), ks) for a in centers]
    for i, f in enumerate(states):
        for j, g in enumerate(states):
            assert abs(G[i, j] - inner_l2(f, g)) < 1e-13
