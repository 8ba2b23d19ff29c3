import numpy as np
import pytest
from scipy.integrate import quad

from statelab.geometry import GaussianParams, realize
from statelab.numerics import Grid, RngStream, StateVector, inner_l2, quadrature

# Gaussian overlap for centers 0 and 1 at sigma = 0.5, from the closed form
# exp(-(a-b)^2/(8 sigma^2)); re-derived by the quadrature oracle below.
OVERLAP_0_1 = 0.6065306597126334


def _packet(grid, a, p=0.0, sigma=0.5):
    return realize(GaussianParams(a, p, sigma), grid)


def test_grid_examples():
    g = Grid(64, -8, 8, True)
    assert g.dx == pytest.approx(0.25, abs=0)
    g2 = Grid(2, 0, 1, True)
    assert g2.dx == pytest.approx(0.5, abs=0)


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        Grid(0, 0, 1, True)
    with pytest.raises(ValueError):
        Grid(64, 1, 0, True)
    # every route through a grid is spectral, so only periodic grids exist
    with pytest.raises(ValueError, match="^periodic must be true"):
        Grid(64, 0, 1, False)
    with pytest.raises(ValueError, match="x_max - x_min is not finite"):
        Grid(64, -1e308, 1e308, True)


def test_quadrature_of_constant_is_domain_length(grid):
    assert quadrature(grid, np.ones(grid.n_points)).real == pytest.approx(
        grid.length, abs=1e-12)


def test_quadrature_linear_and_positive(grid, rng):
    f = rng.standard_normal(grid.n_points)
    g = rng.standard_normal(grid.n_points)
    lhs = quadrature(grid, 2.0 * f + 3.0 * g)
    rhs = 2.0 * quadrature(grid, f) + 3.0 * quadrature(grid, g)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert quadrature(grid, np.abs(f) ** 2).real > 0


def test_inner_l2_normalized_gaussian(grid):
    f = _packet(grid, 0.0)
    assert inner_l2(f, f).real == pytest.approx(1.0, abs=1e-10)
    assert abs(inner_l2(f, f).imag) < 1e-12


def test_inner_l2_gaussian_overlap_oracle(grid):
    # oracle: direct high-accuracy quadrature of the defining integral
    sigma = 0.5
    norm = (2 * np.pi * sigma**2) ** -0.25

    def integrand(x):
        return (norm * np.exp(-(x - 0.0) ** 2 / (4 * sigma**2))
                * norm * np.exp(-(x - 1.0) ** 2 / (4 * sigma**2)))

    oracle, err = quad(integrand, -np.inf, np.inf)
    assert err < 1e-8
    assert oracle == pytest.approx(OVERLAP_0_1, abs=1e-12)

    f = _packet(grid, 0.0)
    g = _packet(grid, 1.0)
    assert inner_l2(f, g).real == pytest.approx(oracle, abs=1e-10)


def test_inner_l2_conjugate_symmetric(grid, rng):
    for _ in range(10):
        f = StateVector(grid, rng.standard_normal(grid.n_points)
                        + 1j * rng.standard_normal(grid.n_points))
        g = StateVector(grid, rng.standard_normal(grid.n_points)
                        + 1j * rng.standard_normal(grid.n_points))
        assert inner_l2(f, g) == pytest.approx(np.conj(inner_l2(g, f)), abs=1e-12)


def test_inner_l2_rejects_mismatched_grids(grid):
    other = Grid(256, -16.0, 16.0)
    with pytest.raises(ValueError):
        inner_l2(_packet(grid, 0.0), _packet(other, 0.0))


def test_rng_stream_reproducible():
    a = RngStream(123, 7).generator().standard_normal(100)
    b = RngStream(123, 7).generator().standard_normal(100)
    assert np.array_equal(a, b)
    c = RngStream(123, 8).generator().standard_normal(100)
    assert not np.allclose(a, c)
    d1 = RngStream(123, 7).child(3).generator().standard_normal(10)
    d2 = RngStream(123, 7).child(3).generator().standard_normal(10)
    assert np.array_equal(d1, d2)


def test_state_vector_normalization(grid):
    v = np.exp(-grid.x**2)
    psi = StateVector(grid, v).normalized()
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        StateVector(grid, np.zeros(grid.n_points)).normalized()


@pytest.mark.parametrize("seed_a, seed_b", [(-5, -6), (2**63, 2**63 + 1)])
def test_rng_stream_seeds_whose_keys_reach_2_63_draw_distinct_streams(seed_a, seed_b):
    # as a tuple of Python ints, Philox took these keys through float64, where
    # both parts of each pair collided
    a = RngStream(seed_a, 3).generator().standard_normal(16)
    b = RngStream(seed_b, 3).generator().standard_normal(16)
    assert not np.array_equal(a, b)


def test_rng_stream_keys_below_2_63_keep_their_draws():
    # the default seed's streams, and a stream id just below 2**63
    for seed, stream_id in ((20250809, 0), (20250809, 12), (20250809, 15), (3, 2**63 - 1)):
        tuple_key = np.random.Generator(np.random.Philox(key=(seed, stream_id)))
        assert np.array_equal(RngStream(seed, stream_id).generator().standard_normal(16),
                              tuple_key.standard_normal(16))
