import numpy as np
import pytest
from scipy import stats

from statelab import Grid, KernelSpace, PhysicsParams, diffusion


@pytest.fixture(scope="session")
def grid():
    return Grid(512, -16.0, 16.0, periodic=True)


@pytest.fixture(scope="session")
def ks(grid):
    return KernelSpace(grid, 0.5)


@pytest.fixture(scope="session")
def phys():
    return PhysicsParams(hbar=1.0, mass=1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def mixture_ks():
    """Oracle for the sampler: the Kolmogorov-Smirnov distance between a
    redraw of the arrivals and the mixture sum_j w_j Normal(b_j, sigma_d^2).
    The redraw goes through diffusion._draw_arrivals as the module holds it
    at call time, so a defect a test patches in is drawn too."""
    def statistic(centers, weights, cfg, stream):
        _, arrivals = diffusion._draw_arrivals(centers, weights, cfg, stream)

        def cdf(x):
            return sum(w * stats.norm.cdf((x - b) / cfg.diffusion_sigma)
                       for b, w in zip(centers, weights))
        return stats.kstest(arrivals, cdf).statistic
    return statistic
