import numpy as np
import pytest
from scipy import stats

from statelab import diffusion
from statelab.dynamics import PhysicsParams
from statelab.geometry import KernelSpace
from statelab.numerics import Grid


@pytest.fixture(scope="session")
def grid():
    return Grid(512, -16.0, 16.0, periodic=True)


@pytest.fixture(scope="session")
def ks(grid):
    return KernelSpace(grid, 0.5)


@pytest.fixture(scope="session")
def phys():
    return PhysicsParams(hbar=1.0, mass=1.0)


@pytest.fixture(scope="session")
def lattice():
    """Frame centers spacing apart, 5 kernel widths inside the cell."""
    def centers(ks, spacing):
        return np.arange(ks.grid.x_min + 5.0 * ks.sigma, ks.grid.x_max - 5.0 * ks.sigma, spacing)
    return centers


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def mixture_ks():
    """Oracle for the sampler: the Kolmogorov-Smirnov distance between a
    redraw of the arrivals and the mixture sum_j w_j Normal(b_j, sigma_d^2).
    The redraw goes through diffusion._draw_arrivals as the module holds it
    at call time, so a defect a test patches in is drawn too; its chunks are
    joined into one sample."""
    def statistic(centers, weights, cfg, stream):
        arrivals = np.concatenate([a for _, a in diffusion._draw_arrivals(centers, weights,
                                                                           cfg, stream)])

        def cdf(x):
            return sum(w * stats.norm.cdf((x - b) / cfg.diffusion_sigma)
                       for b, w in zip(centers, weights))
        return stats.kstest(arrivals, cdf).statistic
    return statistic


@pytest.fixture()
def affinity(monkeypatch):
    """affinity(cores) pins the cores that diffusion._start reads and returns
    the list of executor thread counts that _start asks for from then on."""
    sizes = []
    executor = diffusion._executor

    def spy(workers):
        sizes.append(workers)
        return executor(workers)
    monkeypatch.setattr(diffusion, "_executor", spy)

    def pin(cores):
        monkeypatch.setattr(diffusion.os, "sched_getaffinity", lambda pid: set(cores))
        sizes.clear()
        return sizes
    return pin
