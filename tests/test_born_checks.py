"""born-diffusion's two statistical checks at a declared alpha, and their power.

A Pearson chi^2 over every component count and one Kolmogorov-Smirnov test
of the pooled per-component arrival uniforms replace the maximum over ~33
z-scores and the maximum over 10 KS statistics.  The power gate injects a
defect into the sampler and asks the new pair to catch it on at least as
many seeds as the replaced statistics.
"""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from statelab import diffusion as diff
from statelab.diffusion import DiffusionConfig, random_superposition, simulate_state_diffusion
from statelab.numerics import RngStream

ALPHA = 0.005
SIGMA = 0.5


def _estimate(ks, seed, n, case=0):
    psi, dec = random_superposition(ks, RngStream(seed, 11).child(case))
    cfg, stream = DiffusionConfig(n, 1.0, SIGMA), RngStream(seed, 12).child(case)
    return simulate_state_diffusion(psi, cfg, stream, ks, dec=dec), dec.centers, cfg, stream


def test_pooled_ks_equals_scipy_kstest(ks):
    # a pool of 6000 takes 16 slabs, one of 300,000 takes 300,000 // 2**14 = 18
    for n in (2000, 100_000):
        ests = [_estimate(ks, 5, n, case)[0] for case in range(3)]
        stat, bound = diff.pooled_arrival_ks(ests, ALPHA)
        pooled = np.concatenate([e.arrival_uniforms for e in ests])
        assert stat == pytest.approx(stats.kstest(pooled, "uniform").statistic, abs=1e-15)
        assert bound == pytest.approx(stats.kstwobign.isf(ALPHA) / np.sqrt(3 * n), rel=1e-9)


def test_arrival_uniforms_are_each_arrivals_own_component_cdf(ks):
    est, centers, cfg, stream = _estimate(ks, 5, 1000)
    comp, finals = map(np.concatenate,
                       zip(*diff._draw_arrivals(centers, est.expected_weights, cfg, stream)))
    want = np.sort(stats.norm.cdf((finals - centers[comp]) / SIGMA))
    assert np.max(np.abs(est.arrival_uniforms - want)) <= 1e-15


def test_chi2_matches_pearson_and_its_quantile(ks):
    est, centers, _, _ = _estimate(ks, 8, 20000)
    stat, df, bound = diff.component_mass_chi2([est, est], ALPHA)
    observed = np.rint(est.component_masses * est.n_walkers)
    expected = est.n_walkers * est.expected_weights
    assert df == 2 * (len(centers) - 1)
    assert stat == pytest.approx(2 * stats.chisquare(observed, expected).statistic, rel=1e-12)
    assert bound == pytest.approx(stats.chi2.isf(ALPHA, df), rel=1e-9)


def test_chi2_merges_components_expecting_fewer_than_five_walkers():
    # 1e4 walkers: the 2e-4 component expects 2 and joins the largest cell
    w = np.array([0.6998, 0.0002, 0.3])
    est = diff.DensityEstimate(
        bin_edges=None, counts=None, density=None, reference_density=None, l1_error=0.0,
        component_masses=np.array([0.7, 0.0, 0.3]), expected_weights=w,
        n_walkers=10_000, arrival_uniforms=None)
    stat, df, _ = diff.component_mass_chi2([est], ALPHA)
    assert df == 1
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(est.expected_weights, w)


# ------------------------------------------------------------ power gate

SEEDS = range(12)


def _tilted(eps):
    draw = diff._draw_arrivals

    def tilted(centers, weights, cfg, stream):
        # w_j (1 + eps t_j), t_j running linearly from +1 to -1
        w = weights * (1.0 + eps * np.linspace(1.0, -1.0, len(weights)))
        return draw(centers, w / w.sum(), cfg, stream)
    return tilted


def _widened(factor):
    draw = diff._draw_arrivals

    def widened(centers, weights, cfg, stream):
        cfg = dataclasses.replace(cfg, diffusion_sigma=factor * cfg.diffusion_sigma)
        return draw(centers, weights, cfg, stream)
    return widened


def _caught(ks, seed, mixture_ks):
    """(replaced statistics fail, new pair fails) on born-diffusion's 10 cases;
    the replaced per-case KS against the mixture is the test-side oracle."""
    ests, old = [], False
    for case in range(10):
        est, centers, cfg, stream = _estimate(ks, seed, 100_000, case)
        ests.append(est)
        w, m = est.expected_weights, est.component_masses
        z = np.abs(m - w) / np.sqrt(w * (1.0 - w) / est.n_walkers)
        old = (old or z.max() > 3.0
               or mixture_ks(centers, w, cfg, stream) > 1.628 / np.sqrt(est.n_walkers))
    chi2, _, chi2_bound = diff.component_mass_chi2(ests, ALPHA)
    ks_stat, ks_bound = diff.pooled_arrival_ks(ests, ALPHA)
    return old, chi2 > chi2_bound or ks_stat > ks_bound


@pytest.mark.parametrize("defect", [_tilted(0.01), _widened(1.02)],
                         ids=["weights-tilted-1pct", "width-2pct-wide"])
def test_new_checks_catch_sampler_defects_at_least_as_often(ks, monkeypatch, mixture_ks,
                                                            defect):
    monkeypatch.setattr(diff, "_draw_arrivals", defect)
    verdicts = [_caught(ks, seed, mixture_ks) for seed in SEEDS]
    old = sum(o for o, _ in verdicts)
    new = sum(n for _, n in verdicts)
    assert old >= 0.9 * len(SEEDS)
    assert new >= old
