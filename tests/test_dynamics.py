import numpy as np
import pytest

import statelab.dynamics as dyn
from statelab.cli import ExperimentConfig, run_dynamics
from statelab.dynamics import (
    PhysicsParams, PotentialSpec, anticommutator_identity_check, apply_hamiltonian,
    closed_form_decomposition, constrained_motion_check, ehrenfest_check, expect_p,
    expect_x, newton_integrate, packet_width_bound, projective_speed, propagate,
    velocity_decomposition, wavepacket_trajectory,
)
from statelab.geometry import GaussianParams, realize
from statelab.numerics import Grid, RngStream, StateVector, inner_l2, quadrature

SIGMA = 0.5


def free_packet_exact(grid, a, p, sigma, t, hbar=1.0, m=1.0):
    """Closed-form free evolution of a Gaussian packet (complex width)."""
    beta = 1.0 + 1j * hbar * t / (2 * m * sigma**2)
    x = grid.x
    v = p / m
    phase = np.exp(1j * (p * (x - a) - 0.5 * p**2 * t / m) / hbar)
    envelope = np.exp(-((x - a - v * t) ** 2) / (4 * sigma**2 * beta))
    return StateVector(grid, (2 * np.pi * sigma**2) ** -0.25 / np.sqrt(beta)
                       * envelope * phase)


def test_free_packet_oracle_satisfies_schroedinger(grid, phys):
    # validate the oracle itself: centered time difference vs -(i/hbar) h psi
    dt = 1e-5
    t0 = 0.3
    psi_m = free_packet_exact(grid, 0.0, 1.0, SIGMA, t0 - dt)
    psi_p = free_packet_exact(grid, 0.0, 1.0, SIGMA, t0 + dt)
    psi_0 = free_packet_exact(grid, 0.0, 1.0, SIGMA, t0)
    lhs = (psi_p.values - psi_m.values) / (2 * dt)
    rhs = -1j * apply_hamiltonian(psi_0, PotentialSpec.free(), phys).values
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_propagate_free_packet_center(grid, phys):
    psi = realize(GaussianParams(0.0, 1.0, SIGMA), grid)
    out = propagate(psi, PotentialSpec.free(), phys, 1.0, 1e-3)
    assert expect_x(out) == pytest.approx(1.0, abs=1e-6)
    ref = free_packet_exact(grid, 0.0, 1.0, SIGMA, 1.0)
    assert np.max(np.abs(out.values - ref.values)) < 1e-8


def test_propagate_harmonic_coherent_center(grid, phys):
    psi = realize(GaussianParams(1.0, 0.0, SIGMA), grid)
    V = PotentialSpec.harmonic(1.0)
    for t in (np.pi / 3, np.pi, 2 * np.pi):
        out = propagate(psi, V, phys, t, 1e-3)
        assert expect_x(out) == pytest.approx(np.cos(t), abs=1e-5)


def test_propagate_free_spreading_law(grid, phys):
    sigma = SIGMA
    psi = realize(GaussianParams(0.0, 0.0, sigma), grid)
    for t in (0.5, 1.0, 2.0):
        out = propagate(psi, PotentialSpec.free(), phys, t, 1e-3)
        dens = out.density()
        mean = quadrature(grid, grid.x * dens).real
        var = quadrature(grid, (grid.x - mean) ** 2 * dens).real
        expected = sigma**2 * (1.0 + (phys.hbar * t / (2 * phys.mass * sigma**2)) ** 2)
        assert mean == pytest.approx(0.0, abs=1e-9)        # stays symmetric
        assert var == pytest.approx(expected, rel=1e-8)


def test_propagate_unitarity(grid, phys, rng):
    psi = realize(GaussianParams(0.0, 1.0, SIGMA), grid)
    for V in (PotentialSpec.free(), PotentialSpec.harmonic(1.0),
              PotentialSpec.noisy(PotentialSpec.harmonic(1.0), 0.5, RngStream(5, 15))):
        out = propagate(psi, V, phys, 1.0, 1e-3)
        assert out.norm() == pytest.approx(1.0, abs=1e-8)


def test_propagate_noisy_reproducible(grid, phys):
    psi = realize(GaussianParams(0.0, 0.0, SIGMA), grid)
    V = PotentialSpec.noisy(PotentialSpec.free(), 0.7, RngStream(9, 15))
    a = propagate(psi, V, phys, 0.5, 1e-3)
    b = propagate(psi, V, phys, 0.5, 1e-3)
    assert np.array_equal(a.values, b.values)


def test_propagate_second_order_convergence(phys):
    # Strang contract: halving dt cuts the error by about 4
    g = Grid(256, -8.0, 8.0, True)
    psi = realize(GaussianParams(1.0, 0.0, SIGMA), g)
    V = PotentialSpec.harmonic(1.0)
    errs = []
    for dt in (8e-3, 4e-3, 2e-3):
        out = propagate(psi, V, phys, 1.0, dt)
        # error proxy: deviation of <x> from the converged value cos(1)
        errs.append(abs(expect_x(out) - np.cos(1.0)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.35)


def test_propagate_validation(grid, phys):
    psi = realize(GaussianParams(0.0, 0.0, SIGMA), grid)
    with pytest.raises(ValueError):
        propagate(psi, PotentialSpec.free(), phys, 1.0, 0.0)
    with pytest.raises(ValueError):
        propagate(psi, PotentialSpec.harmonic(1e6), phys, 1.0, 1e-3)
    bad = PotentialSpec.tabulated(np.full(grid.n_points, np.inf))
    with pytest.raises(ValueError):
        propagate(psi, bad, phys, 1.0, 1e-3)


# ---------------------------------------------------------------- Newton

def test_newton_free_motion_exact(phys):
    t, a, p = newton_integrate(0.3, 1.7, PotentialSpec.free(), phys, 2.0, 1e-3)
    assert a[-1] == pytest.approx(0.3 + 1.7 * 2.0 / phys.mass, abs=1e-12)
    assert p[-1] == pytest.approx(1.7, abs=0)


def test_newton_harmonic_period(phys):
    k = 2.0
    period = 2 * np.pi * np.sqrt(phys.mass / k)
    t, a, p = newton_integrate(1.0, 0.0, PotentialSpec.harmonic(k), phys, period, 1e-4)
    assert a[-1] == pytest.approx(1.0, rel=1e-4)
    assert p[-1] == pytest.approx(0.0, abs=1e-3)


def test_newton_energy_drift(phys):
    k = 1.0
    V = PotentialSpec.harmonic(k)
    t, a, p = newton_integrate(1.0, 0.0, V, phys, 10.0, 1e-3)
    e = p**2 / (2 * phys.mass) + 0.5 * k * a**2
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-6


def test_newton_time_reversal(phys):
    V = PotentialSpec.harmonic(1.3, center=0.2)
    _, a, p = newton_integrate(0.7, -0.4, V, phys, 3.0, 1e-3)
    _, ab, pb = newton_integrate(a[-1], -p[-1], V, phys, 3.0, 1e-3)
    assert ab[-1] == pytest.approx(0.7, abs=1e-8)
    assert -pb[-1] == pytest.approx(-0.4, abs=1e-8)


# ------------------------------------------------- velocity decomposition

def analytic_h_phi(grid, q, V, phys):
    """Oracle: h phi from the closed-form action of h on a Gaussian packet."""
    hbar, m, s = phys.hbar, phys.mass, q.sigma
    x = grid.x
    u = x - q.a
    phi = (2 * np.pi * s**2) ** -0.25 * np.exp(-u**2 / (4 * s**2) + 1j * q.p * u / hbar)
    coef = (hbar**2 / (4 * m * s**2) - hbar**2 * u**2 / (8 * m * s**4)
            + 1j * hbar * q.p * u / (2 * m * s**2) + q.p**2 / (2 * m)
            + V.value_at(x, grid))
    return phi, coef * phi


def oracle_decomposition(grid, q, V, phys):
    """Independent quadrature oracle for all four projections."""
    hbar, s = phys.hbar, q.sigma
    x, dx = grid.x, grid.dx
    u = x - q.a
    phi, hphi = analytic_h_phi(grid, q, V, phys)
    dphi = -1j * hphi / hbar

    def unit(v):
        return v / np.sqrt((np.abs(v) ** 2).sum() * dx)

    dirs = {
        "fibre": -1j * phi,
        "pos": unit(u / s * phi),
        "mom": unit(1j * u / s * phi),
        "spread": unit(1j * (u**2 / s**2 - 1.0) * phi),
    }
    out = {}
    for name, d in dirs.items():
        out[name] = float((dphi * np.conj(d)).sum().real * dx)
    out["total_sq"] = float((np.abs(dphi) ** 2).sum() * dx)
    return out


def test_velocity_decomposition_free_values(grid, phys):
    # derived free-particle values at hbar=m=1, sigma=1/2, p=1
    q = GaussianParams(0.0, 1.0, 0.5)
    d = velocity_decomposition(q, PotentialSpec.free(), phys, grid)
    assert d.position_component == pytest.approx(1.0, abs=1e-3)
    assert d.momentum_component == pytest.approx(0.0, abs=1e-3)
    assert d.spread_component == pytest.approx(np.sqrt(2) / 2, abs=1e-3)
    assert d.fibre_component == pytest.approx(1.0, abs=1e-3)
    assert d.total_norm**2 == pytest.approx(2.5, abs=1e-3)
    assert d.linearity_ok

    orc = oracle_decomposition(grid, q, PotentialSpec.free(), phys)
    assert d.fibre_component == pytest.approx(orc["fibre"], abs=1e-9)
    assert d.position_component == pytest.approx(orc["pos"], abs=1e-9)
    assert d.momentum_component == pytest.approx(orc["mom"], abs=1e-9)
    assert d.spread_component == pytest.approx(orc["spread"], abs=1e-9)
    assert d.total_norm**2 == pytest.approx(orc["total_sq"], abs=1e-9)


def test_velocity_decomposition_linear_potential(grid, phys):
    g0 = 1.3
    q = GaussianParams(0.0, 0.0, 0.5)
    d = velocity_decomposition(q, PotentialSpec.linear(g0), phys, grid)
    assert d.momentum_component == pytest.approx(-g0 * 0.5 / phys.hbar, abs=1e-3)
    assert d.position_component == pytest.approx(0.0, abs=1e-6)
    orc = oracle_decomposition(grid, q, PotentialSpec.linear(g0), phys)
    assert d.momentum_component == pytest.approx(orc["mom"], abs=1e-9)


def test_velocity_decomposition_closure(grid, phys, rng):
    pots = [PotentialSpec.free(), PotentialSpec.linear(0.7),
            PotentialSpec.harmonic(1e-3, center=-40.0)]
    for V in pots:
        for a in np.linspace(-2, 2, 5):
            for p in np.linspace(-1, 1, 5):
                d = velocity_decomposition(GaussianParams(a, p, SIGMA), V, phys, grid)
                assert d.component_sum_sq == pytest.approx(
                    d.total_norm**2, rel=1e-3)
                ref = closed_form_decomposition(GaussianParams(a, p, SIGMA), V, phys, grid)
                scale = max(abs(ref.total_norm), 1.0)
                assert abs(d.fibre_component - ref.fibre_component) / scale < 1e-3
                assert abs(d.momentum_component - ref.momentum_component) / scale < 1e-3


def test_velocity_decomposition_linearity_flag(grid, phys):
    # steep curvature relative to slope at the packet: flag clears, no failure
    d = velocity_decomposition(GaussianParams(0.0, 0.0, SIGMA),
                               PotentialSpec.harmonic(1.0), phys, grid)
    assert not d.linearity_ok
    assert np.isfinite(d.total_norm)


def test_projective_speed_equals_energy_uncertainty(grid, phys, rng):
    V = PotentialSpec.harmonic(1.0)
    for _ in range(10):
        vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
        psi = StateVector(grid, vals).normalized()
        speed, dh = projective_speed(psi, V, phys)
        assert speed == pytest.approx(dh / phys.hbar, rel=1e-3)


# ---------------------------------------------------------------- Ehrenfest

def test_ehrenfest_free(grid, phys):
    psi = realize(GaussianParams(0.0, 1.0, SIGMA), grid)
    r1, r2 = ehrenfest_check(psi, PotentialSpec.free(), phys, dt=1e-3)
    assert r1 < 1e-8
    assert r2 < 1e-8


def test_ehrenfest_harmonic(grid, phys):
    psi = realize(GaussianParams(1.0, 0.0, SIGMA), grid)
    r1, r2 = ehrenfest_check(psi, PotentialSpec.harmonic(1.0), phys, dt=1e-3)
    assert r1 < 1e-5
    assert r2 < 1e-5


def test_ehrenfest_quartic_first_relation(phys):
    # EE1 is potential independent; broad packet in V = x^4
    qgrid = Grid(512, -10.0, 10.0, True)
    V = PotentialSpec.tabulated(qgrid.x**4)
    psi = realize(GaussianParams(0.0, 0.0, 1.0), qgrid)
    r1, _ = ehrenfest_check(psi, V, phys, dt=2e-5)
    assert r1 < 1e-5


# ------------------------------------------------------ anticommutator

def dense_operators(grid, V, phys):
    """Oracle: dense matrices for h, x, p built from the explicit DFT matrix."""
    n = grid.n_points
    F = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    Finv = np.conj(F).T / n
    k = grid.wavenumbers
    H = Finv @ np.diag(phys.hbar**2 * k**2 / (2 * phys.mass)) @ F + np.diag(V.values(grid))
    X = np.diag(grid.x)
    P = Finv @ np.diag(phys.hbar * k) @ F
    return H, X, P


@pytest.mark.parametrize("obs", ["position", "momentum"])
def test_anticommutator_identity_dense_oracle(phys, rng, obs):
    grid = Grid(64, -8.0, 8.0, True)
    V = PotentialSpec.harmonic(1.0)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    psi = StateVector(grid, vals).normalized()

    res_spectral = anticommutator_identity_check(psi, obs, V, phys)
    assert res_spectral < 1e-6

    H, X, P = dense_operators(grid, V, phys)
    A = X if obs == "position" else P
    c = psi.values
    dx = grid.dx
    dpsi = -1j * (H @ c) / phys.hbar
    lhs = 2 * phys.hbar * np.vdot(-1j * (A @ c), dpsi) * dx
    anti = A @ H + H @ A
    comm = A @ H - H @ A
    rhs = np.vdot(anti @ c, c) * dx - np.vdot(comm @ c, c) * dx
    assert abs(lhs - rhs) < 1e-6


def test_anticommutator_identity_observable_cases(grid, phys):
    psi = realize(GaussianParams(0.0, 0.0, SIGMA), grid)
    res = anticommutator_identity_check(psi, "identity", PotentialSpec.harmonic(1.0), phys)
    assert res < 1e-8
    # plane wave on the grid is a momentum eigenvector; V = 0 commutes
    k1 = 2 * np.pi / grid.length * 8
    plane = StateVector(grid, np.exp(1j * k1 * grid.x)).normalized()
    res_p = anticommutator_identity_check(plane, "momentum", PotentialSpec.free(), phys)
    assert res_p < 1e-8
    with pytest.raises(ValueError):
        anticommutator_identity_check(psi, "spin", PotentialSpec.free(), phys)


# ---------------------------------------------------- constrained motion

def test_constrained_motion_harmonic(grid, phys):
    q0 = GaussianParams(1.0, 0.0, SIGMA)
    dev_x, dev_p = constrained_motion_check(q0, PotentialSpec.harmonic(1.0), phys,
                                            grid, t_final=2 * np.pi, dt=1e-3)
    assert dev_x < 1e-4
    assert dev_p < 1e-4


def test_constrained_motion_free(grid, phys):
    q0 = GaussianParams(0.0, 1.0, SIGMA)
    dev_x, _ = constrained_motion_check(q0, PotentialSpec.free(), phys, grid,
                                        t_final=1.0, dt=1e-3)
    assert dev_x < 1e-6


def test_constrained_motion_stationary(grid, phys):
    q0 = GaussianParams(0.0, 0.0, SIGMA)
    dev_x, dev_p = constrained_motion_check(q0, PotentialSpec.free(), phys, grid,
                                            t_final=1.0, dt=1e-3)
    assert dev_x < 1e-9
    assert dev_p < 1e-9


def test_wavepacket_trajectory_shape(grid, phys):
    psi = realize(GaussianParams(1.0, 0.0, SIGMA), grid)
    t, xs, ps, final = wavepacket_trajectory(psi, PotentialSpec.harmonic(1.0),
                                             phys, 1.0, 1e-3)
    assert t[0] == 0.0 and t[-1] == pytest.approx(1.0)
    assert len(t) == len(xs) == len(ps)
    assert final.norm() == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------ potential values

def test_potential_equal_constructors_compare_and_hash_equal():
    for make in (PotentialSpec.free, lambda: PotentialSpec.linear(0.7),
                 lambda: PotentialSpec.harmonic(1.0, center=-40.0)):
        assert make() == make()
        assert hash(make()) == hash(make())
    # one value per V: a zero slope is the free potential
    assert PotentialSpec.linear(0.0) == PotentialSpec.free()
    assert PotentialSpec.harmonic(1.0) != PotentialSpec.harmonic(1.0, center=0.1)
    assert PotentialSpec.harmonic(1.0) != PotentialSpec.linear(1.0)


def test_tabulated_potentials_compare_by_samples(grid):
    a = PotentialSpec.tabulated(grid.x ** 4)
    assert a == PotentialSpec.tabulated(np.array(grid.x ** 4))
    assert hash(a) == hash(PotentialSpec.tabulated(np.array(grid.x ** 4)))
    assert a != PotentialSpec.tabulated(grid.x ** 2)


def test_noisy_equality_depends_on_std_and_stream():
    base = PotentialSpec.harmonic(1.0)
    V = PotentialSpec.noisy(base, 0.5, RngStream(5, 15))
    assert V == PotentialSpec.noisy(PotentialSpec.harmonic(1.0), 0.5, RngStream(5, 15))
    assert hash(V) == hash(PotentialSpec.noisy(base, 0.5, RngStream(5, 15)))
    assert V != PotentialSpec.noisy(base, 0.6, RngStream(5, 15))
    assert V != PotentialSpec.noisy(base, 0.5, RngStream(6, 15))
    assert V != base


def test_noisy_of_noisy_raises():
    V = PotentialSpec.noisy(PotentialSpec.free(), 0.5, RngStream(5, 15))
    with pytest.raises(ValueError):
        PotentialSpec.noisy(V, 0.5, RngStream(6, 15))


def test_noisy_packet_width_bound_equals_base(phys):
    t = np.linspace(0.0, 2 * np.pi, 9)
    base = PotentialSpec.harmonic(2.0, center=0.3)
    noisy = PotentialSpec.noisy(base, 0.5, RngStream(5, 15))
    assert np.array_equal(packet_width_bound(t, SIGMA, noisy, phys),
                          packet_width_bound(t, SIGMA, base, phys))


@pytest.mark.parametrize("stiffness", [1e-4, 0.01, 0.1, 1.0, 4.0, 25.0])
@pytest.mark.parametrize("sigma", [0.2, SIGMA, 2.0])
def test_packet_width_bound_covers_the_breathing_width(phys, stiffness, sigma):
    # the exact width in a quadratic well of frequency omega,
    # sigma^2 cos^2(omega t) + (hbar / 2 m omega sigma)^2 sin^2(omega t),
    # lies under the bound, which lies under both the free curve and the cap
    t = np.linspace(0.0, 2 * np.pi, 2001)
    omega = np.sqrt(stiffness / phys.mass)
    coherent = phys.hbar / (2 * phys.mass * omega * sigma)
    exact = np.sqrt((sigma * np.cos(omega * t)) ** 2 + (coherent * np.sin(omega * t)) ** 2)
    bound = packet_width_bound(t, sigma, PotentialSpec.harmonic(stiffness), phys)
    free = packet_width_bound(t, sigma, PotentialSpec.free(), phys)
    assert np.all(bound >= exact * (1.0 - 1e-12))
    assert np.all(bound <= free) and np.all(bound <= max(sigma, coherent))


def test_run_dynamics_propagates_each_trajectory_once(monkeypatch):
    # on the default config the configured trajectory is the canonical
    # harmonic one, so only it and the free trajectory are propagated
    calls = []
    original = dyn.wavepacket_trajectory

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(dyn, "wavepacket_trajectory", counting)
    run_dynamics(ExperimentConfig({}))
    assert calls == [PotentialSpec.harmonic(1.0), PotentialSpec.free()]
