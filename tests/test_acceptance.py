"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (visible with `pytest -s`
or in failure reports) and enforces the stated runtime budget.  Statistical
criteria run at 1e5 walkers with the pinned master seed, making every number
reproducible.
"""

import time

import numpy as np
import pytest

from statelab.diffusion import (
    DiffusionConfig, density_functional, random_superposition, random_unitary,
    simulate_state_diffusion, solid_com_diffusion, verify_diffusion_pde,
)
from statelab.dynamics import (
    PhysicsParams, PotentialSpec, anticommutator_identity_check,
    closed_form_decomposition, constrained_motion_check, ehrenfest_check,
    linearity_flag, velocity_decomposition,
)
from statelab.geometry import (
    GaussianParams, KernelSpace, delta_path_projection, embed_point, fs_distance,
    fs_metric_restriction_check, h_norm_velocity, realize,
)
from statelab.numerics import Grid, RngStream, StateVector
from statelab.reconstruct import build_operators, kernel_of_constraints, solve_hamiltonian

SEED = 20250809
SIGMA = 0.5
GRID = Grid(512, -16.0, 16.0, True)
KS = KernelSpace(GRID, SIGMA)
PHYS = PhysicsParams(1.0, 1.0)


class _Budget:
    def __init__(self, num: int, desc: str, seconds: float):
        self.num, self.desc, self.seconds = num, desc, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.seconds
        print(f"[criterion {self.num:2d}] {'PASS' if ok else 'FAIL'}  {self.desc}  "
              f"({elapsed:.2f} s / budget {self.seconds:g} s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.num} exceeded its {self.seconds} s budget")
        return False


def test_criterion_01_overlap_distance_identity():
    with _Budget(1, "overlap-distance identity < 1e-8", 1.0):
        worst = 0.0
        for ratio in (0.5, 1.0, 2.0, 4.0):
            s = ratio * SIGMA
            f = embed_point(-s / 2, KS)
            g = embed_point(+s / 2, KS)
            lhs = np.cos(fs_distance(f, g)) ** 2
            rhs = np.exp(-(s**2) / (4 * SIGMA**2))
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-8


def test_criterion_02_isometry_and_projections():
    with _Budget(2, "isometry 1e-4 rel; velocity/acceleration projections 1e-3", 5.0):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            v = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
            a0 = float(rng.uniform(-2.0, 2.0))
            speed = h_norm_velocity(lambda t: a0 + v * t, KS)
            assert abs(speed - abs(v)) <= 1e-4 * abs(v)
        uniform = lambda t: 0.2 + 1.1 * t
        assert abs(delta_path_projection(uniform, 1, KS) - 1.1) < 1e-3
        assert abs(delta_path_projection(uniform, 2, KS)) < 1e-3
        accel = lambda t: 0.2 + 0.4 * t + 0.5 * 1.9 * t * t
        assert abs(delta_path_projection(accel, 1, KS) - 0.4) < 1e-3
        assert abs(delta_path_projection(accel, 2, KS) - 1.9) < 1e-3


def test_criterion_03_fs_metric_restriction():
    with _Budget(3, "FS metric restriction 1e-3 rel on 3x3 stencil", 5.0):
        q = GaussianParams(0.5, 0.7, SIGMA)
        eps_a = 1e-3 * 2 * SIGMA
        eps_p = 1e-3 / SIGMA
        for ia in (-1, 0, 1):
            for ip in (-1, 0, 1):
                lhs, rhs = fs_metric_restriction_check(q, ia * eps_a, ip * eps_p, GRID)
                if rhs == 0.0:
                    assert lhs < 1e-12
                else:
                    assert abs(lhs - rhs) <= 1e-3 * rhs


def test_criterion_04_velocity_decomposition_closure():
    with _Budget(4, "decomposition closure + closed forms 1e-3 at 25 points", 10.0):
        pots = [PotentialSpec.free(), PotentialSpec.linear(0.7),
                PotentialSpec.harmonic(1e-3, center=-40.0)]
        for V in pots:
            for a in np.linspace(-2, 2, 5):
                for p in np.linspace(-1, 1, 5):
                    q = GaussianParams(float(a), float(p), SIGMA)
                    d = velocity_decomposition(q, V, PHYS, GRID)
                    assert linearity_flag(q, V)
                    assert abs(d.total_norm**2 - d.component_sum_sq) \
                        <= 1e-3 * d.total_norm**2
                    ref = closed_form_decomposition(q, V, PHYS, GRID)
                    scale = max(abs(ref.total_norm), 1.0)
                    for got, want in [
                            (d.fibre_component, ref.fibre_component),
                            (d.position_component, ref.position_component),
                            (d.momentum_component, ref.momentum_component),
                            (d.spread_component, ref.spread_component)]:
                        assert abs(got - want) <= 1e-3 * scale
        d = velocity_decomposition(GaussianParams(0.0, 1.0, 0.5),
                                   PotentialSpec.free(), PHYS, GRID)
        assert abs(d.position_component - 1.0) < 1e-3
        assert abs(d.momentum_component) < 1e-3
        assert abs(d.spread_component - np.sqrt(2) / 2) < 1e-3
        assert abs(d.fibre_component - 1.0) < 1e-3
        assert abs(d.total_norm**2 - 2.5) < 1e-3


def test_criterion_05_ehrenfest_and_anticommutator():
    with _Budget(5, "Ehrenfest < 1e-5 (harmonic, quartic); anticommutator < 1e-6", 10.0):
        psi = realize(GaussianParams(1.0, 0.0, SIGMA), GRID)
        r1, r2 = ehrenfest_check(psi, PotentialSpec.harmonic(1.0), PHYS, dt=1e-3)
        assert r1 < 1e-5 and r2 < 1e-5
        qgrid = Grid(512, -10.0, 10.0, True)
        quartic = PotentialSpec((0.0, 0.0, 0.0, 0.0, 1.0))
        psi_q = realize(GaussianParams(0.0, 0.0, 1.0), qgrid)
        rq1, _ = ehrenfest_check(psi_q, quartic, PHYS, dt=2e-5)
        assert rq1 < 1e-5

        agrid = Grid(64, -8.0, 8.0, True)
        rng = np.random.default_rng(SEED + 1)
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        psi_r = StateVector(agrid, vals).normalized()
        V = PotentialSpec.harmonic(1.0)
        for obs in ("position", "momentum"):
            assert anticommutator_identity_check(psi_r, obs, V, PHYS) < 1e-6
        # dense-matrix oracle route at n = 64
        n = agrid.n_points
        F = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        Finv = np.conj(F).T / n
        k = agrid.wavenumbers
        H = (Finv @ np.diag(PHYS.hbar**2 * k**2 / (2 * PHYS.mass)) @ F
             + np.diag(V.values(agrid)))
        for A in (np.diag(agrid.x), Finv @ np.diag(PHYS.hbar * k) @ F):
            c = psi_r.values
            dpsi = -1j * (H @ c) / PHYS.hbar
            lhs = 2 * PHYS.hbar * np.vdot(-1j * (A @ c), dpsi) * agrid.dx
            rhs = (np.vdot((A @ H + H @ A) @ c, c)
                   - np.vdot((A @ H - H @ A) @ c, c)) * agrid.dx
            assert abs(lhs - rhs) < 1e-6


def test_criterion_06_constrained_classical_motion():
    with _Budget(6, "harmonic packet tracks Newton < 1e-4 over one period", 10.0):
        q0 = GaussianParams(1.0, 0.0, SIGMA)
        dev_x, dev_p = constrained_motion_check(
            q0, PotentialSpec.harmonic(1.0), PHYS, GRID, t_final=2 * np.pi, dt=1e-3)
        assert dev_x < 1e-4
        assert dev_p < 1e-4


def test_criterion_07_hamiltonian_reconstruction():
    with _Budget(7, "block error < 1e-6 at N=32; kernel dim 1 at N in {16,32,64}", 30.0):
        for coeffs in ([0.0], [0.0, 0.7], [0.0, 0.0, 0.5]):
            ops = build_operators(32, PHYS, coeffs)
            res = solve_hamiltonian(ops, PHYS)
            assert res.block_error < 1e-6
        for n in (16, 32, 64):
            ops = build_operators(n, PHYS, [0.0, 0.0, 0.5])
            assert kernel_of_constraints(ops) == 1


def test_criterion_08_diffusion_pde():
    with _Budget(8, "heat-kernel sup residual < 0.03; variance additivity 5%", 30.0):
        cfg = DiffusionConfig(100_000, 1.0, SIGMA)
        res = verify_diffusion_pde(cfg, RngStream(SEED, 13))
        assert res.max_sup_residual < 0.03
        for var, want in zip(res.variances, res.expected_variances):
            assert abs(var - want) <= 0.05 * want


def test_criterion_09_born_rule():
    with _Budget(9, "Born histograms: L1 < 0.02 and masses within 3 sd, 10 cases", 60.0):
        for case in range(10):
            psi, dec = random_superposition(KS, RngStream(SEED, 11).child(case))
            cfg = DiffusionConfig(100_000, 1.0, SIGMA)
            est = simulate_state_diffusion(psi, cfg, RngStream(SEED, 12).child(case), KS, dec=dec)
            assert est.l1_error < 0.02
            for w, m in zip(est.expected_weights, est.component_masses):
                sd = np.sqrt(w * (1 - w) / est.n_walkers)
                assert abs(m - w) <= 3 * sd


def test_criterion_10_fs_sufficiency_and_symmetry():
    with _Budget(10, "transition density: unitary invariance 1e-8, exact symmetry", 10.0):
        g = Grid(64, -8.0, 8.0, True)
        rng = np.random.default_rng(SEED + 2)
        for _ in range(20):
            f = StateVector(g, rng.standard_normal(64)
                            + 1j * rng.standard_normal(64)).normalized()
            h = StateVector(g, rng.standard_normal(64)
                            + 1j * rng.standard_normal(64)).normalized()
            base = density_functional(f, h, SIGMA)
            assert density_functional(h, f, SIGMA) == base
            U = random_unitary(64, rng)
            fu = StateVector(g, U @ f.values)
            hu = StateVector(g, U @ h.values)
            assert abs(density_functional(fu, hu, SIGMA) - base) < 1e-8


def test_criterion_11_com_diffusion_suppression():
    with _Budget(11, "COM suppression 1/n within 10% at n in {1,10,100}", 30.0):
        estimates = {}
        for i, n_cells in enumerate((1, 10, 100)):
            cfg = DiffusionConfig(100_000, 1.0, SIGMA)
            estimates[n_cells] = solid_com_diffusion(n_cells, 0.5, cfg, RngStream(SEED, 14).child(i))
        for n_cells in (1, 10, 100):
            ratio = estimates[n_cells] / estimates[1]
            assert abs(ratio - 1.0 / n_cells) <= 0.10 / n_cells


def test_criterion_12_determinism(tmp_path):
    with _Budget(12, "double run of `all` yields byte-identical reports", 600.0):
        from statelab.cli import main
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(["all", "--out", str(out), "--seed", str(SEED)])
            assert code == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        assert "report.json" in files
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
