import numpy as np
import pytest

from statelab.dynamics import (
    PhysicsParams, PotentialSpec, constrained_motion_check, propagate, wavepacket_trajectory,
)
from statelab.geometry import GaussianParams, realize
from statelab.numerics import Grid, NumericalBreakdownError
from statelab.reconstruct import (
    OperatorTriple, build_operators, constraint_laplacian, constraint_residuals,
    kernel_of_constraints, reference_hamiltonian, solve_hamiltonian,
)


def test_ladder_matrix_elements(phys):
    # textbook entries X[j, j+1] = sqrt((j+1) hbar / (2 m omega0)), omega0 = 1
    ops = build_operators(32, phys, [0.0])
    for j in range(31):
        expected = np.sqrt((j + 1) * phys.hbar / (2 * phys.mass))
        assert ops.X[j, j + 1] == pytest.approx(expected, rel=1e-12)
        assert ops.X[j + 1, j] == pytest.approx(expected, rel=1e-12)
    assert np.abs(np.diag(ops.X)).max() == 0.0


def test_operators_hermitian(phys):
    ops = build_operators(32, phys, [0.0, 0.0, 0.5])
    for M in (ops.X, ops.P, ops.F):
        assert np.abs(M - M.conj().T).max() < 1e-12


def test_canonical_commutator_on_leading_block(phys):
    ops = build_operators(32, phys, [0.0])
    comm = ops.X @ ops.P - ops.P @ ops.X
    target = 1j * phys.hbar * np.eye(32)
    assert np.abs((comm - target)[:28, :28]).max() < 1e-10


def test_zero_potential_zero_force(phys):
    ops = build_operators(24, phys, [0.0])
    assert np.abs(ops.F).max() == 0.0


def test_build_operators_validation(phys):
    with pytest.raises(ValueError):
        build_operators(8, phys, [0.0])
    with pytest.raises(ValueError):
        build_operators(32, phys, [0.0] * 5 + [1.0])      # degree 5


@pytest.mark.parametrize("name,coeffs", [
    ("free", [0.0]),
    ("linear", [0.0, 0.7]),
    ("harmonic", [0.0, 0.0, 0.5]),
])
def test_solve_recovers_reference_on_interior(phys, name, coeffs):
    ops = build_operators(32, phys, coeffs)
    res = solve_hamiltonian(ops, phys)
    assert res.block_error < 1e-6
    assert abs(res.gauge_constant) < 1e-8
    assert np.abs(res.H_solved - res.H_solved.conj().T).max() < 1e-10


def test_solve_gauge_invariance(phys, rng):
    ops = build_operators(32, phys, [0.0, 0.0, 0.5])
    res = solve_hamiltonian(ops, phys)
    for _ in range(5):
        c = float(rng.uniform(-10, 10))
        shifted = res.H_solved + c * np.eye(32)
        rx, rp = constraint_residuals(ops, shifted, phys)
        assert rx == pytest.approx(res.residual_x, abs=1e-9)
        assert rp == pytest.approx(res.residual_p, abs=1e-9)


def test_solve_null_test_random_force(phys, rng):
    ops = build_operators(32, phys, [0.0])
    g = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    f_bad = (g + g.conj().T) / 2
    bad = OperatorTriple(n=32, buffer=4, X=ops.X, P=ops.P, F=f_bad, v_coeffs=(0.0,))
    res = solve_hamiltonian(bad, phys)
    assert res.residual_p > 1e-2 * np.linalg.norm(f_bad)


def test_solve_detects_degenerate_pair(phys):
    ops = build_operators(16, phys, [0.0])
    degenerate = OperatorTriple(n=16, buffer=4, X=np.zeros((16, 16), complex),
                                P=np.zeros((16, 16), complex),
                                F=np.zeros((16, 16), complex), v_coeffs=(0.0,))
    with pytest.raises(NumericalBreakdownError):
        solve_hamiltonian(degenerate, phys)


def test_solve_detects_vanishing_momentum(phys):
    # X alone leaves every function of X in the kernel: dimension r, not 1
    ops = build_operators(16, phys, [0.0])
    no_p = OperatorTriple(n=16, buffer=4, X=ops.X, P=np.zeros((16, 16), complex),
                          F=ops.F, v_coeffs=(0.0,))
    assert kernel_of_constraints(no_p) == 12
    with pytest.raises(NumericalBreakdownError):
        solve_hamiltonian(no_p, phys)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_kernel_of_constraints_dimension(phys, n):
    ops = build_operators(n, phys, [0.0, 0.0, 0.5])
    assert kernel_of_constraints(ops) == 1


def _commutator_singular_values(ops):
    """Singular values, ascending, of the map from the functions of X to
    [., P] on the trusted block, by the SVD of its 2r^2 x r real matrix."""
    r = ops.interior
    _, U = np.linalg.eigh(ops.X[:r, :r])
    Pe = U.conj().T @ ops.P[:r, :r] @ U
    eye = np.eye(r)
    # C[a, b, j] = (E_jj Pe - Pe E_jj)_ab = (delta_aj - delta_bj) Pe_ab
    C = ((eye[:, None, :] - eye[None, :, :]) * Pe[:, :, None]).reshape(r * r, r)
    return np.linalg.svd(np.concatenate([C.real, C.imag]), compute_uv=False)[::-1]


@pytest.mark.parametrize("n", [16, 32, 64])
def test_constraint_laplacian_matches_the_commutator_svd(phys, n):
    ops = build_operators(n, phys, [0.0, 0.0, 0.5])
    lam = np.linalg.eigvalsh(constraint_laplacian(ops))
    s = _commutator_singular_values(ops)
    # the Laplacian's eigenvalues are the squared singular values
    assert np.abs(lam - s ** 2).max() < 1e-14 * s.max() ** 2
    assert np.abs(np.sqrt(lam[1:]) - s[1:]).max() < 1e-14 * s.max()
    # one null direction under either threshold, and a wide gap above it
    assert np.sum(s <= 1e-10 * s.max()) == np.sum(lam <= 1e-10 * lam.max()) == 1
    assert lam[1] > 8e-3 * lam.max()


def test_disconnected_momentum_graph_leaves_two_null_directions(phys):
    # P with no matrix element between the lower and upper halves of X's
    # eigenbasis: the graph W has two components, and the projectors onto
    # the two halves (whose sum is the identity) both commute with X and P
    ops = build_operators(16, phys, [0.0])
    r = ops.interior
    _, U = np.linalg.eigh(ops.X[:r, :r])
    Pe = U.T @ ops.P[:r, :r] @ U
    Pe[:r // 2, r // 2:] = Pe[r // 2:, :r // 2] = 0.0
    P = np.zeros((16, 16), complex)
    P[:r, :r] = U @ Pe @ U.T
    split = OperatorTriple(n=16, buffer=4, X=ops.X, P=P, F=ops.F, v_coeffs=(0.0,))
    assert kernel_of_constraints(split) == 2
    s = _commutator_singular_values(split)
    assert np.sum(s <= 1e-10 * s.max()) == 2
    with pytest.raises(NumericalBreakdownError):
        solve_hamiltonian(split, phys)


def test_identity_always_in_kernel(phys):
    ops = build_operators(32, phys, [0.0])
    eye = np.eye(32)
    assert np.abs(eye @ ops.X - ops.X @ eye).max() == 0.0
    assert np.abs(eye @ ops.P - ops.P @ eye).max() == 0.0


def evolve_expectation(H: np.ndarray, alpha: complex, phys: PhysicsParams,
                       X: np.ndarray, times: np.ndarray) -> np.ndarray:
    """<X>(t) for a truncated coherent state |alpha> evolved by H (via eigh)."""
    n = H.shape[0]
    j = np.arange(n)
    log_coef = -0.5 * abs(alpha) ** 2 + j * np.log(complex(alpha)) - 0.5 * np.array(
        [np.sum(np.log(np.arange(1, jj + 1))) if jj else 0.0 for jj in j])
    c = np.exp(log_coef)
    c = c / np.linalg.norm(c)
    evals, vecs = np.linalg.eigh(H)
    c_e = vecs.conj().T @ c
    out = np.empty(len(times))
    for i, t in enumerate(times):
        ct = vecs @ (np.exp(-1j * evals * t / phys.hbar) * c_e)
        out[i] = (ct.conj() @ (X @ ct)).real
    return out


def test_reconstructed_dynamics_matches_propagator(phys):
    # evolve a truncated coherent state with the recovered H; its <x>(t) must
    # track the split-step packet trajectory for the same harmonic potential,
    # whose frequency is the basis oscillator's, 1
    k = phys.mass
    sigma_c = np.sqrt(phys.hbar / (2 * phys.mass))
    ops = build_operators(40, phys, [0.0, 0.0, 0.5 * k])
    res = solve_hamiltonian(ops, phys)

    a0 = 1.0
    alpha = a0 / (2 * sigma_c)      # coherent displacement for p = 0
    times = np.linspace(0.0, 1.0, 9)
    xs_matrix = evolve_expectation(res.H_solved, alpha, phys, ops.X, times)

    g = Grid(512, -16.0, 16.0, True)
    psi = realize(GaussianParams(a0, 0.0, sigma_c), g)
    t, xs_grid, _, _ = wavepacket_trajectory(psi, PotentialSpec.harmonic(k), phys, 1.0, 1e-3)
    xs_interp = np.interp(times, t, xs_grid)
    assert np.max(np.abs(xs_matrix - xs_interp)) < 1e-3


def test_reference_hamiltonian_is_hermitian(phys):
    ops = build_operators(32, phys, [0.1, 0.2, 0.3, 0.0, 0.01])
    href = reference_hamiltonian(ops, phys)
    assert np.abs(href - href.conj().T).max() < 1e-10


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("coeffs", [
    [0.0],                          # free
    [0.0, 0.7],                     # linear
    [0.0, 0.0, 0.5],                # harmonic
    [0.0, 0.3, 0.0, 0.1],           # cubic
    [0.1, 0.2, 0.3, 0.0, 0.01],     # quartic
])
def test_solve_block_error_at_round_off(phys, n, coeffs):
    res = solve_hamiltonian(build_operators(n, phys, coeffs), phys)
    assert res.block_error < 1e-12


def test_solve_reports_nonconvergence(phys, monkeypatch):
    import scipy.sparse.linalg as sla
    lsmr = sla.lsmr
    monkeypatch.setattr(sla, "lsmr", lambda A, b, **kw: lsmr(A, b, **{**kw, "maxiter": 1}))
    with pytest.raises(NumericalBreakdownError):
        solve_hamiltonian(build_operators(32, phys, [0.0, 0.0, 0.5]), phys)
