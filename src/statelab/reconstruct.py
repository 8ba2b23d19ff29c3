"""Recover the Hamiltonian from its commutators with position and momentum.

The two operator equations i[H, X] = hbar P / m and i[H, P] = hbar F (with
F = -V'(X)) determine H up to an additive constant.  We realize X and P in a
truncated harmonic-oscillator basis, where both are exactly Hermitian and
truncation artifacts are confined to the last few rows.  Because those rows
make the truncated equations inconsistent by O(N) at the corner, the least
squares is taken over the constraint entries in the trusted leading block
only; the recovered H then matches p^2/2m + V(x) on that block to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.polynomial import polyder

from .dynamics import PhysicsParams, PotentialSpec
from .numerics import NumericalBreakdownError


def ladder_lowering(n: int) -> np.ndarray:
    """Lowering operator: a |j> = sqrt(j) |j-1>."""
    a = np.zeros((n, n))
    a[np.arange(n - 1), np.arange(1, n)] = np.sqrt(np.arange(1, n))
    return a


def position_momentum(n: int, phys: PhysicsParams):
    """Truncated X (real) and P (imaginary) matrices for a basis oscillator of
    unit frequency."""
    a = ladder_lowering(n)
    X = np.sqrt(phys.hbar / (2.0 * phys.mass)) * (a + a.T)
    P = 1j * np.sqrt(phys.mass * phys.hbar / 2.0) * (a.T - a)
    return X, P


def matrix_polynomial(coeffs: Sequence[float], X: np.ndarray) -> np.ndarray:
    """Evaluate sum_k coeffs[k] X^k by Horner's scheme."""
    n = X.shape[0]
    out = np.zeros_like(X)
    for c in reversed(list(coeffs)):
        out = out @ X + c * np.eye(n)
    return out


@dataclass(frozen=True, eq=False)
class OperatorTriple:
    """X, P and the force matrix F = -V'(X) in the truncated oscillator basis.

    The interior block (first n - buffer rows/columns) is where the canonical
    commutator and the reconstruction are trusted; truncation corrupts the
    last rows.
    """

    n: int
    buffer: int
    X: np.ndarray
    P: np.ndarray
    F: np.ndarray
    v_coeffs: tuple

    @property
    def interior(self) -> int:
        return self.n - self.buffer


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    H_solved: np.ndarray
    residual_x: float
    residual_p: float
    gauge_constant: float
    block_error: float
    interior: int


def build_operators(n: int, phys: PhysicsParams, v_coeffs: Sequence[float]) -> OperatorTriple:
    """Assemble the operator triple for a polynomial potential (degree <= 4).

    The buffer is 4 + 2*deg(V) rows: more than twice the degree, so the
    corrupted rows stay outside the trusted block, and at most 12, so the
    interior of a basis of n >= 16 is never empty.
    """
    if n < 16:
        raise ValueError("basis dimension must be at least 16")
    coeffs = PotentialSpec(v_coeffs).coeffs   # trailing zeros dropped
    deg = len(coeffs) - 1
    if deg > 4:
        raise ValueError("potential degree must be at most 4")
    X, P = position_momentum(n, phys)
    F = -matrix_polynomial(polyder(coeffs), X)
    return OperatorTriple(n=n, buffer=4 + 2 * deg, X=X, P=P, F=F, v_coeffs=coeffs)


def reference_hamiltonian(ops: OperatorTriple, phys: PhysicsParams) -> np.ndarray:
    return ops.P @ ops.P / (2.0 * phys.mass) + matrix_polynomial(ops.v_coeffs, ops.X)


def constraint_residuals(ops: OperatorTriple, H: np.ndarray, phys: PhysicsParams):
    """Frobenius norms of the two constraint residuals over the trusted block."""
    r = ops.interior
    res_x = 1j * (H @ ops.X - ops.X @ H) - phys.hbar * ops.P / phys.mass
    res_p = 1j * (H @ ops.P - ops.P @ H) - phys.hbar * ops.F
    return (float(np.linalg.norm(res_x[:r, :r])), float(np.linalg.norm(res_p[:r, :r])))


def _constraint_operator(ops: OperatorTriple, s: int):
    """Sparse real matrix taking coefficients of a Hermitian H supported on
    the leading s x s block to the real, then the imaginary, parts of
    i[H, X] and i[H, P] on the trusted r x r block (row-major, X rows
    first); returned with the map T from those coefficients to row-major
    vec(H).

    The columns of T are orthonormal in the Frobenius inner product: E_jj,
    then (E_jk + E_kj)/sqrt(2) and i(E_kj - E_jk)/sqrt(2) for each j < k.
    """
    # imported here, like lsmr in solve_hamiltonian, so that importing
    # statelab, which every CLI run pays for, does not load scipy.sparse
    import scipy.sparse as sp

    r = ops.interior
    j, k = np.triu_indices(s, 1)
    diag = np.arange(s)
    pair = s + 2 * np.arange(len(j))
    h = np.sqrt(0.5)
    T = sp.csr_array(
        (np.concatenate([np.ones(s), np.full(2 * len(j), h),
                         np.full(len(j), -1j * h), np.full(len(j), 1j * h)]),
         (np.concatenate([diag * (s + 1), j * s + k, k * s + j, j * s + k, k * s + j]),
          np.concatenate([diag, pair, pair, pair + 1, pair + 1]))),
        shape=(s * s, s * s))

    # entry (i, j) of i[H, Y] is i sum_k (H_ik Y_kj - Y_ik H_kj); one triplet
    # per nonzero of Y and free index, duplicates summed by the CSR build
    rows, cols, vals = [], [], []
    free = np.arange(r)[:, None]
    for m, Y in enumerate((ops.X[:s, :s], ops.P[:s, :s])):
        kk, jj = np.nonzero(Y[:, :r])
        rows.append(m * r * r + free * r + jj)
        cols.append(free * s + kk)
        vals.append(np.broadcast_to(1j * Y[kk, jj], rows[-1].shape))
        ii, kk = np.nonzero(Y[:r, :])
        rows.append(m * r * r + ii * r + free)
        cols.append(kk * s + free)
        vals.append(np.broadcast_to(-1j * Y[ii, kk], rows[-1].shape))
    L = sp.csr_array((np.concatenate([v.ravel() for v in vals]),
                      (np.concatenate([a.ravel() for a in rows]),
                       np.concatenate([a.ravel() for a in cols]))),
                     shape=(2 * r * r, s * s))
    C = L @ T
    return sp.vstack([C.real, C.imag], format="csr"), T


def solve_hamiltonian(ops: OperatorTriple, phys: PhysicsParams) -> ReconstructionResult:
    """Least-squares solve of the commutator constraints for Hermitian H.

    The residual norms run over constraint entries in the trusted leading
    block (the full-matrix objective is dominated by the O(N) truncation
    inconsistency at the corner and would smear it over the whole solution).
    Those entries reach H only on a leading s x s block, s = r + 1 for the
    tridiagonal ladder X and P, so H is parameterized there alone and every
    other entry is zero, as in the minimum-norm solution over all of H.  The
    sparse system is solved by LSMR from zero, which converges to that
    minimum-norm solution.  The null freedom on the block is the identity
    and the projector onto state r; the additive constant is fixed by
    matching the interior trace of p^2/2m + V(x).
    """
    from scipy.sparse.linalg import lsmr

    n, r = ops.n, ops.interior
    dim = kernel_of_constraints(ops)
    if dim != 1:
        raise NumericalBreakdownError(
            f"constraint null space has dimension {dim}, expected 1 "
            "(degenerate X, P pair?)")
    # H_ab enters the trusted block through Y[b, :r] (a < r) or Y[a, :r]
    # (b < r) for Y in {X, P}
    reached = np.any(ops.X[:, :r] != 0, axis=1) | np.any(ops.P[:, :r] != 0, axis=1)
    s = max(r, int(np.flatnonzero(reached).max()) + 1)
    A, T = _constraint_operator(ops, s)
    R = np.concatenate([(phys.hbar / phys.mass) * ops.P[:r, :r].ravel(),
                        phys.hbar * ops.F[:r, :r].ravel()])
    # atol = btol = 0 iterates to machine precision (istop 4 or 5)
    coef, istop, itn = lsmr(A, np.concatenate([R.real, R.imag]), atol=0.0, btol=0.0)[:3]
    if istop in (3, 6, 7):
        raise NumericalBreakdownError(
            f"LSMR did not converge (istop {istop} after {itn} iterations)")

    H = np.zeros((n, n), dtype=complex)
    H[:s, :s] = (T @ coef).reshape(s, s)
    href = reference_hamiltonian(ops, phys)
    shift = (np.trace(href[:r, :r]).real - np.trace(H[:r, :r]).real) / r
    H = H + shift * np.eye(n)
    H = 0.5 * (H + H.conj().T)  # symmetrize round-off

    gauge = float(np.trace(H[:r, :r] - href[:r, :r]).real / r)
    block = float(np.linalg.norm(H[:r, :r] - href[:r, :r])
                  / np.linalg.norm(href[:r, :r]))
    res_x, res_p = constraint_residuals(ops, H, phys)
    return ReconstructionResult(H_solved=H, residual_x=res_x, residual_p=res_p,
                                gauge_constant=gauge, block_error=block, interior=r)


def constraint_laplacian(ops: OperatorTriple) -> np.ndarray:
    """Gram matrix C^T C of the map H -> [H, P] on the trusted block,
    restricted to the functions of X (the matrices commuting with X, which
    has simple spectrum) and taken in X's eigenbasis.

    There the commutator of the j-th eigenprojector with P is P's j-th row
    minus its j-th column, so C^T C is the weighted graph Laplacian 2(D - W)
    with W_ab = |Pe_ab|^2, Pe = P in X's eigenbasis, and D the row sums of W.
    """
    # imported here, like lsmr in solve_hamiltonian, so that importing
    # statelab, which every CLI run pays for, does not load scipy.linalg
    from scipy.linalg import eigh

    r = ops.interior
    P = ops.P[:r, :r]
    evals, U = eigh(ops.X[:r, :r])
    if np.min(np.diff(evals)) <= 1e-12 * (evals[-1] - evals[0]):
        raise NumericalBreakdownError("X has a (near-)degenerate spectrum")
    # Pe = U^H P.real U + i U^H P.imag U: real products for a real X
    Uh = U.conj().T
    W = np.abs(Uh @ P.real @ U + 1j * (Uh @ P.imag @ U)) ** 2
    return 2.0 * (np.diag(W.sum(axis=1)) - W)


def kernel_of_constraints(ops: OperatorTriple) -> int:
    """Dimension of the Hermitian null space of H -> (i[H,X], i[H,P]) on the
    trusted block; the uniqueness statement predicts exactly 1 (multiples of
    the identity).

    It is the null dimension of constraint_laplacian, the number of
    connected components of the graph W.  An eigenvalue lambda of the
    Laplacian is a squared singular value sigma^2 of the commutator map, and
    lambda <= 1e-10 lambda_max counts as null, which is
    sigma <= 1e-5 sigma_max.  For build_operators' ladder X and P at
    n <= 128 the null eigenvalue is below 1e-16 lambda_max and the next (the
    Fiedler value) at least 8e-3 lambda_max.  Every one of the r counts when
    P vanishes on the block.
    """
    lam = np.linalg.eigvalsh(constraint_laplacian(ops))
    return int(np.sum(lam <= 1e-10 * lam.max()))
