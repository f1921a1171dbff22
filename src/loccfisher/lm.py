"""Local-measurement feasibility analysis for bipartite pure families.

Whether a product measurement (no classical communication) can reach the
quantum Fisher information is governed by two coefficient matrices: A for the
state and B for its orthogonal derivative component. A measurement pair is
encoded by isometries U (columns: vectors on subsystem 1) and V (columns:
conjugated vectors on subsystem 2); with C = U^dag A V and D = U^dag B V the
measurement saturates iff every C_ij conj(D_ij) is real (phase condition) and
D vanishes wherever C does (support condition).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import metrology
from .tensor import (P_TOL, PERP_TOL, UNIT_TOL, HilbertLayout, as_layout, check_finite,
                     check_orthonormal, check_trace)
from .zerodiag import ZeroDiagConvergenceError, simultaneous_zero_diag, zero_diag_basis

PHASE_TOL = 1e-8
SUPPORT_TOL = 1e-8


@dataclass
class BipartiteCoeffs:
    """Coefficient matrices of the state and its orthogonal derivative."""

    a_mat: np.ndarray
    b_mat: np.ndarray

    def __post_init__(self) -> None:
        self.a_mat = np.asarray(self.a_mat, dtype=complex)
        self.b_mat = np.asarray(self.b_mat, dtype=complex)
        if self.a_mat.shape != self.b_mat.shape or self.a_mat.ndim != 2:
            raise ValueError("coefficient matrices must share a 2-D shape")
        check_finite(self.a_mat, "coefficient matrix")
        check_finite(self.b_mat, "coefficient matrix")
        if abs(np.trace(self.a_mat.conj().T @ self.a_mat) - 1.0) > UNIT_TOL:
            raise ValueError("state coefficients are not normalized")
        if abs(np.trace(self.a_mat.conj().T @ self.b_mat)) > PERP_TOL:
            raise ValueError("coefficient matrices are not orthogonal")


@dataclass
class IsometryPair:
    """Measurement pair (U, V) with U U^dag = I_d1 and V V^dag = I_d2."""

    u_mat: np.ndarray
    v_mat: np.ndarray

    def __post_init__(self) -> None:
        self.u_mat = np.asarray(self.u_mat, dtype=complex)
        self.v_mat = np.asarray(self.v_mat, dtype=complex)
        for name, m in (("U", self.u_mat), ("V", self.v_mat)):
            d, cols = m.shape
            if cols < d:
                raise ValueError(f"{name} must have at least as many columns as rows")
            check_finite(m, name)
            check_orthonormal(m.T, f"{name} is not an isometry (rows not orthonormal)")

    @property
    def projective(self) -> bool:
        return self.u_mat.shape[0] == self.u_mat.shape[1] and \
            self.v_mat.shape[0] == self.v_mat.shape[1]

    def cd(self, coeffs: BipartiteCoeffs) -> tuple[np.ndarray, np.ndarray]:
        c = self.u_mat.conj().T @ coeffs.a_mat @ self.v_mat
        d = self.u_mat.conj().T @ coeffs.b_mat @ self.v_mat
        return c, d


@dataclass
class LmFeasibilityReport:
    phase_residual: float
    support_residual: float
    feasible: bool
    projective: bool


def coefficient_matrices(psi: np.ndarray, perp: np.ndarray,
                         layout: HilbertLayout) -> BipartiteCoeffs:
    """Reshape a bipartite state and its perpendicular derivative to matrices."""
    layout = as_layout(layout)
    if layout.nsub != 2:
        raise ValueError("coefficient matrices require a bipartite layout")
    d1, d2 = layout.dims
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    perp = np.asarray(perp, dtype=complex).reshape(-1)
    if psi.size != d1 * d2 or perp.size != d1 * d2:
        raise ValueError("vector length does not match the layout")
    return BipartiteCoeffs(a_mat=psi.reshape(d1, d2), b_mat=perp.reshape(d1, d2))


def check_lm_conditions(pair: IsometryPair, coeffs: BipartiteCoeffs,
                        phase_tol: float = PHASE_TOL,
                        support_tol: float = SUPPORT_TOL) -> LmFeasibilityReport:
    """Evaluate the phase and support conditions for a measurement pair."""
    c, d = pair.cd(coeffs)
    phase = float(np.abs(c * np.conj(d) - np.conj(c) * d).max())
    # |C_ij|^2 is the outcome probability at theta; zero by check_saturation's rule
    zeros = np.abs(c) ** 2 < P_TOL
    support = float(np.abs(d)[zeros].max()) if zeros.any() else 0.0
    return LmFeasibilityReport(
        phase_residual=phase,
        support_residual=support,
        feasible=bool(phase <= phase_tol and support <= support_tol),
        projective=pair.projective,
    )


def construct_lm_2xd(coeffs: BipartiteCoeffs) -> IsometryPair:
    """Projective pair meeting the phase condition when subsystem 1 is a qubit.

    U zero-diagonalizes the 2x2 skew form A B^dag - B A^dag; with P_i the
    projectors onto U's columns, the two d x d targets B^dag P_i A -
    A^dag P_i B are then traceless and are simultaneously zero-diagonalized
    by V. The support condition is not guaranteed and is only reported.
    """
    a, b = coeffs.a_mat, coeffs.b_mat
    if a.shape[0] != 2:
        raise ValueError("construction requires subsystem 1 of dimension 2")
    skew = a @ b.conj().T - b @ a.conj().T
    u = zero_diag_basis(skew)
    targets = []
    for i in range(2):
        p = np.outer(u[:, i], u[:, i].conj())
        t = b.conj().T @ p @ a - a.conj().T @ p @ b
        # traceless iff u zero-diagonalizes the skew form; simultaneous_zero_diag re-centers
        check_trace(t, f"conditioned target {i}", error=ZeroDiagConvergenceError)
        targets.append(-1j * t)     # anti-Hermitian target over i gives a Hermitian pair
    v = simultaneous_zero_diag(targets[0], targets[1])
    return IsometryPair(u_mat=u, v_mat=v)


def lm_povm_from_pair(pair: IsometryPair) -> metrology.Povm:
    """Rank-one product POVM encoded by the pair.

    Columns of U are the subsystem-1 vectors and columns of V the conjugated
    subsystem-2 vectors; row (i, j) is kron(u_i, conj(v_j)), and the
    row-orthonormality of U and V is exactly the completeness of the elements.
    """
    u, v = pair.u_mat, pair.v_mat
    (d1, n1), (d2, n2) = u.shape, v.shape
    vectors = np.einsum("ai,bj->ijab", u, v.conj()).reshape(n1 * n2, d1 * d2)
    labels = [(i, j) for i in range(n1) for j in range(n2)]
    return metrology.Povm(vectors=vectors, labels=labels)


@dataclass
class SearchReport(LmFeasibilityReport):
    restarts: int
    note: str = ("heuristic local search: a negative outcome is evidence of "
                 "infeasibility, not a proof")


class _ExpMap:
    """x -> U = exp(iH) with H = sum_j x_j E_j, and every dU/dx_j.

    The d*d basis matrices E_j are, in parameter order, the diagonal units,
    then the real and then the imaginary unit pairs of the upper triangle.
    """

    def __init__(self, d: int):
        iu = np.triu_indices(d, k=1)
        n_off = len(iu[0])
        re, im = d + np.arange(n_off), d + n_off + np.arange(n_off)
        self.basis = np.zeros((d * d, d, d), dtype=complex)
        self.basis[np.arange(d), np.arange(d), np.arange(d)] = 1
        self.basis[re, iu[0], iu[1]] = self.basis[re, iu[1], iu[0]] = 1
        self.basis[im, iu[0], iu[1]] = 1j
        self.basis[im, iu[1], iu[0]] = -1j

    def eig(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(np.tensordot(x, self.basis, axes=1))

    @staticmethod
    def unitary(w: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (v * np.exp(1j * w)) @ v.conj().T

    def derivative(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """dU/dx_j = V (G o V^dag E_j V) V^dag for all j (Daleckii-Krein).

        G_kl = i e^{i(w_k + w_l)/2} sinc((w_k - w_l)/2pi) is the divided
        difference of e^{iw}, exact for equal eigenvalues too.
        """
        gamma = (1j * np.exp(0.5j * (w[:, None] + w[None, :]))
                 * np.sinc((w[:, None] - w[None, :]) / (2 * np.pi)))
        vh = v.conj().T
        return v @ (gamma * (vh @ self.basis @ v)) @ vh


def least_squares(*args, **kwargs):
    """scipy's least_squares, imported by the first search: importing the package loads no scipy."""
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


def heuristic_lm_search(coeffs: BipartiteCoeffs, restarts: int = 40,
                        iters: int = 300, allow_isometry_padding: bool = False,
                        seed: int = 0,
                        phase_tol: float = PHASE_TOL,
                        support_tol: float = SUPPORT_TOL
                        ) -> tuple[IsometryPair, SearchReport]:
    """Multi-start local search for a feasible measurement pair.

    Unitaries are parameterized as exponentials of Hermitian matrices; with
    padding enabled, V gains one extra column by taking the first d2 rows of
    a (d2+1)-dimensional unitary. Each restart minimizes the squared phase
    residual plus a narrowly weighted support penalty by damped least
    squares with the exact Jacobian: the derivative of each exponential
    comes from the Daleckii-Krein divided differences, and the support
    term's kink at |D_ij| = 0 gets the zero subgradient. The search stops
    early once a pair meets the tolerances and always returns the best pair
    found.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    a, b = coeffs.a_mat, coeffs.b_mat
    d1, d2 = a.shape
    m2 = d2 + 1 if allow_isometry_padding else d2
    n_u, n_v = d1 * d1, m2 * m2
    exp_u, exp_v = _ExpMap(d1), _ExpMap(m2)
    # Penalty window for "C entry is zero": narrow, so exact solutions with
    # small but genuinely nonzero C entries are not distorted.
    eps = 1e-3
    # least_squares asks for the Jacobian at the x it just evaluated, so the
    # last evaluation is kept for it
    last = {}

    def evaluate(x):
        """(eigenpairs of both exponents, U, V, C, D) at x."""
        key = x.tobytes()
        if key not in last:
            eig_u, eig_v = exp_u.eig(x[:n_u]), exp_v.eig(x[n_u:])
            u = _ExpMap.unitary(*eig_u)
            v = _ExpMap.unitary(*eig_v)[:d2, :]
            last.clear()
            last[key] = (eig_u, eig_v, u, v, u.conj().T @ a @ v, u.conj().T @ b @ v)
        return last[key]

    def resid_vec(x):
        *_, c, d = evaluate(x)
        weight = np.sqrt(np.exp(-np.abs(c) ** 2 / eps ** 2)).ravel()
        return np.concatenate([np.imag(np.conj(c) * d).ravel(),
                               weight * np.abs(d).ravel()])

    def jacobian(x):
        eig_u, eig_v, u, v, c, d = evaluate(x)
        du_h = exp_u.derivative(*eig_u).conj().transpose(0, 2, 1)
        dv = exp_v.derivative(*eig_v)[:, :d2, :]
        dc, dd = (np.concatenate([du_h @ (m @ v), (u.conj().T @ m) @ dv]) for m in (a, b))
        weight = np.sqrt(np.exp(-np.abs(c) ** 2 / eps ** 2))
        mag = np.abs(d)
        d_phase = np.imag(np.conj(dc) * d + np.conj(c) * dd)
        d_weight = -weight * np.real(np.conj(c) * dc) / eps ** 2
        d_mag = np.divide(np.real(np.conj(d) * dd), mag, out=np.zeros(dd.shape),
                          where=mag > 0)
        d_support = d_weight * mag + weight * d_mag
        return np.concatenate([d_phase, d_support], axis=1).reshape(len(x), -1).T

    def score(pair):
        rep = check_lm_conditions(pair, coeffs, phase_tol, support_tol)
        return max(rep.phase_residual, rep.support_residual), rep

    rng = np.random.default_rng(seed)
    best_pair, best_rep, best_val = None, None, np.inf
    used = 0
    for _ in range(restarts):
        used += 1
        x0 = rng.standard_normal(n_u + n_v)
        sol = least_squares(resid_vec, x0, jac=jacobian, method="trf",
                            max_nfev=iters, xtol=1e-15, ftol=1e-15, gtol=1e-15)
        pair = IsometryPair(*evaluate(sol.x)[2:4])
        val, rep = score(pair)
        if val < best_val:
            best_pair, best_rep, best_val = pair, rep, val
        if rep.feasible and val < 1e-10:
            break

    return best_pair, SearchReport(**asdict(best_rep), restarts=used)
