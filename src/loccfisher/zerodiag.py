"""Constructive simultaneous zero-diagonalization of traceless Hermitian pairs.

Any traceless matrix admits an orthonormal basis in which all its diagonal
entries vanish. Splitting the matrix into Hermitian and anti-Hermitian parts
reduces the problem to zero-diagonalizing two traceless Hermitian matrices at
once, which is solved here by a closed-form 2x2 rotation plus a recursive
null-vector construction that peels off one basis vector per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .tensor import check_hermitian, check_traceless, recenter

DIAG_TOL = 1e-8        # admissible diagonal residual relative to the pair scale
NULL_TOL = 1e-9        # admissible null-vector residual relative to the pair scale
_TINY = 1e-12          # relative zero floor, mostly against the pair scale


class ZeroDiagConvergenceError(RuntimeError):
    """Raised when the construction cannot reach the residual target."""


@dataclass(frozen=True)
class TwoByTwoRotation:
    """Closed-form 2x2 rotation zero-diagonalizing a traceless Hermitian pair."""

    alpha: float
    beta: float
    unitary: np.ndarray


@dataclass(frozen=True)
class BlockSplit:
    """Sign-split of H1's eigenbasis with H2 expressed in the same blocks.

    ``pos_basis`` collects eigenvectors with eigenvalue >= 0 (zeros included),
    ``neg_basis`` the strictly negative ones. ``sigma1``, ``sigma2`` and
    ``offdiag`` are the corresponding blocks of the (possibly rescaled) H2,
    and ``scale`` is the scale of the rescaled pair.
    """

    pos_basis: np.ndarray
    neg_basis: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    offdiag: np.ndarray
    case: str            # "a" (rescaled to matching block traces) or "b"
    scale: float


def _norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def _check_pair(h1: np.ndarray, h2: np.ndarray) -> float:
    """Scale max(1, ||h1||, ||h2||) of a public input pair, checked traceless Hermitian.

    Every floor and bound of the construction is relative to this scale;
    sub-problems inherit it, so a deflated pair that is rounding noise at
    the caller's scale counts as zero. The private steps below trust their
    input and only project it exactly onto traceless Hermitian matrices.
    """
    h1 = check_traceless(check_hermitian(h1, "h1"), "h1")
    h2 = check_traceless(check_hermitian(h2, "h2"), "h2")
    if h1.shape != h2.shape:
        raise ValueError("dimension mismatch")
    return max(1.0, _norm(h1), _norm(h2))


def _traceless_hermitian(m: np.ndarray) -> np.ndarray:
    """Re-centered Hermitian part of a matrix that is traceless Hermitian up to rounding."""
    return recenter((m + m.conj().T) / 2)


def _canonical_sign(m: np.ndarray) -> np.ndarray:
    # Zero-diagonalization is invariant under scaling; fixing the sign of the
    # leading diagonal entry keeps the returned basis stable across inputs
    # that differ only by a (theta-dependent) negative factor.
    d = np.real(np.diag(m))
    idx = np.flatnonzero(np.abs(d) > _TINY * max(1.0, np.abs(m).max()))
    if idx.size and d[idx[0]] < 0:
        return -m
    return m


def solve_2x2(h1: np.ndarray, h2: np.ndarray) -> TwoByTwoRotation:
    """Closed-form rotation zero-diagonalizing two traceless Hermitian 2x2 matrices.

    With H_k = [[a_k, b_k e^{i phi_k}], [b_k e^{-i phi_k}, -a_k]] the unitary
    U = [[cos b, -sin b e^{i a}], [sin b e^{-i a}, cos b]] has zero-diagonal
    conjugations iff cot(2 beta) = -(b_k/a_k) cos(alpha - phi_k) for both k.
    alpha is solved from the linear trigonometric compatibility equation, then
    beta from either matrix with a nonzero diagonal.
    """
    _check_pair(h1, h2)
    if np.shape(h1) != (2, 2):
        raise ValueError("solve_2x2 expects 2x2 matrices")
    return _solve_2x2(h1, h2)


def _solve_2x2(h1: np.ndarray, h2: np.ndarray) -> TwoByTwoRotation:
    h1 = _canonical_sign(_traceless_hermitian(h1))
    h2 = _canonical_sign(_traceless_hermitian(h2))
    a1 = float(np.real(h1[0, 0]))
    a2 = float(np.real(h2[0, 0]))
    b1, phi1 = abs(h1[0, 1]), float(np.angle(h1[0, 1]))
    b2, phi2 = abs(h2[0, 1]), float(np.angle(h2[0, 1]))
    size = max(_norm(h1), _norm(h2), _TINY)     # the closed form is scale-free

    if abs(a1) <= _TINY * size and abs(a2) <= _TINY * size:
        # Both diagonals already vanish.
        alpha, beta = 0.0, 0.0
    else:
        x = b1 * a2 * np.cos(phi1) - b2 * a1 * np.cos(phi2)
        y = b1 * a2 * np.sin(phi1) - b2 * a1 * np.sin(phi2)
        alpha = 0.0 if max(abs(x), abs(y)) <= _TINY * size ** 2 else float(np.arctan2(-x, y))
        k_star = (a1, b1, phi1) if abs(a1) >= abs(a2) else (a2, b2, phi2)
        a, b, phi = k_star
        beta = 0.5 * float(np.arctan2(-a, b * np.cos(alpha - phi)))

    c, s = np.cos(beta), np.sin(beta)
    u = np.array([[c, -s * np.exp(1j * alpha)],
                  [s * np.exp(-1j * alpha), c]])
    return TwoByTwoRotation(alpha=alpha, beta=beta, unitary=u)


def _block_split(h1: np.ndarray, h2: np.ndarray, scale: float) -> BlockSplit:
    """Split by the eigenvalue sign of h1 and rescale h2 per the case analysis.

    Zero eigenvalues of h1 join the positive block; only the block traces
    matter and they stay strictly signed. The zero floor is relative to
    h1's own spectrum, so a traceless h1 always has both signs. Case "a"
    rescales h2 by gamma so the block traces of both matrices agree; an error
    e in the rescaled blocks costs e in h1 and e/|gamma| in h2, so the block
    sub-problems get the scale min(1, |gamma|) * scale. Case "b" applies when
    h2's blocks are already traceless.
    """
    w, v = np.linalg.eigh(h1)
    pos = w >= -_TINY * np.abs(w).max()
    neg = ~pos
    if not pos.any() or not neg.any():
        raise ZeroDiagConvergenceError(
            "h1 must have eigenvalues of both signs (traceless, nonzero)")
    p_basis, n_basis = v[:, pos], v[:, neg]
    lam1 = p_basis.conj().T @ h1 @ p_basis
    lam2 = n_basis.conj().T @ h1 @ n_basis
    sig1 = p_basis.conj().T @ h2 @ p_basis
    sig2 = n_basis.conj().T @ h2 @ n_basis
    b = p_basis.conj().T @ h2 @ n_basis

    t_lam1 = float(np.real(np.trace(lam1)))
    t_sig1 = float(np.real(np.trace(sig1)))
    if abs(t_sig1) < _TINY * scale:
        case = "b"
    else:
        case = "a"
        gamma = t_lam1 / t_sig1
        sig1, sig2, b = gamma * sig1, gamma * sig2, gamma * b
        scale *= min(1.0, abs(gamma))
    return BlockSplit(pos_basis=p_basis, neg_basis=n_basis, lambda1=lam1,
                      lambda2=lam2, sigma1=sig1, sigma2=sig2, offdiag=b, case=case,
                      scale=scale)


def _pick_block_vector(lam: np.ndarray, target: np.ndarray, want_max: bool,
                       scale: float) -> tuple[np.ndarray, float, float]:
    """Vector u with <u|target|u> = 0 maximizing (or minimizing) <u|lam|u>.

    ``target`` is traceless on the block, so a zero-diagonalizing basis
    exists; the extremal diagonal value of ``lam`` in that basis inherits the
    sign of Tr(lam). Ties resolve to the lowest index via argmax/argmin.
    """
    p = lam.shape[0]
    if p == 1:
        u = np.array([1.0 + 0j])
        return u, float(np.real(lam[0, 0])), float(np.real(target[0, 0]))
    h = _traceless_hermitian(target)
    basis = _zero_diag_pair(h, np.zeros_like(h), scale)
    scores = np.real(np.einsum("ij,jk,ki->i", basis.conj().T, lam, basis))
    idx = int(np.argmax(scores) if want_max else np.argmin(scores))
    u = basis[:, idx]
    t_val = float(np.real(u.conj() @ target @ u))
    return u, float(scores[idx]), t_val


def find_null_vector(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Unit vector v with <v|h1|v> = <v|h2|v> = 0 for traceless Hermitian inputs.

    Follows the inductive block construction: split by the sign of h1,
    rescale h2 (case "a") or use its traceless blocks directly (case "b"),
    obtain block vectors v1 (positive diagonal value) and v2 (negative), and
    combine them as cos(beta) v1 + sin(beta) e^{-i alpha} v2.
    """
    return _null_vector(h1, h2, _check_pair(h1, h2))


def _null_vector(h1: np.ndarray, h2: np.ndarray, scale: float) -> np.ndarray:
    h1, h2 = _traceless_hermitian(h1), _traceless_hermitian(h2)
    d = h1.shape[0]
    n1, n2 = _norm(h1), _norm(h2)
    if max(n1, n2) <= _TINY * scale:
        v = np.zeros(d, dtype=complex)
        v[0] = 1.0
        return v
    if n1 <= _TINY * scale:
        return _null_vector(h2, h1, scale)

    split = _block_split(h1, h2, scale)
    target1 = split.lambda1 - split.sigma1 if split.case == "a" else split.sigma1
    target2 = split.lambda2 - split.sigma2 if split.case == "a" else split.sigma2
    v1, lam1, t1 = _pick_block_vector(split.lambda1, target1, True, split.scale)
    v2, lam2, t2 = _pick_block_vector(split.lambda2, target2, False, split.scale)
    # Sandwich values of the (rescaled) h2 blocks; near-zero inner residuals
    # t1, t2 are carried along so alpha can cancel them exactly below.
    sig1 = lam1 - t1 if split.case == "a" else t1
    sig2 = lam2 - t2 if split.case == "a" else t2
    if not (lam1 > 0 and lam2 < 0):
        raise ZeroDiagConvergenceError(
            f"block construction produced non-signed values {lam1:.3e}, {lam2:.3e}")

    beta = float(np.arctan2(np.sqrt(lam1), np.sqrt(-lam2)))
    cb, sb = np.cos(beta), np.sin(beta)
    cross = complex(v1.conj() @ split.offdiag @ v2)
    base = cb * cb * sig1 + sb * sb * sig2
    if abs(cross) > _TINY * split.scale:
        # Solve cos(arg(cross) - alpha) exactly so the residual block term and
        # the cross term cancel; |target| exceeds 1 only by rounding.
        target = -base / (2 * cb * sb * abs(cross))
        alpha = float(np.angle(cross) - np.arccos(np.clip(target, -1.0, 1.0)))
    else:
        alpha = 0.0

    v = np.zeros(d, dtype=complex)
    v += cb * (split.pos_basis @ v1)
    v += sb * np.exp(-1j * alpha) * (split.neg_basis @ v2)
    v /= np.linalg.norm(v)

    res = max(abs(v.conj() @ h1 @ v), abs(v.conj() @ h2 @ v))
    if res > NULL_TOL * scale:
        raise ZeroDiagConvergenceError(
            f"null-vector residual {res:.3e} exceeds {NULL_TOL:.0e} * scale {scale:.3e}")
    return v


def simultaneous_zero_diag(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Unitary whose basis zero-diagonalizes both traceless Hermitian matrices.

    Recursion peels one null vector per step (depth d-1 overall); the deflated
    pair is re-centered to exactly traceless before descending, which is
    admissible because the peeled vector carries zero diagonal value.
    """
    return _zero_diag_pair(h1, h2, _check_pair(h1, h2))


def _zero_diag_pair(h1: np.ndarray, h2: np.ndarray, scale: float) -> np.ndarray:
    h1, h2 = _traceless_hermitian(h1), _traceless_hermitian(h2)
    d = h1.shape[0]
    n1, n2 = _norm(h1), _norm(h2)
    if d == 1 or max(n1, n2) <= _TINY * scale:
        return np.eye(d, dtype=complex)
    if n1 <= _TINY * scale:
        return _zero_diag_pair(h2, h1, scale)
    if d == 2:
        return _solve_2x2(h1, h2).unitary

    v = _null_vector(h1, h2, scale)
    w = sla.null_space(v.conj()[None, :])          # d x (d-1) orthonormal complement
    u_sub = _zero_diag_pair(recenter(w.conj().T @ h1 @ w),
                            recenter(w.conj().T @ h2 @ w), scale)
    u = np.empty((d, d), dtype=complex)
    u[:, 0] = v
    u[:, 1:] = w @ u_sub

    for h in (h1, h2):
        res = float(np.abs(np.diag(u.conj().T @ h @ u)).max())
        if res > DIAG_TOL * scale:
            raise ZeroDiagConvergenceError(
                f"diagonal residual {res:.3e} exceeds {DIAG_TOL:.0e} * scale {scale:.3e}")
    return u


def zero_diag_basis(m_tilde: np.ndarray) -> np.ndarray:
    """Orthonormal basis u_i with <u_i| m_tilde |u_i> = 0 for traceless m_tilde.

    Splits the matrix into its Hermitian and anti-Hermitian parts and
    simultaneously zero-diagonalizes the resulting traceless Hermitian pair.
    """
    m = check_traceless(m_tilde, "matrix", 1e-9)
    h1, h2 = (m + m.conj().T) / 2, (m - m.conj().T) / 2j
    return _zero_diag_pair(h1, h2, max(1.0, _norm(h1), _norm(h2)))
