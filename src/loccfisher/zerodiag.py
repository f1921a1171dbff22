"""Constructive simultaneous zero-diagonalization of traceless Hermitian pairs.

Any traceless matrix admits an orthonormal basis in which all its diagonal
entries vanish. Splitting the matrix into Hermitian and anti-Hermitian parts
reduces the problem to zero-diagonalizing two traceless Hermitian matrices at
once, which is solved here by a closed-form 2x2 rotation plus a recursive
null-vector construction that peels off one basis vector per step.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from .tensor import TARGET_TRACE_TOL, check_hermitian, check_traceless, recenter

DIAG_TOL = 1e-8        # admissible diagonal residual relative to the pair scale
NULL_TOL = 1e-9        # admissible null-vector residual relative to the pair scale
_TINY = 1e-12          # relative zero floor, mostly against the pair scale


class ZeroDiagConvergenceError(RuntimeError):
    """Raised when the construction cannot reach the residual target."""


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
    """Re-centered Hermitian part of a matrix (or of each matrix of a stack)
    that is traceless Hermitian up to rounding."""
    return recenter((m + m.conj().swapaxes(-1, -2)) / 2)


def _norms(h: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (P, d, d) stack, equal bit for bit to ``_norm``."""
    v = h.reshape(len(h), 1, h.shape[1] * h.shape[2])
    sq = v.real @ v.real.swapaxes(1, 2) + v.imag @ v.imag.swapaxes(1, 2)
    return np.sqrt(sq[:, 0, 0])


def _canonical_sign(m: np.ndarray) -> np.ndarray:
    # Zero-diagonalization is invariant under scaling; fixing the sign of the
    # leading diagonal entry of each 2x2 matrix of the stack keeps the
    # returned basis stable across inputs that differ only by a
    # (theta-dependent) negative factor.
    d = m.diagonal(axis1=1, axis2=2).real
    big = np.abs(d) > _TINY * np.maximum(1.0, np.abs(m).max(axis=(1, 2)))[:, None]
    lead = np.where(big[:, 0], d[:, 0], d[:, 1])
    return np.where(((big[:, 0] | big[:, 1]) & (lead < 0))[:, None, None], -m, m)


def solve_2x2(h1: np.ndarray, h2: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Closed-form rotation (alpha, beta, U) zero-diagonalizing a traceless Hermitian 2x2 pair.

    With H_k = [[a_k, b_k e^{i phi_k}], [b_k e^{-i phi_k}, -a_k]] the unitary
    U = [[cos b, -sin b e^{i a}], [sin b e^{-i a}, cos b]] has zero-diagonal
    conjugations iff cot(2 beta) = -(b_k/a_k) cos(alpha - phi_k) for both k.
    alpha is solved from the linear trigonometric compatibility equation, then
    beta from either matrix with a nonzero diagonal.
    """
    _check_pair(h1, h2)
    if np.shape(h1) != (2, 2):
        raise ValueError("solve_2x2 expects 2x2 matrices")
    alpha, beta, u = _solve_2x2(np.asarray(h1, dtype=complex)[None],
                                np.asarray(h2, dtype=complex)[None])
    return float(alpha[0]), float(beta[0]), u[0]


def _solve_2x2(h1: np.ndarray, h2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``solve_2x2`` for every pair of two (P, 2, 2) stacks, elementwise.

    The branches (both diagonals zero, a vanishing compatibility vector, the
    larger diagonal choosing beta) are masks, so every pair takes the same
    floating-point steps it would alone. Moduli are hypot(re, im), which
    rounds like scalar abs(); numpy's complex-array abs does not. The
    matrices of all pairs are prepared as one (2P, 2, 2) stack.
    """
    p = len(h1)
    h = _canonical_sign(_traceless_hermitian(np.concatenate([h1, h2])))
    a, z = h[:, 0, 0].real, h[:, 0, 1]
    b, phi = np.hypot(z.real, z.imag), np.arctan2(z.imag, z.real)
    norms = _norms(h)
    size = np.maximum(np.maximum(norms[:p], norms[p:]), _TINY)   # the closed form is scale-free

    # x = b1 a2 cos(phi1) - b2 a1 cos(phi2), y likewise with sin; row k of ba is b_k a_(3-k)
    ba = b.reshape(2, p) * a.reshape(2, p)[::-1]
    cos_t, sin_t = ba * np.cos(phi).reshape(2, p), ba * np.sin(phi).reshape(2, p)
    x, y = cos_t[0] - cos_t[1], sin_t[0] - sin_t[1]
    alpha = np.where(np.maximum(np.abs(x), np.abs(y)) <= _TINY * size ** 2,
                     0.0, np.arctan2(-x, y))
    mag = np.abs(a).reshape(2, p)
    k = np.where(mag[0] >= mag[1], 0, p) + np.arange(p)
    beta = 0.5 * np.arctan2(-a[k], b[k] * np.cos(alpha - phi[k]))
    # both diagonals already vanish
    done = (mag <= _TINY * size).all(axis=0)
    alpha, beta = np.where(done, 0.0, alpha), np.where(done, 0.0, beta)

    c, s = np.cos(beta), np.sin(beta)
    phase = np.exp(np.multiply.outer((1j, -1j), alpha))
    u = np.empty((p, 2, 2), dtype=complex)
    u[:, 0, 0] = u[:, 1, 1] = c
    u[:, 0, 1] = -s * phase[0]
    u[:, 1, 0] = s * phase[1]
    return alpha, beta, u


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

    # Split by the eigenvalue sign of h1. Zero eigenvalues join the positive
    # block; only the block traces matter and they stay strictly signed. The
    # zero floor is relative to h1's own spectrum, so a traceless h1 always
    # has both signs.
    w, vecs = np.linalg.eigh(h1)
    pos = w >= -_TINY * np.abs(w).max()
    if pos.all() or not pos.any():
        raise ZeroDiagConvergenceError(
            "h1 must have eigenvalues of both signs (traceless, nonzero)")
    p_basis, n_basis = vecs[:, pos], vecs[:, ~pos]
    lam_p = p_basis.conj().T @ h1 @ p_basis
    lam_n = n_basis.conj().T @ h1 @ n_basis
    sig_p = p_basis.conj().T @ h2 @ p_basis
    sig_n = n_basis.conj().T @ h2 @ n_basis
    offdiag = p_basis.conj().T @ h2 @ n_basis
    # Case "a" rescales h2 by gamma so the block traces of both matrices
    # agree; an error e in the rescaled blocks costs e in h1 and e/|gamma| in
    # h2, so the block sub-problems get the scale min(1, |gamma|) * scale.
    # Case "b" applies when h2's blocks are already traceless.
    t_sig = float(np.real(np.trace(sig_p)))
    case_a = abs(t_sig) >= _TINY * scale
    sub_scale = scale
    if case_a:
        gamma = float(np.real(np.trace(lam_p))) / t_sig
        sig_p, sig_n, offdiag = gamma * sig_p, gamma * sig_n, gamma * offdiag
        sub_scale *= min(1.0, abs(gamma))
    target1 = lam_p - sig_p if case_a else sig_p
    target2 = lam_n - sig_n if case_a else sig_n
    v1, lam1, t1 = _pick_block_vector(lam_p, target1, True, sub_scale)
    v2, lam2, t2 = _pick_block_vector(lam_n, target2, False, sub_scale)
    # Sandwich values of the (rescaled) h2 blocks; near-zero inner residuals
    # t1, t2 are carried along so alpha can cancel them exactly below.
    sig1 = lam1 - t1 if case_a else t1
    sig2 = lam2 - t2 if case_a else t2
    if not (lam1 > 0 and lam2 < 0):
        raise ZeroDiagConvergenceError(
            f"block construction produced non-signed values {lam1:.3e}, {lam2:.3e}")

    beta = float(np.arctan2(np.sqrt(lam1), np.sqrt(-lam2)))
    cb, sb = np.cos(beta), np.sin(beta)
    cross = complex(v1.conj() @ offdiag @ v2)
    base = cb * cb * sig1 + sb * sb * sig2
    if abs(cross) > _TINY * sub_scale:
        # Solve cos(arg(cross) - alpha) exactly so the residual block term and
        # the cross term cancel; |target| exceeds 1 only by rounding.
        target = -base / (2 * cb * sb * abs(cross))
        alpha = float(np.angle(cross) - np.arccos(np.clip(target, -1.0, 1.0)))
    else:
        alpha = 0.0

    v = np.zeros(d, dtype=complex)
    v += cb * (p_basis @ v1)
    v += sb * np.exp(-1j * alpha) * (n_basis @ v2)
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
        return _solve_2x2(h1[None], h2[None])[2][0]

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
    m = check_traceless(m_tilde, "matrix", TARGET_TRACE_TOL)
    h1, h2 = (m + m.conj().T) / 2, (m - m.conj().T) / 2j
    return _zero_diag_pair(h1, h2, max(1.0, _norm(h1), _norm(h2)))


def zero_diag_qubits(m_tilde: np.ndarray) -> np.ndarray:
    """``zero_diag_basis`` of every matrix of a (P, 2, 2) stack, bit for bit, in one pass.

    The caller has checked that each matrix is traceless. Each step of the
    per-matrix route is replayed elementwise: the re-centering of its trace
    check, the Hermitian and anti-Hermitian split, the re-centering of
    ``_zero_diag_pair`` with its zero pair (identity) and swap (the Hermitian
    part vanishes) branches as masks, then the closed form.
    """
    m = recenter(m_tilde)
    mh = m.conj().swapaxes(1, 2)
    h1, h2 = (m + mh) / 2, (m - mh) / 2j
    floor = _TINY * np.maximum(1.0, np.maximum(_norms(h1), _norms(h2)))
    zero = np.zeros(len(m), dtype=bool)
    # the recursion of _zero_diag_pair: pairs whose first matrix vanishes
    # come round again swapped, and are re-centered again
    live = np.arange(len(m))
    while live.size:
        h1[live], h2[live] = _traceless_hermitian(h1[live]), _traceless_hermitian(h2[live])
        n1, n2 = _norms(h1[live]), _norms(h2[live])
        zero[live] = np.maximum(n1, n2) <= floor[live]
        live = live[~zero[live] & (n1 <= floor[live])]
        h1[live], h2[live] = h2[live], h1[live]
    u = np.broadcast_to(np.eye(2, dtype=complex), m.shape).copy()
    u[~zero] = _solve_2x2(h1[~zero], h2[~zero])[2]
    return u
