"""Constructive simultaneous zero-diagonalization of traceless Hermitian pairs.

Any traceless matrix admits an orthonormal basis in which all its diagonal
entries vanish. Its Hermitian and anti-Hermitian parts form a traceless
Hermitian pair to zero-diagonalize at once. One recursion solves a stack of
P such d x d pairs: a 2x2 pair by a closed-form rotation, a larger one by the
inductive construction, which finds a common null vector v and solves the
deflated (P, d-1, d-1) stack on v's complement. Every branch is a mask, so a
pair's basis does not depend on the rest of its stack; one pair is a stack of one.
"""

from __future__ import annotations

import numpy as np

from .tensor import (TARGET_TRACE_TOL, check_hermitian, check_trace, check_traceless,
                     frobenius_norms, recenter)

DIAG_TOL = 1e-8        # admissible diagonal residual relative to the pair scale
NULL_TOL = 1e-9        # admissible null-vector residual relative to the pair scale
_TINY = 1e-12          # relative zero floor, mostly against the pair scale


class ZeroDiagConvergenceError(RuntimeError):
    """Raised when the construction cannot reach the residual target."""


def _check_pair(h1: np.ndarray, h2: np.ndarray) -> float:
    """Scale max(1, ||h1||, ||h2||) of a public input pair, checked traceless Hermitian.

    Every floor and bound of the construction is relative to this scale;
    sub-problems inherit it, so a deflated pair that is rounding noise at
    the caller's scale counts as zero. The recursion trusts its input and
    only projects it exactly onto traceless Hermitian matrices.
    """
    h1 = check_traceless(check_hermitian(h1, "h1"), "h1")
    h2 = check_traceless(check_hermitian(h2, "h2"), "h2")
    if h1.shape != h2.shape:
        raise ValueError("dimension mismatch")
    return max(1.0, float(np.linalg.norm(h1)), float(np.linalg.norm(h2)))


def _traceless_hermitian(m: np.ndarray) -> np.ndarray:
    """Re-centered Hermitian part of each matrix of a stack, traceless Hermitian up to rounding."""
    return recenter((m + m.conj().swapaxes(-1, -2)) / 2)


def _check_residual(res: np.ndarray, tol: float, scale: np.ndarray, node: np.ndarray,
                    what: str) -> None:
    worst = np.argmax(res / scale)
    if res[worst] > tol * scale[worst]:
        raise ZeroDiagConvergenceError(
            f"{what} residual {res[worst]:.3e} of node {node[worst]} exceeds "
            f"{tol:.0e} * scale {scale[worst]:.3e}")


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
    norms = frobenius_norms(h)
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


def _zero_diag(h: np.ndarray, scale: np.ndarray, node: np.ndarray) -> np.ndarray:
    """Unitaries (P, d, d) whose columns zero-diagonalize both matrices of each pair.

    ``h`` (P, 2, d, d) holds the pairs, ``scale`` (P,) their scales and
    ``node`` (P,) the indices by which an error names them. A vanishing pair
    gets the identity, a pair whose first matrix vanishes is swapped, a 2x2
    pair gets the closed form, and a larger pair gets its common null vector
    as first column and the solved deflated pair on the complement.
    """
    p, _, d = h.shape[:3]
    u = np.zeros((p, d, d), dtype=complex)
    u.reshape(p, -1)[:, ::d + 1] = 1
    h = _traceless_hermitian(h)
    n = frobenius_norms(h.reshape(2 * p, d, d)).reshape(p, 2)
    floor = _TINY * scale
    live = np.maximum(n[:, 0], n[:, 1]) > floor
    if not live.any():
        return u
    h = np.where((n[:, 0] <= floor)[:, None, None, None], h[:, ::-1], h)
    if d == 2:
        return np.where(live[:, None, None], _solve_2x2(h[:, 0], h[:, 1])[2], u)
    h, scale, node = h[live], scale[live], node[live]

    v = _null_vectors(h, scale, node)
    w = np.linalg.qr(v[:, :, None], mode="complete")[0][:, :, 1:]   # v's complement
    sub = _zero_diag(recenter(w.conj().swapaxes(1, 2)[:, None] @ h @ w[:, None]), scale, node)
    ul = np.concatenate([v[:, :, None], w @ sub], axis=2)
    diag = (ul.conj()[:, None] * (h @ ul[:, None])).sum(axis=2)
    _check_residual(np.abs(diag).max(axis=(1, 2)), DIAG_TOL, scale, node, "diagonal")
    u[live] = ul
    return u


def _block_basis(t: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Bases (P, k, k) with every <u|t|u> = Tr(t)/k (eigh times DFT), or I where ||t|| <= floor."""
    jl = np.outer(*2 * [np.arange(t.shape[-1])])
    basis = np.linalg.eigh(t)[1] @ (np.exp(-2j * np.pi / len(jl) * jl) / np.sqrt(len(jl)))
    return np.where((frobenius_norms(t) <= floor)[:, None, None], np.eye(len(jl)), basis)


def _null_vectors(h: np.ndarray, scale: np.ndarray, node: np.ndarray) -> np.ndarray:
    """Unit v (P, d) with <v|h1|v> = <v|h2|v> = 0 for each pair (h1, h2) with h1 nonzero.

    The inductive block construction: split by the sign of h1, rescale h2
    (case "a") or not (case "b"), take block vectors v1 > 0 and v2 < 0 from
    closed-form bases, and combine them as cos(beta) v1 + sin(beta) e^{-i alpha} v2.
    """
    p, _, d = h.shape[:3]
    # Split by the eigenvalue sign of h1. Zero eigenvalues join the positive
    # block; only the block traces matter and they stay strictly signed. The
    # zero floor is relative to h1's own spectrum, so a traceless h1 always
    # has both signs. eigh is ascending: a node's positive block is its last
    # c eigenvectors.
    w, vecs = np.linalg.eigh(h[:, 0])
    c = (w >= -_TINY * np.maximum(-w[:, :1], w[:, -1:])).sum(axis=1)
    split = (c > 0) & (c < d)
    if not split.all():
        raise ZeroDiagConvergenceError(f"h1 of node {node[split.argmin()]} must have "
                                       "eigenvalues of both signs (traceless, nonzero)")
    pos = np.arange(d) >= (d - c)[:, None]
    blocks = vecs.conj().swapaxes(1, 2)[:, None] @ h @ vecs[:, None]
    # Case "a" rescales h2 by gamma so the block traces of both matrices
    # agree; an error e in the rescaled blocks costs e in h1 and e/|gamma| in
    # h2, so the block sub-problems get the scale min(1, |gamma|) * scale.
    # Case "b" applies when h2's blocks are already traceless.
    t_lam, t_sig = np.where(pos[:, None], blocks.diagonal(axis1=2, axis2=3).real, 0.0).sum(axis=2).T
    case_a = np.abs(t_sig) >= _TINY * scale
    gamma = np.where(case_a, t_lam / np.where(case_a, t_sig, 1.0), 1.0)
    lam, sig = blocks[:, 0], blocks[:, 1] * gamma[:, None, None]
    sub_scale = scale * np.minimum(1.0, np.abs(gamma))
    target = np.where(case_a[:, None, None], lam - sig, sig)

    # Per node and block, the unit u with <u|target|u> = 0 maximizing (on the
    # positive block) or minimizing <u|lam|u>: the best column of the block's
    # zero-diagonal basis, ties to the lowest index; where target vanishes
    # that is h1's extreme eigenvector. The extremal value inherits the sign
    # of the block's trace of lam. Nodes split alike share one eigh per block.
    y = np.ones((p, d), dtype=complex)  # block vectors in eigenbasis coordinates
    vals = np.empty((2, 2, p))          # (<u|lam|u>, <u|target|u>) x (positive, negative)
    groups = set(c.tolist())
    for k in groups:
        at = np.flatnonzero(c == k) if len(groups) > 1 else slice(None)   # one: views
        for blk, part in enumerate((slice(d - k, d), slice(0, d - k))):
            lam_b, target_b = lam[at, part, part], target[at, part, part]
            basis = _block_basis(target_b, _TINY * sub_scale[at])
            scores = (basis.conj() * (lam_b @ basis)).sum(axis=1).real
            best = scores.argmax(axis=1) if blk == 0 else scores.argmin(axis=1)
            rows = np.arange(len(best))
            ub = basis[rows, :, best]
            y[at, part] = ub
            vals[:, blk, at] = (scores[rows, best],
                                (ub.conj()[:, None] @ target_b @ ub[:, :, None]).real[:, 0, 0])
    (lam1, lam2), _ = vals
    signed = (lam1 > 0) & (lam2 < 0)
    if not signed.all():
        k = signed.argmin()
        raise ZeroDiagConvergenceError(f"block construction produced non-signed values "
                                       f"{lam1[k]:.3e}, {lam2[k]:.3e} at node {node[k]}")

    # Sandwich values of the (rescaled) h2 blocks; the near-zero inner
    # residuals <u|target|u> are carried along so alpha can cancel them
    # exactly below.
    sig1, sig2 = np.where(case_a, vals[0] - vals[1], vals[1])
    beta = np.arctan2(np.sqrt(lam1), np.sqrt(-lam2))
    cb, sb = np.cos(beta), np.sin(beta)
    cross = ((y.conj() * pos)[:, None] @ sig @ (y * ~pos)[:, :, None])[:, 0, 0]
    base = cb * cb * sig1 + sb * sb * sig2
    # Solve cos(arg(cross) - alpha) exactly so the residual block term and
    # the cross term cancel; |ratio| exceeds 1 only by rounding.
    mag = np.abs(cross)
    turn = mag > _TINY * sub_scale
    ratio = -base / np.where(turn, 2 * cb * sb * mag, 1.0)
    alpha = np.where(turn, np.angle(cross) - np.arccos(np.clip(ratio, -1.0, 1.0)), 0.0)
    y *= np.where(pos, cb[:, None], (sb * np.exp(-1j * alpha))[:, None])
    v = (vecs @ y[:, :, None])[:, :, 0]
    v /= np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=1, keepdims=True))
    res = np.abs(v.conj()[:, None, None] @ h @ v[:, None, :, None]).max(axis=(1, 2, 3))
    _check_residual(res, NULL_TOL, scale, node, "null-vector")
    return v


def find_null_vector(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Unit vector v with <v|h1|v> = <v|h2|v> = 0 for traceless Hermitian inputs.

    The first column of ``simultaneous_zero_diag``: for d >= 3 the vector
    of the inductive block construction, for d = 2 a column of the closed form.
    """
    return simultaneous_zero_diag(h1, h2)[:, 0]


def simultaneous_zero_diag(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Unitary whose basis zero-diagonalizes both traceless Hermitian matrices.

    Recursion peels one null vector per step (depth d-1 overall); the deflated
    pair is re-centered to exactly traceless before descending, which is
    admissible because the peeled vector carries zero diagonal value.
    """
    scale = _check_pair(h1, h2)
    return _zero_diag(np.asarray([[h1, h2]], dtype=complex), np.array([scale]),
                      np.zeros(1, dtype=int))[0]


def zero_diag_basis(m_tilde: np.ndarray) -> np.ndarray:
    """Orthonormal basis u_i with <u_i| m_tilde |u_i> = 0 for traceless m_tilde.

    ``m_tilde`` is one (d, d) matrix or a (P, d, d) stack, which gives one
    basis per matrix. Each matrix's trace is checked against TARGET_TRACE_TOL
    times max(1, its norm); its Hermitian and anti-Hermitian parts are then
    zero-diagonalized together at the scale max(1, ||h1||, ||h2||).
    """
    # tested only: the recursion gets the stack as given, not re-centered
    m = check_trace(m_tilde, "matrix", TARGET_TRACE_TOL)
    stack = m.reshape((-1,) + m.shape[-2:])
    mh = stack.conj().swapaxes(1, 2)
    h = np.empty((len(stack), 2) + stack.shape[1:], dtype=complex)
    h[:, 0], h[:, 1] = (stack + mh) / 2, (stack - mh) / 2j
    n = frobenius_norms(h.reshape((-1,) + stack.shape[1:])).reshape(-1, 2)
    u = _zero_diag(h, np.maximum(1.0, np.maximum(n[:, 0], n[:, 1])), np.arange(len(stack)))
    return u if m.ndim == 3 else u[0]
