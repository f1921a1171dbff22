"""Constructive simultaneous zero-diagonalization of traceless Hermitian pairs.

Any traceless matrix admits an orthonormal basis in which all its diagonal
entries vanish. Its Hermitian and anti-Hermitian parts form a traceless
Hermitian pair to zero-diagonalize at once. One pass solves a stack of P such
d x d pairs: a 2x2 pair by a closed-form rotation, a larger one by a basis
that zeroes h1's diagonal followed by d - 1 closed-form plane rotations that
zero h2's diagonal and keep h1's. This is a constructive proof of the same
lemma that the paper proves by induction on d. Every branch is a mask, so a
pair's basis does not depend on the rest of its stack; one pair is a stack of one.
"""

from __future__ import annotations

import numpy as np

from .tensor import (TARGET_TRACE_TOL, check_hermitian, check_trace, check_traceless,
                     frobenius_norms, recenter)

DIAG_TOL = 1e-8        # admissible diagonal residual relative to the pair scale
_TINY = 1e-12          # relative zero floor, mostly against the pair scale


class ZeroDiagConvergenceError(RuntimeError):
    """Raised when the construction cannot reach the residual target."""


def _check_pair(h1: np.ndarray, h2: np.ndarray) -> float:
    """Scale max(1, ||h1||, ||h2||) of a public input pair, checked traceless Hermitian.

    Every floor and bound of the construction is relative to this scale, so
    a diagonal or a coupling that is rounding noise at the caller's scale
    counts as zero. The construction trusts its input and only projects it
    exactly onto traceless Hermitian matrices.
    """
    h1 = check_traceless(check_hermitian(h1, "h1"), "h1")
    h2 = check_traceless(check_hermitian(h2, "h2"), "h2")
    if h1.shape != h2.shape:
        raise ValueError("dimension mismatch")
    return max(1.0, float(np.linalg.norm(h1)), float(np.linalg.norm(h2)))


def _traceless_hermitian(m: np.ndarray) -> np.ndarray:
    """Re-centered Hermitian part of each matrix of a stack, traceless Hermitian up to rounding."""
    return recenter((m + m.conj().swapaxes(-1, -2)) / 2)


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
    gets the identity, a pair whose first matrix vanishes is swapped, and a
    2x2 pair gets the closed form. A larger pair starts from ``_block_basis``
    of h1, so every <u|h1|u> = 0, and then rotates d - 1 times in the plane
    of the columns i, j with the largest x >= 0 and smallest y <= 0 of
    <u|h2|u>. There h1's compression [[0, a], [a*, 0]] keeps a zero diagonal
    on the circle cos(phi/2) u_i + sin(phi/2) w u_j with w = i a*/|a|, along
    which <u|h2|u> runs from x to y; at its zero column i vanishes in both
    matrices and column j takes x + y. Each step zeroes one more entry, and
    the last one left equals Tr h2 = 0.
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
    h, scale, node, floor = h[live], scale[live], node[live], floor[live]

    ul = _block_basis(h[:, 0])
    g = (ul.conj() * (h[:, 1] @ ul)).sum(axis=1).real      # <u|h2|u>, updated in closed form
    rows = np.arange(len(h))
    for _ in range(d - 1):
        i, j = g.argmax(axis=1), g.argmin(axis=1)           # ties to the lowest index
        x, y = g[rows, i], g[rows, j]
        go = x - y > floor                                   # then x > 0 > y
        k, i, j, x, y = rows[go], i[go], j[go], x[go], y[go]
        ui, uj = ul[k, :, i], ul[k, :, j]
        a, b = (ui.conj()[:, None] * (h[k] @ uj[:, None, :, None])[..., 0]).sum(axis=2).T
        mod = np.hypot(a.real, a.imag)
        coupled = mod > floor[k]
        w = np.where(coupled, 1j * a.conj() / np.where(coupled, mod, 1.0), 1.0)     # e^{i chi}
        # <u|h2|u> = 0 at tan(phi/2) = t >= 0, the root of y t^2 + 2 sig t + x = 0;
        # with r^2 = sig^2 - x y, t = (sig + r) / -y = x / (r - sig) without cancellation
        sig = w.real * b.real - w.imag * b.imag
        r = np.sqrt(sig * sig - x * y)
        half = np.where(sig >= 0, (-y, sig + r), (r - sig, x))    # (cos, sin)(phi/2) unscaled
        cos, sin = half / np.hypot(*half)
        ul[k, :, i] = cos[:, None] * ui + (sin * w)[:, None] * uj
        ul[k, :, j] = cos[:, None] * uj - (sin * w.conj())[:, None] * ui
        g[k, i], g[k, j] = 0.0, x + y

    res = np.abs((ul.conj()[:, None] * (h @ ul[:, None])).sum(axis=2)).max(axis=(1, 2))
    worst = np.argmax(res / scale)
    if res[worst] > DIAG_TOL * scale[worst]:
        raise ZeroDiagConvergenceError(
            f"diagonal residual {res[worst]:.3e} of node {node[worst]} exceeds "
            f"{DIAG_TOL:.0e} * scale {scale[worst]:.3e}")
    u[live] = ul
    return u


def _block_basis(t: np.ndarray) -> np.ndarray:
    """Bases (P, d, d) with every <u|t|u> = Tr(t)/d: eigh times the unitary DFT."""
    jl = np.outer(*2 * [np.arange(t.shape[-1])])
    return np.linalg.eigh(t)[1] @ (np.exp(-2j * np.pi / len(jl) * jl) / np.sqrt(len(jl)))


def find_null_vector(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Unit vector v with <v|h1|v> = <v|h2|v> = 0 for traceless Hermitian inputs.

    The first column of ``simultaneous_zero_diag``: for d >= 3 a column of
    the rotation sweep, for d = 2 a column of the closed form.
    """
    return simultaneous_zero_diag(h1, h2)[:, 0]


def simultaneous_zero_diag(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Unitary whose basis zero-diagonalizes both traceless Hermitian matrices.

    The pair is re-centered to exactly traceless first; a 2x2 pair gets the
    closed form of ``solve_2x2``, a larger one the rotation sweep.
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
    # tested only: the construction gets the stack as given, not re-centered
    m = check_trace(m_tilde, "matrix", TARGET_TRACE_TOL)
    stack = m.reshape((-1,) + m.shape[-2:])
    mh = stack.conj().swapaxes(1, 2)
    h = np.empty((len(stack), 2) + stack.shape[1:], dtype=complex)
    h[:, 0], h[:, 1] = (stack + mh) / 2, (stack - mh) / 2j
    n = frobenius_norms(h.reshape((-1,) + stack.shape[1:])).reshape(-1, 2)
    u = _zero_diag(h, np.maximum(1.0, np.maximum(n[:, 0], n[:, 1])), np.arange(len(stack)))
    return u if m.ndim == 3 else u[0]
