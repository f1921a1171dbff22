"""Constructive simultaneous zero-diagonalization of traceless Hermitian pairs.

Any traceless matrix admits an orthonormal basis in which all its diagonal
entries vanish. Its Hermitian and anti-Hermitian parts form a traceless
Hermitian pair to zero-diagonalize at once. One pass solves a stack of P such
d x d pairs: a 2x2 pair by a closed-form rotation of its entries, a larger
one by a basis that zeroes h1's diagonal followed by d - 1 closed-form plane
rotations that zero h2's diagonal and keep h1's. This is a constructive
proof of the same lemma that the paper proves by induction on d. Every
branch is a mask, so a pair's basis does not depend on the rest of its
stack; one pair is a stack of one.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import (TARGET_TRACE_TOL, check_hermitian, check_trace, frobenius_norms, identity,
                     recenter)

DIAG_TOL = 1e-8        # admissible diagonal residual relative to the pair scale
_TINY = 1e-12          # relative zero floor, mostly against the pair scale
_PLUS_MINUS_I = np.array([[1j], [-1j]])     # i alpha and -i alpha: the rows of both phases


class ZeroDiagConvergenceError(RuntimeError):
    """Raised when the construction cannot reach the residual target."""


def _check_pair(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Hermitian parts (2, d, d) of a public input pair, checked traceless Hermitian.

    The construction trusts its input and only projects it exactly onto traceless
    Hermitian matrices. A larger pair re-centers these parts; its floors and bounds
    are relative to their scale max(1, ||h1||, ||h2||), so a diagonal or a coupling
    that is rounding noise at the caller's scale counts as zero.
    """
    pair = [check_trace(check_hermitian(m, name), name) for m, name in ((h1, "h1"), (h2, "h2"))]
    if pair[0].shape != pair[1].shape:
        raise ValueError("dimension mismatch")
    return np.array(pair)


def _traceless_hermitian(m: np.ndarray) -> np.ndarray:
    """Re-centered Hermitian part of each matrix of a stack, traceless Hermitian up to rounding."""
    return recenter((m + m.conj().swapaxes(-1, -2)) / 2)


def _recentered(d0: np.ndarray, d1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal (d0, d1) of 2x2 matrices minus its mean, rounded as by ``recenter``."""
    t = (d0 + d1) * 0.5
    return d0 - t, d1 - t


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
    """``solve_2x2`` of every pair of two (P, 2, 2) stacks, by ``_closed_form``."""
    return _closed_form(*_entries(np.array([h1, h2])))


def _entries(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals d0, d1 (2, P) and upper entries z of the Hermitian parts of a (2, P, 2, 2) stack."""
    return h[..., 0, 0].real, h[..., 1, 1].real, (h[..., 0, 1] + h[..., 1, 0].conj()) / 2


def _closed_form(d0: np.ndarray, d1: np.ndarray, z: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, beta, U) of P Hermitian 2x2 pairs whose matrix k has the diagonal
    (d0[k], d1[k]) and the upper entry z[k], once the diagonals are re-centered.

    Each matrix is first signed so that its leading diagonal entry above the
    floor is positive: the basis then stays stable across inputs that differ
    by a (theta-dependent) negative factor. Every branch is a mask, so every
    pair takes the same floating-point steps it would alone. Moduli are
    hypot(re, im), which rounds like scalar abs(); numpy's array abs does not.
    """
    (d0, d1), b = _recentered(d0, d1), np.hypot(z.real, z.imag)
    mag, n = np.abs(d0), np.hypot(np.hypot(d0, d1), 2 ** 0.5 * b)
    floor = _TINY * np.maximum(np.maximum(b, 1.0), np.maximum(mag, np.abs(d1)))
    sign = np.where(np.where(mag > floor, d0, d1) < -floor, -1.0, 1.0)
    a, phi = sign * d0, np.arctan2(sign * z.imag, sign * z.real)
    size = np.maximum(np.maximum(n[0], n[1]), _TINY)      # the closed form is scale-free

    # x = b1 a2 cos(phi1) - b2 a1 cos(phi2), y likewise with sin; row k of ba is b_k a_(3-k)
    ba = b * a[::-1]
    cos_t, sin_t = ba * np.cos(phi), ba * np.sin(phi)
    x, y = cos_t[0] - cos_t[1], sin_t[0] - sin_t[1]
    alpha = np.where(np.maximum(np.abs(x), np.abs(y)) <= _TINY * size ** 2,
                     0.0, np.arctan2(-x, y))
    beta = 0.5 * np.arctan2(-a, b * np.cos(alpha - phi))     # from either matrix
    # the larger diagonal chooses beta, unless both diagonals already vanish
    done = np.maximum(mag[0], mag[1]) <= _TINY * size
    alpha = np.where(done, 0.0, alpha)
    beta = np.where(done, 0.0, np.where(mag[0] >= mag[1], beta[0], beta[1]))

    c, s = np.cos(beta), np.sin(beta)
    phase = np.exp(_PLUS_MINUS_I * alpha)
    u = np.empty((len(alpha), 2, 2), dtype=complex)
    u[:, 0, 0] = u[:, 1, 1] = c
    u[:, 0, 1] = -s * phase[0]
    u[:, 1, 0] = s * phase[1]
    return alpha, beta, u


def _qubit_bases(d0: np.ndarray, d1: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Unitaries (P, 2, 2) of P qubit pairs given as their ``_entries``: ``_closed_form``
    of the entries re-centered once more, which leaves each diagonal exactly
    opposite. Against the floor _TINY * max(1, ||h1||, ||h2||), a vanishing pair
    gets the identity and a pair whose first matrix vanishes is swapped."""
    d0, d1 = _recentered(d0, d1)
    n = np.hypot(np.hypot(d0, d1), 2 ** 0.5 * np.hypot(z.real, z.imag))
    big = np.maximum(n[0], n[1])
    floor = _TINY * np.maximum(big, 1.0)
    if (swap := n[0] <= floor).any():       # h1 vanishes, as it does in a vanishing pair
        d0, d1, z = (np.where(swap, e[::-1], e) for e in (d0, d1, z))
        return np.where((big > floor)[:, None, None], _closed_form(d0, d1, z)[2], identity(2))
    return _closed_form(d0, d1, z)[2]


def _zero_diag(h: np.ndarray, node: np.ndarray) -> np.ndarray:
    """Unitaries (P, d, d) whose columns zero-diagonalize both matrices of each pair.

    ``h`` (P, 2, d, d) holds the pairs, traceless Hermitian, and ``node`` (P,) the
    indices by which an error names them; d >= 3, as 2x2 pairs go to
    ``_qubit_bases``. Each pair's scale max(1, ||h1||, ||h2||) comes from the norms
    of its swap test. A vanishing pair gets the identity and a
    pair whose first matrix vanishes is swapped. Every other pair starts from
    ``_block_basis`` of h1, so every <u|h1|u> = 0, and then rotates d - 1
    times in the plane of the columns i, j with the largest x >= 0 and
    smallest y <= 0 of <u|h2|u>. There h1's compression [[0, a], [a*, 0]]
    keeps a zero diagonal on the circle cos(phi/2) u_i + sin(phi/2) w u_j
    with w = i a*/|a|, along which <u|h2|u> runs from x to y; at its zero
    column i vanishes in both matrices and column j takes x + y. Each step
    zeroes one more entry, and the last one left equals Tr h2 = 0.
    """
    p, _, d = h.shape[:3]
    n = frobenius_norms(h.reshape(2 * p, d, d)).reshape(p, 2)
    big = np.maximum(n[:, 0], n[:, 1])
    scale = np.maximum(big, 1.0)
    floor = _TINY * scale
    if (swap := n[:, 0] <= floor).any():        # some h1 vanishes, as in a vanishing pair
        live = big > floor
        u = np.zeros((p, d, d), dtype=complex)
        u.reshape(p, -1)[:, ::d + 1] = 1
        if live.any():      # the live pairs, swapped: no h1 vanishes
            h = np.where(swap[:, None, None, None], h[:, ::-1], h)
            u[live] = _zero_diag(h[live], node[live])
        return u

    ul = _block_basis(h[:, 0])
    g = (ul.conj() * (h[:, 1] @ ul)).sum(axis=1).real      # <u|h2|u>, updated in closed form
    rows = np.arange(len(h))
    for _ in range(d - 1):
        i, j = g.argmax(axis=1), g.argmin(axis=1)           # ties to the lowest index
        x, y = g[rows, i], g[rows, j]
        go = x - y > floor                                   # then x > 0 > y
        k, hk, fk = rows, h, floor
        if not go.all():        # a finished pair stays finished: its g no longer changes
            k, i, j, x, y, hk, fk = rows[go], i[go], j[go], x[go], y[go], h[go], floor[go]
        ui, uj = ul[k, :, i], ul[k, :, j]
        a, b = (ui.conj()[:, None] * (hk @ uj[:, None, :, None])[..., 0]).sum(axis=2).T
        mod = np.hypot(a.real, a.imag)
        coupled = mod > fk
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
    if not res[worst] <= DIAG_TOL * scale[worst]:     # NaN fails too
        raise ZeroDiagConvergenceError(
            f"diagonal residual {res[worst]:.3e} of node {node[worst]} exceeds "
            f"{DIAG_TOL:.0e} * scale {scale[worst]:.3e}")
    return ul


def _block_basis(t: np.ndarray) -> np.ndarray:
    """Bases (P, d, d) with every <u|t|u> = Tr(t)/d: eigh times the unitary DFT."""
    return np.linalg.eigh(t)[1] @ _dft(t.shape[-1])


@lru_cache(maxsize=16)
def _dft(d: int) -> np.ndarray:
    """The unitary d x d DFT of a node dimension d, built once and read-only."""
    f = np.exp(-2j * np.pi / d * np.outer(*2 * [np.arange(d)])) / np.sqrt(d)
    f.flags.writeable = False
    return f


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
    return zero_diag_pair(_check_pair(h1, h2))


def zero_diag_pair(h: np.ndarray) -> np.ndarray:
    """``simultaneous_zero_diag`` of a (2, d, d) pair whose traces the caller has checked."""
    if h.shape[-1] == 2:
        return _qubit_bases(*_entries(h[:, None]))[0]
    return _zero_diag(_traceless_hermitian(h)[None], np.zeros(1, dtype=int))[0]


def zero_diag_basis(m_tilde: np.ndarray) -> np.ndarray:
    """Orthonormal basis u_i with <u_i| m_tilde |u_i> = 0 for traceless m_tilde.

    ``m_tilde`` is one (d, d) matrix or a (P, d, d) stack, which gives one
    basis per matrix. Each matrix's trace is checked against TARGET_TRACE_TOL
    times max(1, its norm); its Hermitian and anti-Hermitian parts are then
    zero-diagonalized together at the scale max(1, ||h1||, ||h2||) by ``zero_diag_stack``.
    """
    # tested only: the construction gets the stack as given, not re-centered
    m = check_trace(m_tilde, "matrix", TARGET_TRACE_TOL)
    u = zero_diag_stack(m.reshape((-1,) + m.shape[-2:]))
    return u if m.ndim == 3 else u[0]


def zero_diag_stack(stack: np.ndarray) -> np.ndarray:
    """``zero_diag_basis`` of a (P, d, d) stack whose traces the caller has checked."""
    if stack.shape[-1] == 2:
        # the entries of h1 = (m + m^H)/2 and h2 = (m - m^H)/2i, as ``_entries`` reads
        # them: + 0 gives h2's upper entry the signed zeros of its Hermitian part
        p, q, r, s = stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 0].conj(), stack[:, 1, 1]
        u = _qubit_bases(np.array([p.real, p.imag]), np.array([s.real, s.imag]),
                         np.array([(q + r) / 2, (q - r) / 2j + 0]))
    else:
        mh = stack.conj().swapaxes(1, 2)
        h = np.empty((len(stack), 2) + stack.shape[1:], dtype=complex)
        h[:, 0], h[:, 1] = (stack + mh) / 2, (stack - mh) / 2j
        u = _zero_diag(_traceless_hermitian(h), np.arange(len(stack)))
    return u
