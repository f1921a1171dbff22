"""Dense complex linear algebra over multipartite Hilbert spaces.

All operators are plain complex numpy arrays in row-major layout. The basis
index of a product state is big-endian in the subsystem order: for dims
(d1, ..., dn) the computational state |x1 ... xn> sits at index
x1*d2*...*dn + ... + xn.

Input from outside the package is validated once, at each public entry, by
the checks written here and nowhere else: ``check_finite``, ``check_hermitian``,
``check_trace``/``check_traceless`` (of a matrix or each matrix of a stack),
``check_unit``, ``check_real_diagonal``, ``check_orthonormal``, ``check_int`` and
``check_real``.
Their tolerances are relative to max(1, scale of the caller's matrix): the
largest entry for the Hermitian test, the Frobenius norm for the trace test.
Every tolerance a call site passes comes from the table below, which states
each one's scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterable, Sequence

import numpy as np

# The tolerance table: one entry per decision, with its scale rule. Constants
# that one module owns stay there: DIAG_TOL and _TINY in zerodiag,
# LEAF_TOL and NODE_TRACE_TOL in locc, PHASE_TOL and SUPPORT_TOL in lm.
HERM_TOL = 1e-10          # max |M - M^dag|, relative to max(1, max |M_ij|)
TRACE_TOL = 1e-10         # |Tr M|, relative to max(1, ||M||_F)
UNIT_TOL = 1e-10          # | ||v|| - 1 | (or | ||A||_F^2 - 1 |), absolute
PSD_CLIP = 1e-10          # negative eigenvalue clipped to zero, relative to max(1, max |w|)
PSD_FLOOR = 1e-14         # eigenvalue floored to zero by sqrt_psd, relative to max(1, max |w|)
FAMILY_UNIT_TOL = 1e-12   # | ||psi|| - 1 | of a family's fixed input vectors, absolute
EVAL_UNIT_TOL = 1e-9      # | ||psi(theta)|| - 1 | of a pure evaluator's output, absolute
ORTHOGONAL_TOL = 1e-10    # |<psi0|psi1>| of two unit vectors, absolute
PERP_TOL = 0.99e-10       # |Tr(A^dag B)| of lm coefficient matrices, absolute; under TRACE_TOL,
                          # which construct_lm_2xd's targets, of trace |Im Tr(A^dag B)|, must pass
ISOMETRY_TOL = 1e-9       # max |B^dag B - I| of orthonormal columns (or rows), absolute
TARGET_TRACE_TOL = 1e-9   # |Tr m_tilde| of a synthesis target, relative to max(1, ||m_tilde||_F)
RHO_TOL = 1e-9            # rho Hermitian (rel. max(1, max |rho_ij|)); PSD, unit trace, a mixed
                          # document off its eigenbasis, rho1 - rho2's equal eigenvalues, absolute
DRHO_TOL = 1e-8           # drho Hermitian, traceless (rel. max(1, scale)); kernel weight, absolute
RANK_TOL = 1e-9           # eigenvalue of rho counted as support (else kernel), absolute
COMPLETENESS_TOL = 1e-8   # max |sum_e |e><e| - I| of a POVM, absolute
P_TOL = 1e-12             # outcome probability treated as zero, absolute
CONDITION_REL = 1e-7      # zero-sandwich residual, relative to the largest target norm
REGULARITY_REL = 1e-7     # null-outcome residual, relative to the largest target norm
FI_REL = 1e-6             # admissible qfi - fi, relative to qfi
QFI_FLOOR = 1e-12         # qfi below which a scenario carries no information, absolute
FLAT_REL = 1e-9           # log-likelihood spread of a flat grid, relative to |max| + 1
MLE_WIDTH = 1e-10         # stopping step and half-bracket of the MLE score root, at least 4 eps |theta|
PRIOR_EDGE_REL = 1e-9     # distance from a prior endpoint, relative to hi - lo
KRYLOV_TOL = 1e-12        # Lanczos beta that closes a Krylov space, relative to the largest ||G v||
LM_STOP_TOL = 1e-10       # phase and support residual that ends a search restart feasible, absolute
LM_STALL_REL = 1e-4       # largest fall of a restart's best residual norm, relative to the best
                          # LM_STALL_WINDOW evaluations back, that ends it as stalled while the
                          # best stays above LM_STOP_TOL
LM_STALL_WINDOW = 20      # residual evaluations over which LM_STALL_REL is measured, a count


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered subsystem dimensions of a multipartite Hilbert space."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(check_int(d, "layout entry") for d in self.dims)
        if len(dims) < 1:
            raise ValueError("layout needs at least one subsystem")
        if any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        return prod(self.dims)

    @property
    def nsub(self) -> int:
        return len(self.dims)

    def _check_index(self, k: int) -> None:
        if not 0 <= k < self.nsub:
            raise ValueError(f"subsystem index {k} out of range for {self.dims}")


def as_layout(layout: HilbertLayout | Sequence[int]) -> HilbertLayout:
    if isinstance(layout, HilbertLayout):
        return layout
    return HilbertLayout(tuple(layout))


def check_int(value, name: str = "value") -> int:
    """``value`` as an int, after checking it is a Python or numpy integer and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_real(value, name: str = "value") -> float:
    """``value`` as a float, after checking it is a Python or numpy int or float and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``a`` unchanged, after checking every entry finite: a tolerance test alone passes NaN."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return check_finite(m, name)


def frobenius_norms(h: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (P, d, d) stack, bit for bit ``np.linalg.norm``'s."""
    v = h.reshape(len(h), 1, h.shape[1] * h.shape[2])
    sq = v.real @ v.real.swapaxes(1, 2) + v.imag @ v.imag.swapaxes(1, 2)
    return np.sqrt(sq[:, 0, 0])


def check_hermitian(m: np.ndarray, name: str = "matrix",
                    tol: float = HERM_TOL) -> np.ndarray:
    """(M + M^dag)/2, after checking max |M - M^dag| <= tol * max(1, max |M_ij|) and
    that the sum stays finite."""
    m = _as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # entries near the float limit: inf
        dev, herm = np.abs(m - m.conj().T).max(), (m + m.conj().T) / 2
    if dev > tol * max(1.0, np.abs(m).max()):
        raise ValueError(f"{name} is not Hermitian (max deviation {dev:.3e})")
    return check_finite(herm, name)


def check_trace(m: KetBraSum | np.ndarray, name: str = "matrix", tol: float = TRACE_TOL,
                scale: float | None = None, error: type = ValueError) -> KetBraSum | np.ndarray:
    """M unchanged, after checking |Tr M| <= tol * max(1, scale) for M or each matrix of a stack.

    M is a ``KetBraSum`` or a finite square matrix or (P, d, d) stack. ``scale``
    defaults to each matrix's own Frobenius norm; a caller checking matrices
    derived from a larger one passes that one's norm. ``error``, raised on a
    drifting trace, names the first one.
    """
    factored = isinstance(m, KetBraSum)
    if factored:
        tr = np.array([m.trace()])
    else:
        m = np.asarray(m, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
        stack = check_finite(m, name).reshape((-1,) + m.shape[-2:])
        tr = np.trace(stack, axis1=1, axis2=2)
    drift = np.abs(tr) > tol
    if drift.any():     # max(1, scale) >= 1, so the norms are needed only past tol
        if scale is None:
            scale = m.norm() if factored else frobenius_norms(stack)
        drift &= np.abs(tr) > tol * np.maximum(1.0, scale)
        if drift.any():
            raise error(f"{name} is not traceless (trace {tr[drift.argmax()]:.3e})")
    return m


def check_traceless(m: np.ndarray, name: str = "matrix", tol: float = TRACE_TOL,
                    scale: float | None = None, error: type = ValueError) -> np.ndarray:
    """M - (Tr M / d) I of a matrix or of each matrix of a stack, after ``check_trace``."""
    return recenter(check_trace(m, name, tol, scale, error))


@lru_cache(maxsize=16)
def identity(d: int) -> np.ndarray:
    """The d x d identity of a node dimension d, built once and read-only."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def recenter(m: np.ndarray) -> np.ndarray:
    """M - (Tr M / d) I: the traceless part of a square matrix, or of each matrix of a stack."""
    d = m.shape[-1]
    return m - (m.trace(axis1=-2, axis2=-1) / d)[..., None, None] * identity(d)


def check_unit(v: np.ndarray, name: str = "vector", tol: float = UNIT_TOL) -> np.ndarray:
    """v as a flat complex array, after checking it finite and | ||v|| - 1 | <= tol."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    with np.errstate(over="ignore"):    # entries near the float limit: norm inf
        nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= tol:       # a non-finite entry fails here, and is named
        check_finite(v, name)
        raise ValueError(f"{name} norm {float(nrm)!r} is not 1")
    return v


def check_orthonormal(b: np.ndarray, failure: str, tol: float = ISOMETRY_TOL) -> np.ndarray:
    """``b`` after checking max |B^dag B - I| <= tol (orthonormal columns; for rows pass B^T)
    for B or each matrix of a stack, else ValueError(failure). NaN fails it too."""
    with np.errstate(over="ignore", invalid="ignore"):  # entries near the float limit fail
        gram = b.conj().swapaxes(-1, -2) @ b    # minus I in place: a POVM builds no D x D identity
        gram.reshape(gram.shape[:-2] + (-1,))[..., ::gram.shape[-1] + 1] -= 1
    if not np.abs(gram).max() <= tol:
        raise ValueError(failure)
    return b


def check_real_diagonal(g: np.ndarray, name: str = "diagonal",
                        tol: float = HERM_TOL) -> np.ndarray:
    """Diagonal of a Hermitian matrix as a real array, after the checks of
    ``check_hermitian``: finite, and max |Im g| <= tol * max(1, max |g|)."""
    g = np.asarray(g)
    if g.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {g.shape}")
    check_finite(g, name)
    dev = float(np.abs(np.imag(g)).max(initial=0.0))
    if dev > tol * max(1.0, float(np.abs(g).max(initial=0.0))):
        raise ValueError(f"{name} is not real (max imaginary part {dev:.3e})")
    return np.real(g).astype(float)


@dataclass
class KetBraSum:
    """The matrix sum_k |a_k><b_k| + shift * I, kept as its factors.

    ``kets`` and ``bras`` are K x D arrays whose rows are a_k and b_k. Every
    construction checks shapes and finiteness; trace and Frobenius norm come
    from the factors (the norm from the K x K Gram matrices), so no D x D
    array is built unless ``dense`` is called.
    """

    kets: np.ndarray
    bras: np.ndarray
    shift: complex = 0.0

    def __post_init__(self) -> None:
        self.kets = np.atleast_2d(np.asarray(self.kets, dtype=complex))
        self.bras = np.atleast_2d(np.asarray(self.bras, dtype=complex))
        if self.kets.ndim != 2 or self.kets.shape != self.bras.shape:
            raise ValueError(f"kets {self.kets.shape} and bras {self.bras.shape} "
                             "must be K x D arrays of one shape")
        for part in (self.kets, self.bras, self.shift):
            check_finite(part)

    @classmethod
    def from_dense(cls, m: np.ndarray) -> "KetBraSum":
        """The D ket-bra rows |i><row i| of a square matrix."""
        m = _as_matrix(m)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        return cls(np.eye(m.shape[0], dtype=complex), m.conj())

    @property
    def dim(self) -> int:
        return self.kets.shape[1]

    def trace(self) -> complex:
        return complex(np.sum(self.bras.conj() * self.kets) + self.shift * self.dim)

    def norm(self) -> float:
        """Frobenius norm, from
        sum_kl <a_k|a_l><b_l|b_k> + 2 Re(conj(shift) sum_k <b_k|a_k>) + |shift|^2 D."""
        gram_a = self.kets.conj() @ self.kets.T
        gram_b = self.bras.conj() @ self.bras.T
        sq = float(np.real(np.sum(gram_a * gram_b.T)))
        if self.shift:
            low_rank_trace = complex(np.sum(self.bras.conj() * self.kets))
            sq += (2 * float(np.real(np.conj(self.shift) * low_rank_trace))
                   + abs(self.shift) ** 2 * self.dim)
        return float(np.sqrt(max(sq, 0.0)))

    def sandwich(self, ket_amps: np.ndarray, bra_amps: np.ndarray,
                 sq_norms: np.ndarray | float = 1.0) -> np.ndarray:
        """<e|M|e> = sum_k <e|a_k> <b_k|e> + shift ||e||^2 for E outcomes e, from their
        E x K overlaps <e|a_k> and <e|b_k> and their ||e||^2 (1 for unit outcomes)."""
        out = np.sum(ket_amps * bra_amps.conj(), axis=1)
        if self.shift:
            out = out + self.shift * sq_norms
        return out

    def dense(self) -> np.ndarray:
        m = sum(np.outer(a, b.conj()) for a, b in zip(self.kets, self.bras))
        if self.shift:
            m = m + self.shift * np.eye(self.dim)
        return m


def kron(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of the factors, composed in the given order."""
    out = None
    for f in factors:
        f = check_finite(np.asarray(f, dtype=complex), "kron factor")
        out = f.copy() if out is None else np.kron(out, f)
    if out is None:
        raise ValueError("kron needs at least one factor")
    return out


def partial_trace(m: np.ndarray, layout: HilbertLayout | Sequence[int],
                  discard: Iterable[int]) -> np.ndarray:
    """Trace out the subsystems in ``discard`` (0-based layout indices)."""
    layout = as_layout(layout)
    m = _as_matrix(m)
    dims = layout.dims
    if m.shape != (layout.total, layout.total):
        raise ValueError(f"matrix shape {m.shape} does not match layout {dims}")
    discard = sorted(set(int(k) for k in discard))
    for k in discard:
        layout._check_index(k)
    t = m.reshape(dims + dims)
    for ax in reversed(discard):
        cur = t.ndim // 2
        t = np.trace(t, axis1=ax, axis2=ax + cur)
    d_keep = prod(d for i, d in enumerate(dims) if i not in discard)
    return np.ascontiguousarray(t.reshape(d_keep, d_keep))


def partial_expectation(m: np.ndarray, layout: HilbertLayout | Sequence[int],
                        k: int, v: np.ndarray) -> np.ndarray:
    """Contract <v| m |v> on subsystem ``k``, returning an operator on the rest.

    ``v`` must be a unit vector of the subsystem dimension. The result acts on
    the layout with subsystem ``k`` removed (a 1x1 matrix if none remain).
    """
    layout = as_layout(layout)
    m = _as_matrix(m)
    dims = layout.dims
    layout._check_index(k)
    if m.shape != (layout.total, layout.total):
        raise ValueError(f"matrix shape {m.shape} does not match layout {dims}")
    v = check_unit(v, "subsystem vector")
    if v.shape != (dims[k],):
        raise ValueError(f"vector length {v.size} does not match subsystem dim {dims[k]}")
    n = len(dims)
    t = m.reshape(dims + dims)
    t = np.tensordot(np.conj(v), t, axes=([0], [k]))      # row index of subsystem k
    t = np.tensordot(v, t, axes=([0], [n - 1 + k]))       # column index, shifted by one
    d_rest = layout.total // dims[k]
    return np.ascontiguousarray(t.reshape(d_rest, d_rest))


def herm_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian matrix.

    Returns eigenvalues in descending order and the matching orthonormal
    eigenvectors as columns. The input is symmetrized as (M + M^dag)/2 before
    decomposition; deviations beyond HERM_TOL raise.
    """
    return eigh_desc(check_hermitian(m))


def eigh_desc(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``herm_eig`` without the check, for a matrix ``check_hermitian`` returned."""
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), np.ascontiguousarray(v[:, ::-1])


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root, clipping tiny negative eigenvalues.

    Eigenvalues within rounding distance of zero (relative PSD_FLOOR) are floored
    to zero as well; the square root would otherwise amplify spectral noise
    of near-singular inputs by half its order.
    """
    w, v = herm_eig(m)
    scale = max(1.0, float(np.abs(w).max()) if w.size else 1.0)
    if w.min() < -PSD_CLIP * scale:
        raise ValueError(f"matrix has negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    w[w < PSD_FLOOR * scale] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def complex_to_pairs(a: np.ndarray) -> list:
    """Encode a complex array as nested [re, im] pairs (JSON wire format)."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def pairs_to_complex(data) -> np.ndarray:
    """Decode the nested [re, im] pair representation back to a complex array.

    Entries must be numbers: strings (even among numbers), bools alone and other
    objects such as None are refused; a bool among numbers reads as 0 or 1.
    """
    arr = np.asarray(data)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"[re, im] pairs must hold numbers, not {arr.dtype}")
    arr = arr.astype(float)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError("expected trailing [re, im] pairs")
    with np.errstate(invalid="ignore"):     # an infinite imaginary part: a NaN real part
        return arr[..., 0] + 1j * arr[..., 1]
