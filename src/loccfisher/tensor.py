"""Dense complex linear algebra over multipartite Hilbert spaces.

All operators are plain complex numpy arrays in row-major layout. The basis
index of a product state is big-endian in the subsystem order: for dims
(d1, ..., dn) the computational state |x1 ... xn> sits at index
x1*d2*...*dn + ... + xn.

Input from outside the package is validated once, at each public entry, by
``check_hermitian``, ``check_traceless`` and ``check_unit``. Their tolerances
are relative to max(1, scale of the caller's matrix): the largest entry for
the Hermitian test, the Frobenius norm for the trace test. Each call site
states its own tolerance value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

HERM_TOL = 1e-10       # max-entry deviation allowed between M and M-dagger
TRACE_TOL = 1e-10      # |trace| allowed relative to the Frobenius norm
UNIT_TOL = 1e-10       # | ||v|| - 1 | allowed for a unit vector
PSD_CLIP = 1e-10       # eigenvalues in [-PSD_CLIP, 0) are clipped to zero


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered subsystem dimensions of a multipartite Hilbert space."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
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

    def drop(self, k: int) -> "HilbertLayout":
        """Layout with subsystem ``k`` removed."""
        self._check_index(k)
        if self.nsub == 1:
            raise ValueError("cannot drop the only subsystem")
        return HilbertLayout(self.dims[:k] + self.dims[k + 1:])

    def _check_index(self, k: int) -> None:
        if not 0 <= k < self.nsub:
            raise ValueError(f"subsystem index {k} out of range for {self.dims}")


def as_layout(layout: HilbertLayout | Sequence[int]) -> HilbertLayout:
    if isinstance(layout, HilbertLayout):
        return layout
    return HilbertLayout(tuple(layout))


def _as_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def check_hermitian(m: np.ndarray, name: str = "matrix",
                    tol: float = HERM_TOL) -> np.ndarray:
    """(M + M^dag)/2, after checking max |M - M^dag| <= tol * max(1, max |M_ij|)."""
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    dev = np.abs(m - m.conj().T).max()
    if dev > tol * max(1.0, np.abs(m).max()):
        raise ValueError(f"{name} is not Hermitian (max deviation {dev:.3e})")
    return (m + m.conj().T) / 2


def check_traceless(m: np.ndarray, name: str = "matrix", tol: float = TRACE_TOL,
                    scale: float | None = None, error: type = ValueError) -> np.ndarray:
    """M - (Tr M / d) I, after checking |Tr M| <= tol * max(1, scale).

    ``scale`` defaults to the Frobenius norm of M; a caller checking a matrix
    derived from a larger one passes that one's norm. ``error`` is the
    exception raised on failure.
    """
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    tr = np.trace(m)
    if scale is None:
        scale = float(np.linalg.norm(m))
    if abs(tr) > tol * max(1.0, scale):
        raise error(f"{name} is not traceless (trace {tr:.3e})")
    return recenter(m)


def recenter(m: np.ndarray) -> np.ndarray:
    """M - (Tr M / d) I: the traceless part of a square matrix."""
    d = m.shape[0]
    return m - (np.trace(m) / d) * np.eye(d)


def check_unit(v: np.ndarray, name: str = "vector", tol: float = UNIT_TOL) -> np.ndarray:
    """v as a flat complex array, after checking | ||v|| - 1 | <= tol."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"{name} norm {nrm!r} is not 1")
    return v


def kron(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of the factors, composed in the given order."""
    out = None
    for f in factors:
        f = np.asarray(f, dtype=complex)
        if not np.isfinite(f).all():
            raise ValueError("kron factor contains non-finite entries")
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
    w, v = np.linalg.eigh(check_hermitian(m))
    return w[::-1].copy(), np.ascontiguousarray(v[:, ::-1])


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root, clipping tiny negative eigenvalues.

    Eigenvalues within rounding distance of zero (relative 1e-14) are floored
    to zero as well; the square root would otherwise amplify spectral noise
    of near-singular inputs by half its order.
    """
    w, v = herm_eig(m)
    scale = max(1.0, float(np.abs(w).max()) if w.size else 1.0)
    if w.min() < -PSD_CLIP * scale:
        raise ValueError(f"matrix has negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    w[w < 1e-14 * scale] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def complex_to_pairs(a: np.ndarray) -> list:
    """Encode a complex array as nested [re, im] pairs (JSON wire format)."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def pairs_to_complex(data) -> np.ndarray:
    """Decode the nested [re, im] pair representation back to a complex array."""
    arr = np.asarray(data, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("expected trailing [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]
