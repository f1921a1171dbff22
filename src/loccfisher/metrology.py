"""Parameterized state families, Fisher information and saturation checking.

A state family maps a real parameter theta to a density matrix and gives its
exact derivative. Four kinds are supported: pure states generated by
exp(-i theta G), pure states given by numeric callables for psi and dpsi,
mixtures of any rank over a theta-independent basis, and generic mixed
families given by numeric callables for rho and drho. The module computes
the symmetric logarithmic derivative, quantum and classical Fisher
information, the traceless target matrices used by the measurement
synthesis, and the full saturation check for a POVM (zero-sandwich
condition on every outcome plus the regularity condition on
zero-probability outcomes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .tensor import (COMPLETENESS_TOL, CONDITION_REL, DRHO_TOL, EVAL_UNIT_TOL, FAMILY_UNIT_TOL,
                     FI_REL, KERNEL_REL, KRYLOV_TOL, ORTHOGONAL_TOL, P_TOL, RANK_TOL,
                     REGULARITY_REL, RHO_TOL, HilbertLayout, KetBraSum, check_finite, check_hermitian,
                     check_orthonormal, check_real_diagonal, check_trace, check_unit, eigh_desc)
# herm_eig and sqrt_psd are unused here; they stay importable because the
# benchmark tracer patches them.
from .tensor import herm_eig, sqrt_psd  # noqa: F401

KRYLOV_CAP = 512        # Lanczos steps before a matrix-free generator is built as a matrix
DENSE_LIMIT = 2 ** 12   # largest D whose generator that fallback builds and factors


def _frame_rho_drho(family: StateFamily, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense rho and drho of a pure or fixed-basis family, read from its frame."""
    frame = saturation_matrices(family, theta)
    return frame.rho.dense(), frame.drho.dense()


@dataclass
class UnitaryGeneratorFamily:
    """Pure family psi_theta = exp(-i theta G) psi_in with Hermitian G.

    ``generator`` gives G in one of three forms:

    - its length-D real diagonal g, for G diagonal in the computational
      basis. ``generator`` stays g, and psi = exp(-i theta g) psi_in and
      dpsi = -i g psi are taken elementwise;
    - a D x D Hermitian matrix, factored once by ``eigh``;
    - a callable v -> G v on length-D vectors, such as a Pauli sum of
      ``scenarios``. Lanczos from psi_in (``_krylov_levels``) finds the
      levels psi_in touches. If its Krylov space does not close within
      KRYLOV_CAP steps, G is built column by column and factored like a
      matrix; above D = DENSE_LIMIT that fallback is refused.

    The last two are stored as ``generator = (lam, C)``: the K levels psi_in
    touches and one row c_k = Pi_k psi_in per level, so psi(theta) =
    exp(-i theta lam) @ C and dpsi = (-i lam exp(-i theta lam)) @ C, O(K D)
    each. No D x D array is kept.
    """

    layout: HilbertLayout
    psi_in: np.ndarray
    generator: np.ndarray | tuple[np.ndarray, np.ndarray] | Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        self.psi_in = check_unit(self.psi_in, "psi_in", FAMILY_UNIT_TOL)
        d, gen = self.layout.total, self.generator
        self._diagonal = not callable(gen) and np.ndim(gen) == 1
        if self._diagonal:
            gen = check_real_diagonal(gen, "generator")
        if self.psi_in.shape != (d,) or (self._diagonal and gen.shape != (d,)):
            raise ValueError("psi_in / generator shapes do not match the layout")
        if self._diagonal:
            self.generator = gen
        elif callable(gen):
            self.generator = (_krylov_levels(gen, self.psi_in)
                              or _eigh_levels(_columns(gen, d), self.psi_in))
        else:
            self.generator = _eigh_levels(gen, self.psi_in)

    state_type = "pure"

    def psi(self, theta: float) -> np.ndarray:
        if self._diagonal:
            return np.exp(-1j * theta * self.generator) * self.psi_in
        levels, rows = self.generator
        return np.exp(-1j * theta * levels) @ rows

    def psi_dpsi(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """psi and dpsi = -i G psi at theta, from one evaluation of psi."""
        psi = self.psi(theta)
        if self._diagonal:
            return psi, -1j * (self.generator * psi)
        levels, rows = self.generator
        return psi, (-1j * levels * np.exp(-1j * theta * levels)) @ rows

    rho_drho = _frame_rho_drho

    def components(self, max_rows: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Levels lam (K,) and rows C (K x D) with psi(theta) = exp(-i theta lam) @ C.

        Row k is psi_in projected onto the generator eigenspace of level lam_k,
        one row per level psi_in touches; None when psi_in touches more than
        ``max_rows`` levels. A non-diagonal family returns its stored pair; a
        diagonal one groups the entries of psi_in by equal g (bit for bit) on call.
        """
        if not self._diagonal:
            return self.generator if len(self.generator[0]) <= max_rows else None
        touched = np.flatnonzero(self.psi_in)
        levels, level_of = np.unique(self.generator[touched], return_inverse=True)
        if levels.size > max_rows:
            return None
        rows = np.zeros((levels.size, self.layout.total), dtype=complex)
        rows[level_of, touched] = self.psi_in[touched]
        return levels, rows


def _krylov_levels(apply: Callable[[np.ndarray], np.ndarray],
                   psi_in: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(lam, C) of the cyclic subspace of psi_in under G = ``apply``, or None if it
    does not close within KRYLOV_CAP steps.

    Lanczos (J. Res. NBS 45, 255 (1950)) with full reorthogonalization: from
    v_0 = psi_in, each G v_k is orthogonalized twice against every v_j, which
    gives alpha_k = <v_k|G v_k>; the rest, of norm beta_k, is v_{k+1}. The
    space closes when beta_k <= KRYLOV_TOL times the largest ||G v_j|| so far.
    With T = S diag(lam) S^T the tridiagonal of the alphas and betas, level k
    has the eigenvector y_k = sum_j S_jk v_j and the row c_k = S_0k y_k.
    """
    d = psi_in.size
    basis = np.empty((min(16, d), d), dtype=complex)
    alpha: list[float] = []
    beta: list[float] = []
    scale, v = 0.0, psi_in
    for k in range(min(KRYLOV_CAP, d)):
        if k == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        basis[k] = v
        w = check_finite(np.asarray(apply(v), dtype=complex), "generator")
        scale = max(scale, float(np.linalg.norm(w)))
        span = basis[:k + 1]
        overlap = span.conj() @ w
        w = w - overlap @ span
        again = span.conj() @ w
        w = w - again @ span
        alpha.append(float((overlap[k] + again[k]).real))
        b = float(np.linalg.norm(w))
        if b <= KRYLOV_TOL * scale:
            lam, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            return lam, (s[0][:, None] * s.T) @ span
        beta.append(b)
        v = w / b
    return None


def _columns(apply: Callable[[np.ndarray], np.ndarray], d: int) -> np.ndarray:
    """The D x D matrix of G = ``apply``, one column G e_j at a time, for D <= DENSE_LIMIT:
    the fallback for a Krylov space that does not close within KRYLOV_CAP steps."""
    if d > DENSE_LIMIT:
        raise ValueError(
            f"the Krylov space of psi_in does not close within {KRYLOV_CAP} "
            f"Lanczos steps, and D = {d} is above the dense limit {DENSE_LIMIT}")
    g, e = np.empty((d, d), dtype=complex), np.zeros(d, dtype=complex)
    for j in range(d):
        e[j] = 1.0
        g[:, j] = apply(e)
        e[j] = 0.0
    return g


def _eigh_levels(gen: np.ndarray, psi_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, C) of a D x D Hermitian matrix, after checking it: the eigenvalues psi_in
    touches, equal ones (bit for bit) merged, and psi_in projected onto each of their
    eigenspaces."""
    gen = check_hermitian(gen, "generator")
    if gen.shape != (psi_in.size,) * 2:
        raise ValueError("psi_in / generator shapes do not match the layout")
    w, v = np.linalg.eigh(gen)
    coeffs = v.conj().T @ psi_in
    touched = np.flatnonzero(coeffs)
    # eigh sorts w, so the touched eigenvectors of one level are adjacent
    levels, first = np.unique(w[touched], return_index=True)
    return levels, np.add.reduceat((v[:, touched] * coeffs[touched]).T, first, axis=0)


@dataclass
class PureNumericFamily:
    """Pure family given by numeric callables theta -> psi(theta) and theta -> dpsi(theta).

    The evaluator's output is renormalized; ``derivative`` gives the derivative
    of that output, in the same global phase.
    """

    layout: HilbertLayout
    evaluator: Callable[[float], np.ndarray]
    derivative: Callable[[float], np.ndarray]

    state_type = "pure"

    def psi(self, theta: float) -> np.ndarray:
        name = f"evaluator output at theta = {float(theta)!r}"
        vec = check_unit(self.evaluator(theta), name, EVAL_UNIT_TOL)
        return _check_shape(vec, (self.layout.total,), name) / np.linalg.norm(vec)

    def psi_dpsi(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """psi and the derivative's dpsi at theta, checked finite and of psi's shape."""
        psi, name = self.psi(theta), f"derivative at theta = {float(theta)!r}"
        dpsi = check_finite(np.asarray(self.derivative(theta), dtype=complex), name)
        return psi, _check_shape(dpsi, psi.shape, name)

    rho_drho = _frame_rho_drho


@dataclass
class FixedBasisFamily:
    """rho(theta) = sum_k p_k(theta) |t_k><t_k| over the fixed orthonormal rows t_k of ``basis``.
    ``p_fn`` and ``dp_fn`` give one weight p_k and one derivative per row, at every rank r. Each
    weight must be finite and within RHO_TOL of [0, 1], and is clipped to [0, 1], so that outcome
    laws read the pure ends; the weights are not checked to sum to 1."""

    layout: HilbertLayout
    basis: np.ndarray
    p_fn: Callable[[float], Sequence[float]]
    dp_fn: Callable[[float], Sequence[float]]

    def __post_init__(self) -> None:
        names = [f"psi{k}" for k in range(len(self.basis))]
        self.basis = np.stack([check_unit(t, k, FAMILY_UNIT_TOL) for t, k in zip(self.basis, names)])
        check_orthonormal(self.basis.T, " and ".join(names) + " must be orthogonal", ORTHOGONAL_TOL)

    state_type = "fixed-basis"

    def p_dp(self, thetas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """The (m, r) weights at m thetas and their finite derivatives, naming the first fault."""
        p, dp = (np.array([f(t) for t in thetas], dtype=float).reshape(len(thetas), -1)
                 for f in (self.p_fn, self.dp_fn))
        if not p.shape == dp.shape == (len(thetas), len(self.basis)):
            raise ValueError(f"p_fn and dp_fn give {p.shape[1]} and {dp.shape[1]} weights, "
                             f"not one per row of the basis ({len(self.basis)})")
        outside = ~((-RHO_TOL <= p) & (p <= 1.0 + RHO_TOL))    # NaN is outside too
        if outside.any():
            i, k = np.argwhere(outside)[0]
            raise ValueError(f"weight p_{k}(theta = {float(thetas[i])!r}) = {float(p[i, k])!r} "
                             "outside [0, 1]")
        p = np.clip(p, 0.0, 1.0)
        if not np.isfinite(dp).all():
            raise ValueError(f"dp/dtheta = {dp.flat[np.isfinite(dp).argmin()]} is not finite")
        return p, dp

    rho_drho = _frame_rho_drho


def _check_shape(a: np.ndarray, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``a`` unchanged, after checking it has the ``shape`` the layout gives it."""
    if a.shape != shape:
        raise ValueError(f"{name} does not match the layout")
    return a


def check_state(rho: np.ndarray, layout: HilbertLayout, name: str) -> np.ndarray:
    """rho made exactly Hermitian, after checking it a unit-trace PSD matrix of the layout."""
    rho = _check_shape(check_hermitian(rho, name, RHO_TOL), (layout.total,) * 2, name)
    if np.linalg.eigvalsh(rho)[0] < -RHO_TOL or abs(np.trace(rho).real - 1.0) > RHO_TOL:
        raise ValueError(f"{name} is not a unit-trace PSD matrix")
    return rho


@dataclass
class MixedGenericFamily:
    """Mixed family given by numeric callables theta -> rho(theta) and theta -> drho(theta)."""

    layout: HilbertLayout
    evaluator: Callable[[float], np.ndarray]
    derivative: Callable[[float], np.ndarray]

    state_type = "mixed"

    def rho(self, theta: float) -> np.ndarray:
        return check_state(self.evaluator(theta), self.layout,
                           f"evaluator output at theta = {float(theta)!r}")

    def rho_drho(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """rho and the derivative's drho at theta, made exactly Hermitian after checking it
        Hermitian and traceless within DRHO_TOL and of rho's shape."""
        rho, name = self.rho(theta), f"derivative at theta = {float(theta)!r}"
        drho = check_trace(check_hermitian(self.derivative(theta), name, DRHO_TOL), name, DRHO_TOL)
        return rho, _check_shape(drho, rho.shape, name)


StateFamily = Union[UnitaryGeneratorFamily, PureNumericFamily,
                    FixedBasisFamily, MixedGenericFamily]
RankTwoFixedBasisFamily = FixedBasisFamily  # the name the benchmark tracer counts rho_drho under


@dataclass
class SldResult:
    """Symmetric logarithmic derivative with the spectral data it came from."""

    L: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    qfi: float


@dataclass
class SaturationMatrices:
    """A family at theta as the saturation check and the synthesis read it.

    ``rho`` and ``drho`` are exact, factored (``KetBraSum``; ``dense()``
    builds the matrix). The rows of ``support`` span the support of rho and
    the rows of ``l_support`` are their images L psi_i under the SLD; ``qfi``
    is the quantum Fisher information. ``target`` is the factored rank-one
    synthesis target m_tilde, or None for a generic mixed family.
    """

    rho: KetBraSum
    drho: KetBraSum
    support: np.ndarray
    l_support: np.ndarray
    qfi: float
    target: KetBraSum | None

    @property
    def conditions(self) -> list[KetBraSum]:
        """M_ij = |psi_i><psi_j| L - L |psi_i><psi_j| = |psi_i><L psi_j| - |L psi_i><psi_j|."""
        return [KetBraSum(np.stack([a, -la]), np.stack([lb, b]))
                for a, la in zip(self.support, self.l_support)
                for b, lb in zip(self.support, self.l_support)]


@dataclass
class Povm:
    """Rank-one POVM: row e of ``vectors`` is the element |e><e|.

    Rows need not be unit vectors (a padded isometry gives shorter ones).
    Every element is PSD and Hermitian by construction, so validation is the
    completeness check sum_e |e><e| = I, run once on construction.
    """

    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=complex)
        self.validate()

    def validate(self) -> None:
        v = self.vectors
        if v.ndim != 2 or v.shape[0] == 0:
            raise ValueError("POVM needs a non-empty (outcomes x dimension) vector array")
        # sum_e |e><e| = I says the columns of the vector array are orthonormal
        check_finite(v, "POVM")
        check_orthonormal(v, "POVM elements do not sum to the identity", COMPLETENESS_TOL)

    def amplitudes(self, rows: np.ndarray) -> np.ndarray:
        """The E x K overlaps <e|v> of every element e with every row v of ``rows``."""
        # conj(vectors) @ rows^T, formed without an E x D copy of the vectors
        return (self.vectors @ np.asarray(rows).conj().T).conj()


class Thresholds:
    """The verdict's tolerances from the tensor table, which ``check_saturation`` reads
    directly; kept only for the benchmark checker, which reads them on import."""

    condition_rel = CONDITION_REL
    regularity_rel = REGULARITY_REL
    fi_rel = FI_REL
    p_tol = P_TOL


@dataclass
class SaturationReport:
    fi: float
    qfi: float
    condition_residual: float
    regularity_residual: float
    saturating: bool


def sld(rho: np.ndarray, drho: np.ndarray) -> SldResult:
    """Symmetric logarithmic derivative L solving drho = (L rho + rho L)/2.

    Built on the eigenbasis of rho: L_jk = 2 <j|drho|k> / (p_j + p_k) over
    all pairs but those of two kernel directions (p <= RANK_TOL). Raises for
    a rho with an eigenvalue below -RHO_TOL, and for components of drho
    above DRHO_TOL between two kernel directions, which no L represents.
    """
    rho = check_hermitian(rho, "rho")
    drho = check_hermitian(drho, "drho", DRHO_TOL)
    low = np.linalg.eigvalsh(rho)[0]
    if low < -RHO_TOL:
        raise ValueError(f"rho has eigenvalue {low:.3e}; it is not PSD")
    return _sld(rho, drho, DRHO_TOL, "drho")


def _sld(rho: np.ndarray, drho: np.ndarray, limit: float, name: str) -> SldResult:
    # rho and drho are exactly Hermitian, so they are not checked again: sld
    # passes them through check_hermitian, and saturation_matrices takes them
    # from MixedGenericFamily.rho_drho, which checks and symmetrizes both.
    # The exact drho of a PSD family has no block between two kernel
    # directions: <k|rho(theta)|k> >= 0 is at its minimum 0 for every kernel
    # vector k, so <k|drho|k> = 0. A derivative given with rounding error (or
    # a difference quotient) may carry weight there; L leaves it out, and
    # more than ``limit`` of it is refused.
    w, v = eigh_desc(rho)
    t = v.conj().T @ drho @ v
    kernel = w <= RANK_TOL
    mask = ~(kernel[:, None] & kernel[None, :])
    blocked = float(np.abs(t[~mask]).max(initial=0.0))
    if blocked > limit:
        raise ValueError(f"{name} has weight {blocked:.3e} between kernel directions of rho; "
                         "no SLD reproduces it")
    coeff = np.zeros_like(t)
    coeff[mask] = 2 * t[mask] / (w[:, None] + w[None, :])[mask]
    L = v @ coeff @ v.conj().T
    L = (L + L.conj().T) / 2
    qfi = float(np.real(np.trace(rho @ L @ L)))
    return SldResult(L=L, eigvals=w, eigvecs=v, qfi=qfi)


def saturation_matrices(family: StateFamily, theta: float) -> SaturationMatrices:
    """The family at theta, from one evaluation of its state: its exact rho and
    drho, support rows and their SLD images, qfi, the conditions M_ij that
    ``check_saturation`` evaluates and the rank-one synthesis target, if any.

    Pure families, one ``psi_dpsi``: rho = |psi><psi|, L psi = 2 perp, qfi =
    4 (||dpsi||^2 - |<psi|dpsi>|^2) (Liu et al., J. Phys. A 53, 023001 (2020))
    and the target m_tilde = M + (|psi><psi| - I/D) with M = |psi><perp| -
    |perp><psi|, factored as |psi><perp + psi| - |perp><psi| - I/D. The
    deviation term enters as the Hermitian part so that a zero sandwich
    forces <E|M|E> = 0 and |<E|psi>|^2 = 1/D separately; in the
    anti-Hermitian part the two contributions could cancel. Fixed-basis
    families, one ``p_dp``: L t_k = (p_k'/p_k) t_k and qfi = sum_k p_k'^2 / p_k,
    p'^2 / (p (1 - p)) at r = 2, whose target is |t0><t1| (the scale-invariant
    direction, real prefactor dropped); no other rank has one. Neither builds a
    D x D array. Generic mixed families, one ``rho_drho``: the dense rho and
    drho as returned (the family checks both), the SLD, which refuses drho's
    weight between kernel directions above KERNEL_REL, and no target;
    ``scenarios`` reads a commuting document as a fixed-basis family.
    """
    if family.state_type == "pure":
        psi, dpsi = family.psi_dpsi(theta)
        # the factors check that psi and dpsi are finite
        rho = KetBraSum(psi, psi)
        drho = KetBraSum(np.stack([dpsi, psi]), np.stack([psi, dpsi]))
        qfi = max(0.0, float(4 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)))
        perp = perp_component(psi, dpsi)
        target = KetBraSum(np.stack([psi, -perp]), np.stack([perp + psi, psi]),
                           -1.0 / family.layout.total)
        return SaturationMatrices(rho, drho, rho.kets, 2 * perp[None], qfi, target)
    if family.state_type == "fixed-basis":
        p, dp = (w[0] for w in family.p_dp([theta]))
        if p.min() <= 0.0:      # a pure end, which outcome laws read: qfi divides by each p_k
            raise ValueError(f"p(theta) = {p.min()} outside (0, 1)")
        rows, two = family.basis, len(p) == 2
        qfi = float(dp[0] * dp[0] / (p[0] * p[1]) if two else np.sum(dp * dp / p))
        return SaturationMatrices(KetBraSum(rows, p[:, None] * rows),
                                  KetBraSum(rows, dp[:, None] * rows), rows,
                                  (dp / p)[:, None] * rows, qfi, KetBraSum(*rows) if two else None)
    rho, drho = family.rho_drho(theta)
    res = _sld(rho, drho, KERNEL_REL * max(1.0, float(np.linalg.norm(drho))),
               f"drho at theta = {float(theta)!r}")
    support = res.eigvecs[:, res.eigvals > RANK_TOL].T
    return SaturationMatrices(KetBraSum.from_dense(rho), KetBraSum.from_dense(drho),
                              support, support @ res.L.T, res.qfi, None)


def qfi(family: StateFamily, theta: float) -> float:
    """Quantum Fisher information at theta, as the family's frame gives it."""
    return saturation_matrices(family, theta).qfi


def fisher_info(povm: Povm, rho: KetBraSum, drho: KetBraSum) -> float:
    """Classical Fisher information of the outcomes of a POVM or ``locc.MeasurementTree``.

    ``rho`` and ``drho`` are factored (a dense matrix m enters as
    ``KetBraSum.from_dense(m)``) and read by one ``amplitudes`` call.
    Outcomes with probability below P_TOL are excluded from the sum.
    """
    p, dp = _sandwiches(povm, [rho, drho])[0]
    return _fisher(p.real, dp.real)


def _fisher(p: np.ndarray, dp: np.ndarray) -> float:
    keep = p >= P_TOL
    return float(np.sum(dp[keep] ** 2 / p[keep]))


def _sandwiches(povm: Povm, sums: list[KetBraSum],
                extra: np.ndarray = ()) -> tuple[list[np.ndarray], np.ndarray]:
    """<e|M|e> per outcome of a Povm or tree for each M of ``sums``, and <e|row> for the
    rows of ``extra``, from one ``amplitudes`` call on their distinct rows (equal bytes,
    first occurrence first). ||e||^2, read by a shift only, is 1 on leaves."""
    rows = [r for m in sums for r in (*m.kets, *m.bras)] + list(np.asarray(extra, dtype=complex))
    distinct: dict[bytes, tuple[int, np.ndarray]] = {}
    cols = [distinct.setdefault(r.tobytes(), (len(distinct), r))[0] for r in rows]
    amps = povm.amplitudes(np.stack([r for _, r in distinct.values()]))[:, cols]
    out, at = [], 0
    for m in sums:
        k = len(m.kets)
        norms = np.sum(np.abs(povm.vectors) ** 2, axis=1) if m.shift and isinstance(povm, Povm) else 1
        out.append(m.sandwich(amps[:, at:at + k], amps[:, at + k:at + 2 * k], norms))
        at += 2 * k
    return out, amps[:, at:]


def perp_component(psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """Component of dpsi orthogonal to psi (invariant under phase gauge)."""
    psi = check_unit(psi, "psi")
    dpsi = np.asarray(dpsi, dtype=complex).reshape(-1)
    return dpsi - np.vdot(psi, dpsi) * psi


def check_layout(tree, family: StateFamily) -> None:
    """Raise unless the tree measures the family's layout (equal D with other dims is not enough)."""
    if tree.layout != family.layout:
        raise ValueError(f"tree layout {list(tree.layout.dims)} does not match "
                         f"family layout {list(family.layout.dims)}")


def check_saturation(povm: Povm, family: StateFamily, theta: float) -> SaturationReport:
    """Full saturation check of a POVM or ``locc.MeasurementTree`` against a family at theta.

    A tree (anything with a ``layout``) must pass ``check_layout``. Outcomes
    are read through one ``povm.amplitudes(rows)`` call on the distinct rows
    of rho, drho, every M_ij and L psi_i: the family's frame, with the rows
    psi_i spanning the support of rho and their SLD images. Every outcome
    |e><e| must satisfy the zero-sandwich condition <e|M_ij|e> = 0 for M_ij =
    |psi_i><L psi_j| - |L psi_i><psi_j|, and every outcome of zero
    probability the regularity condition <e|L|psi_i> = 0 (Braunstein & Caves,
    PRL 72, 3439 (1994)). For a rank-one element these equal the norms of
    sqrt(E) M_ij sqrt(E) and sqrt(E) L |psi_i> whatever the norm of e. The
    verdict additionally requires fi to reach qfi. Its tolerances are
    CONDITION_REL, REGULARITY_REL, FI_REL and P_TOL of the table.
    """
    if hasattr(povm, "layout"):
        check_layout(povm, family)
    elif povm.vectors.shape[1] != family.layout.total:
        raise ValueError(f"POVM vectors of length {povm.vectors.shape[1]} do not match "
                         f"layout {list(family.layout.dims)}")
    frame = saturation_matrices(family, theta)
    m_set = frame.conditions
    scale = max(m.norm() for m in m_set)

    (p, dp, *conds), l_amps = _sandwiches(povm, [frame.rho, frame.drho, *m_set],
                                          frame.l_support)
    fi = _fisher(p.real, dp.real)
    cond_res = max(float(np.abs(c).max()) for c in conds)
    reg_res = float(np.abs(l_amps)[p.real < P_TOL].max(initial=0.0))

    saturating = (cond_res <= CONDITION_REL * scale
                  and reg_res <= REGULARITY_REL * scale
                  and (frame.qfi - fi) <= FI_REL * frame.qfi)
    return SaturationReport(fi=fi, qfi=frame.qfi, condition_residual=cond_res,
                            regularity_residual=reg_res, saturating=bool(saturating))
