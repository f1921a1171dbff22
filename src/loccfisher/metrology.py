"""Parameterized state families, Fisher information and saturation checking.

A state family maps a real parameter theta to a density matrix. Four kinds
are supported: pure states generated by exp(-i theta G), numerically
tabulated pure states, rank-two mixtures over a theta-independent basis, and
generic numeric mixed families. The module computes the symmetric logarithmic
derivative, quantum and classical Fisher information, the traceless target
matrices used by the measurement synthesis, and the full saturation check for
a POVM (zero-sandwich condition on every outcome plus the regularity
condition on zero-probability outcomes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .tensor import (COMPLETENESS_TOL, CONDITION_REL, DRHO_TOL, DRIFT_TOL,
                     EVAL_UNIT_TOL, FAMILY_UNIT_TOL, FI_REL, ORTHOGONAL_TOL, P_TOL,
                     RANK_TOL, REGULARITY_REL, RHO_TOL, HilbertLayout, KetBraSum,
                     check_finite, check_hermitian, check_orthonormal, check_real_diagonal,
                     check_trace, check_unit, eigh_desc)
# herm_eig and sqrt_psd are unused here; they stay importable because the
# benchmark tracer patches them.
from .tensor import herm_eig, sqrt_psd  # noqa: F401

DEFAULT_FD_STEP = 1e-4


def _frame_rho_drho(family: StateFamily, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense rho and drho of a pure or rank-two family, read from its frame."""
    frame = _frame(family, theta)
    return frame.rho.dense(), frame.drho.dense()


@dataclass
class UnitaryGeneratorFamily:
    """Pure family psi_theta = exp(-i theta G) psi_in with Hermitian G.

    ``generator`` is either the D x D matrix G or, for a G diagonal in the
    computational basis, its length-D real diagonal g. The diagonal route
    evaluates psi = exp(-i theta g) psi_in and dpsi = -i g psi elementwise and
    never builds a D x D array; a dense G is applied through its eigenbasis.
    """

    layout: HilbertLayout
    psi_in: np.ndarray
    generator: np.ndarray

    def __post_init__(self) -> None:
        self.psi_in = check_unit(self.psi_in, "psi_in", FAMILY_UNIT_TOL)
        d = self.layout.total
        self._diagonal = np.ndim(self.generator) == 1
        if self._diagonal:
            self.generator = check_real_diagonal(self.generator, "generator")
        else:
            self.generator = check_hermitian(self.generator, "generator")
        if self.psi_in.shape != (d,) or self.generator.shape != (d,) * self.generator.ndim:
            raise ValueError("psi_in / generator shapes do not match the layout")
        if self._diagonal:
            # the eigenbasis is the computational one
            self._gen_eigvals, self._gen_eigvecs, self._coeffs = self.generator, None, self.psi_in
        else:
            w, v = np.linalg.eigh(self.generator)
            self._gen_eigvals, self._gen_eigvecs, self._coeffs = w, v, v.conj().T @ self.psi_in

    state_type = "pure"

    def psi(self, theta: float) -> np.ndarray:
        phased = np.exp(-1j * theta * self._gen_eigvals) * self._coeffs
        return phased if self._diagonal else self._gen_eigvecs @ phased

    def psi_dpsi(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """psi and dpsi = -i G psi at theta, from one evaluation of psi."""
        psi = self.psi(theta)
        gpsi = self.generator * psi if self._diagonal else self.generator @ psi
        return psi, -1j * gpsi

    def dpsi(self, theta: float) -> np.ndarray:
        return self.psi_dpsi(theta)[1]

    rho_drho = _frame_rho_drho

    def components(self, max_rows: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Levels lam (K,) and rows C (K x D) with psi(theta) = exp(-i theta lam) @ C.

        Row k is psi_in projected onto the generator eigenvectors of level lam_k
        (equal eigenvalues, bit for bit), one row per level psi_in touches; None
        when psi_in touches more than ``max_rows`` levels. Built on call only.
        """
        touched = np.flatnonzero(self._coeffs)
        levels, level_of = np.unique(self._gen_eigvals[touched], return_inverse=True)
        if levels.size > max_rows:
            return None
        weights = np.zeros((levels.size, self.layout.total), dtype=complex)
        weights[level_of, touched] = self._coeffs[touched]
        return levels, weights if self._diagonal else weights @ self._gen_eigvecs.T


@dataclass
class PureNumericFamily:
    """Pure family given by a numeric evaluator theta -> psi(theta).

    The evaluator must be continuous in theta (its output is renormalized but
    a jumpy global phase would corrupt the finite-difference derivative).
    """

    layout: HilbertLayout
    evaluator: Callable[[float], np.ndarray]
    step: float = DEFAULT_FD_STEP

    state_type = "pure"

    def psi(self, theta: float) -> np.ndarray:
        vec = check_unit(self.evaluator(theta), "evaluator output", EVAL_UNIT_TOL)
        if vec.shape != (self.layout.total,):
            raise ValueError("evaluator output does not match the layout")
        return vec / np.linalg.norm(vec)

    def dpsi(self, theta: float) -> np.ndarray:
        h = self.step
        return (self.psi(theta + h) - self.psi(theta - h)) / (2 * h)

    def psi_dpsi(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        return self.psi(theta), self.dpsi(theta)

    rho_drho = _frame_rho_drho


@dataclass
class RankTwoFixedBasisFamily:
    """Mixture p(theta)|psi0><psi0| + (1-p(theta))|psi1><psi1|, fixed basis."""

    layout: HilbertLayout
    psi0: np.ndarray
    psi1: np.ndarray
    p_fn: Callable[[float], float]
    dp_fn: Callable[[float], float]

    def __post_init__(self) -> None:
        self.psi0 = check_unit(self.psi0, "psi0", FAMILY_UNIT_TOL)
        self.psi1 = check_unit(self.psi1, "psi1", FAMILY_UNIT_TOL)
        if abs(np.vdot(self.psi0, self.psi1)) > ORTHOGONAL_TOL:
            raise ValueError("psi0 and psi1 must be orthogonal")

    state_type = "rank-two"

    def p(self, theta: float) -> float:
        p = float(self.p_fn(theta))
        if not 0.0 < p < 1.0:
            raise ValueError(f"p(theta) = {p} outside (0, 1)")
        return p

    def p_dp(self, theta: float) -> tuple[float, float]:
        """p(theta) inside (0, 1) and its finite derivative."""
        p, dp = self.p(theta), float(self.dp_fn(theta))
        if not np.isfinite(dp):
            raise ValueError(f"dp/dtheta = {dp} is not finite")
        return p, dp

    rho_drho = _frame_rho_drho


@dataclass
class MixedGenericFamily:
    """Mixed family given by a numeric evaluator theta -> rho(theta)."""

    layout: HilbertLayout
    evaluator: Callable[[float], np.ndarray]
    step: float = DEFAULT_FD_STEP

    state_type = "mixed"

    def rho(self, theta: float) -> np.ndarray:
        d = self.layout.total
        rho = check_hermitian(self.evaluator(theta), "rho", RHO_TOL)
        if rho.shape != (d, d):
            raise ValueError("evaluator output does not match the layout")
        w = np.linalg.eigvalsh(rho)
        if w.min() < -RHO_TOL or abs(np.trace(rho).real - 1.0) > RHO_TOL:
            raise ValueError("evaluator output is not a unit-trace PSD matrix")
        return rho

    def rho_drho(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        return self.rho_drho_sides(theta)[:2]

    def rho_drho_sides(self, theta: float) -> tuple[np.ndarray, np.ndarray, tuple]:
        """rho and drho at theta, and the checked rho at theta - h and theta + h."""
        h = self.step
        plus, minus = self.rho(theta + h), self.rho(theta - h)
        drho = (plus - minus) / (2 * h)
        return self.rho(theta), (drho + drho.conj().T) / 2, (minus, plus)


StateFamily = Union[UnitaryGeneratorFamily, PureNumericFamily,
                    RankTwoFixedBasisFamily, MixedGenericFamily]


@dataclass
class SldResult:
    """Symmetric logarithmic derivative with the spectral data it came from."""

    L: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    qfi: float


@dataclass
class SaturationMatrices:
    """Traceless zero-sandwich targets whose condition characterizes saturation.

    ``conditions`` holds the matrices M_ij and ``target`` the synthesis target
    m_tilde, both factored (``KetBraSum``; ``dense()`` builds the matrix). A
    generic mixed family of rank > 2 has the M_ij of its frame and no target.
    """

    conditions: list[KetBraSum]
    target: KetBraSum | None
    state_type: str


@dataclass
class Povm:
    """Rank-one POVM: row e of ``vectors`` is the element |e><e|.

    Rows need not be unit vectors (a padded isometry gives shorter ones).
    Every element is PSD and Hermitian by construction, so validation is the
    completeness check sum_e |e><e| = I, run once on construction.
    """

    vectors: np.ndarray
    labels: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=complex)
        if not self.labels:
            self.labels = list(range(len(self.vectors)))
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


@dataclass
class Thresholds:
    """The verdict's tolerances from the tensor table, which ``check_saturation`` reads
    directly; kept only for the benchmark checker, which reads them on import."""

    condition_rel: float = CONDITION_REL
    regularity_rel: float = REGULARITY_REL
    fi_rel: float = FI_REL
    p_tol: float = P_TOL


@dataclass
class SaturationReport:
    fi: float
    qfi: float
    condition_residual: float
    regularity_residual: float
    saturating: bool


def eval_state(family: StateFamily, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Density matrix and derivative at theta, validated Hermitian/traceless."""
    return _checked_state(*family.rho_drho(theta))


def _checked_state(rho: np.ndarray, drho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rho = check_hermitian(rho, "rho", RHO_TOL)
    drho = check_hermitian(drho, "drho", DRHO_TOL)
    check_trace(drho, "drho", DRHO_TOL)
    return rho, drho


def sld(rho: np.ndarray, drho: np.ndarray) -> SldResult:
    """Symmetric logarithmic derivative L solving drho = (L rho + rho L)/2.

    Built on the eigenbasis of rho: L_jk = 2 <j|drho|k> / (p_j + p_k) over
    pairs with p_j + p_k above RANK_TOL. Components of drho connecting two
    kernel directions cannot be represented by any L and raise.
    """
    return _sld(check_hermitian(rho, "rho"), check_hermitian(drho, "drho", DRHO_TOL))


def _sld(rho: np.ndarray, drho: np.ndarray) -> SldResult:
    # rho and drho come from check_hermitian (here or in _checked_state), which
    # returns exactly Hermitian matrices, so they are not checked again.
    w, v = eigh_desc(rho)
    t = v.conj().T @ drho @ v
    kernel = w <= RANK_TOL
    if kernel.any():
        blocked = np.abs(t[np.ix_(kernel, kernel)]).max()
        if blocked > DRHO_TOL:
            raise ValueError(
                f"drho has weight {blocked:.3e} between kernel directions; "
                "no SLD reproduces it")
    denom = w[:, None] + w[None, :]
    mask = denom > RANK_TOL
    coeff = np.zeros_like(t)
    coeff[mask] = 2 * t[mask] / denom[mask]
    L = v @ coeff @ v.conj().T
    L = (L + L.conj().T) / 2
    qfi = float(np.real(np.trace(rho @ L @ L)))
    return SldResult(L=L, eigvals=w, eigvecs=v, qfi=qfi)


@dataclass
class _Frame:
    """A family at theta as the saturation conditions read it.

    ``rho`` and ``drho`` are exact. The rows of ``support`` span the support
    of rho and the rows of ``l_support`` are their images L psi_i under the SLD.
    """

    rho: KetBraSum
    drho: KetBraSum
    support: np.ndarray
    l_support: np.ndarray
    qfi: float

    def conditions(self) -> list[KetBraSum]:
        """M_ij = |psi_i><psi_j| L - L |psi_i><psi_j| = |psi_i><L psi_j| - |L psi_i><psi_j|."""
        return [KetBraSum(np.stack([a, -la]), np.stack([lb, b]))
                for a, la in zip(self.support, self.l_support)
                for b, lb in zip(self.support, self.l_support)]


def _frame(family: StateFamily, theta: float) -> _Frame:
    """The frame of the family at theta.

    Pure families: rho = |psi><psi|, L psi = 2 perp and qfi = 4 (||dpsi||^2 -
    |<psi|dpsi>|^2) (Liu et al., J. Phys. A 53, 023001 (2020)). Fixed-basis
    rank-two families: L is diagonal on {psi0, psi1} with eigenvalues p'/p and
    -p'/(1 - p), and qfi = p'^2 / (p (1 - p)). Neither builds a D x D array.
    Generic mixed families: the checked dense rho and drho and the SLD.
    """
    if family.state_type == "pure":
        psi, dpsi = family.psi_dpsi(theta)
        # the factors check that psi and dpsi are finite
        rho = KetBraSum(psi, psi)
        drho = KetBraSum(np.stack([dpsi, psi]), np.stack([psi, dpsi]))
        qfi = max(0.0, float(4 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)))
        return _Frame(rho, drho, rho.kets, 2 * perp_component(psi, dpsi)[None], qfi)
    if family.state_type == "rank-two":
        p, dp = family.p_dp(theta)
        kets = np.stack([family.psi0, family.psi1])
        rho = KetBraSum(kets, np.array([[p], [1 - p]]) * kets)
        drho = KetBraSum(kets, np.array([[dp], [-dp]]) * kets)
        l_support = np.array([[dp / p], [-dp / (1 - p)]]) * kets
        return _Frame(rho, drho, kets, l_support, dp * dp / (p * (1 - p)))
    return _dense_frame(*eval_state(family, theta))


def _dense_frame(rho: np.ndarray, drho: np.ndarray) -> _Frame:
    """The frame of a checked dense rho and drho, support and L psi_i from the SLD."""
    res = _sld(rho, drho)
    support = res.eigvecs[:, res.eigvals > RANK_TOL].T
    return _Frame(KetBraSum.from_dense(rho), KetBraSum.from_dense(drho),
                  support, support @ res.L.T, res.qfi)


def qfi(family: StateFamily, theta: float) -> float:
    """Quantum Fisher information at theta, as the family's frame gives it."""
    return _frame(family, theta).qfi


def fisher_info(povm: Povm, rho: KetBraSum | np.ndarray, drho: KetBraSum | np.ndarray) -> float:
    """Classical Fisher information of the outcomes of a POVM or ``locc.MeasurementTree``.

    ``rho`` and ``drho`` are factored or dense. Outcomes with probability
    below P_TOL are excluded from the sum.
    """
    p, dp = (_sandwich(povm, KetBraSum.of(m)).real for m in (rho, drho))
    keep = p >= P_TOL
    return float(np.sum(dp[keep] ** 2 / p[keep]))


def _sandwich(povm: Povm, m: KetBraSum) -> np.ndarray:
    """<e|M|e> per outcome of a Povm or tree; ||e||^2, read by a shift only, is 1 on leaves."""
    norms = np.sum(np.abs(povm.vectors) ** 2, axis=1) if isinstance(povm, Povm) and m.shift else 1.0
    return m.sandwich(povm.amplitudes(m.kets), povm.amplitudes(m.bras), norms)


def perp_component(psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """Component of dpsi orthogonal to psi (invariant under phase gauge)."""
    psi = check_unit(psi, "psi")
    dpsi = np.asarray(dpsi, dtype=complex).reshape(-1)
    return dpsi - np.vdot(psi, dpsi) * psi


def _detect_fixed_rank_two(support: np.ndarray, sides: tuple[np.ndarray, np.ndarray]):
    """The two support rows of a dense frame if the rank-2 eigenbasis is theta-independent.

    ``sides`` are the checked density matrices at theta -+ h that the
    frame's derivative came from. Drift of the support eigenprojectors above
    DRIFT_TOL means the basis moves with theta and the rank-two shortcut does
    not apply.
    """
    if len(support) != 2:
        return None
    for side in sides:
        w1, v1 = eigh_desc(side)
        sup1 = v1[:, w1 > RANK_TOL]
        if sup1.shape[1] != 2:
            raise ValueError("rank changes across theta +- h")
        # per-vector drift, matched through the overlap matrix
        ov = np.abs(support.conj() @ sup1)
        drift = np.abs(ov @ ov.T - np.eye(2)).max()
        if drift > DRIFT_TOL:
            raise ValueError(
                f"rank-two family has a theta-dependent eigenbasis (drift {drift:.3e})")
    return support


def saturation_matrices(family: StateFamily, theta: float) -> SaturationMatrices:
    """Traceless zero-sandwich targets for the family at theta.

    Pure families: M = |psi><perp| - |perp><psi| (anti-Hermitian) and the
    rank-one-complete target m_tilde = M + (|psi><psi| - I/D). The deviation
    term enters as the Hermitian part so that a zero sandwich forces
    <E|M|E> = 0 and |<E|psi>|^2 = 1/D separately; folding it into the
    anti-Hermitian part would let the two contributions cancel. Rank-two
    fixed-basis families: m_tilde = |psi0><psi1| (the scale-invariant
    direction, with the real prefactor dropped). Generic mixed families of
    rank > 2 get the M_ij of their frame, the ones ``check_saturation``
    evaluates, and no m_tilde.

    Pure and rank-two targets are factored with no D x D array:
    m_tilde = |psi><perp + psi| - |perp><psi| - I/D (two ket-bras) and
    |psi0><psi1| (one).
    """
    if family.state_type == "pure":
        psi, dpsi = family.psi_dpsi(theta)
        perp = perp_component(psi, dpsi)        # the factors check both finite
        kets = np.stack([psi, -perp])
        m = KetBraSum(kets, np.stack([perp, psi]))
        m_tilde = KetBraSum(kets, np.stack([perp + psi, psi]), -1.0 / family.layout.total)
        return SaturationMatrices(conditions=[m], target=m_tilde, state_type="pure")
    if family.state_type == "rank-two":
        pair = family.psi0, family.psi1
    else:
        rho, drho, sides = family.rho_drho_sides(theta)
        frame = _dense_frame(*_checked_state(rho, drho))
        pair = _detect_fixed_rank_two(frame.support, sides)
        if pair is None:
            return SaturationMatrices(conditions=frame.conditions(), target=None,
                                      state_type="mixed")
    m = KetBraSum(*pair)
    return SaturationMatrices(conditions=[m], target=m, state_type="rank-two")


def check_saturation(povm: Povm, family: StateFamily, theta: float) -> SaturationReport:
    """Full saturation check of a POVM or ``locc.MeasurementTree`` against a family at theta.

    Outcomes are read only through ``povm.amplitudes(rows)``, their overlaps
    <e|row>. The family enters through its frame: exact rho and drho, the
    rows psi_i spanning the support of rho and their images L psi_i under
    the SLD. Every outcome |e><e| must satisfy the zero-sandwich condition
    <e|M_ij|e> = 0 for M_ij = |psi_i><L psi_j| - |L psi_i><psi_j|, and every
    outcome of zero probability the regularity condition <e|L|psi_i> = 0
    (Braunstein & Caves, PRL 72, 3439 (1994)). For a rank-one element these
    equal the norms of sqrt(E) M_ij sqrt(E) and sqrt(E) L |psi_i> whatever
    the norm of e. The verdict additionally requires fi to reach qfi. Its
    tolerances are CONDITION_REL, REGULARITY_REL, FI_REL and P_TOL of the table.
    """
    if isinstance(povm, Povm) and povm.vectors.shape[1] != family.layout.total:
        raise ValueError(f"POVM vectors of length {povm.vectors.shape[1]} do not match "
                         f"layout {list(family.layout.dims)}")
    frame = _frame(family, theta)
    m_set = frame.conditions()
    scale = max(m.norm() for m in m_set)

    fi = fisher_info(povm, frame.rho, frame.drho)
    cond_res = max(float(np.abs(_sandwich(povm, m)).max()) for m in m_set)
    null = _sandwich(povm, frame.rho).real < P_TOL
    reg_res = float(np.abs(povm.amplitudes(frame.l_support))[null].max(initial=0.0))

    saturating = (cond_res <= CONDITION_REL * scale
                  and reg_res <= REGULARITY_REL * scale
                  and (frame.qfi - fi) <= FI_REL * frame.qfi)
    return SaturationReport(fi=fi, qfi=frame.qfi, condition_residual=cond_res,
                            regularity_residual=reg_res, saturating=bool(saturating))
