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

import functools
import importlib.machinery
import importlib.util
import os
import sys
from collections import deque
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from . import metrology
from .tensor import (LM_STALL_REL, LM_STALL_WINDOW, LM_STOP_TOL, P_TOL, PERP_TOL, UNIT_TOL,
                     HilbertLayout, as_layout, check_finite, check_orthonormal, check_trace)
# simultaneous_zero_diag is unused here; it stays importable because the benchmark tracer patches it
from .zerodiag import (ZeroDiagConvergenceError, simultaneous_zero_diag,  # noqa: F401
                       zero_diag_basis, zero_diag_pair)

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


def check_lm_conditions(pair: IsometryPair, coeffs: BipartiteCoeffs) -> LmFeasibilityReport:
    """Phase and support residuals of a pair, feasible within PHASE_TOL and SUPPORT_TOL."""
    c, d = pair.cd(coeffs)
    phase = float(np.abs(c * np.conj(d) - np.conj(c) * d).max())
    # |C_ij|^2 is the outcome probability at theta; zero by check_saturation's rule
    zeros = np.abs(c) ** 2 < P_TOL
    support = float(np.abs(d)[zeros].max()) if zeros.any() else 0.0
    return LmFeasibilityReport(
        phase_residual=phase,
        support_residual=support,
        feasible=bool(phase <= PHASE_TOL and support <= SUPPORT_TOL),
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
        # traceless iff u zero-diagonalizes the skew form; zero_diag_pair trusts this check
        check_trace(t, f"conditioned target {i}", error=ZeroDiagConvergenceError)
        targets.append(-1j * t)     # anti-Hermitian target over i gives a Hermitian pair
    v = zero_diag_pair(np.array(targets))
    return IsometryPair(u_mat=u, v_mat=v)


def lm_povm_from_pair(pair: IsometryPair) -> metrology.Povm:
    """Rank-one product POVM encoded by the pair.

    Columns of U are the subsystem-1 vectors and columns of V the conjugated
    subsystem-2 vectors; row i * n2 + j is kron(u_i, conj(v_j)) for the n2
    columns of V, and the row-orthonormality of U and V is exactly the
    completeness of the elements.
    """
    u, v = pair.u_mat, pair.v_mat
    (d1, n1), (d2, n2) = u.shape, v.shape
    return metrology.Povm(np.einsum("ai,bj->ijab", u, v.conj()).reshape(n1 * n2, d1 * d2))


@dataclass
class SearchReport(LmFeasibilityReport):
    restarts: int
    note: str = ("heuristic local search: a negative outcome is evidence of "
                 "infeasibility, not a proof")


class _ExpMap:
    """x -> U = exp(iH) with H = sum_j x_j E_j, and every dU/dx_j, over a stack of k exponents.

    Row j of ``flat`` is E_j flattened: in parameter order the diagonal units,
    then the real and then the imaginary unit pairs of the upper triangle.
    Each exponent of the stack goes through the same eigh, exponential and
    GEMMs as it would alone, so stacking changes no bit of any result.
    """

    def __init__(self, d: int):
        iu = np.triu_indices(d, k=1)
        n_off = len(iu[0])
        re, im = d + np.arange(n_off), d + n_off + np.arange(n_off)
        basis = np.zeros((d * d, d, d), dtype=complex)
        basis[np.arange(d), np.arange(d), np.arange(d)] = 1
        basis[re, iu[0], iu[1]] = basis[re, iu[1], iu[0]] = 1
        basis[im, iu[0], iu[1]], basis[im, iu[1], iu[0]] = 1j, -1j
        self.d, self.flat = d, basis.reshape(d * d, d * d)

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(eigenvalues w and eigenvectors V of each H, each U = V e^{iw} V^dag) for x of shape (k, d*d)."""
        w, v = np.linalg.eigh((x @ self.flat).reshape(-1, self.d, self.d))
        return w, v, (v * np.exp(1j * w)[:, None]) @ v.conj().transpose(0, 2, 1)

    def derivative(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """dU/dx_j = V (G o V^dag E_j V) V^dag for all j (Daleckii-Krein), a (k, d*d, d, d) stack.

        G_kl = i e^{iw_k/2} e^{iw_l/2} sinc((w_k - w_l)/2pi) is the divided
        difference of e^{iw}, exact for equal eigenvalues too. With
        Q[(a,b),(k,l)] = conj(V_ak) V_bl, row j of flat @ Q is V^dag E_j V and
        V M V^dag is M @ Q^dag, so all d*d derivatives of an exponent take two GEMMs.
        """
        k, d = w.shape
        half = np.exp(0.5j * w)
        gamma = 1j * (half[:, :, None] * half[:, None, :]) * np.sinc(
            (w[:, :, None] - w[:, None, :]) / (2 * np.pi))
        q = (v.conj()[:, :, None, :, None] * v[:, None, :, None, :]).reshape(k, d * d, d * d)
        return (((self.flat @ q) * gamma.reshape(k, 1, d * d)) @ q.conj().transpose(0, 2, 1)
                ).reshape(k, d * d, d, d)


class _Stopped(Exception):
    """Raised with x from the residual wrapper of ``least_squares`` to end lmder there."""


@functools.cache
def _minpack():
    """scipy's compiled MINPACK extension, loaded without scipy.optimize and its __init__."""
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.machinery.PathFinder.find_spec("_minpack", [os.path.join(scipy_dir, "optimize")])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if sys.modules.get("_minpack") is module:   # CPython files a single-phase extension itself
        del sys.modules["_minpack"]
    return module


def least_squares(fun, x0, jac, maxfev, stop=None):
    """MINPACK's lmder from scipy's compiled ``_minpack`` (loaded on the first call) on fun and jac bordered by zeros.

    At most ``maxfev`` function calls and xtol = ftol = gtol = 1e-15: the same lmder
    call as scipy's ``leastsq`` and ``least_squares(method="lm", x_scale="jac")``,
    without their wrapper layers. Returns a namespace with ``x`` and ``nfev``;
    fewer residuals than parameters, or maxfev < 1, raise ValueError.
    The zero column is a parameter that nothing depends on, and the returned
    x drops it. Without it MINPACK's iterates on a rank-deficient Jacobian
    change with the contents of newly allocated memory (glibc's
    MALLOC_PERTURB_ shows it), so one seed could give two pairs. fun runs
    once per x, though lmder sometimes asks for an x again. ``stop(x, f)``,
    if given, is asked after every residual evaluation f = fun(x); when it
    returns an x (this one or an earlier one), lmder ends there and the
    result has that x and the number of evaluations made. A stop that
    always returns None leaves the lmder call as it is without one.
    """
    if maxfev < 1:      # lmder reads 0 as improper input, a negative count as no cap
        raise ValueError(f"maxfev must be at least 1, got {maxfev}")
    n, nfev, memo = len(x0), 0, {}

    def residuals(y):
        nonlocal nfev
        key = y.tobytes()
        if key not in memo:
            f = fun(y[:n])
            nfev += 1
            end = None if stop is None else stop(y[:n], f)
            if end is not None:
                raise _Stopped(np.array(end))
            memo.clear()
            memo[key] = np.append(f, 0.0)
        return memo[key]

    def bordered(y):
        j = jac(y[:n])
        out = np.zeros((len(j) + 1, n + 1))
        out[:-1, :-1] = j
        return out

    try:
        x, out, info = _minpack()._lmder(residuals, bordered, np.append(x0, 0.0), (), 1, 0,
                                         1e-15, 1e-15, 1e-15, maxfev, 100.0, None)
    except _Stopped as hit:
        return SimpleNamespace(x=hit.args[0], nfev=nfev)
    if info == 0:       # lmder returns x0 untouched
        raise ValueError(f"improper input to lmder: {len(out['fvec'])} residuals "
                         f"for {n + 1} parameters")
    return SimpleNamespace(x=x[:n], nfev=out["nfev"])


def heuristic_lm_search(coeffs: BipartiteCoeffs, restarts: int = 40,
                        iters: int = 300, allow_isometry_padding: bool = False,
                        seed: int = 0) -> tuple[IsometryPair, SearchReport]:
    """Multi-start local search for a feasible measurement pair.

    Unitaries are parameterized as exponentials of Hermitian matrices; with
    padding enabled, V gains one extra column by taking the first d2 rows of
    a (d2+1)-dimensional unitary. Each restart minimizes the squared phase
    residual plus a narrowly weighted support penalty by MINPACK's
    Levenberg-Marquardt (lmder from scipy's compiled MINPACK; More 1978) with the
    exact Jacobian, from the Daleckii-Krein divided differences of each
    exponential and the zero subgradient at the support term's kink
    |D_ij| = 0. When U and V have the same size (d1 = m2) their exponents go
    through one stacked exp map. Exact zero residuals and Jacobian rows make
    up the count where the 2 d1 m2 residuals are fewer than the
    d1^2 + m2^2 parameters. A restart ends at the first evaluation whose
    pair has both residuals below ``LM_STOP_TOL`` (so it is feasible), and
    the search returns that pair; its lmder iterates up to there are those
    of a call with no stop at all. A restart whose best residual norm so far
    stays above ``LM_STOP_TOL`` and has fallen by at most ``LM_STALL_REL``
    of itself over the last ``LM_STALL_WINDOW`` evaluations has stalled: it
    ends there with its best evaluated pair, which need not be the pair of
    the evaluation that saw the stall. Without a feasible restart the search
    returns the best pair of all restarts. ``iters`` caps each restart's
    lmder function calls, Jacobian evaluations not counted; since the
    stall ends almost every infeasible restart first, it is rarely reached.
    The ``nfev`` of a restart that lmder ends counts a repeated x again,
    though it is evaluated once; a restart that the stop ends, feasible or
    stalled, which is now most of them, reports its distinct evaluations.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if iters < 1:       # least_squares refuses maxfev < 1 too, without naming iters
        raise ValueError(f"iters must be at least 1, got {iters}")
    ab = np.stack([coeffs.a_mat, coeffs.b_mat])
    d1, d2 = coeffs.a_mat.shape
    m2 = d2 + 1 if allow_isometry_padding else d2
    n_u, n_v = d1 * d1, m2 * m2
    # one exp map per size: U's and V's exponents stack when d1 = m2
    maps, parts = (([_ExpMap(d1)], [slice(None)]) if d1 == m2 else
                   ([_ExpMap(d1), _ExpMap(m2)], [slice(n_u), slice(n_u, None)]))
    zeros = np.zeros(max(0, n_u + n_v - 2 * d1 * m2))     # MINPACK needs m >= n residuals
    zero_rows = np.zeros((len(zeros), n_u + n_v))
    eps = 1e-3      # narrow "C entry is zero" window: small nonzero C entries stay undistorted
    last = {}   # the Jacobian is asked for at the x just evaluated

    def evaluate(x):    # (eigenpairs per exp map, U, V, U^dag [A; B], [C; D], |D|, support weight)
        key = x.tobytes()
        if key not in last:
            exps = [emap(x[part].reshape(-1, emap.d ** 2)) for emap, part in zip(maps, parts)]
            u, v = exps[0][2][0], exps[-1][2][-1][:d2]
            uh_ab = u.conj().T @ ab
            cd = uh_ab @ v
            last.clear()
            last[key] = ([e[:2] for e in exps], u, v, uh_ab, cd, np.abs(cd[1]),
                         np.sqrt(np.exp(-np.abs(cd[0]) ** 2 / eps ** 2)))
        return last[key]

    def resid_vec(x):
        (c, d), mag, weight = evaluate(x)[4:]
        return np.concatenate([np.imag(np.conj(c) * d).ravel(), weight.ravel() * mag.ravel(), zeros])

    def jacobian(x):
        eigs, _, v, uh_ab, cd, mag, weight = evaluate(x)
        ders = [emap.derivative(*eig) for emap, eig in zip(maps, eigs)]
        # d[C; D] is dU^dag [A; B] V along U's parameters and U^dag [A; B] dV along V's
        dcd = np.concatenate([
            ders[0][0].conj().transpose(0, 2, 1) @ (ab @ v)[:, None],
            uh_ab[:, None] @ ders[-1][-1][:, :d2]], axis=1)
        (c_dc, c_dd), (d_dc, d_dd) = np.conj(cd)[:, None, None] * dcd
        # d Im(conj(C) D) and d(weight |D|), with d|D| = Re(conj(D) dD) / |D| and 0 at D = 0
        d_support = weight * (np.divide(d_dd.real, mag, out=np.zeros(d_dd.shape), where=mag > 0)
                              - mag * c_dc.real / eps ** 2)
        rows = np.concatenate([(c_dd - d_dc).imag, d_support], axis=1).reshape(len(x), -1).T
        return np.concatenate([rows, zero_rows])

    def settle(x):      # the pair at x, its report, and whether it meets the stop rule
        pair = IsometryPair(*evaluate(x)[1:3])
        rep = check_lm_conditions(pair, coeffs)
        return pair, rep, max(rep.phase_residual, rep.support_residual) < LM_STOP_TOL

    def restart_stop():     # one restart's stop: its first feasible x, or its best x once stalled
        best, best_x = np.inf, None
        back = deque([np.inf] * LM_STALL_WINDOW, maxlen=LM_STALL_WINDOW)   # best per evaluation

        def stop(x, f):     # the check's phase residual is twice the largest phase row
            nonlocal best, best_x
            if 2 * np.abs(f[:d1 * m2]).max() < LM_STOP_TOL and settle(x)[2]:
                return x
            norm = np.sqrt(f @ f)
            if norm < best:
                best, best_x = norm, x.copy()
            old = back[0]
            back.append(best)
            return best_x if LM_STOP_TOL < best >= (1 - LM_STALL_REL) * old else None
        return stop

    rng = np.random.default_rng(seed)
    best_pair, best_rep, best_val = None, None, np.inf
    for used in range(1, restarts + 1):
        sol = least_squares(resid_vec, rng.standard_normal(n_u + n_v), jac=jacobian,
                            maxfev=iters, stop=restart_stop())
        pair, rep, done = settle(sol.x)
        val = max(rep.phase_residual, rep.support_residual)
        if val < best_val:
            best_pair, best_rep, best_val = pair, rep, val
        if done:
            break
    return best_pair, SearchReport(**asdict(best_rep), restarts=used)
