"""Monte-Carlo verification that a measurement statistically reaches the bound.

Repeated experiments are simulated against a measurement tree, the parameter
is recovered by maximum likelihood, and the spread of the estimates is
compared with the information-theoretic floor through the ratio
r = shots * qfi * variance (r -> 1 exactly when the measurement saturates and
the estimator is efficient). Trials draw from independent counter-based
substreams so runs are reproducible bit for bit and trivially parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from . import locc, metrology
from .tensor import FLAT_REL, MLE_WIDTH, PRIOR_EDGE_REL

LOG_FLOOR = 1e-300
LAW_DECIMALS = 15   # decimals an outcome law keeps for drawing, far above rounding noise
GRID_POINTS = 512
SMALL_LAW = 2 ** 16   # K * D always read through components; T * L of one stack of trials
_TWO_EPS = 2 * float(np.finfo(float).eps)
class DegenerateLikelihoodError(RuntimeError):
    """Raised when the outcome distribution carries no parameter dependence."""


@dataclass
class SimConfig:
    family: metrology.StateFamily
    theta_true: float
    shots: int
    trials: int
    seed: int
    prior: tuple[float, float]
    strategy: str = "fixed"          # "fixed" or "two-step"
    tree: locc.MeasurementTree | None = None

    def __post_init__(self) -> None:
        lo, hi = self.prior
        if not np.isfinite(self.prior).all():
            raise ValueError(f"prior {list(self.prior)} is not finite")
        if not lo < hi:
            raise ValueError("prior interval is empty")
        if not lo <= self.theta_true <= hi:
            raise ValueError("theta_true outside the prior interval")
        if self.shots < 1 or self.trials < 1:
            raise ValueError("shots and trials must be positive")
        if self.strategy not in ("fixed", "two-step"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


def _finite_or_none(x: float) -> float | None:
    # variance, ratio and ci95 are undefined (NaN) below two usable trials
    return x if np.isfinite(x) else None


@dataclass
class SimReport:
    theta_true: float
    shots: int
    trials: int
    qfi: float
    estimates: np.ndarray
    variance: float
    ratio: float
    ci95: tuple[float, float]
    seed: int
    degenerate_trials: int = 0
    boundary_hits: int = 0

    def to_json(self) -> dict:
        return {
            "theta_true": self.theta_true,
            "N": self.shots,
            "trials": self.trials,
            "J": self.qfi,
            "variance": _finite_or_none(self.variance),
            "ratio": _finite_or_none(self.ratio),
            "ci95": [_finite_or_none(x) for x in self.ci95],
            "seed": self.seed,
            "degenerate_trials": self.degenerate_trials,
            "boundary_hits": self.boundary_hits,
        }


def _trial_rng(seed: int, stream: int) -> np.random.Generator:
    # Counter-based substreams: Philox keyed through a spawned SeedSequence.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def _p_dp(a: np.ndarray, da: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # |a|^2 and its derivative, from amplitudes a and their derivative da
    return np.abs(a) ** 2, 2 * (a.conj() * da).real


def _path_prob_fns(family: metrology.StateFamily, trees: list[locc.MeasurementTree],
                   prior: tuple[float, float] = (-np.inf, np.inf)) -> tuple[Callable, Callable]:
    """Outcome laws of trees read through ``locc.stacked_amplitudes``: block(thetas, ts)
    -> (len(ts), L, m), the law of each tree ts[j] at every theta, and prob_dprob(thetas,
    rows) -> (P, dP/dtheta), each (m, L), row i of tree rows[i] at thetas[i] by elementwise
    products and stacked contractions, never a product whose kernel changes with m. The
    derivative is exact except for a numeric family (``PureNumericFamily``,
    ``MixedGenericFamily``): there it is the central difference of P with the family's
    step, one-sided within a step of a prior end, so no theta outside the prior is evaluated.

    A unitary family whose psi_in touches K generator levels is read through its components
    C: their amplitudes are taken once per tree and each theta costs O(L K). That holds when
    K <= d_1 + ... + d_n, where this cost meets the O(D (d_1 + ... + d_n)) per theta of the
    amplitudes of psi(theta), which every other pure family reads, or when K D <= SMALL_LAW,
    below the fixed overhead of one tree contraction. A rank-two family mixes its basis laws
    by p(theta); a generic mixed family sandwiches rho(theta), one theta at a time. The trees
    must measure the family's layout.
    """
    metrology.check_layout(trees[0], family)
    cap = max(sum(trees[0].layout.dims), SMALL_LAW // trees[0].layout.total)
    parts = (family.components(cap)
             if isinstance(family, metrology.UnitaryGeneratorFamily) else None)
    if parts is not None:
        levels, amps = parts[0], locc.stacked_amplitudes(trees, parts[1])     # (T, L, K)

        def block(thetas: np.ndarray, ts) -> np.ndarray:
            return np.abs(amps[ts] @ np.exp(np.outer(levels, -1j * thetas))) ** 2

        def prob_dprob(thetas: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            a = da = 0.0            # summed over the levels in order: one fixed reduction
            for lam, col, phase in zip(levels, amps.T, np.exp(np.outer(levels, -1j * thetas))):
                term = phase[:, None] * col.T[rows]
                a, da = a + term, da + -1j * lam * term
            return _p_dp(a, da)
    elif family.state_type == "pure":
        def block(thetas: np.ndarray, ts) -> np.ndarray:
            psi = np.stack([family.psi(t) for t in thetas])
            return np.abs(locc.stacked_amplitudes([trees[t] for t in ts], psi)) ** 2

        def prob_dprob(thetas: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # a unitary family's; a numeric family's is replaced below
            psi = np.array([family.psi_dpsi(t) for t in thetas])
            return _p_dp(*locc.stacked_amplitudes([trees[r] for r in rows], psi).transpose(2, 0, 1))
    elif family.state_type == "rank-two":
        o0, o1 = (np.abs(locc.stacked_amplitudes(trees, np.stack([family.psi0, family.psi1])))
                  ** 2).transpose(2, 0, 1)

        def block(thetas: np.ndarray, ts) -> np.ndarray:
            # p is a user callable: evaluated (and checked) point by point, in order
            p = np.array([family.p(t) for t in thetas])
            return o0[ts, :, None] * p + o1[ts, :, None] * (1 - p)

        def prob_dprob(thetas: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            p, dp = np.array([family.p_dp(t) for t in thetas]).T[:, :, None]
            return p * o0[rows] + (1 - p) * o1[rows], dp * (o0[rows] - o1[rows])
    else:
        amps = locc.stacked_amplitudes(trees, np.eye(trees[0].layout.total))  # <e|i>, per tree

        def block(thetas: np.ndarray, ts) -> np.ndarray:
            return np.stack([np.sum(amps[ts] * np.conj(amps[ts] @ family.rho(t).conj().T),
                                    axis=-1).real for t in thetas], axis=-1)

    if isinstance(family, (metrology.PureNumericFamily, metrology.MixedGenericFamily)):
        def prob_dprob(thetas: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            up, down = np.clip(thetas + family.step, *prior), np.clip(thetas - family.step, *prior)
            p, p_up, p_down = (np.stack([block(np.array([t]), [r])[0, :, 0]
                                         for t, r in zip(at, rows)]) for at in (thetas, up, down))
            return p, (p_up - p_down) / (up - down)[:, None]
    return block, prob_dprob


class _OutcomeLaw:
    """Outcome laws of one family, tabulated on the prior grid in blocks of ``width`` =
    max(1, SMALL_LAW // L) columns; psi(theta) and p(theta) are still evaluated, and
    checked, at every grid point. One tree is a run's law and measures every count row:
    ``log_table[e, g]`` = log(max(P_e(grid[g]), LOG_FLOOR)) is filled once. A list of
    trees is the main laws of a two-step block: tree i measures count row i, and its
    table is reduced block by block to that row's grid values, never kept. Outcomes are
    leaf indices in ``tree.amplitudes`` row order: counts are the rows ``draw`` returns.
    """

    def __init__(self, family: metrology.StateFamily, trees: locc.MeasurementTree | list,
                 prior: tuple[float, float]):
        self.stacked = not isinstance(trees, locc.MeasurementTree)
        self.trees = trees if self.stacked else [trees]
        self.block, self.prob_dprob = _path_prob_fns(family, self.trees, prior)
        self.grid = np.linspace(prior[0], prior[1], GRID_POINTS)
        self.width = max(1, SMALL_LAW // self.trees[0].layout.total)
        if not self.stacked:
            table = np.empty((self.trees[0].layout.total, GRID_POINTS))  # logged in place
            for start in range(0, GRID_POINTS, self.width):
                cols = slice(start, start + self.width)
                table[:, cols] = self.block(self.grid[cols], [0])[0]
            self.log_table = np.log(np.maximum(table, LOG_FLOOR, out=table), out=table)

    def grid_values(self, counts: np.ndarray) -> np.ndarray:
        """Log-likelihoods (n, GRID_POINTS) of n count rows: a vector-matrix product per row."""
        if not self.stacked:
            return (counts[:, None] @ self.log_table)[:, 0]
        values, n = np.empty((len(counts), GRID_POINTS)), len(counts)
        chunk = max(1, SMALL_LAW // (counts.shape[1] * min(self.width, GRID_POINTS)))
        for ts in np.split(np.arange(n), range(chunk, n, chunk)):
            for start in range(0, GRID_POINTS, self.width):
                cols = slice(start, start + self.width)
                log = np.log(np.maximum(self.block(self.grid[cols], ts), LOG_FLOOR))
                values[ts, cols] = (counts[ts, None] @ log)[:, 0]
        return values

    def draw(self, theta: float, shots: int, rng) -> np.ndarray:
        """Leaf-indexed counts, equal in distribution to walking each shot's path through the
        tree: rows (n, L) on a list of generators, row i from tree i of a list, else from the one
        tree, or one vector of the first tree on one generator. Each law at theta is computed once
        and rounded to LAW_DECIMALS: numpy's multinomial, a chain of binomials, takes another
        branch at p = 0.5 than at p = 0.5 + 1 ulp, so a law uniform up to rounding (as at a tree
        synthesized at the true theta) would draw other counts from trees equal up to noise."""
        probs = np.clip(self.block(np.array([theta]), np.arange(len(self.trees)))[:, :, 0], 0, None)
        law = np.round(probs / probs.sum(axis=1, keepdims=True), LAW_DECIMALS)
        if isinstance(rng, np.random.Generator):
            return rng.multinomial(shots, law[0])
        return np.array([r.multinomial(shots, law[i if self.stacked else 0])
                         for i, r in enumerate(rng)], dtype=float)


def leaf_distribution(family: metrology.StateFamily, tree: locc.MeasurementTree,
                      theta: float) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Outcome paths and their probabilities at theta."""
    probs = np.clip(_path_prob_fns(family, [tree])[0](np.array([theta]), [0])[0, :, 0], 0.0, None)
    return list(np.ndindex(*tree.outcome_dims)), probs / probs.sum()


def _score_root(a: float, b: float, fa: float, fb: float) -> Generator[float, float, float]:
    """Root of the score in [a, b], where fa = score(a) > 0 > score(b) = fb, by Brent's zeroin
    (Algorithms for Minimization without Derivatives, 1973, ch. 4): b is the best point, a the
    previous one and c the other end of the bracket. The tolerance is floored at 2 eps |b|,
    which no step or bracket can undercut. A coroutine: yields each theta, is sent its score."""
    c, fc, d, e = a, fa, b - a, b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = max(0.5 * MLE_WIDTH, _TWO_EPS * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0:
            return b
        bisect = True
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:                          # secant
                p, q = 2 * m * s, 1 - s
            else:                               # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2 * m * q * (q - r) - (b - a) * (r - 1))
                q = (q - 1) * (r - 1) * (s - 1)
            p, q = abs(p), -q if p > 0 else q
            # the step must stay inside the bracket and shrink faster than bisection
            bisect = 2 * p >= min(3 * m * q - abs(tol * q), abs(e * q))
        e, d = (m, m) if bisect else (d, p / q)
        if abs(d) < tol:
            return b + d
        a, fa, b = b, fb, b + d
        fb = yield b
        if (fb > 0) == (fc > 0):
            c, fc, d, e = a, fa, b - a, b - a


def _estimates(law: _OutcomeLaw, counts: np.ndarray, prior: tuple[float, float]
               ) -> list[float | DegenerateLikelihoodError]:
    """MLEs of a stack of count rows, see ``mle``, a DegenerateLikelihoodError for a flat
    one: one grid scan, then score roots in lockstep, one ``prob_dprob`` call per round at
    every pending theta, about four per stack. No row's estimate depends on the others."""
    rows = np.arange(len(counts)) if law.stacked else np.zeros(len(counts), dtype=int)
    grid, values = law.grid, law.grid_values(counts)
    peak = values.max(axis=1)
    flat = peak - values.min(axis=1) < FLAT_REL * (np.abs(peak) + 1.0)
    # ties go to the grid point nearest the interval midpoint, the first of equals
    best = np.where(values >= peak[:, None], np.abs(grid - 0.5 * sum(prior)), np.inf).argmin(1)
    ends = np.stack([np.maximum(best - 1, 0), np.minimum(best + 1, grid.size - 1)], axis=1)
    out = [DegenerateLikelihoodError("likelihood is flat on the prior interval")] * len(counts)

    def score(trials: list[int], thetas: list[float]) -> list[float]:
        probs, dprobs = law.prob_dprob(np.array(thetas), rows[trials])
        return (counts[trials] * (dprobs / np.maximum(probs, LOG_FLOOR))).sum(axis=1).tolist()

    live = np.flatnonzero(~flat).tolist()
    brackets = score(live * 2, grid[ends[live]].T.ravel().tolist()) if live else []
    roots, replies = {}, {}
    for i, fa, fb in zip(live, brackets, brackets[len(live):]):
        a, b = grid[ends[i]].tolist()
        if fa > 0 > fb:
            roots[i] = _score_root(a, b, fa, fb)
        else:   # no maximum inside: the grid end with the larger likelihood
            out[i] = a if values[i, ends[i, 0]] >= values[i, ends[i, 1]] else b
    while roots:
        asks = {}
        for i, root in roots.items():
            try:
                asks[i] = root.send(replies.get(i))     # None starts a root
            except StopIteration as stop:
                out[i] = float(stop.value)
        roots = {i: roots[i] for i in asks}
        replies = dict(zip(asks, score(list(asks), list(asks.values())) if asks else []))
    return out


def _mle(law: _OutcomeLaw, counts: np.ndarray, prior: tuple[float, float]) -> float:
    """Maximum-likelihood estimate from one row of leaf-indexed counts; see ``mle``."""
    est, = _estimates(law, np.asarray(counts, dtype=float)[None], prior)
    if isinstance(est, DegenerateLikelihoodError):
        raise est
    return est


def mle(counts: dict[tuple[int, ...], int], family: metrology.StateFamily,
        tree: locc.MeasurementTree, prior: tuple[float, float]) -> float:
    """Maximum-likelihood estimate from outcome counts on the prior interval.

    Scans a uniform grid, breaking exact ties toward the interval midpoint,
    then follows the score sum_e n_e P_e'/P_e of the observed outcomes to its
    root in the two grid cells around the grid maximum by safeguarded secant
    steps, down to MLE_WIDTH; if the score does not fall through zero there,
    the cell end with the larger likelihood is the estimate.
    Raises ValueError if a counted path is not a leaf of the tree, and
    DegenerateLikelihoodError if the likelihood is flat on the grid.
    """
    if sum(counts.values()) <= 0:
        raise ValueError("no counts")
    dims = tree.outcome_dims
    for path in counts:
        if len(path) != len(dims) or not all(0 <= x < d for x, d in zip(path, dims)):
            raise ValueError(f"outcome path {path} is not a leaf of the tree")
    count_vec = np.zeros(tree.layout.total)
    count_vec[np.ravel_multi_index(np.array(list(counts)).T, dims)] = list(counts.values())
    return _mle(_OutcomeLaw(family, tree, prior), count_vec, prior)


def _reference_law(config: SimConfig) -> _OutcomeLaw:
    """Law of the two-step reference tree: config.tree, else synthesized at the midpoint."""
    lo, hi = config.prior
    tree = config.tree or locc.synthesize_at(config.family, 0.5 * (lo + hi))
    return _OutcomeLaw(config.family, tree, config.prior)


def _two_step_block(config: SimConfig, ref: _OutcomeLaw, rngs: list[np.random.Generator]
                    ) -> list[float | DegenerateLikelihoodError]:
    """Two-step estimates of a block of trials, one per generator, in two stacks: the
    rough draws from the reference law and their MLEs, one ``synthesize_trees`` call
    at the rough estimates that survived, then one stacked law of those trees, each
    trial's main draw from its tree's law on the same generator, and their MLEs."""
    if config.shots < 16:
        raise ValueError("two-step needs at least 16 shots")
    family, prior, theta = config.family, config.prior, config.theta_true
    n_rough = int(np.ceil(np.sqrt(config.shots)))
    pad = PRIOR_EDGE_REL * (prior[1] - prior[0])
    if isinstance(family, metrology.PureNumericFamily):
        pad = max(pad, family.step)     # the frame evaluates the family at theta -+ step
    out = _estimates(ref, ref.draw(theta, n_rough, rngs), prior)
    live = [i for i, rough in enumerate(out) if not isinstance(rough, Exception)]
    targets = [locc.synthesis_target(metrology.saturation_matrices(
        family, float(np.clip(out[i], prior[0] + pad, prior[1] - pad)))) for i in live]
    if live:
        law = _OutcomeLaw(family, locc.synthesize_trees(targets, family.layout), prior)
        counts = law.draw(theta, config.shots - n_rough, [rngs[i] for i in live])
        for i, est in zip(live, _estimates(law, counts, prior)):
            out[i] = est
    return out


def two_step(config: SimConfig, rng: np.random.Generator | None = None) -> float:
    """Two-stage estimate: rough scan, re-synthesis, main measurement.

    Spends ceil(sqrt(N)) shots on the reference tree (config.tree, else one
    synthesized at the prior midpoint), re-synthesizes at the rough estimate
    (clamped inside the prior, a step inside for a ``PureNumericFamily``) and returns
    the MLE of the remaining shots, drawn from ``rng``, else from the substream
    of trial 0: a block of one trial of ``run_trials``. A flat likelihood
    raises DegenerateLikelihoodError.
    """
    est, = _two_step_block(config, _reference_law(config), [rng or _trial_rng(config.seed, 0)])
    if isinstance(est, DegenerateLikelihoodError):
        raise est
    return est


def run_trials(config: SimConfig) -> SimReport:
    """Independent estimation trials and the variance ratio r = N J Var.

    Per-trial substreams derive from (seed, trial index); trials raising a
    degenerate-likelihood flag are counted and excluded from the variance.
    Trials go in blocks of max(1, SMALL_LAW // D), each one stack (``_two_step_block``).
    The 95% interval on r comes from a percentile bootstrap over trials.
    """
    family, prior = config.family, config.prior
    lo, hi = prior
    frame = metrology.saturation_matrices(family, config.theta_true)
    size = max(1, SMALL_LAW // family.layout.total)
    blocks = ([_trial_rng(config.seed, t) for t in range(first, min(first + size, config.trials))]
              for first in range(0, config.trials, size))     # substreams made per block
    # One outcome law per run: the fixed tree's, or the two-step reference tree's.
    if config.strategy == "fixed":
        tree = config.tree or locc.synthesize_tree(locc.synthesis_target(frame), family.layout)
        law = _OutcomeLaw(family, tree, prior)
        outcomes = [est for block in blocks for est in _estimates(
            law, law.draw(config.theta_true, config.shots, block), prior)]
    else:
        ref = _reference_law(config)
        outcomes = [est for block in blocks for est in _two_step_block(config, ref, block)]
    estimates = np.array([e for e in outcomes if not isinstance(e, Exception)])
    degenerate = len(outcomes) - estimates.size
    edge = PRIOR_EDGE_REL * (hi - lo)
    boundary = int(np.sum((np.abs(estimates - lo) < edge) | (np.abs(estimates - hi) < edge)))
    if estimates.size >= 2:
        variance = float(np.var(estimates, ddof=1))
        # one draw of all resamples: the same stream as drawing them one by one
        idx = _trial_rng(config.seed, config.trials).integers(
            0, estimates.size, (1000, estimates.size))
        ratios = config.shots * frame.qfi * np.var(estimates[idx], axis=1, ddof=1)
        ci = tuple(map(float, np.percentile(ratios, (2.5, 97.5))))
    else:
        variance, ci = float("nan"), (float("nan"), float("nan"))
    return SimReport(theta_true=config.theta_true, shots=config.shots,
                     trials=config.trials, qfi=frame.qfi, estimates=estimates,
                     variance=variance, ratio=float(config.shots * frame.qfi * variance), ci95=ci,
                     seed=config.seed, degenerate_trials=degenerate,
                     boundary_hits=boundary)
