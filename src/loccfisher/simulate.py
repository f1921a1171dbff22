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
from itertools import islice
from typing import Callable

import numpy as np

from . import locc, metrology
from .tensor import FLAT_REL, MLE_WIDTH, PRIOR_EDGE_REL

LOG_FLOOR = 1e-300
LAW_DECIMALS = 15   # decimals an outcome law keeps for drawing, far above rounding noise
GRID_POINTS = 512
SMALL_LAW = 2 ** 16   # K * D always read through components; T * D of one two-step synthesis


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


def _path_prob_fns(family: metrology.StateFamily, tree: locc.MeasurementTree,
                   prior: tuple[float, float] = (-np.inf, np.inf)
                   ) -> tuple[Callable, Callable, Callable]:
    """A tree's outcome law, read through ``tree.amplitudes``, as theta -> P (the
    L leaf probabilities), theta -> (P, dP/dtheta) and a block of m thetas -> P
    as one L x m array. P at one theta is the block law of that theta alone;
    a wider block is within rounding of it. The derivative is exact except for
    a numeric family (``PureNumericFamily``, ``MixedGenericFamily``): there it is
    the central difference of P with the family's step, one-sided within a step
    of a prior end, so no theta outside the prior is evaluated.

    A unitary family whose psi_in touches K generator levels is read through
    its components C: their amplitudes are taken once and each theta costs
    O(L K). That holds when K <= d_1 + ... + d_n, where this cost meets the
    O(D (d_1 + ... + d_n)) per theta of the amplitudes of psi(theta), which
    every other pure family reads, or when K D <= SMALL_LAW, below the fixed
    overhead of one tree contraction. A rank-two family mixes its basis laws by
    p(theta); a generic mixed family sandwiches rho(theta), one theta at a time.
    The tree must measure the family's layout.
    """
    metrology.check_layout(tree, family)
    cap = max(sum(tree.layout.dims), SMALL_LAW // tree.layout.total)
    parts = (family.components(cap)
             if isinstance(family, metrology.UnitaryGeneratorFamily) else None)
    if parts is not None:
        levels, amps = parts[0], tree.amplitudes(parts[1])

        def block(thetas: np.ndarray) -> np.ndarray:
            return np.abs(amps @ np.exp(np.outer(levels, -1j * thetas))) ** 2

        def prob_dprob(theta: float) -> tuple[np.ndarray, np.ndarray]:
            phases = np.exp(-1j * theta * levels)
            return _p_dp(*(amps @ np.stack([phases, -1j * levels * phases], axis=1)).T)
    elif family.state_type == "pure":
        def block(thetas: np.ndarray) -> np.ndarray:
            return np.abs(tree.amplitudes(np.stack([family.psi(t) for t in thetas]))) ** 2

        def prob_dprob(theta: float) -> tuple[np.ndarray, np.ndarray]:
            # a unitary family's; a numeric family's is replaced below
            return _p_dp(*tree.amplitudes(np.stack(family.psi_dpsi(theta))).T)
    elif family.state_type == "rank-two":
        o0, o1 = (np.abs(tree.amplitudes(np.stack([family.psi0, family.psi1]))) ** 2).T

        def block(thetas: np.ndarray) -> np.ndarray:
            # p is a user callable: evaluated (and checked) point by point, in order
            p = np.array([family.p(t) for t in thetas])
            return np.outer(o0, p) + np.outer(o1, 1 - p)

        def prob_dprob(theta: float) -> tuple[np.ndarray, np.ndarray]:
            p, dp = family.p_dp(theta)
            return p * o0 + (1 - p) * o1, dp * (o0 - o1)
    else:
        amps = tree.amplitudes(np.eye(tree.layout.total))   # <e|i>, fixed per tree

        def block(thetas: np.ndarray) -> np.ndarray:
            return np.stack([np.sum(amps * np.conj(amps @ family.rho(t).conj().T), axis=1).real
                             for t in thetas], axis=1)

    def probs(theta: float) -> np.ndarray:
        return block(np.array([theta]))[:, 0]

    if isinstance(family, (metrology.PureNumericFamily, metrology.MixedGenericFamily)):
        def prob_dprob(theta: float) -> tuple[np.ndarray, np.ndarray]:
            up, down = min(theta + family.step, prior[1]), max(theta - family.step, prior[0])
            return probs(theta), (probs(up) - probs(down)) / (up - down)
    return probs, prob_dprob, block


class _OutcomeLaw:
    """One tree's outcome law for one family, tabulated on the prior grid.

    Outcomes are leaf indices in ``tree.amplitudes`` row order, so counts are
    the vector that ``draw`` returns, and ``prob_fn`` reads leaf amplitudes,
    never leaf vectors. ``log_table[e, g]`` is log(max(P_e(grid[g]), LOG_FLOOR)),
    filled by the batched law max(1, SMALL_LAW // L) grid columns at a time, so
    a block holds at most SMALL_LAW entries beside the table; psi(theta) and
    p(theta) are still evaluated, and checked, at every grid point. Only the
    grid scan reads the table: draws call ``prob_fn`` and the MLE's score steps
    call ``prob_dprob``. A run builds one law per tree and draws and estimates with it.
    """

    def __init__(self, family: metrology.StateFamily, tree: locc.MeasurementTree,
                 prior: tuple[float, float]):
        self.prob_fn, self.prob_dprob, block = _path_prob_fns(family, tree, prior)
        self.grid = np.linspace(prior[0], prior[1], GRID_POINTS)
        table = np.empty((tree.layout.total, GRID_POINTS))    # logged in place: one table at peak
        width = max(1, SMALL_LAW // tree.layout.total)
        for start in range(0, GRID_POINTS, width):
            table[:, start:start + width] = block(self.grid[start:start + width])
        self.log_table = np.log(np.maximum(table, LOG_FLOOR, out=table), out=table)

    def distribution(self, theta: float) -> np.ndarray:
        """The law at theta, rounded to LAW_DECIMALS for drawing.

        numpy draws a multinomial as a chain of binomials and takes another
        branch at p = 0.5 than at p = 0.5 + 1 ulp, so a law that is uniform up
        to rounding (every tree synthesized at the true theta gives one) would
        draw different counts from trees that differ only by rounding noise.
        """
        probs = np.clip(self.prob_fn(theta), 0.0, None)
        return np.round(probs / probs.sum(), LAW_DECIMALS)

    def draw(self, theta: float, shots: int, rng: np.random.Generator) -> np.ndarray:
        # Leaf-indexed counts: equal in distribution to drawing each shot's
        # path node by node through the tree, and far cheaper.
        return rng.multinomial(shots, self.distribution(theta))


def leaf_distribution(family: metrology.StateFamily, tree: locc.MeasurementTree,
                      theta: float) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Outcome paths and their probabilities at theta."""
    probs = np.clip(_path_prob_fns(family, tree)[0](theta), 0.0, None)
    return list(np.ndindex(*tree.outcome_dims)), probs / probs.sum()


def _score_root(score: Callable[[float], float], a: float, b: float,
                fa: float, fb: float) -> float:
    """Root of the score in [a, b], where fa = score(a) > 0 > score(b) = fb, by
    Brent's zeroin (Algorithms for Minimization without Derivatives, 1973, ch. 4):
    b is the best point, a the previous one and c the other end of the bracket.
    The tolerance is floored at 2 eps |b|, which no step or bracket can undercut."""
    c, fc, d, e = a, fa, b - a, b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = max(0.5 * MLE_WIDTH, 2 * np.finfo(float).eps * abs(b))
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
        fb = score(b)
        if (fb > 0) == (fc > 0):
            c, fc, d, e = a, fa, b - a, b - a


def _mle(law: _OutcomeLaw, counts: np.ndarray, prior: tuple[float, float]) -> float:
    """Maximum-likelihood estimate from leaf-indexed counts; see ``mle``."""
    count_vec = np.asarray(counts, dtype=float)
    seen = np.flatnonzero(count_vec)
    n_seen = count_vec[seen]

    def score(theta: float) -> float:
        probs, dprobs = law.prob_dprob(theta)
        return float(n_seen @ (dprobs[seen] / np.maximum(probs[seen], LOG_FLOOR)))

    grid = law.grid
    values = count_vec @ law.log_table
    peak = values.max()
    if peak - values.min() < FLAT_REL * (abs(peak) + 1.0):
        raise DegenerateLikelihoodError("likelihood is flat on the prior interval")
    ties = np.flatnonzero(values >= peak)
    mid = 0.5 * (prior[0] + prior[1])
    best = int(ties[np.argmin(np.abs(grid[ties] - mid))])

    ia, ib = max(best - 1, 0), min(best + 1, grid.size - 1)
    fa, fb = score(grid[ia]), score(grid[ib])
    if not fa > 0 > fb:     # no maximum inside: the grid end with the larger likelihood
        return float(grid[ia] if values[ia] >= values[ib] else grid[ib])
    return float(_score_root(score, grid[ia], grid[ib], fa, fb))


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


def _estimate(law: _OutcomeLaw, counts: np.ndarray, prior: tuple[float, float]):
    """``_mle``, or the DegenerateLikelihoodError it raised: a degenerate trial."""
    try:
        return _mle(law, counts, prior)
    except DegenerateLikelihoodError as exc:
        return exc


def _two_step_block(config: SimConfig, ref: _OutcomeLaw, rngs: list[np.random.Generator]
                    ) -> list[float | DegenerateLikelihoodError]:
    """Two-step estimates of a block of trials, one per generator: each trial's
    rough draw and MLE, one ``synthesize_trees`` call at the rough estimates that
    survived, then each trial's main law, draw and MLE on the same generator."""
    if config.shots < 16:
        raise ValueError("two-step needs at least 16 shots")
    family, prior, theta = config.family, config.prior, config.theta_true
    n_rough = int(np.ceil(np.sqrt(config.shots)))
    pad = PRIOR_EDGE_REL * (prior[1] - prior[0])
    if isinstance(family, (metrology.PureNumericFamily, metrology.MixedGenericFamily)):
        pad = max(pad, family.step)     # the frame evaluates the family at theta -+ step
    out = [_estimate(ref, ref.draw(theta, n_rough, rng), prior) for rng in rngs]
    live = [i for i, rough in enumerate(out) if not isinstance(rough, Exception)]
    targets = [locc.synthesis_target(metrology.saturation_matrices(
        family, float(np.clip(out[i], prior[0] + pad, prior[1] - pad)))) for i in live]
    for i, tree in zip(live, locc.synthesize_trees(targets, family.layout)):
        law = _OutcomeLaw(family, tree, prior)
        out[i] = _estimate(law, law.draw(theta, config.shots - n_rough, rngs[i]), prior)
    return out


def two_step(config: SimConfig, rng: np.random.Generator | None = None) -> float:
    """Two-stage estimate: rough scan, re-synthesis, main measurement.

    Spends ceil(sqrt(N)) shots on the reference tree (config.tree, else one
    synthesized at the prior midpoint), re-synthesizes at the rough estimate
    (clamped inside the prior, a step inside for a numeric family) and returns
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
    Two-step trials go in blocks of max(1, SMALL_LAW // D) trials (``_two_step_block``).
    The 95% interval on r comes from a percentile bootstrap over trials.
    """
    family, prior = config.family, config.prior
    lo, hi = prior
    frame = metrology.saturation_matrices(family, config.theta_true)
    rngs = (_trial_rng(config.seed, trial) for trial in range(config.trials))  # made per block
    # One outcome law per run: the fixed tree's, or the two-step reference tree's.
    if config.strategy == "fixed":
        tree = config.tree or locc.synthesize_tree(locc.synthesis_target(frame), family.layout)
        law = _OutcomeLaw(family, tree, prior)
        outcomes = [_estimate(law, law.draw(config.theta_true, config.shots, rng), prior)
                    for rng in rngs]
    else:
        ref, block = _reference_law(config), max(1, SMALL_LAW // family.layout.total)
        outcomes = [est for start in range(0, config.trials, block)
                    for est in _two_step_block(config, ref, list(islice(rngs, block)))]
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
