"""Monte-Carlo verification that a measurement statistically reaches the bound.

Repeated experiments are simulated against a measurement tree, the parameter
is recovered by maximum likelihood, and the spread of the estimates is
compared with the information-theoretic floor through the ratio
r = shots * qfi * variance (r -> 1 exactly when the measurement saturates and
the estimator is efficient). Trials draw from independent counter-based
substreams so runs are reproducible bit for bit and trivially parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import locc, metrology

LOG_FLOOR = 1e-300
GRID_POINTS = 512
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


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


def sample_path(tree: locc.MeasurementTree, rho: np.ndarray,
                rng: np.random.Generator) -> tuple[int, ...]:
    """Draw one outcome path by conditional per-subsystem sampling.

    Subsystem k's outcome is drawn from the distribution conditioned on the
    outcomes so far; the induced joint law equals the flattened-measurement
    distribution Tr(rho E_path).
    """
    from .tensor import HilbertLayout, partial_expectation, partial_trace

    layout = tree.layout
    rem_ids = tuple(range(layout.nsub))
    m_cur = np.asarray(rho, dtype=complex)
    node = tree.root
    path: list[int] = []
    while True:
        pos = rem_ids.index(node.subsystem)
        rem_layout = HilbertLayout(tuple(layout.dims[i] for i in rem_ids))
        if len(rem_ids) == 1:
            reduced = m_cur
        else:
            reduced = partial_trace(m_cur, rem_layout,
                                    [i for i in range(len(rem_ids)) if i != pos])
        probs = np.real(np.einsum("ij,ji->i", node.basis.conj().T,
                                  reduced @ node.basis))
        if probs.min() < -1e-10:
            raise ValueError(f"negative conditional probability {probs.min():.3e}")
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if total <= 0:
            raise ValueError("conditional distribution has zero mass")
        x = int(rng.choice(len(probs), p=probs / total))
        path.append(x)
        if node.children is None:
            return tuple(path)
        m_cur = partial_expectation(m_cur, rem_layout, pos, node.basis[:, x])
        m_cur = m_cur / max(probs[x], LOG_FLOOR)
        rem_ids = rem_ids[:pos] + rem_ids[pos + 1:]
        node = node.children[x]


def _path_prob_fn(family: metrology.StateFamily,
                  vecs: np.ndarray) -> Callable[[float], np.ndarray]:
    """Outcome distribution theta -> probabilities over the rows of ``vecs``."""
    if family.state_type == "pure":
        def probs(theta: float) -> np.ndarray:
            return np.abs(vecs @ np.conj(family.psi(theta))) ** 2
    elif family.state_type == "rank-two":
        o0 = np.abs(vecs @ np.conj(family.psi0)) ** 2
        o1 = np.abs(vecs @ np.conj(family.psi1)) ** 2

        def probs(theta: float) -> np.ndarray:
            p = family.p(theta)
            return p * o0 + (1 - p) * o1
    else:
        def probs(theta: float) -> np.ndarray:
            rho = family.rho(theta)
            return np.real(np.einsum("xi,ij,xj->x", vecs.conj(), rho, vecs))
    return probs


class _OutcomeLaw:
    """One tree's outcome law for one family, tabulated on the prior grid.

    ``log_table[e, g]`` is log(max(P_e(grid[g]), LOG_FLOOR)), each column
    filled by the per-theta law, so every family check runs at every grid
    point. ``run_trials`` builds it once per tree and passes it where a tree
    is expected (``mle``'s ``tree``, ``two_step``'s ``config.tree``).
    """

    def __init__(self, family: metrology.StateFamily, tree: locc.MeasurementTree,
                 prior: tuple[float, float], grid_points: int = GRID_POINTS):
        paths, vecs = zip(*locc.leaf_vectors(tree))
        self.paths = list(paths)
        self.prob_fn = _path_prob_fn(family, np.stack(vecs))
        self.grid = np.linspace(prior[0], prior[1], grid_points)
        self.log_table = np.log(np.clip(
            np.stack([self.prob_fn(t) for t in self.grid], axis=1), LOG_FLOOR, None))

    def distribution(self, theta: float) -> np.ndarray:
        probs = np.clip(self.prob_fn(theta), 0.0, None)
        return probs / probs.sum()


def leaf_distribution(family: metrology.StateFamily, tree: locc.MeasurementTree,
                      theta: float) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Outcome paths and their probabilities at theta."""
    paths, vecs = zip(*locc.leaf_vectors(tree))
    probs = np.clip(_path_prob_fn(family, np.stack(vecs))(theta), 0.0, None)
    return list(paths), probs / probs.sum()


def mle(counts: dict[tuple[int, ...], int], family: metrology.StateFamily,
        tree: locc.MeasurementTree, prior: tuple[float, float],
        grid_points: int = GRID_POINTS) -> float:
    """Maximum-likelihood estimate from outcome counts on the prior interval.

    Scans a uniform grid, breaking exact ties toward the interval midpoint,
    then refines by golden-section search down to 1e-10 interval width.
    Raises DegenerateLikelihoodError if the likelihood is flat on the grid.
    """
    if not counts:
        raise ValueError("no counts")
    law = (tree if isinstance(tree, _OutcomeLaw)
           else _OutcomeLaw(family, tree, prior, grid_points))
    count_vec = np.array([counts.get(p, 0) for p in law.paths], dtype=float)
    if count_vec.sum() <= 0:
        raise ValueError("no counts")

    def loglik(theta: float) -> float:
        probs = np.clip(law.prob_fn(theta), LOG_FLOOR, None)
        return float(count_vec @ np.log(probs))

    lo, hi = prior
    grid = law.grid
    values = count_vec @ law.log_table
    spread = values.max() - values.min()
    if spread < 1e-9 * (abs(values.max()) + 1.0):
        raise DegenerateLikelihoodError("likelihood is flat on the prior interval")
    peak = values.max()
    ties = np.flatnonzero(values >= peak)
    mid = 0.5 * (lo + hi)
    best = int(ties[np.argmin(np.abs(grid[ties] - mid))])

    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid.size - 1)]
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = loglik(c), loglik(d)
    while b - a > 1e-10:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = loglik(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = loglik(d)
    return float(0.5 * (a + b))


def _draw_counts(law: _OutcomeLaw, theta: float, shots: int,
                 rng: np.random.Generator) -> dict[tuple[int, ...], int]:
    # Multinomial over the flattened outcome law; equal in distribution to
    # per-shot conditional sampling (sample_path) and far cheaper.
    draws = rng.multinomial(shots, law.distribution(theta))
    return {p: int(n) for p, n in zip(law.paths, draws) if n > 0}


def _synthesize_at(family: metrology.StateFamily, theta: float,
                   layout) -> locc.MeasurementTree:
    target = metrology.saturation_matrices(family, theta)
    if target.m_tilde is None:
        raise ValueError("family has no rank-one synthesis target")
    return locc.synthesize_tree(target.m_tilde, layout)


def _reference_law(config: SimConfig) -> _OutcomeLaw:
    """Law of the two-step reference tree: config.tree, else synthesized at the midpoint."""
    if isinstance(config.tree, _OutcomeLaw):
        return config.tree
    lo, hi = config.prior
    tree = config.tree or _synthesize_at(config.family, 0.5 * (lo + hi),
                                         config.family.layout)
    return _OutcomeLaw(config.family, tree, config.prior)


def two_step(config: SimConfig, rng: np.random.Generator | None = None) -> float:
    """Two-stage estimate: rough scan, re-synthesis, main measurement.

    Spends ceil(sqrt(N)) shots on a reference tree synthesized at the prior
    midpoint, re-synthesizes the measurement at the rough estimate (clamped
    inside the prior), and returns the MLE of the remaining shots.
    """
    if config.shots < 16:
        raise ValueError("two-step needs at least 16 shots")
    rng = rng or _trial_rng(config.seed, 0)
    family, prior = config.family, config.prior
    lo, hi = prior
    n_rough = int(np.ceil(np.sqrt(config.shots)))
    ref = _reference_law(config)
    counts = _draw_counts(ref, config.theta_true, n_rough, rng)
    rough = mle(counts, family, ref, prior)
    pad = 1e-9 * (hi - lo)
    rough = float(np.clip(rough, lo + pad, hi - pad))
    main = _OutcomeLaw(family, _synthesize_at(family, rough, family.layout), prior)
    counts = _draw_counts(main, config.theta_true, config.shots - n_rough, rng)
    return mle(counts, family, main, prior)


def run_trials(config: SimConfig) -> SimReport:
    """Independent estimation trials and the variance ratio r = N J Var.

    Per-trial substreams derive from (seed, trial index); trials raising a
    degenerate-likelihood flag are counted and excluded from the variance.
    The 95% interval on r comes from a percentile bootstrap over trials.
    """
    j = metrology.qfi(config.family, config.theta_true)
    family, prior = config.family, config.prior
    lo, hi = prior
    # One outcome law per tree and run: the fixed tree's, or the two-step
    # reference tree's, which every trial reaches through config.tree.
    if config.strategy == "fixed":
        law = _OutcomeLaw(family, config.tree or _synthesize_at(
            family, config.theta_true, family.layout), prior)
    else:
        trial_config = replace(config, tree=_reference_law(config))
    estimates = []
    degenerate = 0
    for trial in range(config.trials):
        rng = _trial_rng(config.seed, trial)
        try:
            if config.strategy == "fixed":
                counts = _draw_counts(law, config.theta_true, config.shots, rng)
                estimates.append(mle(counts, family, law, prior))
            else:
                estimates.append(two_step(trial_config, rng))
        except DegenerateLikelihoodError:
            degenerate += 1
    estimates = np.asarray(estimates)
    boundary = int(np.sum((np.abs(estimates - lo) < 1e-9 * (hi - lo))
                          | (np.abs(estimates - hi) < 1e-9 * (hi - lo))))
    if estimates.size >= 2:
        variance = float(np.var(estimates, ddof=1))
    else:
        variance = float("nan")
    ratio = config.shots * j * variance

    if estimates.size >= 2:
        # one draw of all resamples: the same stream as drawing them one by one
        idx = _trial_rng(config.seed, config.trials).integers(
            0, estimates.size, (1000, estimates.size))
        ratios = config.shots * j * np.var(estimates[idx], axis=1, ddof=1)
        ci = (float(np.percentile(ratios, 2.5)), float(np.percentile(ratios, 97.5)))
    else:
        ci = (float("nan"), float("nan"))

    return SimReport(theta_true=config.theta_true, shots=config.shots,
                     trials=config.trials, qfi=j, estimates=estimates,
                     variance=variance, ratio=float(ratio), ci95=ci,
                     seed=config.seed, degenerate_trials=degenerate,
                     boundary_hits=boundary)
