import numpy as np
import pytest
from scipy import stats

from loccfisher import locc
from loccfisher import (DegenerateLikelihoodError, MixedGenericFamily, Povm,
                        RankTwoFixedBasisFamily, SimConfig,
                        UnitaryGeneratorFamily, eval_state, fisher_info,
                        leaf_distribution, mle, run_trials,
                        saturation_matrices, synthesize_tree, two_step)
from loccfisher.locc import MeasurementTree, flatten, leaf_vectors
from loccfisher.scenarios import builtin_scenario
from loccfisher.simulate import _trial_rng
from loccfisher.tensor import HilbertLayout

from conftest import ghz_family
from oracles import sample_path


def synth(family, theta):
    return synthesize_tree(saturation_matrices(family, theta).target.dense(),
                           family.layout)


def phase_qubit():
    return UnitaryGeneratorFamily(HilbertLayout((2,)),
                                  np.array([1, 1], complex) / np.sqrt(2),
                                  np.diag([0.0, -1.0]).astype(complex))


def single_node_tree(basis):
    return MeasurementTree(HilbertLayout((2,)), (0,), [np.asarray(basis)[None]])


def product_tree(basis):
    """Two qubits, each measured in ``basis`` whatever the first outcome."""
    return MeasurementTree(HilbertLayout((2, 2)), (0, 1), [basis[None], np.stack([basis] * 2)])


class TestSamplePath:
    # the per-shot one-way LOCC oracle, and its agreement with the flattened law
    def test_deterministic_on_eigenstate(self):
        # computational basis on |00>: the path is always (0, 0)
        basis = np.eye(2, dtype=complex)
        tree = product_tree(basis)
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        rng = _trial_rng(1, 0)
        for _ in range(20):
            assert sample_path(tree, rho, rng) == (0, 0)

    def test_product_state_independent_marginals(self):
        plus = np.array([1, 1], complex) / np.sqrt(2)
        rho = np.outer(np.kron(plus, plus), np.kron(plus, plus).conj())
        basis = np.eye(2, dtype=complex)
        tree = product_tree(basis)
        rng = _trial_rng(2, 0)
        counts = np.zeros((2, 2))
        n = 4000
        for _ in range(n):
            x, y = sample_path(tree, rho, rng)
            counts[x, y] += 1
        # all four joint outcomes near 1/4
        assert np.abs(counts / n - 0.25).max() < 0.05

    def test_matches_flattened_distribution(self):
        # two-sample homogeneity test against multinomial draws from the
        # flattened outcome law, fixed seeds
        fam = ghz_family(2)
        th = 0.0
        tree = synth(fam, th)
        rho = fam.rho_drho(th)[0]
        paths, probs = leaf_distribution(fam, tree, th)
        index = {p: i for i, p in enumerate(paths)}
        n = 100_000
        rng = _trial_rng(3, 0)
        walk_counts = np.zeros(len(paths))
        for _ in range(n):
            walk_counts[index[sample_path(tree, rho, rng)]] += 1
        flat_counts = _trial_rng(3, 1).multinomial(n, probs)
        keep = (walk_counts + flat_counts) > 0
        _, p_value, _, _ = stats.chi2_contingency(
            np.stack([walk_counts[keep], flat_counts[keep]]))
        assert p_value > 0.001
        # and each matches the exact law
        _, p_gof = stats.chisquare(walk_counts[keep],
                                   n * probs[keep] / probs[keep].sum())
        assert p_gof > 0.01


class TestLeafDistribution:
    def test_mixed_family_outcome_law(self):
        # bellmix is a generic mixed family: its law is <e|rho|e> per leaf
        bellmix = builtin_scenario("bellmix").family
        ranktwo = builtin_scenario("ranktwo").family
        th = 0.3
        tree = synth(ranktwo, th)
        paths, probs = leaf_distribution(bellmix, tree, th)
        povm = flatten(tree)
        rho = bellmix.rho_drho(th)[0]
        want = np.array([np.vdot(e, rho @ e).real for e in povm.vectors])
        assert paths == povm.labels
        assert np.abs(probs - want / want.sum()).max() < 1e-12

    def test_mixed_family_law_evaluates_rho_once(self):
        bellmix = builtin_scenario("bellmix").family
        calls = []
        counted = MixedGenericFamily(
            bellmix.layout, lambda t: calls.append(t) or bellmix.evaluator(t))
        tree = synth(builtin_scenario("ranktwo").family, 0.3)
        _, probs = leaf_distribution(counted, tree, 0.3)
        assert calls == [0.3]
        assert np.array_equal(probs, leaf_distribution(bellmix, tree, 0.3)[1])


class TestMle:
    def test_binomial_fraction(self):
        # rank-two family measured by its discriminating tree: P(psi0) = theta
        lay = HilbertLayout((2, 2))
        psi0 = np.array([1, 0, 0, 1], complex) / np.sqrt(2)
        psi1 = np.array([1, 0, 0, -1], complex) / np.sqrt(2)
        fam = RankTwoFixedBasisFamily(lay, psi0, psi1, lambda t: t, lambda t: 1.0)
        tree = synth(fam, 0.5)
        counts = {}
        for path, vec in leaf_vectors(tree):
            if abs(np.vdot(vec, psi0)) > 1e-8:
                counts[path] = 7
            else:
                counts[path] = 3
        assert abs(mle(counts, fam, tree, (0.01, 0.99)) - 0.7) < 1e-8

    def test_phase_qubit_consistency(self):
        fam = ghz_family(1)
        th = 0.8
        tree = synth(fam, th)
        paths, probs = leaf_distribution(fam, tree, th)
        counts = dict(zip(paths, _trial_rng(11, 0).multinomial(100_000, probs)))
        est = mle(counts, fam, tree, (0.0, np.pi))
        assert abs(est - th) < 0.02

    def test_degenerate_flag(self):
        fam = phase_qubit()
        tree = single_node_tree(np.eye(2))
        with pytest.raises(DegenerateLikelihoodError):
            mle({(0,): 7, (1,): 3}, fam, tree, (0.0, 1.0))


class TestTwoStep:
    def test_minimal_split_runs(self):
        fam = ghz_family(2)
        cfg = SimConfig(family=fam, theta_true=0.5, shots=16, trials=1,
                        seed=5, prior=(0.0, 1.0), strategy="two-step")
        est = two_step(cfg)
        assert 0.0 <= est <= 1.0

    def test_boundary_theta_clamped(self):
        fam = ghz_family(2)
        cfg = SimConfig(family=fam, theta_true=0.0, shots=400, trials=1,
                        seed=6, prior=(0.0, 1.0), strategy="two-step")
        est = two_step(cfg)
        assert 0.0 <= est <= 1.0


class TestRunTrials:
    def test_reproducible_bit_for_bit(self):
        fam = ghz_family(2)
        cfg = dict(family=fam, theta_true=0.4, shots=2000, trials=25,
                   seed=17, prior=(0.0, 1.0))
        a = run_trials(SimConfig(**cfg))
        b = run_trials(SimConfig(**cfg))
        assert np.array_equal(a.estimates, b.estimates)
        assert a.ratio == b.ratio and a.ci95 == b.ci95

    def test_ratio_stable_when_doubling_shots(self):
        fam = ghz_family(2)
        ratios = []
        for shots in (10_000, 40_000):
            rep = run_trials(SimConfig(family=fam, theta_true=0.5, shots=shots,
                                       trials=80, seed=9, prior=(0.0, 1.0)))
            ratios.append(rep.ratio)
        assert all(0.8 < r < 1.2 for r in ratios)

    def test_degenerate_measurement_flagged(self):
        fam = phase_qubit()
        cfg = SimConfig(family=fam, theta_true=0.4, shots=500, trials=10,
                        seed=3, prior=(0.0, 1.0), tree=single_node_tree(np.eye(2)))
        rep = run_trials(cfg)
        assert rep.degenerate_trials == 10
        assert np.isnan(rep.variance)

    def test_informative_but_not_saturating_measurement(self):
        # rotated basis: 0 < F < J; the MLE still meets the classical bound,
        # so shots * F * Var is near 1 while shots * J * Var is above 1
        fam = phase_qubit()
        phi = np.pi / 8
        basis = np.array([[np.cos(phi), -np.sin(phi)],
                          [np.sin(phi), np.cos(phi)]], dtype=complex)
        tree = single_node_tree(basis)
        th = 1.1
        rho, drho = eval_state(fam, th)
        povm = Povm(vectors=basis.T)
        f = fisher_info(povm, rho, drho)
        assert 0.01 < f < 0.999
        rep = run_trials(SimConfig(family=fam, theta_true=th, shots=40_000,
                                   trials=400, seed=12, prior=(0.2, 2.0), tree=tree))
        classical_ratio = rep.ratio * f / rep.qfi
        assert 0.9 < classical_ratio < 1.1
        assert rep.ratio > 1.5

    def test_fixed_tree_law_tabulated_once(self, monkeypatch):
        # one 512-point table for the run, then a draw and a golden-section
        # search per trial; re-scoring the grid per trial costs 20 * 512 more
        fam = ghz_family(2)
        calls = []
        psi = fam.psi
        monkeypatch.setattr(fam, "psi", lambda t: calls.append(t) or psi(t))
        run_trials(SimConfig(family=fam, theta_true=0.4, shots=2000, trials=20,
                             seed=4, prior=(0.0, 1.0)))
        assert len(calls) < 512 + 20 * 200

    def test_two_step_synthesizes_reference_once(self, monkeypatch):
        trials = 4
        calls = []
        synthesize = locc.synthesize_tree
        monkeypatch.setattr(locc, "synthesize_tree",
                            lambda *a: calls.append(a) or synthesize(*a))
        run_trials(SimConfig(family=ghz_family(2), theta_true=0.4, shots=400,
                             trials=trials, seed=8, prior=(0.0, 1.0),
                             strategy="two-step"))
        assert len(calls) == trials + 1

    def test_ci95_is_percentile_bootstrap(self):
        seed, trials, shots = 21, 30, 1000
        rep = run_trials(SimConfig(family=ghz_family(2), theta_true=0.4, shots=shots,
                                   trials=trials, seed=seed, prior=(0.0, 1.0)))
        est = rep.estimates
        boot = _trial_rng(seed, trials)
        ratios = []
        for _ in range(1000):
            idx = boot.integers(0, est.size, est.size)
            ratios.append(shots * rep.qfi * float(np.var(est[idx], ddof=1)))
        assert rep.ci95 == (float(np.percentile(ratios, 2.5)),
                            float(np.percentile(ratios, 97.5)))

    def test_report_json_fields(self):
        fam = ghz_family(2)
        rep = run_trials(SimConfig(family=fam, theta_true=0.4, shots=1000,
                                   trials=10, seed=2, prior=(0.0, 1.0)))
        doc = rep.to_json()
        for key in ("theta_true", "N", "trials", "J", "variance", "ratio",
                    "ci95", "seed"):
            assert key in doc
