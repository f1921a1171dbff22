import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from loccfisher import locc, metrology
from loccfisher.cli import cli_main
from loccfisher import (DegenerateLikelihoodError, MixedGenericFamily, Povm,
                        FixedBasisFamily, PureNumericFamily, SimConfig,
                        UnitaryGeneratorFamily, fisher_info,
                        leaf_distribution, mle, run_trials,
                        saturation_matrices, synthesize_at, synthesize_tree, two_step)
from loccfisher.locc import MeasurementTree, flatten, leaf_vectors
from loccfisher.scenarios import builtin_scenario
from loccfisher import simulate
from loccfisher.simulate import _mle, _OutcomeLaw, _path_prob_fns, _score_root, _trial_rng
from loccfisher.tensor import PRIOR_EDGE_REL, HilbertLayout, KetBraSum

from conftest import generic_bell_mixture, ghz_family, random_pure_family
from oracles import golden_mle, prob_at, sample_paths


def synth(family, theta):
    target = saturation_matrices(family, theta).target.dense()
    return synthesize_tree(KetBraSum.from_dense(target), family.layout)


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
        assert not sample_paths(tree, rho, 20, _trial_rng(1, 0)).any()

    def test_product_state_independent_marginals(self):
        plus = np.array([1, 1], complex) / np.sqrt(2)
        rho = np.outer(np.kron(plus, plus), np.kron(plus, plus).conj())
        basis = np.eye(2, dtype=complex)
        tree = product_tree(basis)
        counts = np.zeros((2, 2))
        n = 4000
        np.add.at(counts, tuple(sample_paths(tree, rho, n, _trial_rng(2, 0)).T), 1)
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
        walk_counts = np.zeros(len(paths))
        for path in sample_paths(tree, rho, n, _trial_rng(3, 0)):
            walk_counts[index[tuple(path)]] += 1
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
    @pytest.mark.parametrize("name", ["generic", "bellmix"])
    def test_mixed_family_outcome_law(self, name):
        # a generic mixed family's law is <e|rho|e> per leaf, and so is bellmix's, which
        # mixes the laws of its three Bell rows
        family = generic_bell_mixture() if name == "generic" else builtin_scenario(name).family
        ranktwo = builtin_scenario("ranktwo").family
        th = 0.3
        tree = synth(ranktwo, th)
        paths, probs = leaf_distribution(family, tree, th)
        povm = flatten(tree)
        rho = family.rho_drho(th)[0]
        want = np.array([np.vdot(e, rho @ e).real for e in povm.vectors])
        assert paths == [path for path, _ in leaf_vectors(tree)]
        assert np.abs(probs - want / want.sum()).max() < 1e-12

    def test_mixed_family_law_evaluates_rho_once(self):
        generic = generic_bell_mixture()
        calls = []
        counted = MixedGenericFamily(
            generic.layout, lambda t: calls.append(t) or generic.evaluator(t), generic.derivative)
        tree = synth(builtin_scenario("ranktwo").family, 0.3)
        _, probs = leaf_distribution(counted, tree, 0.3)
        assert calls == [0.3]
        assert np.array_equal(probs, leaf_distribution(generic, tree, 0.3)[1])


class TestLawReadsAmplitudes:
    @pytest.mark.parametrize("strategy", ["fixed", "two-step"])
    @pytest.mark.parametrize("name", ["ghz3", "ranktwo"])
    def test_run_trials(self, no_leaf_vectors, strategy, name):
        fam = builtin_scenario(name).family
        rep = run_trials(SimConfig(family=fam, theta_true=0.4, shots=400, trials=3,
                                   seed=1, prior=(0.2, 0.7), strategy=strategy))
        assert rep.estimates.size == 3

    @pytest.mark.parametrize("name", ["ghz3", "ranktwo", "bellmix"])
    def test_mle_and_leaf_distribution(self, no_leaf_vectors, name):
        fam = builtin_scenario(name).family
        tree = synth(builtin_scenario("ranktwo" if name == "bellmix" else name).family, 0.4)
        paths, probs = leaf_distribution(fam, tree, 0.4)
        counts = dict(zip(paths, _trial_rng(1, 0).multinomial(10_000, probs)))
        assert 0.2 <= mle(counts, fam, tree, (0.2, 0.7)) <= 0.7


class TestMle:
    def test_binomial_fraction(self):
        # rank-two family measured by its discriminating tree: P(psi0) = theta
        lay = HilbertLayout((2, 2))
        psi0 = np.array([1, 0, 0, 1], complex) / np.sqrt(2)
        psi1 = np.array([1, 0, 0, -1], complex) / np.sqrt(2)
        fam = FixedBasisFamily(lay, [psi0, psi1], lambda t: t, lambda t: 1.0)
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

    @pytest.mark.parametrize("path", [(7, 7), (0,), (0, 0, 0), (0, -1)])
    def test_path_off_the_tree_rejected(self, path):
        # counts on a path the tree does not have are named, not dropped
        fam = ghz_family(2)
        tree = synth(fam, 0.4)
        paths, probs = leaf_distribution(fam, tree, 0.4)
        counts = dict(zip(paths, _trial_rng(2, 0).multinomial(1000, probs)))
        counts[path] = 5
        with pytest.raises(ValueError, match=re.escape(f"outcome path {path}")):
            mle(counts, fam, tree, (0.0, 1.0))

    def test_no_counts_rejected(self):
        fam = ghz_family(2)
        with pytest.raises(ValueError, match="no counts"):
            mle({}, fam, synth(fam, 0.4), (0.0, 1.0))

    def test_matches_run_trials_on_the_same_draw(self):
        # public mle on the dict of one fixed-strategy draw is trial 0's estimate
        fam, prior = ghz_family(3), (0.1, 0.8)
        tree = synth(fam, 0.4)
        cfg = SimConfig(family=fam, theta_true=0.4, shots=3000, trials=1, seed=13,
                        prior=prior, tree=tree)
        draw = _OutcomeLaw(fam, tree, prior).draw(0.4, 3000, _trial_rng(13, 0))
        paths = leaf_distribution(fam, tree, 0.4)[0]
        counts = {p: int(n) for p, n in zip(paths, draw) if n > 0}
        assert mle(counts, fam, tree, prior) == run_trials(cfg).estimates[0]


def route_case(route, monkeypatch):
    """(family, tree) whose outcome law takes one route of ``_path_prob_fns``."""
    ghz3, ranktwo = builtin_scenario("ghz3").family, builtin_scenario("ranktwo").family
    if route == "components":
        return ghz3, synth(ghz3, 0.4)
    if route == "psi":
        # eight levels on three qubits: above the component cap once SMALL_LAW is 0
        monkeypatch.setattr(simulate, "SMALL_LAW", 0)
        fam = random_pure_family((2, 2, 2), np.random.default_rng(3))
        assert fam.components(6) is None
        return fam, synth(fam, 0.4)
    if route == "psi-numeric":
        fam = PureNumericFamily(ghz3.layout, ghz3.psi, lambda t: ghz3.psi_dpsi(t)[1])
        return fam, synth(ghz3, 0.4)
    if route == "rank-two":
        return ranktwo, synth(ranktwo, 0.4)
    if route == "rank-three":
        return builtin_scenario("bellmix").family, synth(ranktwo, 0.4)
    return generic_bell_mixture(), synth(ranktwo, 0.4)


ROUTES = ["components", "psi", "psi-numeric", "rank-two", "rank-three", "mixed"]


class TestScoreSteps:
    @pytest.mark.parametrize("route", ROUTES)
    def test_prob_dprob_matches_the_law(self, route, monkeypatch):
        # P from the (P, dP) step is the per-theta law: the same products for
        # fixed-basis and generic mixed families, one more contracted row for psi(theta)
        # of a unitary or numeric pure family and elementwise sums over the levels for
        # the components; dP is its slope
        family, tree = route_case(route, monkeypatch)
        block, prob_dprob = _path_prob_fns(family, [tree])
        h = 1e-5
        for theta in (0.25, 0.4, 0.55):
            p, dp = (x[0] for x in prob_dprob(np.array([theta]), np.zeros(1, dtype=int)))
            if route in ("rank-two", "rank-three", "mixed"):
                assert np.array_equal(p, prob_at(block, theta))
            else:
                assert np.abs(p - prob_at(block, theta)).max() <= 1e-14
            central = (prob_at(block, theta + h) - prob_at(block, theta - h)) / (2 * h)
            assert np.abs(dp - central).max() <= 1e-6 * np.abs(dp).max()

    def test_peak_at_a_prior_end_returns_that_end(self):
        # theta_true = lo: about half the draws peak at lo, where the score is
        # negative on the whole bracket; those estimates are lo itself and count
        # as boundary hits, the trials golden section ends within MLE_WIDTH of lo
        fam, prior, shots, seed = builtin_scenario("ranktwo").family, (0.2, 0.8), 10_000, 3
        rep = run_trials(SimConfig(family=fam, theta_true=0.2, shots=shots, trials=20,
                                   seed=seed, prior=prior))
        law = _OutcomeLaw(fam, synthesize_at(fam, 0.2), prior)
        golden = np.array([golden_mle(law, law.draw(0.2, shots, _trial_rng(seed, t)), prior)
                           for t in range(20)])
        hits = int(np.sum(rep.estimates == 0.2))
        assert hits > 0 and rep.boundary_hits == hits
        assert hits == int(np.sum(np.abs(golden - 0.2) < PRIOR_EDGE_REL * 0.6))
        assert np.abs(rep.estimates - golden).max() <= 1e-7

    def test_golden_oracle_ends_far_from_zero(self):
        # doubles near theta = 1e7 are farther apart than MLE_WIDTH; run as a child
        # process so that a golden section that does not end fails on the timeout
        script = textwrap.dedent("""
            from loccfisher import synthesize_at
            from loccfisher.scenarios import builtin_scenario
            from loccfisher.simulate import _OutcomeLaw, _mle, _trial_rng
            from oracles import golden_mle
            fam, theta, prior = builtin_scenario("ghz2").family, 1e7 + 0.3, (1e7, 1e7 + 0.6)
            law = _OutcomeLaw(fam, synthesize_at(fam, theta), prior)
            for t in range(3):
                counts = law.draw(theta, 1000, _trial_rng(0, t))
                print(golden_mle(law, counts, prior) - _mle(law, counts, prior))
        """)
        paths = [str(Path(simulate.__file__).parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=30)
        assert run.returncode == 0, run.stderr
        diffs = [float(x) for x in run.stdout.split()]
        assert len(diffs) == 3 and max(map(abs, diffs)) <= 1e-7

    def test_numeric_family_evaluated_inside_the_prior(self):
        # a mixing weight near 0 with prior [0, 1]: rho(theta < 0) is no state, and
        # most draws peak at 0, where the score is read at the prior end itself
        phi_p, phi_m = (np.outer(v, v.conj()) for v in
                        (np.array([1, 0, 0, s], complex) / np.sqrt(2) for s in (1, -1)))
        seen = []
        fam = MixedGenericFamily(HilbertLayout((2, 2)),
                                 lambda t: seen.append(t) or t * phi_p + (1 - t) * phi_m,
                                 lambda t: phi_p - phi_m)
        tree = synth(builtin_scenario("ranktwo").family, 0.3)
        cfg = SimConfig(family=fam, theta_true=0.003, shots=100, trials=20, seed=1,
                        prior=(0.0, 1.0), tree=tree)
        rep = run_trials(cfg)
        assert 0.0 <= min(seen) and max(seen) <= 1.0
        law = _OutcomeLaw(fam, tree, cfg.prior)
        golden = np.array([golden_mle(law, law.draw(0.003, 100, _trial_rng(1, t)), cfg.prior)
                           for t in range(20)])
        assert rep.boundary_hits == int(np.sum(golden < PRIOR_EDGE_REL)) > 0
        assert np.abs(rep.estimates - golden).max() <= 1e-7

    def test_two_step_numeric_family_evaluated_inside_the_prior(self, monkeypatch):
        # with few rough shots many rough estimates sit at the lower prior end; each is
        # clamped PRIOR_EDGE_REL (hi - lo) inside the prior, where the frame evaluates psi.
        # dpsi diverges at theta = 0 and 1, so no score is read on a prior end
        phi_p, phi_m = (np.array([1, 0, 0, s], complex) / np.sqrt(2) for s in (1, -1))
        seen, frames = [], []
        fam = PureNumericFamily(HilbertLayout((2, 2)), lambda t: seen.append(t)
                                or np.sqrt(t) * phi_p + np.sqrt(1 - t) * phi_m,
                                lambda t: phi_p / (2 * np.sqrt(t)) - phi_m / (2 * np.sqrt(1 - t)))
        frame = metrology.saturation_matrices
        monkeypatch.setattr(metrology, "saturation_matrices",
                            lambda f, t: frames.append(t) or frame(f, t))
        cfg = SimConfig(family=fam, theta_true=0.05, shots=100, trials=20, seed=0,
                        prior=(0.0, 1.0), strategy="two-step")
        rep = run_trials(cfg)
        assert 0.0 <= min(seen) and max(seen) <= 1.0
        assert min(frames) == PRIOR_EDGE_REL
        assert rep.estimates.size + rep.degenerate_trials == 20

    def test_flat_likelihood_raises_before_any_score_step(self):
        law = _OutcomeLaw(phase_qubit(), single_node_tree(np.eye(2)), (0.0, 1.0))
        calls = []
        law.prob_dprob = lambda theta: calls.append(theta)
        with pytest.raises(DegenerateLikelihoodError):
            _mle(law, np.array([7.0, 3.0]), (0.0, 1.0))
        assert calls == []

    def test_score_root_ends_where_doubles_are_coarser_than_the_width(self):
        # doubles near 1e7 are 1.9e-9 apart, wider than MLE_WIDTH: a bisection step
        # there rounds back onto b, and only the tolerance floor 2 eps |b| ends the search
        b0 = 1e7 + 0.3
        calls = []

        def score(x):
            calls.append(x)
            if len(calls) > 1000:
                raise RuntimeError("the score root does not end")
            return (b0 - x) + 0.37 * np.spacing(b0)

        lo, hi = b0 - 0.5, b0 + 0.5
        steps = _score_root(lo, hi, score(lo), score(hi))
        try:
            x = next(steps)
            while True:
                x = steps.send(score(x))
        except StopIteration as stop:
            root = stop.value
        assert abs(root - b0) <= 2 * np.spacing(b0)

    def test_score_steps_per_mle(self):
        # golden section takes 38 law evaluations per estimate from the two-cell
        # bracket; the score root takes two bracket ends and a few steps
        steps = []
        for name in ("ghz3", "ghz4", "chain4", "ranktwo"):
            fam = builtin_scenario(name).family
            law = _OutcomeLaw(fam, synth(fam, 0.4), (0.2, 0.7))
            prob_dprob = law.prob_dprob
            calls = []
            law.prob_dprob = lambda thetas, rows: calls.extend(thetas) or prob_dprob(thetas, rows)
            for shots in (10 ** 2, 10 ** 5):
                for trial in range(25):
                    calls.clear()
                    _mle(law, law.draw(0.4, shots, _trial_rng(shots, trial)), (0.2, 0.7))
                    steps.append(len(calls))
        assert np.mean(steps) <= 8 and max(steps) <= 38


class TestLayoutMismatch:
    # a tree of another layout with the same D is rejected wherever a law is built
    MISMATCH = r"tree layout \[3, 2\] does not match family layout \[2, 3\]"

    @pytest.fixture
    def family_and_tree(self):
        fam = random_pure_family((2, 3), np.random.default_rng(5))
        tree = synthesize_tree(saturation_matrices(fam, 0.3).target, HilbertLayout((3, 2)))
        return fam, tree

    def test_leaf_distribution(self, family_and_tree):
        with pytest.raises(ValueError, match=self.MISMATCH):
            leaf_distribution(*family_and_tree, 0.3)

    def test_mle(self, family_and_tree):
        with pytest.raises(ValueError, match=self.MISMATCH):
            mle({(0, 0): 3, (2, 1): 4}, *family_and_tree, (0.0, 1.0))

    @pytest.mark.parametrize("strategy", ["fixed", "two-step"])
    def test_run_trials(self, family_and_tree, strategy):
        fam, tree = family_and_tree
        cfg = SimConfig(family=fam, theta_true=0.3, shots=400, trials=3, seed=1,
                        prior=(0.0, 1.0), strategy=strategy, tree=tree)
        with pytest.raises(ValueError, match=self.MISMATCH):
            run_trials(cfg)

    def test_verify_tree(self, family_and_tree):
        fam, tree = family_and_tree
        with pytest.raises(ValueError, match=self.MISMATCH):
            locc.verify_tree(tree, fam, 0.3)


class TestSimConfig:
    @pytest.mark.parametrize("prior", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
    def test_non_finite_prior_rejected(self, prior):
        with pytest.raises(ValueError, match=re.escape(f"prior {list(prior)} is not finite")):
            SimConfig(family=ghz_family(2), theta_true=0.5, shots=100, trials=2,
                      seed=0, prior=prior)

    @pytest.mark.parametrize("field, value, error", [
        ("prior", (1.0, 0.0), "prior interval is empty"),
        ("strategy", "adaptive", "unknown strategy 'adaptive'")])
    def test_refusals_named(self, field, value, error):
        cfg = dict(family=ghz_family(2), theta_true=0.5, shots=100, trials=2, seed=0,
                   prior=(0.0, 1.0))
        with pytest.raises(ValueError, match=re.escape(error)):
            SimConfig(**{**cfg, field: value})


class TestTwoStep:
    def test_minimal_split_runs(self):
        fam = ghz_family(2)
        cfg = SimConfig(family=fam, theta_true=0.5, shots=16, trials=1,
                        seed=5, prior=(0.0, 1.0), strategy="two-step")
        est = two_step(cfg)
        assert 0.0 <= est <= 1.0

    def test_is_trial_zero_of_run_trials(self):
        # both draw from the substream of trial 0 and share the reference tree
        cfg = SimConfig(family=ghz_family(2), theta_true=0.4, shots=900, trials=1,
                        seed=7, prior=(0.0, 1.0), strategy="two-step")
        assert two_step(cfg) == run_trials(cfg).estimates[0]

    def test_boundary_theta_clamped(self):
        fam = ghz_family(2)
        cfg = SimConfig(family=fam, theta_true=0.0, shots=400, trials=1,
                        seed=6, prior=(0.0, 1.0), strategy="two-step")
        est = two_step(cfg)
        assert 0.0 <= est <= 1.0


def flat_rough_family_and_reference():
    """A (2, 2) family and a reference tree whose rough likelihood is often flat.

    psi = 0.4 |00> + 0.4 e^{-i theta} |01> + sqrt(0.68) |10>; the reference tree
    measures qubit 1 in the Hadamard basis after outcome 0 (a law that moves
    with theta) and in the computational basis after outcome 1 (P(10) = 0.68
    at every theta). Four rough shots all land in 10 with probability 0.21.
    """
    layout = HilbertLayout((2, 2))
    psi_in = np.array([0.4, 0.4, np.sqrt(0.68), 0.0], dtype=complex)
    family = UnitaryGeneratorFamily(layout, psi_in, np.array([0.0, 1.0, 0.0, 0.0]))
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    ref = MeasurementTree(layout, (0, 1), [np.eye(2)[None], np.stack([hadamard, np.eye(2)])])
    return family, ref


class TestTwoStepBlocks:
    """Two-step trials go in blocks, one stacked synthesis per block."""

    @pytest.mark.parametrize("name", ["ghz3", "ranktwo"])
    def test_report_bytes_do_not_depend_on_the_block_bound(self, name, capsys, monkeypatch):
        argv = ["simulate", name, "--two-step", "--theta", "0.4", "--shots", "2500",
                "--trials", "6", "--seed", "3"]
        assert cli_main(argv) == 0
        default = capsys.readouterr().out
        sizes = []
        synthesize = locc.synthesize_trees
        monkeypatch.setattr(locc, "synthesize_trees",
                            lambda targets, *a: sizes.append(len(targets))
                            or synthesize(targets, *a))
        # SMALL_LAW = D: blocks of one trial, as many as there are trials
        monkeypatch.setattr(simulate, "SMALL_LAW", builtin_scenario(name).family.layout.total)
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == default
        assert sizes == [1] * 7

    @pytest.mark.parametrize("small_law", [simulate.SMALL_LAW, 8])
    def test_flat_rough_likelihood_counted_and_survivors_keep_their_substreams(
            self, small_law, monkeypatch):
        # D = 4: one block of twelve by default, blocks of two at 8
        monkeypatch.setattr(simulate, "SMALL_LAW", small_law)
        family, ref = flat_rough_family_and_reference()
        cfg = SimConfig(family=family, theta_true=0.6, shots=16, trials=12, seed=1,
                        prior=(0.1, 1.4), strategy="two-step", tree=ref)
        rep = run_trials(cfg)
        ref_law = _OutcomeLaw(family, ref, cfg.prior)
        survivors, flat = [], 0
        for trial in range(cfg.trials):
            try:
                survivors.append(two_step(cfg, _trial_rng(cfg.seed, trial)))
            except DegenerateLikelihoodError:
                flat += 1
                # the rough stage's four shots found no theta dependence
                with pytest.raises(DegenerateLikelihoodError):
                    _mle(ref_law, ref_law.draw(0.6, 4, _trial_rng(cfg.seed, trial)), cfg.prior)
        assert flat == rep.degenerate_trials == 5
        assert rep.estimates.tolist() == survivors

    @pytest.mark.parametrize("patch, code, kind, error", [
        ("leaf", 2, "non-convergence", "leaf condition violated"),
        ("target", 1, "validation", "family has no rank-one synthesis target"),
    ])
    def test_failing_trial_synthesis_keeps_its_exit_code(self, patch, code, kind, error,
                                                         capsys, monkeypatch):
        # the reference tree is synthesized as usual; only the trials' stacked synthesis fails
        reference_law = simulate._reference_law
        frame_at = metrology.saturation_matrices

        def reference_then_fail(config):
            law = reference_law(config)
            if patch == "leaf":
                monkeypatch.setattr(locc, "LEAF_TOL", -1.0)
            else:
                monkeypatch.setattr(metrology, "saturation_matrices",
                                    lambda *a: dataclasses.replace(frame_at(*a), target=None))
            return law
        monkeypatch.setattr(simulate, "_reference_law", reference_then_fail)
        argv = ["simulate", "ghz3", "--two-step", "--shots", "400", "--trials", "3"]
        assert cli_main(argv) == code
        captured = capsys.readouterr()
        doc = json.loads(captured.err)
        assert doc["kind"] == kind and doc["error"].startswith(error)
        assert captured.out == ""


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
        rho, drho = fam.rho_drho(th)
        povm = Povm(vectors=basis.T)
        f = fisher_info(povm, KetBraSum.from_dense(rho), KetBraSum.from_dense(drho))
        assert 0.01 < f < 0.999
        rep = run_trials(SimConfig(family=fam, theta_true=th, shots=40_000,
                                   trials=400, seed=12, prior=(0.2, 2.0), tree=tree))
        classical_ratio = rep.ratio * f / rep.qfi
        assert 0.9 < classical_ratio < 1.1
        assert rep.ratio > 1.5

    def test_fixed_tree_law_tabulated_once(self, monkeypatch):
        # one 512-point table for the run, then per trial a draw and a few
        # score steps (one psi each, beside the derivative);
        # re-scoring the grid per trial costs 20 * 512 more
        ghz2 = ghz_family(2)
        fam = PureNumericFamily(ghz2.layout, ghz2.psi, lambda t: ghz2.psi_dpsi(t)[1])
        calls = []
        psi = fam.psi
        monkeypatch.setattr(fam, "psi", lambda t: calls.append(t) or psi(t))
        run_trials(SimConfig(family=fam, theta_true=0.4, shots=2000, trials=20,
                             seed=4, prior=(0.0, 1.0), tree=synth(ghz2, 0.4)))
        assert len(calls) < 512 + 20 * 200

    def test_law_table_built_in_bounded_blocks(self):
        # ghz12 has L = 4096 leaves: a law built from one L x 512 complex product
        # would hold twice the table at once
        fam = builtin_scenario("ghz12").family
        tree = synthesize_at(fam, 0.3)
        tracemalloc.start()
        try:
            law = _OutcomeLaw(fam, tree, (0.1, 0.9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert law.log_table.shape == (4096, 512)
        assert peak <= 1.25 * 4096 * 512 * 8

    def test_two_step_synthesizes_reference_once(self, monkeypatch):
        # the reference tree alone, then the trials' trees in one stacked call per
        # block of max(1, SMALL_LAW // D) trials: ghz2 has D = 4, so the default
        # bound takes all trials at once and 12 takes blocks of three
        trials = 7
        sizes = []
        synthesize = locc.synthesize_trees
        monkeypatch.setattr(locc, "synthesize_trees",
                            lambda targets, *a: sizes.append(len(targets))
                            or synthesize(targets, *a))
        for small_law, blocks in ((simulate.SMALL_LAW, [7]), (12, [3, 3, 1])):
            sizes.clear()
            monkeypatch.setattr(simulate, "SMALL_LAW", small_law)
            rep = run_trials(SimConfig(family=ghz_family(2), theta_true=0.4, shots=400,
                                       trials=trials, seed=8, prior=(0.0, 1.0),
                                       strategy="two-step"))
            assert rep.degenerate_trials == 0
            assert sizes == [1] + blocks

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
