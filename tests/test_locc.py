import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccfisher import (RankTwoFixedBasisFamily, discriminate, flatten,
                        leaf_vectors, qfi, saturation_matrices, synthesize_at,
                        synthesize_tree, synthesize_trees, tree_from_json, tree_to_json,
                        verify_tree)
from loccfisher import locc, zerodiag
from loccfisher.cli import cli_main
from loccfisher.locc import (NODE_TRACE_TOL, MeasurementTree, SynthesisError, _node_bases,
                             bloch_rows)
from loccfisher.scenarios import bell_states, builtin_scenario
from loccfisher.tensor import HilbertLayout, KetBraSum, check_trace, check_traceless, kron
from loccfisher.zerodiag import zero_diag_basis
from scipy.stats import unitary_group

from conftest import ghz_family, random_pure_family
from oracles import leaf_vectors_kron
from test_zerodiag import qubit_node, qudit_node


def synth(family, theta, order=None):
    target = saturation_matrices(family, theta).target.dense()
    return synthesize_tree(KetBraSum.from_dense(target), family.layout, order)


class TestSynthesizeTree:
    def test_ghz2_saturates(self):
        fam = ghz_family(2)
        rep = verify_tree(synth(fam, 0.3), fam, 0.3)
        assert rep.saturating
        assert abs(rep.fi - 4.0) < 1e-6 and abs(rep.qfi - 4.0) < 1e-6

    def test_leaf_condition_and_flat_probability(self, rng):
        fam = random_pure_family((2, 2, 2), rng)
        th = 0.45
        target = saturation_matrices(fam, th).target.dense()
        tree = synthesize_tree(KetBraSum.from_dense(target), fam.layout)
        psi = fam.psi(th)
        scale = np.linalg.norm(target)
        for _, vec in leaf_vectors(tree):
            assert abs(np.vdot(vec, target @ vec)) < 1e-7 * scale
            assert abs(abs(np.vdot(vec, psi)) ** 2 - 1 / 8) < 1e-7

    def test_bell_cross_target_gives_product_basis(self):
        bells = bell_states()
        target = np.outer(bells["phi+"], bells["phi-"].conj())
        tree = synthesize_tree(KetBraSum.from_dense(target), HilbertLayout((2, 2)))
        for _, vec in leaf_vectors(tree):
            o = np.vdot(vec, bells["phi+"]) * np.vdot(bells["phi-"], vec)
            assert abs(o) < 1e-10
            # leaves are products of +/- type equatorial vectors
            v = vec.reshape(2, 2)
            assert abs(abs(v[0, 0]) - 0.5) < 1e-9

    def test_rejects_non_traceless(self):
        with pytest.raises(ValueError):
            synthesize_tree(KetBraSum.from_dense(np.eye(4)), HilbertLayout((2, 2)))

    def test_rejects_bad_order(self):
        fam = ghz_family(2)
        target = saturation_matrices(fam, 0.3).target.dense()
        with pytest.raises(ValueError):
            synthesize_tree(KetBraSum.from_dense(target), fam.layout, order=[0, 0])


    def test_stack_of_none_is_no_tree(self):
        assert synthesize_trees([], HilbertLayout((2, 2))) == []

    def test_stack_refuses_targets_of_other_row_counts(self):
        # a pure target has two ket-bra rows, a fixed-basis rank-two target one
        targets = [saturation_matrices(builtin_scenario(name).family, 0.3).target
                   for name in ("ghz2", "ranktwo")]
        with pytest.raises(ValueError, match="target of 1 rows of dimension 4 does not stack"):
            synthesize_trees(targets, HilbertLayout((2, 2)))

    def test_stack_keeps_each_targets_shift(self):
        # targets of one family share their shift -1/D; a scaled copy has its own
        fam = ghz_family(2)
        big = saturation_matrices(fam, 0.3).target
        small = KetBraSum(1e-3 * big.kets, big.bras, 1e-3 * big.shift)
        for tree, target in zip(synthesize_trees([big, small], fam.layout), (big, small)):
            TestSynthesizeAt.assert_same_tree(tree, synthesize_tree(target, fam.layout))


class TestSynthesizeAt:
    @staticmethod
    def assert_same_tree(got, want):
        assert got.layout == want.layout and got.order == want.order
        for a, b in zip(got.bases, want.bases, strict=True):
            assert np.array_equal(a.view(float), b.view(float))
            assert np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float)))

    @pytest.mark.parametrize("name", ["ghz3", "chain4", "ranktwo", "lm3x3"])
    def test_builtin_matches_the_explicit_recipe_bit_for_bit(self, name):
        fam = builtin_scenario(name).family
        self.assert_same_tree(synthesize_at(fam, 0.3), synthesize_tree(
            saturation_matrices(fam, 0.3).target, fam.layout))

    def test_random_family_in_another_order(self, rng):
        fam = random_pure_family((2, 3), rng)
        tree = synthesize_at(fam, 0.4, (1, 0))
        assert tree.order == (1, 0)
        self.assert_same_tree(tree, synthesize_tree(
            saturation_matrices(fam, 0.4).target, fam.layout, (1, 0)))

    def test_refuses_a_family_without_a_rank_one_target(self):
        with pytest.raises(ValueError, match="no rank-one synthesis target"):
            synthesize_at(builtin_scenario("bellmix").family, 0.5)


def assert_level_matches_each_node(nodes):
    """``_node_bases`` of the stack equals ``zero_diag_basis`` of each node alone, sign bits too."""
    scale = max(np.linalg.norm(m) for m in nodes)
    got = _node_bases(np.stack(nodes), 3, scale).view(float)
    want = np.stack([zero_diag_basis(check_traceless(
        m, "conditioned matrix at depth 3", NODE_TRACE_TOL, scale, SynthesisError))
        for m in nodes]).view(float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestNodeBases:
    @given(st.lists(qubit_node(), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_qubit_level_matches_each_node_bit_for_bit(self, nodes):
        assert_level_matches_each_node(nodes)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    def test_qudit_level_matches_each_node_bit_for_bit(self, d, data):
        # stacks mix zero nodes, swapped nodes and positive blocks of every size
        assert_level_matches_each_node(data.draw(st.lists(qudit_node(d), min_size=1,
                                                          max_size=6)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_drifting_node_names_its_depth(self, rng, d):
        nodes = np.stack([np.diag(rng.standard_normal(d)).astype(complex)
                          for _ in range(4)])
        nodes -= np.trace(nodes, axis1=1, axis2=2)[:, None, None] / d * np.eye(d)
        nodes[2] += 1e-6 * np.eye(d)
        with pytest.raises(SynthesisError, match="at depth 5 is not traceless"):
            _node_bases(nodes, 5, 1.0)

    @staticmethod
    def identity_at_last_depth(m):
        """ghz3's bases, but the identity for the four nodes of the last depth."""
        return np.broadcast_to(np.eye(2), m.shape).copy() if len(m) == 4 else zero_diag_basis(m)

    def test_violated_leaf_condition_raises(self, monkeypatch):
        monkeypatch.setattr(locc, "zero_diag_stack", self.identity_at_last_depth)
        fam = ghz_family(3)
        with pytest.raises(SynthesisError, match="leaf condition violated"):
            synthesize_tree(saturation_matrices(fam, 0.3).target, fam.layout)

    def test_violated_leaf_condition_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(locc, "zero_diag_stack", self.identity_at_last_depth)
        assert cli_main(["synthesize", "ghz3", "--theta", "0.3"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "non-convergence" and "leaf condition" in err["error"]

    def test_nan_leaf_residual_raises(self, monkeypatch):
        # NaN compares false, so a bound alone would let it through
        monkeypatch.setattr(KetBraSum, "sandwich", lambda self, *rows: np.array([np.nan]))
        fam = ghz_family(3)
        with pytest.raises(SynthesisError, match="leaf condition violated: residual nan"):
            synthesize_tree(saturation_matrices(fam, 0.3).target, fam.layout)

    def test_nan_leaf_residual_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(KetBraSum, "sandwich", lambda self, *rows: np.array([np.nan]))
        assert cli_main(["synthesize", "ghz3", "--theta", "0.3"]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert err["kind"] == "non-convergence" and "residual nan" in err["error"]

    def test_each_depth_tests_its_trace_once(self, rng, monkeypatch):
        # the node check of ``_node_bases``; zero_diag_basis's own test is for outside callers
        calls = []
        monkeypatch.setattr(zerodiag, "check_trace",
                            lambda *a, **kw: calls.append(a[0].shape) or check_trace(*a, **kw))
        fam = random_pure_family((2, 3, 2), rng)
        synthesize_tree(saturation_matrices(fam, 0.3).target, fam.layout)
        assert calls == []

    def test_each_depth_calls_zero_diag_basis_once(self, rng, monkeypatch):
        seen = []

        def spy(m):
            seen.append(m.shape)
            return zero_diag_basis(m)

        monkeypatch.setattr(locc, "zero_diag_stack", spy)
        fam = random_pure_family((2, 3, 2), rng)
        synthesize_tree(saturation_matrices(fam, 0.3).target, fam.layout)
        assert seen == [(1, 2, 2), (2, 3, 3), (6, 2, 2)]


def stacked_targets(kind, dims, trees, seed):
    """``trees`` traceless targets of one row count on ``dims``: random complex or
    exactly real factors, a diagonal matrix (diagonal reductions), a product
    ket-bra |a><b| of two basis states (whole branches of zero nodes), or GHZ
    saturation targets at random theta (the structured nodes of GHZ trees)."""
    rng = np.random.default_rng(seed)
    total = int(np.prod(dims))
    out = []
    for _ in range(trees):
        if kind == "ghz":
            fam = builtin_scenario(f"ghz{len(dims)}").family
            out.append(saturation_matrices(fam, float(rng.uniform(-3, 3))).target)
            continue
        if kind == "product":
            a, b = rng.choice(total, 2, replace=False)
            out.append(KetBraSum(np.eye(total)[a], np.eye(total)[b]))
            continue
        if kind == "diagonal":
            kets, bras = np.diag(rng.standard_normal(total)), np.eye(total)
        else:
            kets, bras = rng.standard_normal((2, 2, total)) + (
                1j * rng.standard_normal((2, 2, total)) if kind == "complex" else 0)
        shift = -np.sum(bras.conj() * kets) / total
        out.append(KetBraSum(kets, bras, shift))
    return out


class TestStackedTreesFromCheckedStacks:
    @given(kind=st.sampled_from(["complex", "real", "diagonal", "product", "ghz"]),
           dims=st.sampled_from([(2, 2), (2, 2, 2), (3, 3), (2, 3, 2), (3, 2)]),
           trees=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    def test_every_tree_passes_the_public_constructor_unchanged(self, kind, dims, trees, seed):
        if kind == "ghz" and set(dims) != {2}:
            dims = (2, 2, 2)
        out = synthesize_trees(stacked_targets(kind, dims, trees, seed), dims)
        assert len(out) == trees
        for tree in out:
            again = MeasurementTree(tree.layout, tree.order, tree.bases)
            assert (again.layout, again.order) == (tree.layout, tree.order)
            assert isinstance(tree.bases, tuple) and len(again.bases) == len(tree.bases)
            for got, want in zip(tree.bases, again.bases):
                assert got.dtype == want.dtype and got.flags.c_contiguous
                assert np.array_equal(got.view(float), want.view(float))

    def test_product_targets_reach_zero_nodes(self, monkeypatch):
        # the property above runs over zero nodes: a product ket-bra zeroes whole branches
        seen = []

        def spy(m):
            seen.append(np.abs(m).max(axis=(1, 2)))
            return zero_diag_basis(m)

        monkeypatch.setattr(locc, "zero_diag_stack", spy)
        synthesize_trees(stacked_targets("product", (2, 3, 2), 3, 7), (2, 3, 2))
        assert any((level == 0).any() for level in seen)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("fault, message", [
        ("nan", "bases at depth {} contain non-finite entries"),
        ("skew", "a basis at depth {} is not orthonormal")])
    def test_a_depth_of_bad_bases_is_refused_by_name(self, monkeypatch, depth, fault, message):
        calls = []

        def corrupt(m):
            u = zero_diag_basis(m)
            if len(calls) == depth:
                u[-1, 0, 0] = np.nan if fault == "nan" else u[-1, 0, 0] + 1e-6
            calls.append(len(m))
            return u

        monkeypatch.setattr(locc, "zero_diag_stack", corrupt)
        with pytest.raises(ValueError, match=message.format(depth)):
            synthesize_trees(stacked_targets("complex", (2, 3, 2), 3, 11), (2, 3, 2))
        assert len(calls) == depth + 1


class TestFlatten:
    def test_depth_two_completeness(self):
        fam = ghz_family(2)
        povm = flatten(synth(fam, 0.1))
        assert len(povm.vectors) == 4
        total = sum(np.outer(v, v.conj()) for v in povm.vectors)
        assert np.abs(total - np.eye(4)).max() < 1e-8
        for v in povm.vectors:
            assert abs(np.vdot(v, v) - 1.0) < 1e-9

    def test_identical_bases_is_product_measurement(self):
        basis = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        tree = MeasurementTree(HilbertLayout((2, 2)), (0, 1),
                               [basis[None], np.stack([basis, basis])])
        povm = flatten(tree)
        paths = [path for path, _ in leaf_vectors(tree)]
        for (i, j), v in zip(paths, povm.vectors, strict=True):
            e = np.outer(v, v.conj())
            want = np.outer(kron([basis[:, i], basis[:, j]]),
                            kron([basis[:, i], basis[:, j]]).conj())
            assert np.abs(e - want).max() < 1e-12

    def test_four_qubit_sixteen_elements(self):
        sc = builtin_scenario("chain4")
        povm = flatten(synth(sc.family, 0.2))
        assert len(povm.vectors) == 16
        assert all(abs(np.vdot(v, v) - 1.0) < 1e-9 for v in povm.vectors)


def random_tree(dims, order, rng):
    """Tree of Haar-random bases measuring the subsystems in ``order``."""
    bases, nodes = [], 1
    for sub in order:
        bases.append(np.stack([unitary_group.rvs(dims[sub], random_state=rng)
                               for _ in range(nodes)]))
        nodes *= dims[sub]
    return MeasurementTree(HilbertLayout(dims), tuple(order), bases)


class TestLeafVectors:
    @pytest.mark.parametrize("dims", [(2, 3, 2), (3, 3, 3)])
    def test_matches_per_leaf_kron(self, dims, rng):
        for order in itertools.permutations(range(len(dims))):
            tree = random_tree(dims, order, rng)
            got, want = leaf_vectors(tree), leaf_vectors_kron(tree)
            assert [p for p, _ in got] == [p for p, _ in want]
            got_v = np.stack([v for _, v in got])
            want_v = np.stack([v for _, v in want])
            if order == tuple(range(len(dims))):
                # same products, associated as the left fold: equal bits
                assert np.array_equal(got_v, want_v)
            else:
                assert np.abs(got_v - want_v).max() <= 1e-15


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestMeasurementTree:
    # construction checks the stacks once, naming the depth at fault
    LAYOUT = HilbertLayout((2, 2, 3))

    @staticmethod
    def stacks():
        return [HADAMARD[None], np.stack([HADAMARD, np.eye(2)]),
                np.stack([np.eye(3)] * 4)]

    def test_accepts_one_orthonormal_stack_per_depth(self):
        tree = MeasurementTree(self.LAYOUT, (0, 1, 2), self.stacks())
        assert [b.shape for b in tree.bases] == [(1, 2, 2), (2, 2, 2), (4, 3, 3)]
        assert np.array_equal(tree.bases[1][1], np.eye(2))

    def test_rejects_wrong_number_of_depths(self):
        with pytest.raises(ValueError, match="2 depths of bases for 3 subsystems"):
            MeasurementTree(self.LAYOUT, (0, 1, 2), self.stacks()[:2])

    @pytest.mark.parametrize("depth,stack", [
        (0, HADAMARD),                          # a bare basis, not a stack of one
        (1, np.stack([np.eye(2)] * 3)),         # three nodes where two outcomes lead
        (2, np.stack([np.eye(2)] * 4)),         # qubit bases on the qutrit
    ], ids=["unstacked", "node-count", "node-shape"])
    def test_rejects_wrong_node_count_or_shape(self, depth, stack):
        bases = self.stacks()
        bases[depth] = stack
        with pytest.raises(ValueError, match=f"bases at depth {depth} have shape"):
            MeasurementTree(self.LAYOUT, (0, 1, 2), bases)

    def test_rejects_non_finite_entries(self):
        # NaN compares false, so the orthonormality bound alone lets it through
        bases = self.stacks()
        bases[2][3, 1, 1] = np.nan
        with pytest.raises(ValueError, match="bases at depth 2 contain non-finite"):
            MeasurementTree(self.LAYOUT, (0, 1, 2), bases)

    def test_rejects_non_orthonormal_basis(self):
        bases = self.stacks()
        bases[1][1, 0, 1] = 1e-6
        with pytest.raises(ValueError, match="basis at depth 1 is not orthonormal"):
            MeasurementTree(self.LAYOUT, (0, 1, 2), bases)

    def test_amplitudes_refuse_rows_of_another_length(self):
        tree = MeasurementTree(self.LAYOUT, (0, 1, 2), self.stacks())
        with pytest.raises(ValueError, match=re.escape(
                "vectors of shape (2, 6) do not match layout [2, 2, 3]")):
            tree.amplitudes(np.ones((2, 6)))


class TestVerifyTree:
    def test_random_pure_families(self, rng):
        for dims in [(2, 2), (2, 3)]:
            for _ in range(5):
                fam = random_pure_family(dims, rng)
                th = float(rng.uniform(0.1, 0.8))
                rep = verify_tree(synth(fam, th), fam, th)
                assert rep.saturating

    def test_rank_two_fixed_basis(self, rng):
        lay = HilbertLayout((2, 3))
        a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        q, _ = np.linalg.qr(a)
        fam = RankTwoFixedBasisFamily(lay, q[:, 0], q[:, 1],
                                      lambda t: 0.3 + 0.4 * t, lambda t: 0.4)
        th = 0.5
        rep = verify_tree(synth(fam, th), fam, th)
        p, dp = 0.3 + 0.4 * th, 0.4
        assert rep.saturating
        assert abs(rep.fi - dp * dp / (p * (1 - p))) < 1e-6

    def test_corrupted_basis_detected(self):
        fam = ghz_family(2)
        tree = synth(fam, 0.3)
        c, s = np.cos(0.1), np.sin(0.1)
        rot = np.array([[c, -s], [s, c]], dtype=complex)
        bases = [b.copy() for b in tree.bases]
        bases[1][0] = bases[1][0] @ rot
        rep = verify_tree(MeasurementTree(tree.layout, tree.order, bases), fam, 0.3)
        assert not rep.saturating


class TestOrderRobustness:
    def test_all_orders_three_subsystems(self, rng):
        fam = random_pure_family((2, 3, 2), rng)
        th = 0.25
        j = qfi(fam, th)
        for order in itertools.permutations(range(3)):
            rep = verify_tree(synth(fam, th, order), fam, th)
            assert rep.saturating and abs(rep.fi - j) < 1e-6 * j

    def test_all_orders_four_qubits(self, rng):
        fam = random_pure_family((2, 2, 2, 2), rng)
        th = 0.4
        j = qfi(fam, th)
        for order in itertools.permutations(range(4)):
            rep = verify_tree(synth(fam, th, order), fam, th)
            assert rep.saturating and abs(rep.fi - j) < 1e-6 * j


class TestDiscriminate:
    def test_bell_pair(self):
        bells = bell_states()
        _, rep = discriminate(bells["phi+"], bells["phi-"], HilbertLayout((2, 2)))
        assert abs(rep.success_prob - 1.0) < 1e-8
        assert rep.residual < 1e-10

    def test_lm_gap_pair_is_locc_distinguishable(self):
        # the pair no product measurement can tell apart
        sc = builtin_scenario("lm2x2")
        psi = sc.family.psi(0.0)
        perp = sc.family.psi_dpsi(0.0)[1]
        _, rep = discriminate(psi, perp / np.linalg.norm(perp), sc.family.layout)
        assert abs(rep.success_prob - 1.0) < 1e-8

    def test_computational_product_states(self):
        psi0 = np.array([1, 0, 0, 0], dtype=complex)
        psi1 = np.array([0, 1, 0, 0], dtype=complex)
        tree, rep = discriminate(psi0, psi1, HilbertLayout((2, 2)))
        assert abs(rep.success_prob - 1.0) < 1e-10
        # every leaf vector is a computational product state up to phase
        for _, vec in leaf_vectors(tree):
            assert abs(np.abs(vec).max() - 1.0) < 1e-9

    def test_rejects_non_orthogonal(self):
        v0 = np.array([1, 0, 0, 0], dtype=complex)
        v1 = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
        with pytest.raises(ValueError):
            discriminate(v0, v1, HilbertLayout((2, 2)))

    def test_rejects_nan_state(self):
        v0 = np.array([np.nan, 1, 0, 0], dtype=complex)
        v1 = np.array([0, 0, 1, 0], dtype=complex)
        with pytest.raises(ValueError, match="psi0 contains non-finite entries"):
            discriminate(v0, v1, HilbertLayout((2, 2)))

    def test_correspondence_with_saturation(self, rng):
        # a tree synthesized for the rank-two family discriminates its basis,
        # and a tree built to discriminate saturates the family
        lay = HilbertLayout((2, 2))
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q, _ = np.linalg.qr(a)
        fam = RankTwoFixedBasisFamily(lay, q[:, 0], q[:, 1],
                                      lambda t: t, lambda t: 1.0)
        tree = synth(fam, 0.5)
        worst = max(abs(np.vdot(v, q[:, 0]) * np.vdot(q[:, 1], v))
                    for _, v in leaf_vectors(tree))
        assert worst < 1e-8
        disc_tree, rep = discriminate(q[:, 0], q[:, 1], lay)
        assert abs(rep.success_prob - 1.0) < 1e-8
        assert verify_tree(disc_tree, fam, 0.5).saturating


class TestNegativeControl:
    def test_bell_mixture_never_saturates(self):
        sc = builtin_scenario("bellmix")
        th = 0.5
        out = saturation_matrices(sc.family, th)
        assert out.target is None
        for m in (c.dense() for c in out.conditions):
            if np.linalg.norm(m) < 1e-9:
                continue
            tree = synthesize_tree(KetBraSum.from_dense(m), sc.family.layout)
            rep = verify_tree(tree, sc.family, th)
            assert not rep.saturating


class TestTreeJson:
    def test_round_trip_idempotent(self, rng):
        fam = random_pure_family((2, 3), rng)
        tree = synth(fam, 0.3)
        doc = tree_to_json(tree)
        again = tree_to_json(tree_from_json(doc))
        assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_round_trip_preserves_verification(self, rng):
        fam = random_pure_family((2, 2, 2), rng)
        tree = tree_from_json(tree_to_json(synth(fam, 0.2)))
        assert verify_tree(tree, fam, 0.2).saturating

    def test_rejects_non_orthonormal_basis(self):
        fam = ghz_family(2)
        doc = tree_to_json(synth(fam, 0.3))
        doc["node"]["basis"][0][0] = [2.0, 0.0]
        with pytest.raises(ValueError):
            tree_from_json(doc)

    def test_rejects_non_finite_basis(self):
        # NaN compares false, so the orthonormality bound alone lets it through
        doc = tree_to_json(synth(ghz_family(2), 0.3))
        doc["node"]["children"][1]["basis"][0][1] = [float("nan"), 0.0]
        with pytest.raises(ValueError, match="non-finite"):
            tree_from_json(doc)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(order=[1, 0]),
        lambda doc: doc["node"].pop("children"),
        lambda doc: doc["node"]["children"][0].update(children=[]),
        lambda doc: doc.update(layout=[3, 2]),
        lambda doc: doc["node"].update(subsystem=None),
        lambda doc: doc["node"].update(children=2),
        lambda doc: doc["node"]["children"].__setitem__(1, "leaf"),
        lambda doc: doc["node"]["children"].append(doc["node"]["children"][0]),
        # the depth-1 nodes measure subsystem 1, which a bool or float equals under ==
        lambda doc: [child.update(subsystem=True) for child in doc["node"]["children"]],
        lambda doc: [child.update(subsystem=1.0) for child in doc["node"]["children"]],
    ], ids=["order", "missing-children", "extra-children", "layout", "subsystem-null",
            "children-not-a-list", "child-not-an-object", "three-children", "subsystem-bool",
            "subsystem-float"])
    def test_rejects_structure_off_layout_and_order(self, edit):
        doc = tree_to_json(synth(ghz_family(2), 0.3))
        edit(doc)
        with pytest.raises(ValueError, match="does not fit layout"):
            tree_from_json(doc)


    @pytest.mark.parametrize("field, value", [
        ("layout", [2.9, 2]), ("layout", ["2", 2.9]), ("order", [0, True]), ("order", [0.0, 1])])
    def test_rejects_layout_or_order_entries_that_are_not_integers(self, field, value):
        doc = tree_to_json(synth(ghz_family(2), 0.3))
        doc[field] = value
        with pytest.raises(ValueError, match=f"{field} entry must be an integer"):
            tree_from_json(doc)


class TestBlochRows:
    def test_rows_cover_all_qubit_nodes(self):
        fam = ghz_family(2)
        rows = bloch_rows(synth(fam, 0.3), 0.3)
        assert len(rows) == 3          # root plus two children
        assert {r["subsystem"] for r in rows} == {0, 1}
        for r in rows:
            norm = r["x"] ** 2 + r["y"] ** 2 + r["z"] ** 2
            assert abs(norm - 1.0) < 1e-9

    def test_rows_run_depth_first_past_ten_outcomes(self, rng):
        # the path strings of a 12-outcome root do not sort as its outcomes do
        tree = random_tree((12, 2), (0, 1), rng)
        rows = bloch_rows(tree, 0.0)
        assert [r["path"] for r in rows] == [str(x) for x in range(12)]
        assert all(np.isclose(r["z"], abs(tree.bases[1][x, 0, 0]) ** 2
                              - abs(tree.bases[1][x, 1, 0]) ** 2)
                   for x, r in enumerate(rows))

    def test_skips_non_qubit_nodes(self, rng):
        fam = random_pure_family((3, 2), rng)
        rows = bloch_rows(synth(fam, 0.3), 0.3)
        assert {r["subsystem"] for r in rows} == {1}
