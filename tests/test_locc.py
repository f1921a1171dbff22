import itertools
import json

import numpy as np
import pytest

from loccfisher import (RankTwoFixedBasisFamily, discriminate, flatten,
                        leaf_vectors, qfi, saturation_matrices,
                        synthesize_tree, tree_from_json, tree_to_json,
                        verify_tree)
from loccfisher.locc import MeasurementTree, TreeNode, bloch_rows
from loccfisher.scenarios import bell_states, builtin_scenario
from loccfisher.tensor import HilbertLayout, kron

from conftest import ghz_family, random_pure_family


def synth(family, theta, order=None):
    return synthesize_tree(saturation_matrices(family, theta).m_tilde,
                           family.layout, order)


class TestSynthesizeTree:
    def test_ghz2_saturates(self):
        fam = ghz_family(2)
        rep = verify_tree(synth(fam, 0.3), fam, 0.3)
        assert rep.saturating
        assert abs(rep.fi - 4.0) < 1e-6 and abs(rep.qfi - 4.0) < 1e-6

    def test_leaf_condition_and_flat_probability(self, rng):
        fam = random_pure_family((2, 2, 2), rng)
        th = 0.45
        target = saturation_matrices(fam, th).m_tilde
        tree = synthesize_tree(target, fam.layout)
        psi = fam.psi(th)
        scale = np.linalg.norm(target)
        for _, vec in leaf_vectors(tree):
            assert abs(np.vdot(vec, target @ vec)) < 1e-7 * scale
            assert abs(abs(np.vdot(vec, psi)) ** 2 - 1 / 8) < 1e-7

    def test_bell_cross_target_gives_product_basis(self):
        bells = bell_states()
        target = np.outer(bells["phi+"], bells["phi-"].conj())
        tree = synthesize_tree(target, HilbertLayout((2, 2)))
        for _, vec in leaf_vectors(tree):
            o = np.vdot(vec, bells["phi+"]) * np.vdot(bells["phi-"], vec)
            assert abs(o) < 1e-10
            # leaves are products of +/- type equatorial vectors
            v = vec.reshape(2, 2)
            assert abs(abs(v[0, 0]) - 0.5) < 1e-9

    def test_rejects_non_traceless(self):
        with pytest.raises(ValueError):
            synthesize_tree(np.eye(4, dtype=complex), HilbertLayout((2, 2)))

    def test_rejects_bad_order(self):
        fam = ghz_family(2)
        target = saturation_matrices(fam, 0.3).m_tilde
        with pytest.raises(ValueError):
            synthesize_tree(target, fam.layout, order=[0, 0])


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
        leaf0 = TreeNode(subsystem=1, basis=basis.copy(), children=None)
        leaf1 = TreeNode(subsystem=1, basis=basis.copy(), children=None)
        root = TreeNode(subsystem=0, basis=basis.copy(), children=[leaf0, leaf1])
        tree = MeasurementTree(HilbertLayout((2, 2)), (0, 1), root)
        povm = flatten(tree)
        for (i, j), v in zip(povm.labels, povm.vectors):
            e = np.outer(v, v.conj())
            want = np.outer(kron([basis[:, i], basis[:, j]]),
                            kron([basis[:, i], basis[:, j]]).conj())
            assert np.abs(e - want).max() < 1e-12

    def test_four_qubit_sixteen_elements(self):
        sc = builtin_scenario("chain4")
        povm = flatten(synth(sc.family, 0.2))
        assert len(povm.vectors) == 16
        assert all(abs(np.vdot(v, v) - 1.0) < 1e-9 for v in povm.vectors)


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
        tree.root.children[0].basis = tree.root.children[0].basis @ rot
        rep = verify_tree(tree, fam, 0.3)
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
        perp = sc.family.dpsi(0.0)
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
        assert out.m_tilde is None
        for m in out.m_set:
            if np.linalg.norm(m) < 1e-9:
                continue
            tree = synthesize_tree(m, sc.family.layout)
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


class TestBlochRows:
    def test_rows_cover_all_qubit_nodes(self):
        fam = ghz_family(2)
        rows = bloch_rows(synth(fam, 0.3), 0.3)
        assert len(rows) == 3          # root plus two children
        assert {r["subsystem"] for r in rows} == {0, 1}
        for r in rows:
            norm = r["x"] ** 2 + r["y"] ** 2 + r["z"] ** 2
            assert abs(norm - 1.0) < 1e-9

    def test_skips_non_qubit_nodes(self, rng):
        fam = random_pure_family((3, 2), rng)
        rows = bloch_rows(synth(fam, 0.3), 0.3)
        assert {r["subsystem"] for r in rows} == {1}
