"""The paper's guarantees as properties over random layouts, orders and families.

Pure and fixed-basis rank-two families get an adaptive tree that is complete,
zero-sandwiches the target on every leaf and reaches fi = qfi; rank-two trees
tell the two basis states apart with certainty; and the Bell-mixture control
saturates under no synthesized two-qubit tree. Verdicts and Fisher
information are cross-checked against the dense sqrt(E) oracle, the check
through tree amplitudes against the check of the flattened POVM, and the
vector-only route (closed-form qfi, diagonal generators, factored targets,
leaf amplitudes) against the dense matrices it replaces, Pauli sums read
through bit masks and Lanczos against their kron products, and the MLE's
score root against golden section.
"""

import itertools
from math import prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loccfisher import (DegenerateLikelihoodError, IsometryPair, MixedGenericFamily, Povm,
                        PureNumericFamily, RankTwoFixedBasisFamily, UnitaryGeneratorFamily,
                        check_saturation, discriminate, flatten, leaf_distribution,
                        leaf_vectors, lm_povm_from_pair, mle, qfi, saturation_matrices, sld,
                        synthesize_at, synthesize_tree, synthesize_trees, verify_tree)
from loccfisher.locc import LEAF_TOL
from loccfisher.scenarios import PauliStringTerm, builtin_scenario, parse_scenario
from loccfisher import simulate
from loccfisher.simulate import GRID_POINTS, LOG_FLOOR, _mle, _OutcomeLaw, _path_prob_fns
from loccfisher.tensor import HilbertLayout, KetBraSum, complex_to_pairs

from conftest import (pauli_doc, pauli_weights_matrix, random_density, random_hermitian,
                      random_pure_family, random_pure_inputs, random_state)
from oracles import (dense_saturation, dense_target, golden_mle, leaf_vectors_kron,
                     pauli_sum_matrix, per_matrix_saturation, prob_at, qfi_double_sum)
from test_locc import random_tree
from test_oracle_crosscheck import assert_matches_oracle, random_rank_two_family

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
# the dense oracle eigendecomposes every element, so it gets fewer examples
ORACLE = settings(PROPERTY, max_examples=15)


@st.composite
def layouts(draw):
    """Two or more subsystems of dimension 2..4, total dimension at most 64."""
    dims = [draw(st.integers(2, 4)), draw(st.integers(2, 4))]
    while 64 // prod(dims) >= 2 and draw(st.booleans()):
        dims.append(draw(st.integers(2, min(4, 64 // prod(dims)))))
    return tuple(dims)


@st.composite
def synthesized(draw):
    """(family, theta, tree, m_tilde) for a random pure or rank-two family and order."""
    dims = draw(layouts())
    order = draw(st.permutations(range(len(dims))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    make = draw(st.sampled_from([random_pure_family, random_rank_two_family]))
    family = make(dims, rng)
    theta = draw(st.floats(0.1, 0.9))
    m_tilde = saturation_matrices(family, theta).target.dense()
    tree = synthesize_tree(KetBraSum.from_dense(m_tilde), family.layout, order)
    return family, theta, tree, m_tilde


def oracle_report(povm, family, theta):
    rho, drho = family.rho_drho(theta)
    return dense_saturation([np.outer(v, v.conj()) for v in povm.vectors], rho, drho)


@PROPERTY
@given(synthesized())
def test_tree_is_complete_and_zero_sandwiches_the_target(case):
    family, _, tree, m_tilde = case
    vectors = np.stack([vec for _, vec in leaf_vectors(tree)])
    d = family.layout.total
    assert vectors.shape == (d, d)
    assert np.abs(vectors.T @ vectors.conj() - np.eye(d)).max() < 1e-10
    sandwich = np.einsum("ea,ab,eb->e", vectors.conj(), m_tilde, vectors)
    assert np.abs(sandwich).max() <= LEAF_TOL * np.linalg.norm(m_tilde)


@ORACLE
@given(synthesized())
def test_tree_reaches_the_qfi_as_the_oracle_does(case):
    family, theta, tree, _ = case
    povm = flatten(tree)
    rep = check_saturation(povm, family, theta)
    ora = oracle_report(povm, family, theta)
    assert abs(rep.qfi - ora["qfi"]) <= 1e-9 * ora["qfi"]
    assert abs(rep.fi - ora["fi"]) <= 1e-9 * ora["qfi"]
    assert rep.qfi - rep.fi <= 1e-6 * rep.qfi
    assert rep.saturating and ora["saturating"]


@PROPERTY
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 4), (2, 2, 3), (3, 3, 3)]), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1),
       make=st.sampled_from([random_pure_family, random_rank_two_family]))
def test_stacked_synthesis_is_one_target_at_a_time_bit_for_bit(dims, data, seed, make):
    # a node's basis does not depend on the rest of its stack, so conditioning T
    # targets together gives each the tree it gets alone
    family = make(dims, np.random.default_rng(seed))
    order = data.draw(st.permutations(range(len(dims))))
    thetas = data.draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=6))
    targets = [saturation_matrices(family, theta).target for theta in thetas]
    stacked = synthesize_trees(targets, family.layout, order)
    assert len(stacked) == len(targets)
    for tree, target in zip(stacked, targets):
        alone = synthesize_tree(target, family.layout, order)
        assert tree.order == alone.order
        assert [(b.shape, b.tobytes()) for b in tree.bases] == [
            (b.shape, b.tobytes()) for b in alone.bases]


@PROPERTY
@given(dims=layouts(), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_rank_two_tree_discriminates_with_certainty(dims, data, seed):
    family = random_rank_two_family(dims, np.random.default_rng(seed))
    order = data.draw(st.permutations(range(len(dims))))
    _, report = discriminate(family.psi0, family.psi1, family.layout, order)
    assert report.success_prob >= 1 - 1e-9


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.permutations([0, 1]),
       rank_two=st.booleans(), theta=st.floats(0.1, 0.9))
def test_bell_mixture_never_saturates(seed, order, rank_two, theta):
    bellmix = builtin_scenario("bellmix").family
    make = random_rank_two_family if rank_two else random_pure_family
    family = make((2, 2), np.random.default_rng(seed))
    target = KetBraSum.from_dense(saturation_matrices(family, theta).target.dense())
    tree = synthesize_tree(target, family.layout, order)
    povm = flatten(tree)
    rep = check_saturation(povm, bellmix, theta)
    assert not rep.saturating
    assert not oracle_report(povm, bellmix, theta)["saturating"]


def assert_verify_matches_flattened(tree, family, theta):
    """verify_tree (leaf amplitudes) against check_saturation of the leaf-vector POVM."""
    rep = verify_tree(tree, family, theta)
    flat = check_saturation(flatten(tree), family, theta)
    scale = max(m.norm() for m in saturation_matrices(family, theta).conditions)
    assert rep.saturating == flat.saturating
    assert abs(rep.fi - flat.fi) <= 1e-12 * flat.qfi
    assert abs(rep.condition_residual - flat.condition_residual) <= 1e-12 * scale
    assert abs(rep.regularity_residual - flat.regularity_residual) <= 1e-12 * scale
    return rep


@PROPERTY
@given(synthesized())
def test_verify_tree_matches_the_flattened_check(case):
    family, theta, tree, _ = case
    assert assert_verify_matches_flattened(tree, family, theta).saturating


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.permutations([0, 1]),
       rank_two=st.booleans(), theta=st.floats(0.1, 0.9))
def test_verify_tree_matches_the_flattened_check_on_the_bell_mixture(seed, order, rank_two,
                                                                      theta):
    bellmix = builtin_scenario("bellmix").family
    make = random_rank_two_family if rank_two else random_pure_family
    family = make((2, 2), np.random.default_rng(seed))
    tree = synthesize_at(family, theta, order)
    assert not assert_verify_matches_flattened(tree, bellmix, theta).saturating


def random_diagonal_family(dims, rng):
    """Pure family whose generator is diagonal, given as its real diagonal."""
    layout = HilbertLayout(dims)
    return UnitaryGeneratorFamily(layout, random_state(layout.total, rng),
                                  rng.standard_normal(layout.total))


@st.composite
def families(draw):
    """(family, theta, order, generator): pure, with the dense or diagonal generator it
    was built from, or rank-two, with generator None."""
    dims = draw(layouts())
    order = draw(st.permutations(range(len(dims))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    make = draw(st.sampled_from([random_pure_inputs, random_diagonal_family,
                                 random_rank_two_family]))
    if make is random_pure_inputs:
        layout, psi_in, generator = make(dims, rng)
        family = UnitaryGeneratorFamily(layout, psi_in, generator)
    else:
        family = make(dims, rng)
        generator = family.generator if family.state_type == "pure" else None
    return family, draw(st.floats(0.1, 0.9)), order, generator


@PROPERTY
@given(families())
def test_closed_form_qfi_matches_the_dense_sld(case):
    family, theta, _, _ = case
    dense = sld(*family.rho_drho(theta)).qfi
    assert abs(qfi(family, theta) - dense) <= 1e-10 * max(1.0, dense)


@PROPERTY
@given(dims=layouts(), seed=st.integers(0, 2 ** 32 - 1), theta=st.floats(-3.0, 3.0))
def test_diagonal_generator_matches_its_dense_matrix(dims, seed, theta):
    rng = np.random.default_rng(seed)
    layout = HilbertLayout(dims)
    psi_in, g = random_state(layout.total, rng), rng.standard_normal(layout.total)
    diagonal = UnitaryGeneratorFamily(layout, psi_in, g)
    dense = UnitaryGeneratorFamily(layout, psi_in, np.diag(g))
    for fast, slow in zip(diagonal.psi_dpsi(theta), dense.psi_dpsi(theta)):
        assert np.abs(fast - slow).max() <= 1e-12


@st.composite
def pauli_sums(draw, max_qubits, letters="IXYZ"):
    """(layout, terms): up to eight weighted strings of ``letters`` on 1..max_qubits qubits."""
    n = draw(st.integers(1, max_qubits))
    strings = st.text(alphabet=letters, min_size=n, max_size=n)
    terms = draw(st.lists(st.builds(PauliStringTerm, st.floats(-2.0, 2.0), strings),
                          max_size=8))
    return HilbertLayout((2,) * n), terms


@PROPERTY
@given(pauli_sums(6))
def test_pauli_masks_match_the_kron_sum_bit_for_bit(case):
    # the mask weights scattered into a matrix, and an I/Z sum's diagonal as its family holds it
    layout, terms = case
    want = pauli_sum_matrix(terms, layout.total)
    assert pauli_weights_matrix(terms, layout).tobytes() == want.tobytes()
    if all(ch in "IZ" for term in terms for ch in term.string):
        generator = parse_scenario(pauli_doc(layout, terms)).family.generator
        assert generator.tobytes() == np.diag(want).real.tobytes()


@PROPERTY
@given(case=pauli_sums(8), seed=st.integers(0, 2 ** 32 - 1), sparse=st.booleans(),
       theta=st.floats(-3.0, 3.0))
# a dense psi_in under eight X/Y/Z strings on six qubits touches all 64 levels,
# so the Krylov basis outgrows its first 16 rows twice
@example(case=(HilbertLayout((2,) * 6), [
    PauliStringTerm(c, s) for c, s in [(1.74, "YXXYZY"), (-0.24, "YYZYYY"), (1.09, "YZXYXZ"),
                                       (0.5, "YXXZYZ"), (-1.27, "XXYXYY"), (-0.82, "XXZZYZ"),
                                       (0.3, "YZXYXY"), (-1.43, "ZZXYXX")]]),
         seed=0, sparse=False, theta=0.3)
def test_lanczos_levels_match_the_dense_generator(case, seed, sparse, theta):
    # psi_in dense, or on a few basis states (as the GHZ and W inputs are)
    layout, terms = case
    assume(any(ch in "XY" for term in terms for ch in term.string))
    rng = np.random.default_rng(seed)
    psi_in = random_state(layout.total, rng)
    if sparse:
        psi_in[rng.permutation(layout.total)[:layout.total - 3]] = 0.0
        psi_in /= np.linalg.norm(psi_in)
    doc = {"type": "unitary-generator", "layout": list(layout.dims),
           "psi_in": complex_to_pairs(psi_in), "theta_grid": [theta],
           "hamiltonian": {"pauli": [{"coeff": t.coeff, "string": t.string} for t in terms]}}
    family = parse_scenario(doc).family
    assert isinstance(family.generator, tuple)
    g = pauli_sum_matrix(terms, layout.total)
    w, v = np.linalg.eigh(g)
    psi = v @ (np.exp(-1j * theta * w) * (v.conj().T @ psi_in))
    dpsi = -1j * (g @ psi)
    got_psi, got_dpsi = family.psi_dpsi(theta)
    scale = max(1.0, np.abs(g).sum(axis=1).max())
    assert np.abs(got_psi - psi).max() <= 1e-10
    assert np.abs(got_dpsi - dpsi).max() <= 1e-10 * scale
    want = 4 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)
    assert abs(qfi(family, theta) - want) <= 1e-10 * scale ** 2


@PROPERTY
@given(families())
def test_factored_target_zero_sandwiched_under_the_dense_oracle(case):
    family, theta, order, generator = case
    target = saturation_matrices(family, theta).target
    m_tilde = dense_target(family, theta, generator)
    norm = np.linalg.norm(m_tilde)
    assert np.abs(target.dense() - m_tilde).max() <= 1e-12 * max(1.0, norm)
    assert abs(target.norm() - norm) <= 1e-12 * max(1.0, norm)
    assert abs(target.trace()) <= 1e-12 * max(1.0, norm)
    tree = synthesize_tree(target, family.layout, order)
    vectors = np.stack([vec for _, vec in leaf_vectors(tree)])
    sandwich = np.einsum("ea,ab,eb->e", vectors.conj(), m_tilde, vectors)
    assert np.abs(sandwich).max() <= LEAF_TOL * norm


@pytest.mark.parametrize("dims,order", [
    (dims, order) for dims in ((2, 3, 2), (3, 3, 3))
    for order in itertools.permutations(range(3))])
def test_tree_amplitudes_match_leaf_vectors(dims, order):
    rng = np.random.default_rng([*dims, *order])
    tree = random_tree(dims, order, rng)
    vectors = rng.standard_normal((3, prod(dims))) + 1j * rng.standard_normal((3, prod(dims)))
    leaves = np.stack([vec for _, vec in leaf_vectors(tree)])
    want = leaves.conj() @ vectors.T
    assert np.abs(tree.amplitudes(vectors) - want).max() <= 1e-13
    assert np.abs(tree.amplitudes(vectors[1]) - want[:, 1]).max() <= 1e-13


@PROPERTY
@given(dims=layouts(), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_discrimination_matches_the_per_leaf_loop(dims, data, seed):
    family = random_rank_two_family(dims, np.random.default_rng(seed))
    order = data.draw(st.permutations(range(len(dims))))
    tree, report = discriminate(family.psi0, family.psi1, family.layout, order)
    assignment, success = {}, 0.0
    for path, vec in leaf_vectors(tree):
        o0, o1 = np.vdot(vec, family.psi0), np.vdot(vec, family.psi1)
        assignment[path] = 0 if abs(o0) >= abs(o1) else 1
        success += 0.5 * max(abs(o0) ** 2, abs(o1) ** 2)
    assert report.leaf_assignment == assignment
    assert abs(report.success_prob - success) <= 1e-12


@PROPERTY
@given(dims=st.sampled_from([(2, 3), (3, 2, 2), (2, 3, 2)]), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_path_reader_follows_the_outcome_order(dims, data, seed):
    # leaves run over np.ndindex(*tree.outcome_dims), as the rows of tree.amplitudes
    # do, in leaf_vectors, discriminate, leaf_distribution and mle's counted paths
    rng = np.random.default_rng(seed)
    order = data.draw(st.permutations(range(len(dims))))
    family = random_pure_family(dims, rng)
    tree = random_tree(dims, order, rng)
    assert tree.outcome_dims == tuple(dims[k] for k in order)
    paths = list(np.ndindex(*tree.outcome_dims))
    leaves = leaf_vectors(tree)
    assert [path for path, _ in leaves] == paths
    vectors = np.stack([vec for _, vec in leaves])
    psi = family.psi(0.4)
    assert np.abs(tree.amplitudes(psi) - vectors.conj() @ psi).max() <= 1e-13
    got, probs = leaf_distribution(family, tree, 0.4)
    assert got == paths
    assert np.abs(probs - np.abs(vectors.conj() @ psi) ** 2).max() <= 1e-12
    # mle reads a counted path as the row of its leaf
    law = _OutcomeLaw(family, tree, (0.0, 1.0))
    counts = law.draw(0.4, 200, rng)
    assert mle({paths[e]: n for e, n in enumerate(counts) if n}, family, tree,
               (0.0, 1.0)) == _mle(law, counts, (0.0, 1.0))
    rank_two = random_rank_two_family(dims, rng)
    tree, report = discriminate(rank_two.psi0, rank_two.psi1, rank_two.layout, order)
    assert list(report.leaf_assignment) == list(np.ndindex(*tree.outcome_dims)) == paths


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def generic_mixed(draw):
    """(family, theta, povm): rho(theta) = U(theta) diag(w) U(theta)^dag, D <= 16.

    U(theta) = V exp(-i theta H) with V Haar. Full rank: every weight is at
    least 0.01. Rank r < D: the last D - r coordinates carry weight 0 and, in
    some draws, one weight in (0, RANK_TOL]. H acts on all of C^D, or, for a
    kernel that does not move with theta, on the first r coordinates only. A
    moving kernel gives the central-difference drho O(h^2) weight between
    kernel directions, above DRHO_TOL in some draws, which the SLD of a
    family leaves out as it does the exact drho's zero block. The POVM is the rows
    of a Haar unitary with one pair of rows padded to three through a 2 x 3
    isometry, so it is complete and rank-one with non-unit rows.
    """
    dims = draw(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3),
                                 (2, 2, 2, 2), (4, 4)]))
    layout = HilbertLayout(dims)
    d = layout.total
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = d if draw(st.booleans()) else draw(st.integers(2, d - 1))
    w = np.zeros(d)
    w[:r] = rng.uniform(0.01, 1.0, r)
    if r < d and draw(st.booleans()):
        w[r] = draw(st.floats(1e-13, 0.5e-9))
    w /= w.sum()
    m = d if draw(st.booleans()) else r
    h = np.zeros((d, d), dtype=complex)
    h[:m, :m] = random_hermitian(m, rng)
    lam, q = np.linalg.eigh(h)
    v = haar_unitary(d, rng)

    def rho(theta):
        u = v @ (q * np.exp(-1j * theta * lam)) @ q.conj().T
        return (u * w) @ u.conj().T

    rows = haar_unitary(d, rng)
    k, l = rng.choice(d, size=2, replace=False)
    pad = haar_unitary(3, rng)[:2]
    vectors = np.concatenate([np.delete(rows, [k, l], axis=0),
                              pad.conj().T @ rows[[k, l]]])
    family = MixedGenericFamily(layout, rho)
    return family, draw(st.floats(-1.0, 1.0)), Povm(vectors=vectors)


@ORACLE
@given(generic_mixed())
def test_generic_mixed_check_matches_the_dense_oracle(case):
    # rho and drho enter the check exactly as the family gives them, so every
    # field meets the oracle at the bounds of assert_matches_oracle
    family, theta, povm = case
    assert_matches_oracle(povm, family, theta)


def random_rank_three_family(dims, rng):
    """Generic mixed family of rank 3: weights (0.1 + 0.2 t, 0.35, 0.55 - 0.2 t), distinct
    on the drawn thetas, on three Haar rows turned by exp(-i t H)."""
    layout = HilbertLayout(dims)
    d = layout.total
    rows = haar_unitary(d, rng)[:3]
    lam, q = np.linalg.eigh(random_hermitian(d, rng))

    def rho(t):
        states = (q * np.exp(-1j * t * lam)) @ q.conj().T @ rows.T
        return (states * [0.1 + 0.2 * t, 0.35, 0.55 - 0.2 * t]) @ states.conj().T

    return MixedGenericFamily(layout, rho)


def random_fixed_basis_mixture(dims, rng):
    """Generic mixed family t rho0 + (1 - t) rho1 of two orthogonal pure states, which a
    document of the same pair reads as rank two over a fixed basis."""
    family = random_rank_two_family(dims, rng)
    p0, p1 = (np.outer(v, v.conj()) for v in (family.psi0, family.psi1))
    return MixedGenericFamily(family.layout, lambda t: t * p0 + (1 - t) * p1)


def affine_doc(dims, rho1, rho2):
    """The "mixed" document rho(t) = t rho1 + (1 - t) rho2 on ``dims``."""
    return {"type": "mixed", "layout": list(dims), "theta_grid": [0.5],
            "rho1": complex_to_pairs(rho1), "rho2": complex_to_pairs(rho2)}


def diagonal_in(rows, weights):
    """sum_k weights_k |rows_k><rows_k|."""
    return (rows.T * weights) @ rows.conj()


@PROPERTY
@given(dims=st.sampled_from([(2,), (2, 2), (2, 3), (3, 3)]), seed=st.integers(0, 2 ** 32 - 1),
       weights=st.sampled_from(["random", "mirrored", "pure"]), data=st.data())
def test_commuting_rank_two_document_reads_as_fixed_basis(dims, seed, weights, data):
    # rho1 = a |t0><t0| + (1 - a) |t1><t1| and rho2 likewise with b: mirrored weights
    # (b = 1 - a) and pure ends make rho1 + rho2 degenerate on the support, and the
    # theta where p = 1/2 fixes no basis of rho(theta)
    rng = np.random.default_rng(seed)
    rows = haar_unitary(prod(dims), rng)[:2]
    a, b = {"random": rng.uniform(0.0, 1.0, 2), "mirrored": (lambda a: (a, 1 - a))(
        rng.uniform(0.0, 1.0)), "pure": (1.0, 0.0)}[weights]
    assume(abs(a - b) >= 0.05)
    rho1, rho2 = diagonal_in(rows, [a, 1 - a]), diagonal_in(rows, [b, 1 - b])
    family = parse_scenario(affine_doc(dims, rho1, rho2)).family
    assert isinstance(family, RankTwoFixedBasisFamily)
    half = (0.5 - b) / (a - b)
    low, high = sorted(((0.05 - b) / (a - b), (0.95 - b) / (a - b)))
    for theta in (half, data.draw(st.floats(low, high))):
        rho = theta * rho1 + (1 - theta) * rho2
        want = qfi_double_sum(rho, rho1 - rho2)
        assert abs(qfi(family, theta) - want) <= 1e-12 * want
        tree = synthesize_at(family, theta)
        generic = MixedGenericFamily(family.layout, lambda t: t * rho1 + (1 - t) * rho2)
        assert check_saturation(tree, family, theta).saturating
        assert check_saturation(tree, generic, theta).saturating


@PROPERTY
@given(dims=st.sampled_from([(2,), (2, 2), (2, 3), (3, 3)]), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["non-commuting", "turned", "rank-three", "rank-one", "trace"]),
       exponent=st.floats(-6.0, -2.0))
def test_other_affine_documents_stay_generic(dims, seed, kind, exponent):
    # a pair that does not commute, a basis turned by 10^exponent, a commuting pair of
    # rank three, one pure state twice, and ends of trace 1 +- eps with eps in [2e-9, 4e-9]:
    # above RHO_TOL, while rho at 1/2 +- h and drho = rho1 - rho2 pass the generic checks
    rng = np.random.default_rng(seed)
    d = prod(dims)
    assume(kind != "rank-three" or d >= 3)
    rows = haar_unitary(d, rng)[:3 if kind == "rank-three" else 2]
    a, b = rng.uniform(0.1, 0.9, 2)
    assume(abs(a - b) >= 0.05 and min(abs(2 * a - 1), abs(2 * b - 1)) >= 0.1)
    rho1 = diagonal_in(rows[:2], [a, 1 - a])
    if kind == "non-commuting":
        turn = haar_unitary(2, rng)
    else:
        c, s = np.cos(10.0 ** exponent), np.sin(10.0 ** exponent)
        turn = np.array([[c, s], [-s, c]]) if kind == "turned" else np.eye(2)
    rho2 = diagonal_in(turn @ rows[:2], [b, 1 - b])
    if kind == "rank-three":
        rho2 = diagonal_in(rows[1:], [b, 1 - b])
    if kind == "rank-one":
        rho1 = rho2 = diagonal_in(rows[:1], [1.0])
    if kind == "trace":
        eps = 1e-9 * (3 + (exponent + 4) / 2)
        rho1, rho2 = (1 + eps) * rho1, (1 - eps) * rho2
    family = parse_scenario(affine_doc(dims, rho1, rho2)).family
    assert isinstance(family, MixedGenericFamily)
    assert saturation_matrices(family, 0.5).target is None


@st.composite
def verdict_cases(draw):
    """(family, theta, reader): a pure, rank-two, fixed-basis generic mixed or rank-3 mixed
    family on (2, 2), (2, 3), (3, 3) or (2, 2, 2), read by its synthesized tree (a rank-3
    family has none), a tree of Haar bases or the padded product Povm of an isometry pair
    (first subsystem against the rest) whose rows are not unit vectors."""
    dims = draw(st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    make = draw(st.sampled_from([random_pure_family, random_rank_two_family,
                                 random_fixed_basis_mixture, random_rank_three_family]))
    family, theta = make(dims, rng), draw(st.floats(0.1, 0.9))
    order = draw(st.permutations(range(len(dims))))
    reader = draw(st.sampled_from(["synthesized", "random", "padded"]))
    if reader == "synthesized" and make is random_fixed_basis_mixture:
        # the generic family has no target; the same mixture read as a document has one
        doc = affine_doc(dims, family.rho(1.0), family.rho(0.0))
        return family, theta, synthesize_at(parse_scenario(doc).family, theta, order)
    if reader == "synthesized" and make is not random_rank_three_family:
        return family, theta, synthesize_at(family, theta, order)
    if reader != "padded":
        return family, theta, random_tree(dims, order, rng)
    d1 = dims[0]
    u, v = haar_unitary(d1 + 1, rng)[:d1], haar_unitary(family.layout.total // d1 + 1, rng)
    return family, theta, lm_povm_from_pair(IsometryPair(u, v[:-1]))


@settings(PROPERTY, max_examples=60)
@given(verdict_cases())
def test_one_contraction_verdict_matches_the_per_matrix_route(case):
    # stacking the distinct rows into one contraction only rounds differently
    family, theta, reader = case
    rep = check_saturation(reader, family, theta)
    ref = per_matrix_saturation(reader, saturation_matrices(family, theta))
    assert abs(rep.fi - ref["fi"]) <= 1e-13 * ref["fi"]
    assert rep.qfi == ref["qfi"]
    for name in ("condition_residual", "regularity_residual"):
        assert abs(getattr(rep, name) - ref[name]) <= 1e-15 * max(1.0, ref["qfi"])
    assert rep.saturating == ref["saturating"]
    povm = reader if isinstance(reader, Povm) else flatten(reader)
    ora = oracle_report(povm, family, theta)
    assert abs(rep.fi - ora["fi"]) <= 1e-12 * ora["qfi"]
    for name in ("condition_residual", "regularity_residual"):
        assert abs(getattr(rep, name) - ora[name]) <= 1e-12 * ora["scale"]
    assert rep.saturating == ora["saturating"]


def random_numeric_family(dims, rng):
    """PureNumericFamily whose evaluator is a random dense-generator family's psi."""
    family = random_pure_family(dims, rng)
    return PureNumericFamily(family.layout, family.psi)


def random_mixed_family(dims, rng):
    """Generic mixed family theta rho1 + (1 - theta) rho2, as the Bell mixture is built."""
    layout = HilbertLayout(dims)
    rho1, rho2 = random_density(layout.total, rng), random_density(layout.total, rng)
    return MixedGenericFamily(layout, lambda t: t * rho1 + (1 - t) * rho2)


def assert_law_matches_leaf_vectors(family, tree, thetas):
    """The amplitude law against <e|rho|e> over the oracle's kron-built leaf vectors."""
    leaves = leaf_vectors_kron(tree)
    vectors = np.stack([vec for _, vec in leaves])
    block = _path_prob_fns(family, [tree])[0]
    for theta in thetas:
        rho = family.rho_drho(theta)[0]
        want = np.einsum("ea,ab,eb->e", vectors.conj(), rho, vectors).real
        assert np.abs(prob_at(block, theta) - want).max() <= 1e-12
        paths, probs = leaf_distribution(family, tree, theta)
        assert paths == [path for path, _ in leaves]
        assert np.abs(probs - want / want.sum()).max() <= 1e-12
    # every grid column of the tabulated law against the per-theta law: the
    # rank-two and mixed blocks combine the same products, bit for bit; a pure
    # block is one BLAS product or contraction, equal to rounding
    law = _OutcomeLaw(family, tree, (0.1, 0.9))
    assert law.log_table.shape == (tree.layout.total, GRID_POINTS)
    per_theta = np.stack([np.maximum(prob_at(block, t), LOG_FLOOR) for t in law.grid], axis=1)
    if family.state_type == "pure":
        assert np.abs(np.exp(law.log_table) - per_theta).max() <= 1e-12
    else:
        assert np.array_equal(law.log_table, np.log(per_theta))


@PROPERTY
@given(dims=layouts(), data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       make=st.sampled_from([random_pure_family, random_diagonal_family,
                             random_numeric_family, random_rank_two_family,
                             random_mixed_family]))
def test_outcome_law_from_amplitudes_matches_leaf_vectors(dims, data, seed, make):
    rng = np.random.default_rng(seed)
    family = make(dims, rng)
    tree = random_tree(dims, data.draw(st.permutations(range(len(dims)))), rng)
    thetas = data.draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=3))
    # a unitary family is read through its components, or, with the small-law
    # bound at zero and more levels than d_1 + ... + d_n, through psi(theta)
    for small_law in (simulate.SMALL_LAW, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "SMALL_LAW", small_law)
            assert_law_matches_leaf_vectors(family, tree, thetas)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
@pytest.mark.parametrize("tree_from", ["random", "ranktwo", "ghz2"])
def test_bell_mixture_law_from_amplitudes_matches_leaf_vectors(order, tree_from):
    bellmix = builtin_scenario("bellmix").family
    if tree_from == "random":
        tree = random_tree((2, 2), order, np.random.default_rng(list(order)))
    else:
        family = builtin_scenario(tree_from).family
        tree = synthesize_at(family, 0.3, order)
    assert_law_matches_leaf_vectors(bellmix, tree, (0.1, 0.5, 0.9))


def mle_family(name):
    """(family, family whose saturating tree measures it) for one outcome-law route.

    ghzN and chain4 are read through their components; psi-unitary, a dense
    three-qubit generator with eight levels, takes the psi(theta) route once
    SMALL_LAW is 0; ``psi:`` wraps a built-in family's psi in a PureNumericFamily
    (the psi(theta) route, with a difference derivative); ranktwo is the
    rank-two route and bellmix, measured by the ranktwo tree, the generic mixed one.
    """
    if name.startswith("psi:"):
        family = builtin_scenario(name[4:]).family
        return PureNumericFamily(family.layout, family.psi), family
    if name == "psi-unitary":
        family = random_pure_family((2, 2, 2), np.random.default_rng(7))
        return family, family
    family = builtin_scenario(name).family
    return family, builtin_scenario("ranktwo").family if name == "bellmix" else family


@PROPERTY
@given(name=st.sampled_from(["ghz2", "ghz3", "ghz4", "chain4", "psi-unitary", "psi:ghz3",
                             "psi:chain4", "ranktwo", "bellmix"]),
       shots=st.sampled_from([10 ** 2, 10 ** 4, 10 ** 5]), theta=st.floats(0.2, 0.6),
       shift=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 2 ** 32 - 1))
def test_score_root_meets_golden_section(name, shots, theta, shift, seed):
    # the root of the score is the maximum that golden section brackets down to
    # MLE_WIDTH, up to what its rounding-limited comparisons resolve (~1e-8)
    family, tree_family = mle_family(name)
    prior = (0.1, 0.7)
    tree = synthesize_at(tree_family, theta + shift)
    with pytest.MonkeyPatch.context() as mp:
        if name == "psi-unitary":
            mp.setattr(simulate, "SMALL_LAW", 0)
        law = _OutcomeLaw(family, tree, prior)
    counts = law.draw(theta, shots, np.random.default_rng(seed))
    try:
        want = golden_mle(law, counts, prior)
    except DegenerateLikelihoodError:
        with pytest.raises(DegenerateLikelihoodError):
            _mle(law, counts, prior)
        return
    assert abs(_mle(law, counts, prior) - want) <= 1e-7


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("name", ["ghz3", "psi-unitary", "psi:ghz3", "ranktwo", "bellmix"])
@settings(PROPERTY, max_examples=3)
@given(shots=st.sampled_from([10 ** 2, 10 ** 4, 10 ** 5]), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_estimates_are_their_stack_of_one(name, stacked, shots, data, seed):
    # Each row of a stack of T = 1..12 count rows, all-zero (flat) rows among them,
    # gets the estimate or flag it gets alone, bit for bit, and golden section's
    # maximum. Rows go to one tree (a fixed run), or row i to tree i of one
    # stacked law (the main laws of a two-step block) against a stacked law of one.
    family, tree_family = mle_family(name)
    prior, rng = (0.1, 0.7), np.random.default_rng(seed)
    trials = data.draw(st.integers(1, 12))
    flat = data.draw(st.lists(st.booleans(), min_size=trials, max_size=trials))
    targets = [saturation_matrices(tree_family, t).target
               for t in rng.uniform(0.2, 0.6, trials if stacked else 1)]
    trees = synthesize_trees(targets, tree_family.layout)
    with pytest.MonkeyPatch.context() as mp:
        if name == "psi-unitary":   # eight levels, above the component cap of 56 // 8 = 7
            mp.setattr(simulate, "SMALL_LAW", 56)
        law = _OutcomeLaw(family, trees if stacked else trees[0], prior)
        counts = law.draw(float(rng.uniform(0.2, 0.6)), shots,
                          [np.random.default_rng([seed, i]) for i in range(trials)])
        counts[np.array(flat)] = 0
        got = simulate._estimates(law, counts, prior)
        for i, est in enumerate(got):
            one = _OutcomeLaw(family, [trees[i]], prior) if stacked else law
            alone = simulate._estimates(one, counts[i:i + 1], prior)[0]
            oracle = _OutcomeLaw(family, trees[i], prior) if stacked else law
            if isinstance(est, DegenerateLikelihoodError):
                assert isinstance(alone, DegenerateLikelihoodError)
                with pytest.raises(DegenerateLikelihoodError):
                    golden_mle(oracle, counts[i], prior)
            else:
                assert est == alone
                assert abs(est - golden_mle(oracle, counts[i], prior)) <= 1e-7
