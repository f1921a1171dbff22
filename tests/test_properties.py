"""The paper's guarantees as properties over random layouts, orders and families.

Pure and fixed-basis rank-two families get an adaptive tree that is complete,
zero-sandwiches the target on every leaf and reaches fi = qfi; rank-two trees
tell the two basis states apart with certainty; and the Bell-mixture control
saturates under no synthesized two-qubit tree. Verdicts and Fisher
information are cross-checked against the dense sqrt(E) oracle, the check
through tree amplitudes against the check of the flattened POVM, and the
vector-only route (closed-form qfi, diagonal generators, factored targets,
leaf amplitudes) against the dense matrices it replaces.
"""

import itertools
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccfisher import (MixedGenericFamily, Povm, UnitaryGeneratorFamily,
                        check_saturation, discriminate, flatten, leaf_vectors, qfi,
                        saturation_matrices, sld, synthesize_tree, verify_tree)
from loccfisher.locc import LEAF_TOL
from loccfisher.metrology import _frame
from loccfisher.scenarios import builtin_scenario
from loccfisher.tensor import HilbertLayout

from conftest import random_hermitian, random_pure_family, random_state
from oracles import dense_saturation, dense_target
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
    return family, theta, synthesize_tree(m_tilde, family.layout, order), m_tilde


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
    tree = synthesize_tree(saturation_matrices(family, theta).target.dense(), family.layout,
                           order)
    povm = flatten(tree)
    rep = check_saturation(povm, bellmix, theta)
    assert not rep.saturating
    assert not oracle_report(povm, bellmix, theta)["saturating"]


def assert_verify_matches_flattened(tree, family, theta):
    """verify_tree (leaf amplitudes) against check_saturation of the leaf-vector POVM."""
    rep = verify_tree(tree, family, theta)
    flat = check_saturation(flatten(tree), family, theta)
    scale = max(m.norm() for m in _frame(family, theta).conditions())
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
    tree = synthesize_tree(saturation_matrices(family, theta).target, family.layout, order)
    assert not assert_verify_matches_flattened(tree, bellmix, theta).saturating


def random_diagonal_family(dims, rng):
    """Pure family whose generator is diagonal, given as its real diagonal."""
    layout = HilbertLayout(dims)
    return UnitaryGeneratorFamily(layout, random_state(layout.total, rng),
                                  rng.standard_normal(layout.total))


@st.composite
def families(draw):
    """(family, theta, order): pure (dense or diagonal generator) or rank-two."""
    dims = draw(layouts())
    order = draw(st.permutations(range(len(dims))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    make = draw(st.sampled_from([random_pure_family, random_diagonal_family,
                                 random_rank_two_family]))
    return make(dims, rng), draw(st.floats(0.1, 0.9)), order


@PROPERTY
@given(families())
def test_closed_form_qfi_matches_the_dense_sld(case):
    family, theta, _ = case
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


@PROPERTY
@given(families())
def test_factored_target_zero_sandwiched_under_the_dense_oracle(case):
    family, theta, order = case
    target = saturation_matrices(family, theta).target
    m_tilde = dense_target(family, theta)
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


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def generic_mixed(draw):
    """(family, theta, povm): rho(theta) = U(theta) diag(w) U(theta)^dag, D <= 16.

    U(theta) = V exp(-i theta H) with V Haar. Full rank: H acts on all of C^D
    and every weight is at least 0.01. Fixed kernel: H acts on the first r
    coordinates only, the rest carry weight 0 and, in some draws, one weight
    in (0, RANK_TOL]; the kernel then does not move with theta. (A kernel
    that moves with theta is out of reach: the central-difference drho puts
    noise above DRHO_TOL on it, which the SLD rejects.) The POVM is the rows
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
    h = np.zeros((d, d), dtype=complex)
    h[:r, :r] = random_hermitian(r, rng)
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
