"""The paper's guarantees as properties over random layouts, orders and families.

Pure and fixed-basis rank-two families get an adaptive tree that is complete,
zero-sandwiches the target on every leaf and reaches fi = qfi; rank-two trees
tell the two basis states apart with certainty; and the Bell-mixture control
saturates under no synthesized two-qubit tree. Verdicts and Fisher
information are cross-checked against the dense sqrt(E) oracle.
"""

from math import prod

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from loccfisher import (check_saturation, discriminate, flatten, leaf_vectors,
                        saturation_matrices, synthesize_tree)
from loccfisher.locc import LEAF_TOL
from loccfisher.scenarios import builtin_scenario

from conftest import random_pure_family
from oracles import dense_saturation
from test_oracle_crosscheck import random_rank_two_family

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
    m_tilde = saturation_matrices(family, theta).m_tilde
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
    tree = synthesize_tree(saturation_matrices(family, theta).m_tilde, family.layout, order)
    povm = flatten(tree)
    rep = check_saturation(povm, bellmix, theta)
    assert not rep.saturating
    assert not oracle_report(povm, bellmix, theta)["saturating"]
