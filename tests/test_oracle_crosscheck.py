"""check_saturation on rank-one POVMs against the dense sqrt(E) oracle."""

import numpy as np
import pytest

from loccfisher import (FixedBasisFamily, IsometryPair, Povm,
                        check_saturation, flatten, lm_povm_from_pair,
                        perp_component, saturation_matrices, synthesize_tree)
from loccfisher.scenarios import builtin_scenario
from loccfisher.tensor import HilbertLayout, KetBraSum

from conftest import random_pure_family, random_state
from oracles import dense_saturation
from test_lm import A_3X3, B_3X3, U_3X3, V_3X4, interpolation_family
from test_metrology import phase_qubit

LAYOUTS = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 4, 8), (2, 2, 2, 2, 2, 2)]


def assert_matches_oracle(povm, family, theta):
    rep = check_saturation(povm, family, theta)
    rho, drho = family.rho_drho(theta)
    ora = dense_saturation([np.outer(v, v.conj()) for v in povm.vectors], rho, drho)
    scale = ora["scale"]
    assert abs(rep.condition_residual - ora["condition_residual"]) <= 1e-12 * scale
    assert abs(rep.regularity_residual - ora["regularity_residual"]) <= 1e-12 * scale
    # fi relative to its natural scale qfi (fi itself may be exactly zero)
    assert abs(rep.fi - ora["fi"]) <= 1e-12 * ora["qfi"]
    assert abs(rep.qfi - ora["qfi"]) <= 1e-12 * ora["qfi"]
    assert rep.saturating == ora["saturating"]
    return rep


def random_rank_two_family(dims, rng):
    layout = HilbertLayout(dims)
    psi0 = random_state(layout.total, rng)
    psi1 = random_state(layout.total, rng)
    psi1 = psi1 - np.vdot(psi0, psi1) * psi0
    return FixedBasisFamily(layout, [psi0, psi1 / np.linalg.norm(psi1)],
                            lambda t: (0.2 + 0.5 * t, 1 - (0.2 + 0.5 * t)), lambda t: (0.5, -0.5))


@pytest.mark.parametrize("dims", LAYOUTS)
def test_random_trees(dims, rng):
    # each tree checked where it was synthesized (saturating) and at a
    # shifted theta (generically not saturating)
    verdicts = set()
    for make in (random_pure_family, random_rank_two_family):
        fam = make(dims, rng)
        th = float(rng.uniform(0.1, 0.9))
        target = saturation_matrices(fam, th).target.dense()
        povm = flatten(synthesize_tree(KetBraSum.from_dense(target), fam.layout))
        verdicts.add(assert_matches_oracle(povm, fam, th).saturating)
        if fam.state_type == "pure":
            verdicts.add(assert_matches_oracle(povm, fam, th + 0.3).saturating)
    assert verdicts == {True, False}


def test_padded_lm_pair():
    # V_3X4 columns are not unit vectors, so neither are the POVM rows
    povm = lm_povm_from_pair(IsometryPair(U_3X3, V_3X4))
    assert np.abs(np.linalg.norm(povm.vectors, axis=1) - 1).max() > 0.1
    rep = assert_matches_oracle(povm, interpolation_family(A_3X3, B_3X3), 0.0)
    assert rep.saturating


def test_null_outcome_povm():
    # the POVM of test_metrology's regularity-violation case
    fam = phase_qubit()
    th = 0.3
    psi = fam.psi(th)
    perp = perp_component(psi, fam.psi_dpsi(th)[1])
    povm = Povm(vectors=np.array([perp / np.linalg.norm(perp), psi]))
    rep = assert_matches_oracle(povm, fam, th)
    assert rep.regularity_residual > 1e-3 and not rep.saturating


def test_bell_mixture_against_rank_two_tree():
    ranktwo = builtin_scenario("ranktwo").family
    bellmix = builtin_scenario("bellmix").family
    target = saturation_matrices(ranktwo, 0.5).target.dense()
    tree = synthesize_tree(KetBraSum.from_dense(target), ranktwo.layout)
    rep = assert_matches_oracle(flatten(tree), bellmix, 0.5)
    assert not rep.saturating
