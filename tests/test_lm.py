import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loccfisher.lm as lm
from loccfisher import (BipartiteCoeffs, IsometryPair, UnitaryGeneratorFamily,
                        check_lm_conditions, check_saturation,
                        coefficient_matrices, construct_lm_2xd,
                        heuristic_lm_search, lm_povm_from_pair,
                        perp_component)
from loccfisher.cli import cli_main
from loccfisher.lm import PHASE_TOL
from loccfisher.scenarios import bell_states, builtin_scenario
from loccfisher.tensor import HilbertLayout, complex_to_pairs

from conftest import random_state
from oracles import central_jacobian, lm_search_residuals

S2 = np.sqrt(2)

A_3X3 = np.diag([S2 / 2, 0.5, 0.5]).astype(complex)
B_3X3 = np.diag([S2 * 1j / 2, -1j / 2, -1j / 2])

U_3X3 = np.array([
    [1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3)],
    [np.sqrt(2) / np.sqrt(3), -1 / np.sqrt(6), -1 / np.sqrt(6)],
    [0, -1j / np.sqrt(2), 1j / np.sqrt(2)],
])
V_3X4 = np.array([
    [np.exp(1j * np.pi / 4) / 2, np.exp(3j * np.pi / 4) / 2,
     -np.exp(1j * np.pi / 4) / 2, -np.exp(3j * np.pi / 4) / 2],
    [0.5, 0.5, 0.5, 0.5],
    [0.5, -0.5, 0.5, -0.5],
])

A_GAP = np.array([[1 / S2, 0], [0.5, 0.5]], dtype=complex)
B_GAP = np.array([[0, 1 / S2], [0.5, -0.5]], dtype=complex)


def random_coeffs(d1, d2, rng):
    a = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
    b = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
    a /= np.sqrt(np.trace(a.conj().T @ a).real)
    b -= np.trace(a.conj().T @ b) * a
    return BipartiteCoeffs(a, b)


def interpolation_family(a_mat, b_mat):
    """Pure family with psi(0) = vec(A) and perpendicular derivative vec(B)."""
    psi0 = a_mat.reshape(-1)
    perp = b_mat.reshape(-1)
    gen = 1j * (np.outer(perp, psi0.conj()) - np.outer(psi0, perp.conj()))
    return UnitaryGeneratorFamily(HilbertLayout(a_mat.shape), psi0, gen)


class TestCoefficientMatrices:
    def test_bell_schmidt_form(self):
        bells = bell_states()
        perp = np.array([0, 1, 1, 0], dtype=complex) / S2
        out = coefficient_matrices(bells["phi+"], perp, HilbertLayout((2, 2)))
        assert np.abs(out.a_mat - np.diag([1 / S2, 1 / S2])).max() < 1e-12

    def test_gap_pair_matrices(self):
        sc = builtin_scenario("lm2x2")
        psi = sc.family.psi(0.0)
        perp = perp_component(psi, sc.family.dpsi(0.0))
        out = coefficient_matrices(psi, perp, sc.family.layout)
        assert np.abs(out.a_mat - A_GAP).max() < 1e-12
        assert np.abs(out.b_mat - B_GAP).max() < 1e-12

    def test_diag_pair_matrices(self):
        sc = builtin_scenario("lm3x3")
        psi = sc.family.psi(0.0)
        perp = perp_component(psi, sc.family.dpsi(0.0))
        out = coefficient_matrices(psi, perp, sc.family.layout)
        assert np.abs(out.a_mat - A_3X3).max() < 1e-12
        assert np.abs(out.b_mat - B_3X3).max() < 1e-12

    def test_rejects_non_bipartite(self, rng):
        with pytest.raises(ValueError):
            coefficient_matrices(random_state(8, rng), random_state(8, rng),
                                 HilbertLayout((2, 2, 2)))

    def test_rejects_non_finite(self):
        # NaN fails the normalization and orthogonality comparisons
        a = np.array([[np.nan, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            BipartiteCoeffs(a, np.zeros((2, 2)))

    def test_rejects_non_orthogonal(self, rng):
        psi = random_state(4, rng)
        with pytest.raises(ValueError):
            BipartiteCoeffs(psi.reshape(2, 2), psi.reshape(2, 2))


class TestCheckLmConditions:
    def test_explicit_isometry_pair(self):
        pair = IsometryPair(U_3X3, V_3X4)
        rep = check_lm_conditions(pair, BipartiteCoeffs(A_3X3, B_3X3))
        assert rep.phase_residual < 1e-10
        assert rep.support_residual < 1e-10
        assert rep.feasible and not rep.projective

    def test_misaligned_pair(self):
        # diagonal B component against real diagonal A breaks the phase condition
        a = np.diag([1 / S2, 1 / S2]).astype(complex)
        b = np.exp(1j * np.pi / 4) / 2 * np.array([[1, 1], [1, -1]], complex) / S2
        b -= np.trace(a.conj().T @ b) * a
        pair = IsometryPair(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        rep = check_lm_conditions(pair, BipartiteCoeffs(a, b))
        assert rep.phase_residual > 1e-2

    def test_zero_b_trivially_feasible(self, rng):
        a = random_coeffs(2, 3, rng).a_mat
        pair = IsometryPair(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
        rep = check_lm_conditions(pair, BipartiteCoeffs(a, np.zeros_like(a)))
        assert rep.feasible and rep.projective


class TestConstructLm2xd:
    def test_no_lm_counterexample(self):
        # phase condition satisfiable, support condition necessarily violated
        coeffs = BipartiteCoeffs(S2 * np.eye(2, dtype=complex) / 2,
                                 S2 * np.exp(1j * np.pi / 4)
                                 * np.array([[0, 1], [1, 0]], complex) / 2)
        rep = check_lm_conditions(construct_lm_2xd(coeffs), coeffs)
        assert rep.phase_residual < 1e-8
        assert rep.support_residual > 0.1

    def test_gap_pair_explicit_basis(self):
        # rotating subsystem 2 by pi/8 meets both conditions for the gap pair
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        pair = IsometryPair(np.eye(2, dtype=complex),
                            np.array([[c, -s], [s, c]], dtype=complex))
        rep = check_lm_conditions(pair, BipartiteCoeffs(A_GAP, B_GAP))
        assert rep.feasible and rep.projective

    def test_random_2xd_phase_condition(self, rng):
        for d in (2, 3):
            for _ in range(25):
                coeffs = random_coeffs(2, d, rng)
                rep = check_lm_conditions(construct_lm_2xd(coeffs), coeffs)
                assert rep.phase_residual < 1e-8

    def test_conditioned_targets_traceless(self, rng):
        from loccfisher.zerodiag import zero_diag_basis
        coeffs = random_coeffs(2, 3, rng)
        a, b = coeffs.a_mat, coeffs.b_mat
        u = zero_diag_basis(a @ b.conj().T - b @ a.conj().T)
        for i in range(2):
            p = np.outer(u[:, i], u[:, i].conj())
            t = b.conj().T @ p @ a - a.conj().T @ p @ b
            assert abs(np.trace(t)) < 1e-10

    def test_rejects_wrong_first_dimension(self, rng):
        with pytest.raises(ValueError):
            construct_lm_2xd(random_coeffs(3, 3, rng))


class TestLmPovm:
    def test_identity_pair_computational(self):
        pair = IsometryPair(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        povm = lm_povm_from_pair(pair)
        assert len(povm.vectors) == 4
        for (i, j), v in zip(povm.labels, povm.vectors):
            e = np.outer(v, v.conj())
            want = np.zeros((4, 4), dtype=complex)
            want[2 * i + j, 2 * i + j] = 1.0
            assert np.abs(e - want).max() < 1e-12

    def test_explicit_pair_completeness_and_saturation(self):
        povm = lm_povm_from_pair(IsometryPair(U_3X3, V_3X4))
        assert len(povm.vectors) == 12
        total = sum(np.outer(v, v.conj()) for v in povm.vectors)
        assert np.abs(total - np.eye(9)).max() < 1e-10
        fam = interpolation_family(A_3X3, B_3X3)
        rep = check_saturation(povm, fam, 0.0)
        assert rep.saturating and abs(rep.fi - 4.0) < 1e-8

    def test_rejects_non_finite_isometry(self):
        # NaN fails the isometry comparison
        u = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="U contains non-finite"):
            IsometryPair(u, np.eye(2, dtype=complex))

    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            IsometryPair(np.eye(2, dtype=complex) * 0.5, np.eye(2, dtype=complex))


class TestHeuristicSearch:
    def test_padded_finds_solution_for_diag_pair(self):
        coeffs = BipartiteCoeffs(A_3X3, B_3X3)
        _, rep = heuristic_lm_search(coeffs, restarts=20,
                                     allow_isometry_padding=True, seed=1)
        assert rep.feasible
        assert max(rep.phase_residual, rep.support_residual) < 1e-8
        assert not rep.projective

    def test_projective_fails_for_diag_pair(self):
        coeffs = BipartiteCoeffs(A_3X3, B_3X3)
        _, rep = heuristic_lm_search(coeffs, restarts=15,
                                     allow_isometry_padding=False, seed=1,
                                     phase_tol=1e-6, support_tol=1e-6)
        assert not rep.feasible and rep.projective

    def test_bell_with_phase_generator(self):
        a = np.diag([1 / S2, 1 / S2]).astype(complex)
        b = (-1j / 2) * np.diag([1 / S2, -1 / S2]).astype(complex)
        _, rep = heuristic_lm_search(BipartiteCoeffs(a, b), restarts=20, seed=2)
        assert rep.feasible

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_rejects_fewer_than_one_restart(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            heuristic_lm_search(BipartiteCoeffs(A_3X3, B_3X3), restarts=restarts)


def search_problem(coeffs, padded):
    """The residual and Jacobian callables a search hands to least_squares."""
    seen = {}
    real = lm.least_squares

    def spy(fun, x0, jac, **kw):
        seen.update(fun=fun, jac=jac)
        return real(fun, x0, jac=jac, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lm, "least_squares", spy)
        heuristic_lm_search(coeffs, restarts=1, iters=1,
                            allow_isometry_padding=padded)
    return seen["fun"], seen["jac"]


def params_from_herm(h):
    """Search parameters of a Hermitian matrix: diagonal, Re and Im of the upper triangle."""
    iu = np.triu_indices(h.shape[0], k=1)
    return np.concatenate([h.diagonal().real, h[iu].real, h[iu].imag])


def assert_jacobian_matches_oracle(coeffs, padded, x):
    fun, jac = search_problem(coeffs, padded)

    def oracle(y):
        return lm_search_residuals(coeffs.a_mat, coeffs.b_mat, y, padded)

    assert np.abs(fun(x) - oracle(x)).max() < 1e-12
    want = central_jacobian(oracle, x)
    assert np.abs(jac(x) - want).max() <= 1e-7 * max(1.0, np.abs(want).max())


class TestSearchJacobian:
    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 3), (3, 2)])
    def test_matches_central_differences(self, rng, d1, d2, padded):
        coeffs = random_coeffs(d1, d2, rng)
        m2 = d2 + 1 if padded else d2
        n_u = d1 * d1
        q, _ = np.linalg.qr(rng.standard_normal((m2, m2))
                            + 1j * rng.standard_normal((m2, m2)))
        # all eigenvalues equal at x = 0; V's exponent has a repeated pair
        repeated = np.concatenate([
            rng.standard_normal(n_u),
            params_from_herm((q * np.r_[1.3, 1.3, -0.4, 0.7][:m2]) @ q.conj().T)])
        for x in (rng.standard_normal(n_u + m2 * m2), np.zeros(n_u + m2 * m2),
                  repeated):
            assert_jacobian_matches_oracle(coeffs, padded, x)

    def test_lm3x3_padded_at_zero(self):
        # x = 0 puts |D_ij| = 0 in the padding column: the zero subgradient
        assert_jacobian_matches_oracle(BipartiteCoeffs(A_3X3, B_3X3), True,
                                       np.zeros(9 + 16))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(d1=st.integers(1, 4), d2=st.integers(1, 4), padded=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_property_matches_central_differences(self, d1, d2, padded, seed):
        rng = np.random.default_rng(seed)
        coeffs = random_coeffs(d1, d2, rng)
        m2 = d2 + 1 if padded else d2
        assert_jacobian_matches_oracle(coeffs, padded,
                                       rng.standard_normal(d1 * d1 + m2 * m2))

    def test_one_residual_call_per_evaluation(self, monkeypatch):
        # the exact Jacobian replaces n + 1 residual calls per step
        calls = []
        real = lm.least_squares

        def spy(fun, x0, **kw):
            return real(lambda x: calls.append(1) or fun(x), x0, **kw)

        monkeypatch.setattr(lm, "least_squares", spy)
        iters = 150
        heuristic_lm_search(BipartiteCoeffs(A_3X3, B_3X3), restarts=1, iters=iters)
        assert 0 < len(calls) <= iters + 1

    @pytest.mark.parametrize("padded", [False, True])
    def test_same_seed_same_result(self, padded):
        coeffs = BipartiteCoeffs(A_3X3, B_3X3)
        (p1, r1), (p2, r2) = (heuristic_lm_search(coeffs, restarts=2, seed=3,
                                                  allow_isometry_padding=padded)
                              for _ in range(2))
        assert np.array_equal(p1.u_mat, p2.u_mat)
        assert np.array_equal(p1.v_mat, p2.v_mat)
        assert r1 == r2


class TestConjugationBookkeeping:
    def test_residuals_match_direct_sandwiches(self, rng):
        # the (U, V) conditions must equal the direct zero-sandwich evaluation
        for _ in range(50):
            d1, d2 = (2, 2) if rng.uniform() < 0.5 else (2, 3)
            coeffs = random_coeffs(d1, d2, rng)
            q1, _ = np.linalg.qr(rng.standard_normal((d1, d1))
                                 + 1j * rng.standard_normal((d1, d1)))
            q2, _ = np.linalg.qr(rng.standard_normal((d2, d2))
                                 + 1j * rng.standard_normal((d2, d2)))
            pair = IsometryPair(q1, q2)
            rep = check_lm_conditions(pair, coeffs)
            psi = coeffs.a_mat.reshape(-1)
            perp = coeffs.b_mat.reshape(-1)
            m = np.outer(psi, perp.conj()) - np.outer(perp, psi.conj())
            worst = 0.0
            for i in range(d1):
                for j in range(d2):
                    vec = np.kron(q1[:, i], np.conj(q2[:, j]))
                    worst = max(worst, abs(np.vdot(vec, m @ vec)))
            assert abs(worst - rep.phase_residual) < 1e-8

    def test_feasible_pair_saturates_family(self, rng):
        for _ in range(5):
            coeffs = random_coeffs(2, 3, rng)
            pair = construct_lm_2xd(coeffs)
            rep = check_lm_conditions(pair, coeffs)
            if not rep.feasible:
                continue
            fam = interpolation_family(coeffs.a_mat, coeffs.b_mat)
            sat = check_saturation(lm_povm_from_pair(pair), fam, 0.0)
            assert sat.saturating


class TestLmGapSeparation:
    def test_saturating_lm_does_not_discriminate(self):
        # every outcome of the saturating product basis sees both states
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        pair = IsometryPair(np.eye(2, dtype=complex),
                            np.array([[c, -s], [s, c]], dtype=complex))
        coeffs = BipartiteCoeffs(A_GAP, B_GAP)
        rep = check_lm_conditions(pair, coeffs)
        assert rep.feasible
        cc, dd = pair.cd(coeffs)
        assert np.abs(cc).min() > 0.1 and np.abs(dd).min() > 0.1
        fam = interpolation_family(A_GAP, B_GAP)
        sat = check_saturation(lm_povm_from_pair(pair), fam, 0.0)
        assert sat.saturating


class TestLmThresholdAgreement:
    def test_tiny_amplitude_counts_as_zero(self):
        # |C_01|^2 ~ 1e-14 lies below the outcome-probability cut of
        # check_saturation, so that outcome faces the support condition
        a = np.array([[0.8, 1e-7], [0, 0.6]], dtype=complex)
        a /= np.linalg.norm(a)
        b = np.array([[0.3, 0.2], [0, 0]], dtype=complex)
        b[1, 1] = -np.vdot(a, b) / np.conj(a[1, 1])
        coeffs = BipartiteCoeffs(a, b)
        pair = IsometryPair(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        rep = check_lm_conditions(pair, coeffs)
        sat = check_saturation(lm_povm_from_pair(pair), interpolation_family(a, b), 0.0)
        assert rep.feasible == sat.saturating
        assert not sat.saturating and abs(sat.qfi - 1.16) < 1e-6


def _seeded_2xd_pairs():
    """1500 random 2 x 6 pairs, then 1500 random 2 x 7 pairs, from one seed."""
    rng = np.random.default_rng(12345)
    pairs = {}
    for d2 in (6, 7):
        for k in range(1500):
            a = rng.standard_normal((2, d2)) + 1j * rng.standard_normal((2, d2))
            b = rng.standard_normal((2, d2)) + 1j * rng.standard_normal((2, d2))
            a /= np.linalg.norm(a)
            b -= np.vdot(a, b) * a
            pairs[d2, k] = (a, b / np.linalg.norm(b))
    return pairs


class TestDeflatedNoisePairs:
    # Pairs on which zero-diagonalization once failed: a deflated sub-problem,
    # rounding noise at the scale of its parent pair, met absolute floors.
    FAILED = [(6, k) for k in (331, 515, 564, 605, 930)] + \
        [(7, k) for k in (103, 105, 146, 147, 184, 354, 447, 582, 1041, 1178, 1264)]

    def test_construction_succeeds(self):
        pairs = _seeded_2xd_pairs()
        for key in self.FAILED:
            coeffs = BipartiteCoeffs(*pairs[key])
            rep = check_lm_conditions(construct_lm_2xd(coeffs), coeffs)
            assert rep.phase_residual <= PHASE_TOL, key


class TestConstructFailureExit:
    def test_lost_tracelessness_exits_2(self, tmp_path, capsys, monkeypatch):
        # a basis that does not zero-diagonalize the skew form leaves the
        # conditioned targets with a trace: numerical failure, not a crash
        rng = np.random.default_rng(3)
        coeffs = random_coeffs(2, 3, rng)
        a, b = coeffs.a_mat, coeffs.b_mat
        assert np.abs(np.diag(a @ b.conj().T - b @ a.conj().T)).min() > 1e-3
        monkeypatch.setattr(lm, "zero_diag_basis", lambda m: np.eye(2, dtype=complex))
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(complex_to_pairs(a)))
        pb.write_text(json.dumps(complex_to_pairs(b)))
        assert cli_main(["lm-check", "--a-mat", str(pa), "--b-mat", str(pb)]) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["kind"] == "non-convergence"
        assert "Traceback" not in err
