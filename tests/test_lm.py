import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import loccfisher.lm as lm
import loccfisher.zerodiag as zd
from loccfisher import (BipartiteCoeffs, IsometryPair, UnitaryGeneratorFamily,
                        check_lm_conditions, check_saturation,
                        coefficient_matrices, construct_lm_2xd,
                        heuristic_lm_search, lm_povm_from_pair,
                        perp_component)
from loccfisher.cli import cli_main
from loccfisher.lm import PHASE_TOL
from loccfisher.scenarios import bell_states, builtin_scenario
from loccfisher.tensor import LM_STOP_TOL, PERP_TOL, HilbertLayout, complex_to_pairs, identity
from loccfisher.zerodiag import simultaneous_zero_diag

from conftest import random_state
from oracles import central_jacobian, lm_search_residuals, scipy_lm

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
        perp = perp_component(psi, sc.family.psi_dpsi(0.0)[1])
        out = coefficient_matrices(psi, perp, sc.family.layout)
        assert np.abs(out.a_mat - A_GAP).max() < 1e-12
        assert np.abs(out.b_mat - B_GAP).max() < 1e-12

    def test_diag_pair_matrices(self):
        sc = builtin_scenario("lm3x3")
        psi = sc.family.psi(0.0)
        perp = perp_component(psi, sc.family.psi_dpsi(0.0)[1])
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

    @pytest.mark.parametrize("call, error", [
        (lambda: BipartiteCoeffs(np.zeros((2, 2, 1)), np.zeros((2, 2, 1))),
         "coefficient matrices must share a 2-D shape"),
        (lambda: IsometryPair(np.eye(3)[:, :2], np.eye(2)),
         "U must have at least as many columns as rows"),
        (lambda: coefficient_matrices(np.ones(3), np.ones(4), HilbertLayout((2, 2))),
         "vector length does not match the layout")])
    def test_shape_refusals_named(self, call, error):
        with pytest.raises(ValueError, match=error):
            call()


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1), size=st.floats(0.0, 1.0),
           phase=st.floats(0.0, 2 * np.pi), scale=st.floats(-6.0, 3.0))
    @example(d=2, seed=0, size=1.0, phase=np.pi / 2, scale=0.0)
    def test_every_accepted_pair_is_constructed(self, d, seed, size, phase, scale):
        # B off the complement of A by up to PERP_TOL, of norm 1e-6 .. 1e3: the skew
        # form and the conditioned targets, of trace |Im Tr A^dag B|, pass their checks
        coeffs = random_coeffs(2, d, np.random.default_rng(seed))
        a, b = coeffs.a_mat, coeffs.b_mat
        b = b * 10 ** scale / np.linalg.norm(b) + size * PERP_TOL * np.exp(1j * phase) * a
        try:
            coeffs = BipartiteCoeffs(a, b)
        except ValueError:      # rounding put |Tr A^dag B| past PERP_TOL
            assume(False)
        rep = check_lm_conditions(construct_lm_2xd(coeffs), coeffs)
        assert rep.phase_residual <= PHASE_TOL

    def test_random_2xd_phase_condition(self, rng):
        for d in (2, 3):
            for _ in range(25):
                coeffs = random_coeffs(2, d, rng)
                rep = check_lm_conditions(construct_lm_2xd(coeffs), coeffs)
                assert rep.phase_residual < 1e-8

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_random_2xd_pairs_are_feasible_and_saturate(self, d):
        rng = np.random.default_rng(d)
        for _ in range(8):
            coeffs = random_coeffs(2, d, rng)
            pair = construct_lm_2xd(coeffs)
            assert check_lm_conditions(pair, coeffs).feasible
            fam = interpolation_family(coeffs.a_mat, coeffs.b_mat)
            assert check_saturation(lm_povm_from_pair(pair), fam, 0.0).saturating

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1), real=st.booleans())
    def test_unchecked_pair_entry_matches_the_public_route(self, d, seed, real):
        # construct_lm_2xd hands its conditioned targets to zero_diag_pair without the
        # pair check; simultaneous_zero_diag of the same targets stays the reference
        rng = np.random.default_rng(seed)
        coeffs = random_coeffs(2, d, rng)
        if real:
            a = rng.standard_normal((2, d))
            a /= np.linalg.norm(a)
            b = rng.standard_normal((2, d))
            coeffs = BipartiteCoeffs(a, b - np.sum(a * b) * a)
        pair = construct_lm_2xd(coeffs)
        a, b, u = coeffs.a_mat, coeffs.b_mat, pair.u_mat
        targets = []
        for i in range(2):
            p = np.outer(u[:, i], u[:, i].conj())
            targets.append(-1j * (b.conj().T @ p @ a - a.conj().T @ p @ b))
        v = simultaneous_zero_diag(*targets).view(float)
        assert np.array_equal(pair.v_mat.view(float), v)
        assert np.array_equal(np.signbit(pair.v_mat.view(float)), np.signbit(v))

    def test_cached_node_constants_are_read_only(self):
        # the DFT and identity of a node dimension are built once and shared by every call
        for const in (zd._dft(3), identity(3)):
            with pytest.raises(ValueError, match="read-only"):
                const[0, 0] = 0

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
        for (i, j), v in zip(np.ndindex(2, 2), povm.vectors, strict=True):
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
                                     allow_isometry_padding=False, seed=1)
        assert max(rep.phase_residual, rep.support_residual) > 1e-6 and rep.projective

    def test_bell_with_phase_generator(self):
        a = np.diag([1 / S2, 1 / S2]).astype(complex)
        b = (-1j / 2) * np.diag([1 / S2, -1 / S2]).astype(complex)
        _, rep = heuristic_lm_search(BipartiteCoeffs(a, b), restarts=20, seed=2)
        assert rep.feasible

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_rejects_fewer_than_one_restart(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            heuristic_lm_search(BipartiteCoeffs(A_3X3, B_3X3), restarts=restarts)

    @pytest.mark.parametrize("iters", [0, -1])
    def test_rejects_fewer_than_one_iteration(self, iters):
        with pytest.raises(ValueError, match="iters must be at least 1"):
            heuristic_lm_search(BipartiteCoeffs(A_3X3, B_3X3), iters=iters)


def search_problem(coeffs, padded):
    """The residual and Jacobian callables a search hands to ``lm.least_squares``."""
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

    f, j, want_f = fun(x), jac(x), oracle(x)
    # rows past the oracle's make up MINPACK's count of one residual per parameter
    m = len(want_f)
    assert f.shape == (max(m, len(x)),) and j.shape == (len(f), len(x))
    assert not f[m:].any() and not j[m:].any()
    assert np.abs(f[:m] - want_f).max() < 1e-12
    want = central_jacobian(oracle, x)
    assert np.abs(j[:m] - want).max() <= 1e-7 * max(1.0, np.abs(want).max())


class TestExpMapStack:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(d=st.integers(1, 4), order=st.permutations(["random", "zero", "repeated"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_matches_each_exponent_alone_bit_for_bit(self, d, order, seed):
        # the search stacks U's and V's exponents when they have the same size
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        rows = {"random": rng.standard_normal(d * d), "zero": np.zeros(d * d),
                "repeated": params_from_herm((q * np.r_[1.3, 1.3, -0.4, 0.7][:d]) @ q.conj().T)}
        x = np.stack([rows[kind] for kind in order])
        emap = lm._ExpMap(d)
        w, v, u = emap(x)
        dus = emap.derivative(w, v)
        for i in range(len(x)):
            wi, vi, ui = emap(x[i].reshape(1, -1).copy())
            assert np.array_equal(w[i], wi[0]) and np.array_equal(v[i], vi[0])
            assert np.array_equal(u[i], ui[0])
            assert np.array_equal(dus[i], emap.derivative(wi, vi)[0])


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

    @pytest.mark.parametrize("d1,d2,padded", [(3, 3, False), (3, 3, True), (2, 3, False)])
    def test_minpack_call_matches_scipy_least_squares_bit_for_bit(self, d1, d2, padded):
        # leastsq and least_squares(method="lm", x_scale="jac") make the same lmder call
        coeffs = (BipartiteCoeffs(A_3X3, B_3X3) if d1 == 3
                  else random_coeffs(d1, d2, np.random.default_rng(11)))
        fun, jac = search_problem(coeffs, padded)
        m2 = d2 + 1 if padded else d2
        for seed in range(4):
            x0 = np.random.default_rng(seed).standard_normal(d1 * d1 + m2 * m2)
            sol = lm.least_squares(fun, x0, jac, maxfev=300)
            want_x, want_nfev = scipy_lm(fun, x0, jac, max_nfev=300, tol=1e-15)
            assert np.array_equal(sol.x, want_x) and sol.nfev == want_nfev

    def test_fewer_residuals_than_parameters_raise(self):
        # lmder itself returns x0 untouched with info 0
        with pytest.raises(ValueError, match="improper input to lmder"):
            lm.least_squares(lambda x: x[:1], np.ones(3), lambda x: np.eye(1, 3), maxfev=100)

    @pytest.mark.parametrize("maxfev", [0, -1])
    def test_fewer_than_one_evaluation_raises(self, maxfev):
        # lmder itself returns x0 untouched for 0 and reads a negative cap as none
        with pytest.raises(ValueError, match="maxfev must be at least 1"):
            lm.least_squares(lambda x: x - 1, np.zeros(2), lambda x: np.eye(2), maxfev=maxfev)

    @pytest.mark.parametrize("padded", [False, True])
    def test_same_seed_same_result(self, padded):
        coeffs = BipartiteCoeffs(A_3X3, B_3X3)
        (p1, r1), (p2, r2) = (heuristic_lm_search(coeffs, restarts=2, seed=3,
                                                  allow_isometry_padding=padded)
                              for _ in range(2))
        assert np.array_equal(p1.u_mat, p2.u_mat)
        assert np.array_equal(p1.v_mat, p2.v_mat)
        assert r1 == r2

    def test_same_result_whatever_new_memory_holds(self):
        # without the zero border of lm.least_squares, MINPACK's iterates on these
        # rank-deficient Jacobians change with the contents of newly allocated
        # memory, which glibc fills with the byte MALLOC_PERTURB_ names (other C
        # libraries ignore the variable); these projective restarts end stalled,
        # so their best evaluated pairs are the same too
        assert_same_pairs_whatever_new_memory_holds("restarts=1, seed=seed")


def assert_same_pairs_whatever_new_memory_holds(search_args):
    """The lm3x3 pairs of ``heuristic_lm_search(coeffs, search_args)`` at seeds 0-3 are the same
    in child processes whose new memory holds the bytes 0, 85 and 170 (glibc's MALLOC_PERTURB_)."""
    code = ("import hashlib, numpy as np\n"
            "from loccfisher import BipartiteCoeffs, heuristic_lm_search\n"
            "coeffs = BipartiteCoeffs(np.diag([0.5 ** 0.5, 0.5, 0.5]),\n"
            "                         np.diag([0.5 ** 0.5 * 1j, -0.5j, -0.5j]))\n"
            "digest = hashlib.sha256()\n"
            "for seed in range(4):\n"
            f"    pair, _ = heuristic_lm_search(coeffs, {search_args})\n"
            "    digest.update(pair.u_mat.tobytes() + pair.v_mat.tobytes())\n"
            "print(digest.hexdigest())\n")
    src = str(Path(lm.__file__).parents[1])
    runs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=src, MALLOC_PERTURB_=byte))
            for byte in ("0", "85", "170")]
    digests = {run.communicate()[0] for run in runs}
    assert all(run.returncode == 0 for run in runs)
    assert len(digests) == 1


def scenario_coeffs(name):
    """Coefficient matrices of a built-in bipartite pure scenario at theta = 0."""
    sc = builtin_scenario(name)
    psi, dpsi = sc.family.psi_dpsi(0.0)
    return sc.family, coefficient_matrices(psi, perp_component(psi, dpsi), sc.family.layout)


class TestStopAtFirstFeasibleEvaluation:
    @pytest.mark.parametrize("d1,d2,padded", [(3, 3, False), (3, 3, True), (2, 3, False)])
    def test_stop_that_never_holds_changes_no_bit(self, d1, d2, padded):
        coeffs = (BipartiteCoeffs(A_3X3, B_3X3) if d1 == 3
                  else random_coeffs(d1, d2, np.random.default_rng(11)))
        fun, jac = search_problem(coeffs, padded)
        m2 = d2 + 1 if padded else d2
        for seed in range(4):
            x0 = np.random.default_rng(seed).standard_normal(d1 * d1 + m2 * m2)
            calls, asked = [], []
            sol = lm.least_squares(lambda x: calls.append(1) or fun(x), x0, jac, maxfev=300,
                                   stop=lambda x, f: asked.append(1) and False)
            want = lm.least_squares(fun, x0, jac, maxfev=300)
            assert np.array_equal(sol.x, want.x) and sol.nfev == want.nfev
            assert len(asked) == len(calls) > 0     # asked after every residual evaluation

    @pytest.mark.parametrize("name", ["lm2x2", "lm3x3"])
    def test_padded_search_stops_well_below_iters(self, monkeypatch, name):
        family, coeffs = scenario_coeffs(name)
        nfevs, residual_calls = [], []
        real = lm.least_squares

        def spy(fun, x0, jac, **kw):
            calls = []
            sol = real(lambda x: calls.append(1) or fun(x), x0, jac, **kw)
            nfevs.append(sol.nfev)
            residual_calls.append(len(calls))
            return sol

        monkeypatch.setattr(lm, "least_squares", spy)
        iters = 300
        pair, rep = heuristic_lm_search(coeffs, iters=iters, allow_isometry_padding=True)
        assert rep.feasible and rep.restarts == len(nfevs)
        # the last restart ends at its first evaluation that meets the rule
        assert nfevs[-1] < iters // 5 and nfevs[-1] == residual_calls[-1]
        assert max(rep.phase_residual, rep.support_residual) < 1e-10
        assert check_saturation(lm_povm_from_pair(pair), family, 0.0).saturating

    def test_stopped_pair_whatever_new_memory_holds(self):
        # every one of these restarts ends at the stop
        assert_same_pairs_whatever_new_memory_holds(
            "restarts=1, seed=seed, allow_isometry_padding=True")


def pair_at(x, d1, d2, padded):
    """The pair a search parameter vector x encodes: U = exp(iH) and the first d2 rows of V."""
    m2 = d2 + 1 if padded else d2
    u = lm._ExpMap(d1)(x[None, :d1 * d1])[2][0]
    v = lm._ExpMap(m2)(x[None, d1 * d1:])[2][0][:d2]
    return IsometryPair(u, v)


class TestStallStop:
    def test_projective_restarts_end_stalled_at_their_best_evaluation(self, monkeypatch):
        _, coeffs = scenario_coeffs("lm3x3")
        fun, _ = search_problem(coeffs, False)
        norms, sols = [], []
        real = lm.least_squares

        def spy(fun, x0, jac, **kw):
            seen = []
            norms.append(seen)
            sols.append(real(lambda x: seen.append(np.linalg.norm(f := fun(x))) or f,
                             x0, jac, **kw))
            return sols[-1]

        monkeypatch.setattr(lm, "least_squares", spy)
        iters = 300
        _, rep = heuristic_lm_search(coeffs, restarts=4, iters=iters)
        assert not rep.feasible and len(sols) == 4
        # each ends below iters, and on average below half of it
        assert sum(sol.nfev for sol in sols) < len(sols) * iters // 2
        for sol, seen in zip(sols, norms):
            assert sol.nfev == len(seen) < iters
            # the result is the best evaluated x, whichever evaluation saw the stall
            assert np.linalg.norm(fun(sol.x)) == min(seen)
        # and here a stall is seen at an evaluation worse than the best
        assert any(seen[-1] > min(seen) for seen in norms)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 3)]), padded=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    # slow feasible restarts among seeds 0-149 (159-298 evaluations), cut first by a too eager stall
    @example(dims=(3, 3), padded=True, seed=112)
    @example(dims=(3, 3), padded=True, seed=86)
    @example(dims=(2, 2), padded=True, seed=118)
    @example(dims=(2, 4), padded=False, seed=149)
    @example(dims=(2, 3), padded=False, seed=21)
    @example(dims=(2, 2), padded=False, seed=14)
    def test_stall_never_cuts_a_feasible_restart(self, dims, padded, seed):
        d1, d2 = dims
        m2 = d2 + 1 if padded else d2
        coeffs = random_coeffs(d1, d2, np.random.default_rng(seed))
        fun, jac = search_problem(coeffs, padded)

        def feasible(x, f):     # the search's own rule, without the stall
            if 2 * np.abs(f[:d1 * m2]).max() < LM_STOP_TOL:
                rep = check_lm_conditions(pair_at(x, d1, d2, padded), coeffs)
                if rep.feasible and max(rep.phase_residual, rep.support_residual) < LM_STOP_TOL:
                    return x
            return None

        # the search's first restart starts from the seed's first draw
        x0 = np.random.default_rng(seed).standard_normal(d1 * d1 + m2 * m2)
        want = lm.least_squares(fun, x0, jac, stop=feasible, maxfev=300)
        assume(feasible(want.x, fun(want.x)) is not None)
        pair, rep = heuristic_lm_search(coeffs, restarts=1, seed=seed,
                                        allow_isometry_padding=padded)
        found = pair_at(want.x, d1, d2, padded)
        assert rep.feasible
        assert np.array_equal(pair.u_mat, found.u_mat) and np.array_equal(pair.v_mat, found.v_mat)


class TestRandomPairVerdicts:
    # generic random pairs have saturating product measurements, projective ones included
    @pytest.mark.parametrize("d1,d2,padded", [(3, 3, True), (3, 3, False), (2, 4, False)])
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_search_finds_a_saturating_pair(self, d1, d2, padded, seed):
        coeffs = random_coeffs(d1, d2, np.random.default_rng(seed))
        pair, rep = heuristic_lm_search(coeffs, seed=seed, allow_isometry_padding=padded)
        assert rep.feasible and rep.projective is not padded
        fam = interpolation_family(coeffs.a_mat, coeffs.b_mat)
        assert check_saturation(lm_povm_from_pair(pair), fam, 0.0).saturating


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
