import re

import numpy as np
import pytest

from loccfisher import metrology
from loccfisher import (FixedBasisFamily, MixedGenericFamily, Povm, PureNumericFamily,
                        UnitaryGeneratorFamily,
                        check_saturation, fisher_info, flatten, perp_component, qfi,
                        saturation_matrices, sld, synthesize_tree, verify_tree)
from loccfisher.locc import MeasurementTree
from loccfisher.scenarios import bell_states, builtin_scenario, parse_scenario
from loccfisher.tensor import HilbertLayout, KetBraSum, complex_to_pairs, kron

from conftest import (PAULI_Z, generic_bell_mixture, ghz_family, random_density,
                      random_hermitian, random_pure_family, random_pure_inputs, random_state,
                      random_traceless_hermitian)
from oracles import central_difference, ghz_product_basis_fi, qfi_double_sum
from test_locc import random_tree

QUBIT = HilbertLayout((2,))


def phase_qubit():
    """Single-qubit phase family (|0> + e^{i theta}|1>)/sqrt(2)."""
    return UnitaryGeneratorFamily(QUBIT, np.array([1, 1], complex) / np.sqrt(2),
                                  np.diag([0.0, -1.0]).astype(complex))


def projector_povm(vectors):
    return Povm(vectors=np.array(vectors))


def dense_conditions(family, theta, support=None):
    """M_ij = |psi_i><psi_j| L - L |psi_i><psi_j| as D x D matrices, from the public SLD;
    the psi_i are the rows of ``support``, by default the SLD's support eigenvectors."""
    res = sld(*family.rho_drho(theta))
    if support is None:
        support = res.eigvecs[:, res.eigvals > 1e-9].T
    return [np.outer(a, b.conj()) @ res.L - res.L @ np.outer(a, b.conj())
            for a in support for b in support]


def saturation_families():
    """A pure, a rank-two, a fixed-basis generic, a rank-3 generic mixed family and bellmix,
    a rank-3 fixed-basis family."""
    bells = bell_states()
    p0 = np.outer(bells["phi+"], bells["phi+"].conj())
    p1 = np.outer(bells["psi+"], bells["psi+"].conj())
    return {"pure": ghz_family(3),
            "rank-two": FixedBasisFamily(HilbertLayout((2, 2)), [bells["phi+"], bells["phi-"]],
                                         lambda t: (t, 1 - t), lambda t: (1.0, -1.0)),
            "fixed-basis": MixedGenericFamily(HilbertLayout((2, 2)),
                                              lambda t: t * p0 + (1 - t) * p1, lambda t: p0 - p1),
            "rank-3": generic_bell_mixture(),
            "bellmix": builtin_scenario("bellmix").family}


class TestEvalState:
    def test_unitary_generator_closed_form(self):
        fam = UnitaryGeneratorFamily(QUBIT, np.array([1, 1], complex) / np.sqrt(2),
                                     PAULI_Z / 2)
        th = 0.7
        psi = fam.psi(th)
        want = np.array([np.exp(-1j * th / 2), np.exp(1j * th / 2)]) / np.sqrt(2)
        assert np.abs(psi - want).max() < 1e-12
        rho, drho = fam.rho_drho(th)
        dpsi = -1j * (PAULI_Z / 2) @ psi
        want_drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
        assert np.abs(drho - want_drho).max() < 1e-12

    def test_dense_generator_route_unchanged(self, rng):
        # psi and dpsi from the stored (lam, C), which reproduce the eigenbasis
        # route and dpsi = -i G psi
        layout, psi_in, g = random_pure_inputs((2, 3), rng)
        fam = UnitaryGeneratorFamily(layout, psi_in, g)
        levels, rows = fam.generator
        phases = np.exp(-0.4j * levels)
        psi, dpsi = phases @ rows, (-1j * levels * phases) @ rows
        rho, drho = fam.rho_drho(0.4)
        assert np.array_equal(rho, np.outer(psi, psi.conj()))
        assert np.array_equal(drho, np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj()))
        w, v = np.linalg.eigh(g)
        assert np.abs(psi - v @ (np.exp(-0.4j * w) * (v.conj().T @ psi_in))).max() < 1e-12
        assert np.abs(dpsi + 1j * (g @ psi)).max() < 1e-12

    def test_diagonal_generator_is_a_vector(self):
        fam = UnitaryGeneratorFamily(QUBIT, np.array([1, 1], complex) / np.sqrt(2),
                                     np.array([0.0, -1.0]))
        psi, dpsi = fam.psi_dpsi(0.7)
        assert np.abs(psi - phase_qubit().psi(0.7)).max() < 1e-15
        assert np.array_equal(dpsi, -1j * np.array([0.0, -1.0]) * psi)
        assert fam.generator.shape == (2,) and fam.generator.dtype == float

    @pytest.mark.parametrize("gen, match", [
        (np.array([0.5, np.nan]), "non-finite"),
        (np.array([0.5, 0.5j]), "not real"),
        (np.array([0.5, 0.5, 0.5]), "shapes"),
        (np.zeros((2, 2, 2)), "expected a matrix")])
    def test_diagonal_generator_checked(self, gen, match):
        with pytest.raises(ValueError, match=match):
            UnitaryGeneratorFamily(QUBIT, np.array([1, 0], complex), gen)

    @pytest.mark.parametrize("name", ["psi_in", "psi0", "psi1"])
    def test_nan_input_vector_named(self, name):
        # |nan - 1| > tol is False: the norm test alone passed NaN on to a later check
        vecs = {"psi0": np.array([1, 0], complex), "psi1": np.array([0, 1], complex)}
        bad = np.array([np.nan, 1.0], complex)
        with pytest.raises(ValueError, match=f"{name} contains non-finite entries"):
            if name == "psi_in":
                UnitaryGeneratorFamily(QUBIT, bad, np.array([0.0, 1.0]))
            else:
                FixedBasisFamily(QUBIT, list({**vecs, name: bad}.values()),
                                 lambda t: (0.5, 0.5), lambda t: (1.0, -1.0))

    @pytest.mark.parametrize("family, error", [
        (lambda: PureNumericFamily(HilbertLayout((2, 2)), lambda t: np.array([1, 0]),
                                   lambda t: np.zeros(4)),
         "evaluator output at theta = 0.3 does not match the layout"),
        (lambda: PureNumericFamily(QUBIT, lambda t: np.array([1.0, 1.0]), lambda t: np.zeros(2)),
         "evaluator output at theta = 0.3 norm"),
        (lambda: PureNumericFamily(QUBIT, lambda t: np.array([1, 0]), lambda t: np.zeros(3)),
         "derivative at theta = 0.3 does not match the layout"),
        (lambda: PureNumericFamily(QUBIT, lambda t: np.array([1, 0]),
                                   lambda t: np.array([np.nan, 0])),
         "derivative at theta = 0.3 contains non-finite entries"),
        (lambda: MixedGenericFamily(HilbertLayout((2, 2)), lambda t: np.eye(2) / 2,
                                    lambda t: np.zeros((4, 4))),
         "evaluator output at theta = 0.3 does not match the layout"),
        (lambda: MixedGenericFamily(QUBIT, lambda t: np.array([[0.5, 0.1], [0.0, 0.5]]),
                                    lambda t: np.zeros((2, 2))),
         "evaluator output at theta = 0.3 is not Hermitian"),
        (lambda: MixedGenericFamily(QUBIT, lambda t: np.diag([1.5, -0.5]),
                                    lambda t: np.zeros((2, 2))),
         "evaluator output at theta = 0.3 is not a unit-trace PSD matrix"),
        (lambda: MixedGenericFamily(QUBIT, lambda t: np.eye(2) / 2,
                                    lambda t: np.array([[1.0, 0.1], [0.0, -1.0]])),
         "derivative at theta = 0.3 is not Hermitian"),
        (lambda: MixedGenericFamily(QUBIT, lambda t: np.eye(2) / 2, lambda t: np.eye(2)),
         "derivative at theta = 0.3 is not traceless"),
        (lambda: MixedGenericFamily(QUBIT, lambda t: np.eye(2) / 2, lambda t: np.zeros((4, 4))),
         "derivative at theta = 0.3 does not match the layout"),
        (lambda: FixedBasisFamily(QUBIT, [np.array([1, 0]), np.array([0, 1])],
                                  lambda t: (0.5, 0.5), lambda t: (np.nan, np.nan)),
         "dp/dtheta = nan is not finite"),
        (lambda: FixedBasisFamily(HilbertLayout((3,)), np.eye(3), lambda t: 0.3, lambda t: 1.0),
         "p_fn and dp_fn give 1 and 1 weights, not one per row of the basis (3)")])
    def test_evaluator_refusals_name_theta(self, family, error):
        # a numeric family evaluates its state at theta, then its derivative there
        with pytest.raises(ValueError, match=re.escape(error)):
            qfi(family(), 0.3)

    def test_empty_povm_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "POVM needs a non-empty (outcomes x dimension) vector array")):
            Povm(np.zeros((0, 2)))

    def test_rank_two_linear(self):
        bells = bell_states()
        fam = FixedBasisFamily(HilbertLayout((2, 2)), [bells["phi+"], bells["phi-"]],
                               lambda t: (t, 1 - t), lambda t: (1.0, -1.0))
        _, drho = fam.rho_drho(0.4)
        p0 = np.outer(bells["phi+"], bells["phi+"].conj())
        p1 = np.outer(bells["phi-"], bells["phi-"].conj())
        assert np.abs(drho - (p0 - p1)).max() < 1e-12

    def test_numeric_matches_analytic(self):
        analytic = phase_qubit()
        numeric = PureNumericFamily(QUBIT, analytic.psi, central_difference(analytic.psi, 1e-4))
        _, d_analytic = analytic.rho_drho(0.3)
        _, d_numeric = numeric.rho_drho(0.3)
        assert np.abs(d_analytic - d_numeric).max() < 1e-7

    def test_out_of_domain_p(self):
        bells = bell_states()
        fam = FixedBasisFamily(HilbertLayout((2, 2)), [bells["phi+"], bells["phi-"]],
                               lambda t: (t, 1 - t), lambda t: (1.0, -1.0))
        with pytest.raises(ValueError):
            fam.rho_drho(1.5)

    def test_domain_clips_weights_only_in_outcome_laws(self):
        # weights within RHO_TOL of [0, 1] are clipped to it; the frame still needs every
        # p_k > 0, and a weight farther out is refused, naming theta, k and the weight
        bells = bell_states()
        fam = FixedBasisFamily(HilbertLayout((2, 2)), [bells["phi+"], bells["phi-"]],
                               lambda t: (t, 1 - t), lambda t: (1.0, -1.0))
        p, dp = fam.p_dp([-5e-10, 0.0, 0.5, 1.0, 1 + 5e-10])
        assert p.tolist() == [[0.0, 1.0], [0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [1.0, 0.0]]
        assert dp.tolist() == [[1.0, -1.0]] * 5
        for theta in (0.0, 1 + 5e-10):
            with pytest.raises(ValueError, match=re.escape("p(theta) = 0.0 outside (0, 1)")):
                qfi(fam, theta)
        for theta in (-2e-9, 1 + 2e-9):
            with pytest.raises(ValueError, match=re.escape(
                    f"weight p_0(theta = {theta!r}) = {theta!r} outside [0, 1]")):
                fam.p_dp([0.5, theta])

    def test_bellmix_domain_and_weights(self):
        # (1 + t)/3, t/3 and 2 (1 - t)/3 on phi+, phi- and psi+, each refused below -RHO_TOL,
        # which puts the ends of the valid range at -3e-9 and 1 + 1.5e-9; the equal weight
        # changes of phi+ and phi- are told apart by rho2
        fam = builtin_scenario("bellmix").family
        assert isinstance(fam, FixedBasisFamily)
        fam.p_dp([-2.9e-9, 1 + 1.4e-9])
        for theta, k in ((-3.1e-9, 1), (1 + 1.6e-9, 2)):
            weight = re.escape(f"weight p_{k}(theta = {theta!r}) = -1.0")
            with pytest.raises(ValueError, match=weight):
                fam.p_dp([theta])
        bells = bell_states()
        overlaps = np.abs(fam.basis.conj() @ np.stack([bells[k] for k in ("phi+", "phi-", "psi+")]).T)
        assert np.abs(overlaps - np.eye(3)).max() < 1e-12
        p, dp = fam.p_dp([0.3])
        assert np.abs(p - [1.3 / 3, 0.1, 1.4 / 3]).max() < 1e-15
        assert np.abs(dp - [1 / 3, 1 / 3, -2 / 3]).max() < 1e-15


class TestSld:
    def test_bell_mixture_coefficients(self):
        sc = builtin_scenario("bellmix")
        th = 0.3
        res = sld(*sc.family.rho_drho(th))
        bells = bell_states()
        want = (1 / (1 + th) * np.outer(bells["phi+"], bells["phi+"].conj())
                + 1 / th * np.outer(bells["phi-"], bells["phi-"].conj())
                - 1 / (1 - th) * np.outer(bells["psi+"], bells["psi+"].conj()))
        assert np.abs(res.L - want).max() < 1e-9

    def test_ghz_closed_form(self):
        n, th = 4, 0.35
        fam = ghz_family(n)
        res = sld(*fam.rho_drho(th))
        want = np.zeros((2 ** n, 2 ** n), dtype=complex)
        want[-1, 0] = n * 1j * np.exp(1j * n * th)
        want[0, -1] = -n * 1j * np.exp(-1j * n * th)
        assert np.abs(res.L - want).max() < 1e-9

    def test_pure_family_form(self):
        fam = phase_qubit()
        th = 0.2
        rho, drho = fam.rho_drho(th)
        res = sld(rho, drho)
        assert np.abs(res.L - 2 * drho).max() < 1e-9

    def test_kernel_blocked_derivative(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        drho = np.zeros((3, 3), dtype=complex)
        drho[1, 2] = drho[2, 1] = 0.5      # weight between two kernel directions
        with pytest.raises(ValueError):
            sld(rho, drho)

    def test_rho_with_a_negative_eigenvalue(self):
        # p_j + p_k = 0 would divide by zero in L
        rho = np.diag([0.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="not PSD"):
            sld(rho, np.zeros((2, 2), dtype=complex))

    def test_checks_outside_input(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        drho = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            sld(rho, drho)


class TestComponents:
    """psi(theta) = exp(-i theta lam) @ C, one row per generator level psi_in touches."""

    @staticmethod
    def assert_spectral_form(fam, levels, rows):
        for theta in (-0.7, 0.0, 0.3, 2.1):
            assert np.abs(np.exp(-1j * theta * levels) @ rows - fam.psi(theta)).max() < 1e-12
        # rows project psi_in onto distinct eigenspaces: orthogonal, norms summing to 1
        gram = rows.conj() @ rows.T
        assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-12
        assert abs(np.trace(gram).real - 1) < 1e-12

    def test_ghz_has_two_levels(self):
        levels, rows = ghz_family(5).components(10)
        assert levels.tolist() == [-2.5, 2.5] and rows.shape == (2, 32)
        self.assert_spectral_form(ghz_family(5), levels, rows)

    def test_product_input_groups_equal_levels(self):
        # sum_i Z_i / 2 on |+>^4 touches all 16 entries but only 5 levels
        layout = HilbertLayout((2,) * 4)
        g = sum(kron([np.diag(PAULI_Z) if i == j else np.ones(2) for i in range(4)]).real
                for j in range(4)) / 2
        fam = UnitaryGeneratorFamily(layout, np.full(16, 0.25, dtype=complex), g)
        levels, rows = fam.components(5)
        assert levels.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
        self.assert_spectral_form(fam, levels, rows)
        assert fam.components(4) is None

    def test_dense_generator(self, rng):
        fam = random_pure_family((2, 3), rng)
        levels, rows = fam.components(6)
        assert rows.shape == (6, 6)
        self.assert_spectral_form(fam, levels, rows)
        assert fam.components(5) is None


class TestQfi:
    def test_mixed_state_checked_once(self, monkeypatch):
        # the family checks its evaluator output and its derivative at theta;
        # saturation_matrices and the SLD core take rho and drho as returned
        fam = generic_bell_mixture()
        calls = []
        check = metrology.check_hermitian
        monkeypatch.setattr(metrology, "check_hermitian",
                            lambda m, *a: calls.append(a) or check(m, *a))
        qfi(fam, 0.3)
        assert len(calls) == 2
        rho, drho = fam.rho_drho(0.3)
        assert qfi(fam, 0.3) == sld(rho, drho).qfi

    def test_pure_qfi_builds_no_matrix(self, monkeypatch):
        # the closed form 4 (||dpsi||^2 - |<psi|dpsi>|^2) from one psi evaluation
        fam = ghz_family(4)
        calls = []
        check, psi = metrology.check_hermitian, fam.psi
        monkeypatch.setattr(metrology, "check_hermitian",
                            lambda m, *a: calls.append(a) or check(m, *a))
        monkeypatch.setattr(fam, "psi", lambda t: calls.append(t) or psi(t))
        value = qfi(fam, 0.3)
        assert calls == [0.3]
        rho, drho = fam.rho_drho(0.3)
        assert abs(value - sld(rho, drho).qfi) <= 1e-12 * value

    def test_kernel_moving_with_theta(self):
        # rho(theta) = U(theta) rho0 U(theta)^dag of rank 2 on C^4: the central
        # difference has O(h^2) weight between kernel directions, where the
        # exact drho = -i[H, rho] has none, and the family's SLD leaves it out
        blocked = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            h, rho0 = random_hermitian(4, rng), random_density(4, rng, rank=2)
            lam, q = np.linalg.eigh(h)

            def rho(t, lam=lam, q=q, rho0=rho0):
                u = (q * np.exp(-1j * t * lam)) @ q.conj().T
                return u @ rho0 @ u.conj().T

            fam = MixedGenericFamily(HilbertLayout((2, 2)), rho, central_difference(rho, 1e-4))
            r = rho(0.4)
            want = qfi_double_sum(r, -1j * (h @ r - r @ h))
            assert abs(qfi(fam, 0.4) - want) <= 1e-6 * want
            try:
                sld(*fam.rho_drho(0.4))
            except ValueError:
                blocked += 1
        # the public sld, which takes drho as exact, refuses some of them
        assert blocked > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_ghz(self, n):
        fam = ghz_family(n)
        for th in (0.0, 0.4, 1.1):
            assert abs(qfi(fam, th) - n * n) < 1e-8 * n * n

    def test_rank_two_against_double_sum(self):
        bells = bell_states()
        fam = FixedBasisFamily(HilbertLayout((2, 2)), [bells["phi+"], bells["phi-"]],
                               lambda t: (t, 1 - t), lambda t: (1.0, -1.0))
        th = 0.25
        rho, drho = fam.rho_drho(th)
        assert abs(qfi(fam, th) - 16.0 / 3.0) < 1e-10
        assert abs(qfi(fam, th) - qfi_double_sum(rho, drho)) < 1e-10

    def test_phase_qubit_constant(self):
        fam = phase_qubit()
        for th in (0.1, 0.8, 2.0):
            assert abs(qfi(fam, th) - 1.0) < 1e-10

    def test_matches_double_sum_random(self, rng):
        for _ in range(10):
            fam = random_pure_family((2, 3), rng)
            th = float(rng.uniform(0, 1))
            rho, drho = fam.rho_drho(th)
            assert abs(qfi(fam, th) - qfi_double_sum(rho, drho)) < 1e-8


class TestFisherInfo:
    def test_plus_minus_saturates_phase_qubit(self):
        fam = phase_qubit()
        povm = projector_povm([np.array([1, 1], complex) / np.sqrt(2),
                               np.array([1, -1], complex) / np.sqrt(2)])
        for th in (0.3, 1.0):
            rho, drho = map(KetBraSum.from_dense, fam.rho_drho(th))
            # closed form: P(+/-) = (1 +/- cos th)/2 gives F = 1
            assert abs(fisher_info(povm, rho, drho) - 1.0) < 1e-9

    def test_computational_basis_blind(self):
        fam = phase_qubit()
        povm = projector_povm([np.array([1, 0], complex), np.array([0, 1], complex)])
        rho, drho = map(KetBraSum.from_dense, fam.rho_drho(0.3))
        assert abs(fisher_info(povm, rho, drho)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ghz_product_basis(self, n):
        fam = ghz_family(n)
        th = 0.3
        plus = np.array([1, 1], complex) / np.sqrt(2)
        minus = np.array([1, -1], complex) / np.sqrt(2)
        vecs = [kron([plus if b == 0 else minus for b in bits])
                for bits in np.ndindex(*([2] * n))]
        rho, drho = map(KetBraSum.from_dense, fam.rho_drho(th))
        fi = fisher_info(projector_povm(vecs), rho, drho)
        assert abs(fi - n * n) < 1e-8
        assert abs(fi - ghz_product_basis_fi(n, th)) < 1e-5

    def test_monotone_chain_random(self, rng):
        for _ in range(25):
            dims = [(2, 2), (2, 3), (2, 2, 2)][int(rng.integers(3))]
            fam = random_pure_family(tuple(dims), rng)
            th = float(rng.uniform(0, 1))
            rho, drho = map(KetBraSum.from_dense, fam.rho_drho(th))
            d = fam.layout.total
            q, _ = np.linalg.qr(rng.standard_normal((d, d))
                                + 1j * rng.standard_normal((d, d)))
            povm = projector_povm([q[:, i] for i in range(d)])
            assert fisher_info(povm, rho, drho) <= qfi(fam, th) + 1e-6

    def test_povm_rejects_non_finite_vectors(self):
        # NaN fails the completeness comparison, so only the finite check stops it
        with pytest.raises(ValueError, match="non-finite"):
            Povm(vectors=[[np.nan, 0], [0, 1]])

    def test_invalid_povm(self):
        fam = phase_qubit()
        rho, drho = map(KetBraSum.from_dense, fam.rho_drho(0.3))
        with pytest.raises(ValueError):
            fisher_info(Povm(vectors=np.eye(2, dtype=complex) * 0.4), rho, drho)


class TestPerpComponent:
    def test_symbolic_example(self):
        th = 0.9
        psi = np.array([1, np.exp(1j * th)], dtype=complex) / np.sqrt(2)
        dpsi = np.array([0, 1j * np.exp(1j * th)], dtype=complex) / np.sqrt(2)
        want = (1j / (2 * np.sqrt(2))) * np.array([-1, np.exp(1j * th)])
        assert np.abs(perp_component(psi, dpsi) - want).max() < 1e-12

    def test_already_orthogonal(self, rng):
        psi = random_state(4, rng)
        dpsi = random_state(4, rng)
        dpsi -= np.vdot(psi, dpsi) * psi
        assert np.abs(perp_component(psi, dpsi) - dpsi).max() < 1e-12

    def test_pure_gauge(self, rng):
        psi = random_state(3, rng)
        assert np.abs(perp_component(psi, 1j * 0.7 * psi)).max() < 1e-12

    def test_gauge_invariance(self, rng):
        psi = random_state(5, rng)
        dpsi = random_state(5, rng)
        shifted = dpsi + 1j * 1.3 * psi
        assert np.abs(perp_component(psi, dpsi)
                      - perp_component(psi, shifted)).max() < 1e-10


class TestSaturationMatrices:
    def test_ghz2_direct_formula(self):
        fam = ghz_family(2)
        th = 0.0
        out = saturation_matrices(fam, th)
        psi, dpsi = fam.psi_dpsi(th)
        perp = dpsi - np.vdot(psi, dpsi) * psi
        m = np.outer(psi, perp.conj()) - np.outer(perp, psi.conj())
        m_set, m_tilde = [c.dense() for c in out.conditions], out.target.dense()
        # the condition check_saturation evaluates: |psi><L psi| - |L psi><psi| with L psi = 2 perp
        assert np.abs(m_set[0] - 2 * m).max() < 1e-12
        assert np.abs(m_tilde - (m + np.outer(psi, psi.conj()) - np.eye(4) / 4)).max() < 1e-12
        assert np.abs(m_set[0] + m_set[0].conj().T).max() < 1e-9

    def test_rank_two_value(self):
        bells = bell_states()
        fam = FixedBasisFamily(HilbertLayout((2, 2)), [bells["phi+"], bells["phi-"]],
                               lambda t: (t, 1 - t), lambda t: (1.0, -1.0))
        out = saturation_matrices(fam, 0.5)
        want = np.outer(bells["phi+"], bells["phi-"].conj())
        assert np.abs(out.target.dense() - want).max() < 1e-12

    def test_traceless(self, rng):
        fam = random_pure_family((2, 2, 2), rng)
        out = saturation_matrices(fam, 0.3)
        assert abs(np.trace(out.target.dense())) < 1e-12

    def test_anti_hermitian_pairing(self, rng):
        # eigenvalues of the anti-Hermitian part come in +/- i conjugate pairs
        fam = random_pure_family((2, 3), rng)
        psi = fam.psi(0.4)
        out = saturation_matrices(fam, 0.4)
        m = out.target.dense() - (np.outer(psi, psi.conj()) - np.eye(6) / 6)
        vals = np.linalg.eigvals(m)
        assert np.abs(vals.real).max() < 1e-10
        imag = np.sort(vals.imag)
        assert np.abs(imag + imag[::-1]).max() < 1e-10

    def test_mixed_rank_two_fixed_basis_detected(self):
        # the pair read as a document is rank two over its fixed basis; the same
        # mixture as a generic mixed family carries no target
        bells = bell_states()
        p0 = np.outer(bells["phi+"], bells["phi+"].conj())
        p1 = np.outer(bells["psi+"], bells["psi+"].conj())
        doc = {"type": "mixed", "layout": [2, 2], "theta_grid": [0.4],
               "rho1": complex_to_pairs(p0), "rho2": complex_to_pairs(p1)}
        fam = parse_scenario(doc).family
        assert isinstance(fam, FixedBasisFamily)
        out = saturation_matrices(fam, 0.4)
        # the target spans the cross direction of the two fixed eigenvectors,
        # up to phase and adjoint (both carry the same zero-sandwich condition)
        direction = np.outer(bells["phi+"], bells["psi+"].conj())
        overlap = max(abs(np.trace(out.target.dense().conj().T @ direction)),
                      abs(np.trace(out.target.dense().conj().T @ direction.conj().T)))
        assert abs(overlap - 1) < 1e-8
        generic = MixedGenericFamily(HilbertLayout((2, 2)), lambda t: t * p0 + (1 - t) * p1,
                                     lambda t: p0 - p1)
        assert saturation_matrices(generic, 0.4).target is None

    @pytest.mark.parametrize("entry", [qfi, saturation_matrices])
    def test_pure_state_evaluated_once(self, monkeypatch, entry):
        fam = ghz_family(3)
        calls = []
        psi = fam.psi
        monkeypatch.setattr(fam, "psi", lambda t: calls.append(t) or psi(t))
        entry(fam, 0.3)
        assert calls == [0.3]

    def test_pure_target_is_factored(self):
        fam = ghz_family(3)
        out = saturation_matrices(fam, 0.3)
        psi, dpsi = fam.psi_dpsi(0.3)
        perp = perp_component(psi, dpsi)
        assert out.target.kets.shape == (2, 8) and out.target.shift == -1 / 8
        low_rank = out.target.kets.T @ out.target.bras.conj()
        assert np.abs(low_rank - np.eye(8) / 8 - out.target.dense()).max() < 1e-12
        assert np.abs(out.target.dense() - out.conditions[0].dense() / 2
                      - np.outer(psi, psi.conj()) + np.eye(8) / 8).max() < 1e-12
        assert abs(out.target.trace()) < 1e-12
        assert abs(np.linalg.norm(perp) - np.sqrt(qfi(fam, 0.3)) / 2) < 1e-12

    def test_mixed_state_evaluated_once(self):
        # the frame reads rho and drho from one rho_drho call
        generic = generic_bell_mixture()
        calls = []
        counted = MixedGenericFamily(
            generic.layout, lambda t: calls.append(t) or generic.evaluator(t), generic.derivative)
        out = saturation_matrices(counted, 0.5)
        assert calls == [0.5]       # rho at theta; drho is the derivative's
        want = saturation_matrices(generic, 0.5)
        assert all(np.array_equal(m.dense(), w.dense())
                   for m, w in zip(out.conditions, want.conditions))

    def test_mixed_rank_two_drifting_basis_rejected(self):
        def rho_fn(t):
            c, s = np.cos(t), np.sin(t)
            v0 = np.array([c, s], dtype=complex)
            v1 = np.array([-s, c], dtype=complex)
            return 0.7 * np.outer(v0, v0.conj()) + 0.3 * np.outer(v1, v1.conj())

        def drho_fn(t):     # v0' = v1 and v1' = -v0
            v0, v1 = np.array([np.cos(t), np.sin(t)]), np.array([-np.sin(t), np.cos(t)])
            return 0.4 * (np.outer(v0, v1) + np.outer(v1, v0))

        # the M_ij of the SLD and no target, as for every generic mixed family
        fam = MixedGenericFamily(QUBIT, rho_fn, drho_fn)
        out = saturation_matrices(fam, 0.4)
        assert out.target is None
        want = dense_conditions(fam, 0.4)
        assert len(out.conditions) == len(want) == 4
        assert all(np.abs(m.dense() - w).max() < 1e-12 for m, w in zip(out.conditions, want))

    @staticmethod
    def slowly_turning(omega):
        """rho(t) = R(omega t) diag(t, 1 - t) R(omega t)^dag on the first two basis states."""
        def frame(t):
            c, s = np.cos(omega * t), np.sin(omega * t)
            return np.array([c, s, 0, 0], complex), np.array([-s, c, 0, 0], complex)

        def rho(t):
            v0, v1 = frame(t)
            return t * np.outer(v0, v0) + (1 - t) * np.outer(v1, v1)

        def drho(t):        # v0' = omega v1 and v1' = -omega v0
            v0, v1 = frame(t)
            return (np.outer(v0, v0) - np.outer(v1, v1)
                    + omega * (2 * t - 1) * (np.outer(v0, v1) + np.outer(v1, v0)))
        return MixedGenericFamily(HilbertLayout((2, 2)), rho, drho)

    def test_mixed_rank_two_slow_turn_rejected(self):
        # drho carries omega (1 - 2 theta) off the eigenbasis diagonal: 4e-6 at omega = 1e-5,
        # where the tree for |t0><t1| fails the zero sandwich, so there is no target
        fam = self.slowly_turning(1e-5)
        assert saturation_matrices(fam, 0.3).target is None
        w, v = np.linalg.eigh(fam.rho(0.3))
        tree = synthesize_tree(KetBraSum(*v[:, w > 1e-9].T), fam.layout)
        rep = check_saturation(tree, fam, 0.3)
        assert not rep.saturating and rep.condition_residual > 1e-6

    @pytest.mark.parametrize("kind", ["pure", "rank-two", "fixed-basis", "rank-3", "bellmix"])
    def test_conditions_are_the_ones_check_saturation_evaluates(self, monkeypatch, kind):
        # every <e|M|e> of the verdict goes through one _sandwiches call: rho and drho,
        # for fi and the null outcomes, then each condition; the extra rows are L psi_i
        family = saturation_families()[kind]
        seen = []
        sandwiches = metrology._sandwiches
        monkeypatch.setattr(metrology, "_sandwiches", lambda povm, sums, extra=():
                            seen.append((sums, extra)) or sandwiches(povm, sums, extra))
        d = family.layout.total
        check_saturation(projector_povm(np.eye(d, dtype=complex)), family, 0.4)
        out = saturation_matrices(family, 0.4)
        want = out.conditions
        assert len(seen) == 1
        sums, extra = seen[0]
        assert len(sums) == len(want) + 2
        for m, w in zip(sums, [out.rho, out.drho, *want]):
            assert np.array_equal(m.kets, w.kets) and np.array_equal(m.bras, w.bras)
            assert m.shift == w.shift
        assert np.array_equal(extra, out.l_support)
        # and they are the dense commutators with the SLD on the support rows
        assert len(out.support) == np.linalg.matrix_rank(out.rho.dense(), tol=1e-9)
        for m, w in zip(want, dense_conditions(family, 0.4, out.support)):
            assert np.abs(m.dense() - w).max() < 1e-9

    def test_bell_mixture_directions(self):
        sc = builtin_scenario("bellmix")
        out = saturation_matrices(sc.family, 0.5)
        assert out.target is None
        nonzero = [m for m in (c.dense() for c in out.conditions) if np.linalg.norm(m) > 1e-9]
        assert len(nonzero) == 6
        bells = bell_states()
        basis = [bells["phi+"], bells["phi-"], bells["psi+"]]
        matched = 0
        for m in nonzero:
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    direction = np.outer(basis[i], basis[j].conj())
                    c = np.trace(direction.conj().T @ m)
                    if abs(c) > 1e-9 and np.linalg.norm(m - c * direction) < 1e-9:
                        matched += 1
        assert matched == 6


class TestCheckSaturation:
    def test_sld_eigenbasis_saturates_ghz(self):
        n, th = 3, 0.4
        fam = ghz_family(n)
        d = 2 ** n
        plus = np.zeros(d, dtype=complex)
        plus[0], plus[-1] = 1 / np.sqrt(2), 1j * np.exp(1j * n * th) / np.sqrt(2)
        minus = np.zeros(d, dtype=complex)
        minus[0], minus[-1] = 1 / np.sqrt(2), -1j * np.exp(1j * n * th) / np.sqrt(2)
        rest = [np.eye(d, dtype=complex)[:, k] for k in range(1, d - 1)]
        rep = check_saturation(projector_povm([plus, minus] + rest), fam, th)
        assert rep.saturating and abs(rep.fi - n * n) < 1e-8

    def test_computational_basis_fails(self):
        fam = phase_qubit()
        povm = projector_povm(np.eye(2, dtype=complex))
        rep = check_saturation(povm, fam, 0.3)
        assert not rep.saturating and abs(rep.fi) < 1e-12

    def test_povm_of_another_dimension_rejected(self):
        # a ghz2 POVM against a ghz3 family: named, not a matmul shape error
        with pytest.raises(ValueError, match=r"length 4 do not match layout \[2, 2, 2\]"):
            check_saturation(projector_povm(np.eye(4, dtype=complex)), ghz_family(3), 0.3)

    @pytest.mark.parametrize("dims", [(2, 4), (4, 2)])
    def test_tree_of_another_layout_rejected(self, dims, rng):
        # equal D, other dims: the public check names both layouts, as verify_tree does
        tree = random_tree(dims, (0, 1), rng)
        with pytest.raises(ValueError, match=rf"tree layout \[{dims[0]}, {dims[1]}\] "
                           r"does not match family layout \[2, 2, 2\]"):
            check_saturation(tree, ghz_family(3), 0.3)

    def test_regularity_violation(self):
        fam = phase_qubit()
        th = 0.3
        psi = fam.psi(th)
        perp = perp_component(psi, fam.psi_dpsi(th)[1])
        phi = perp / np.linalg.norm(perp)      # orthogonal to psi, along psi_perp
        povm = projector_povm([phi, psi])
        rep = check_saturation(povm, fam, th)
        assert rep.regularity_residual > 1e-3
        assert not rep.saturating


@pytest.mark.parametrize("kind", ["pure", "rank-two", "fixed-basis", "rank-3", "bellmix"])
def test_one_contraction_per_verdict(monkeypatch, rng, kind):
    # check_saturation, verify_tree and fisher_info read a tree or a Povm once each
    family = saturation_families()[kind]
    dims = family.layout.dims
    tree = random_tree(dims, range(len(dims)), rng)
    povm = flatten(tree)
    rho, drho = map(KetBraSum.from_dense, family.rho_drho(0.4))
    calls = []
    for cls in (MeasurementTree, Povm):
        amplitudes = cls.amplitudes
        monkeypatch.setattr(cls, "amplitudes", lambda self, rows, amplitudes=amplitudes:
                            calls.append(type(self)) or amplitudes(self, rows))
    for reader in (tree, povm):
        for verdict in (lambda: check_saturation(reader, family, 0.4),
                        lambda: fisher_info(reader, rho, drho)):
            calls.clear()
            verdict()
            assert calls == [type(reader)]
    calls.clear()
    verify_tree(tree, family, 0.4)
    assert calls == [MeasurementTree]


class TestInvariantProperties:
    def test_gauge_invariant_qfi_and_target(self, rng):
        # e^{i c theta} psi(theta) is the same family with generator G - c I
        layout, psi_in, g = random_pure_inputs((2, 2), rng)
        base = UnitaryGeneratorFamily(layout, psi_in, g)
        gauged = UnitaryGeneratorFamily(layout, psi_in, g - 0.9 * np.eye(4))
        th = 0.37
        assert abs(qfi(base, th) - qfi(gauged, th)) < 1e-9
        m1 = saturation_matrices(base, th).target.dense()
        m2 = saturation_matrices(gauged, th).target.dense()
        assert np.abs(m1 - m2).max() < 1e-9

    def test_gauge_invariance_numeric_route(self, rng):
        # same statement through a numeric family with a central-difference derivative
        base = random_pure_family((2, 2), rng)

        def gauged_psi(t):
            return np.exp(1j * 0.9 * t) * base.psi(t)

        gauged = PureNumericFamily(base.layout, gauged_psi, central_difference(gauged_psi, 1e-5))
        th = 0.37
        assert abs(qfi(base, th) - qfi(gauged, th)) < 1e-6
        m1 = saturation_matrices(base, th).target.dense()
        m2 = saturation_matrices(gauged, th).target.dense()
        assert np.abs(m1 - m2).max() < 1e-6

    def test_sld_equation_residual_full_rank(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            rho = random_density(d, rng)
            drho = random_traceless_hermitian(d, rng)
            res = sld(rho, drho)
            recon = (res.L @ rho + rho @ res.L) / 2
            assert np.linalg.norm(recon - drho) < 1e-8

    def test_analytic_vs_finite_difference(self, rng):
        for _ in range(10):
            fam = random_pure_family((2, 2), rng)
            numeric = PureNumericFamily(fam.layout, fam.psi, central_difference(fam.psi, 1e-4))
            th = float(rng.uniform(0, 1))
            _, d1 = fam.rho_drho(th)
            _, d2 = numeric.rho_drho(th)
            assert np.abs(d1 - d2).max() < 1e-6
