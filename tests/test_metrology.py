import numpy as np
import pytest

from loccfisher import metrology
from loccfisher import (MixedGenericFamily, Povm, PureNumericFamily,
                        RankTwoFixedBasisFamily, UnitaryGeneratorFamily,
                        check_saturation, eval_state, fisher_info,
                        perp_component, qfi, saturation_matrices, sld)
from loccfisher.scenarios import bell_states, builtin_scenario
from loccfisher.tensor import HilbertLayout, herm_eig, kron

from conftest import (PAULI_Z, ghz_family, random_density,
                      random_pure_family, random_state,
                      random_traceless_hermitian)
from oracles import ghz_product_basis_fi, qfi_double_sum

QUBIT = HilbertLayout((2,))


def phase_qubit():
    """Single-qubit phase family (|0> + e^{i theta}|1>)/sqrt(2)."""
    return UnitaryGeneratorFamily(QUBIT, np.array([1, 1], complex) / np.sqrt(2),
                                  np.diag([0.0, -1.0]).astype(complex))


def projector_povm(vectors):
    return Povm(vectors=np.array(vectors))


class TestEvalState:
    def test_unitary_generator_closed_form(self):
        fam = UnitaryGeneratorFamily(QUBIT, np.array([1, 1], complex) / np.sqrt(2),
                                     PAULI_Z / 2)
        th = 0.7
        psi = fam.psi(th)
        want = np.array([np.exp(-1j * th / 2), np.exp(1j * th / 2)]) / np.sqrt(2)
        assert np.abs(psi - want).max() < 1e-12
        rho, drho = eval_state(fam, th)
        dpsi = -1j * (PAULI_Z / 2) @ psi
        want_drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
        assert np.abs(drho - want_drho).max() < 1e-12

    def test_dense_generator_route_unchanged(self, rng):
        # psi through the eigenbasis, dpsi = -i G psi from that same psi
        fam = random_pure_family((2, 3), rng)
        psi = fam._gen_eigvecs @ (np.exp(-0.4j * fam._gen_eigvals) * fam._coeffs)
        dpsi = -1j * (fam.generator @ psi)
        rho, drho = fam.rho_drho(0.4)
        assert np.array_equal(rho, np.outer(psi, psi.conj()))
        assert np.array_equal(drho, np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj()))

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
                RankTwoFixedBasisFamily(QUBIT, **{**vecs, name: bad},
                                        p_fn=lambda t: 0.5, dp_fn=lambda t: 1.0)

    def test_rank_two_linear(self):
        bells = bell_states()
        fam = RankTwoFixedBasisFamily(HilbertLayout((2, 2)), bells["phi+"],
                                      bells["phi-"], lambda t: t, lambda t: 1.0)
        _, drho = eval_state(fam, 0.4)
        p0 = np.outer(bells["phi+"], bells["phi+"].conj())
        p1 = np.outer(bells["phi-"], bells["phi-"].conj())
        assert np.abs(drho - (p0 - p1)).max() < 1e-12

    def test_numeric_matches_analytic(self):
        analytic = phase_qubit()
        numeric = PureNumericFamily(QUBIT, analytic.psi, step=1e-4)
        _, d_analytic = eval_state(analytic, 0.3)
        _, d_numeric = eval_state(numeric, 0.3)
        assert np.abs(d_analytic - d_numeric).max() < 1e-7

    def test_out_of_domain_p(self):
        bells = bell_states()
        fam = RankTwoFixedBasisFamily(HilbertLayout((2, 2)), bells["phi+"],
                                      bells["phi-"], lambda t: t, lambda t: 1.0)
        with pytest.raises(ValueError):
            eval_state(fam, 1.5)


class TestSld:
    def test_bell_mixture_coefficients(self):
        sc = builtin_scenario("bellmix")
        th = 0.3
        res = sld(*eval_state(sc.family, th))
        bells = bell_states()
        want = (1 / (1 + th) * np.outer(bells["phi+"], bells["phi+"].conj())
                + 1 / th * np.outer(bells["phi-"], bells["phi-"].conj())
                - 1 / (1 - th) * np.outer(bells["psi+"], bells["psi+"].conj()))
        assert np.abs(res.L - want).max() < 1e-9

    def test_ghz_closed_form(self):
        n, th = 4, 0.35
        fam = ghz_family(n)
        res = sld(*eval_state(fam, th))
        want = np.zeros((2 ** n, 2 ** n), dtype=complex)
        want[-1, 0] = n * 1j * np.exp(1j * n * th)
        want[0, -1] = -n * 1j * np.exp(-1j * n * th)
        assert np.abs(res.L - want).max() < 1e-9

    def test_pure_family_form(self):
        fam = phase_qubit()
        th = 0.2
        rho, drho = eval_state(fam, th)
        res = sld(rho, drho)
        assert np.abs(res.L - 2 * drho).max() < 1e-9

    def test_kernel_blocked_derivative(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        drho = np.zeros((3, 3), dtype=complex)
        drho[1, 2] = drho[2, 1] = 0.5      # weight between two kernel directions
        with pytest.raises(ValueError):
            sld(rho, drho)

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
        # the family checks its three evaluator outputs (theta and theta -+ h),
        # eval_state checks rho and drho; the SLD core takes them as returned
        fam = builtin_scenario("bellmix").family
        calls = []
        check = metrology.check_hermitian
        monkeypatch.setattr(metrology, "check_hermitian",
                            lambda m, *a: calls.append(a) or check(m, *a))
        qfi(fam, 0.3)
        assert len(calls) == 5
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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_ghz(self, n):
        fam = ghz_family(n)
        for th in (0.0, 0.4, 1.1):
            assert abs(qfi(fam, th) - n * n) < 1e-8 * n * n

    def test_rank_two_against_double_sum(self):
        bells = bell_states()
        fam = RankTwoFixedBasisFamily(HilbertLayout((2, 2)), bells["phi+"],
                                      bells["phi-"], lambda t: t, lambda t: 1.0)
        th = 0.25
        rho, drho = eval_state(fam, th)
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
            rho, drho = eval_state(fam, th)
            assert abs(qfi(fam, th) - qfi_double_sum(rho, drho)) < 1e-8


class TestFisherInfo:
    def test_plus_minus_saturates_phase_qubit(self):
        fam = phase_qubit()
        povm = projector_povm([np.array([1, 1], complex) / np.sqrt(2),
                               np.array([1, -1], complex) / np.sqrt(2)])
        for th in (0.3, 1.0):
            rho, drho = eval_state(fam, th)
            # closed form: P(+/-) = (1 +/- cos th)/2 gives F = 1
            assert abs(fisher_info(povm, rho, drho) - 1.0) < 1e-9

    def test_computational_basis_blind(self):
        fam = phase_qubit()
        povm = projector_povm([np.array([1, 0], complex), np.array([0, 1], complex)])
        rho, drho = eval_state(fam, 0.3)
        assert abs(fisher_info(povm, rho, drho)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ghz_product_basis(self, n):
        fam = ghz_family(n)
        th = 0.3
        plus = np.array([1, 1], complex) / np.sqrt(2)
        minus = np.array([1, -1], complex) / np.sqrt(2)
        vecs = [kron([plus if b == 0 else minus for b in bits])
                for bits in np.ndindex(*([2] * n))]
        rho, drho = eval_state(fam, th)
        fi = fisher_info(projector_povm(vecs), rho, drho)
        assert abs(fi - n * n) < 1e-8
        assert abs(fi - ghz_product_basis_fi(n, th)) < 1e-5

    def test_monotone_chain_random(self, rng):
        for _ in range(25):
            dims = [(2, 2), (2, 3), (2, 2, 2)][int(rng.integers(3))]
            fam = random_pure_family(tuple(dims), rng)
            th = float(rng.uniform(0, 1))
            rho, drho = eval_state(fam, th)
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
        rho, drho = eval_state(fam, 0.3)
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
        psi, dpsi = fam.psi(th), fam.dpsi(th)
        perp = dpsi - np.vdot(psi, dpsi) * psi
        m = np.outer(psi, perp.conj()) - np.outer(perp, psi.conj())
        m_set, m_tilde = [c.dense() for c in out.conditions], out.target.dense()
        assert np.abs(m_set[0] - m).max() < 1e-12
        assert np.abs(m_tilde - (m + np.outer(psi, psi.conj()) - np.eye(4) / 4)).max() < 1e-12
        assert np.abs(m_set[0] + m_set[0].conj().T).max() < 1e-9

    def test_rank_two_value(self):
        bells = bell_states()
        fam = RankTwoFixedBasisFamily(HilbertLayout((2, 2)), bells["phi+"],
                                      bells["phi-"], lambda t: t, lambda t: 1.0)
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

    def test_mixed_rank_two_fixed_basis_detected(self, rng):
        bells = bell_states()
        p0 = np.outer(bells["phi+"], bells["phi+"].conj())
        p1 = np.outer(bells["psi+"], bells["psi+"].conj())
        fam = MixedGenericFamily(HilbertLayout((2, 2)),
                                 lambda t: t * p0 + (1 - t) * p1)
        out = saturation_matrices(fam, 0.4)
        assert out.state_type == "rank-two"
        assert out.target is not None
        # the target spans the cross direction of the two fixed eigenvectors,
        # up to phase and adjoint (both carry the same zero-sandwich condition)
        direction = np.outer(bells["phi+"], bells["psi+"].conj())
        overlap = max(abs(np.trace(out.target.dense().conj().T @ direction)),
                      abs(np.trace(out.target.dense().conj().T @ direction.conj().T)))
        assert abs(overlap - 1) < 1e-8

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
        assert np.abs(out.target.dense() - out.conditions[0].dense() - np.outer(psi, psi.conj())
                      + np.eye(8) / 8).max() < 1e-12
        assert abs(out.target.trace()) < 1e-12
        assert abs(np.linalg.norm(perp) - np.sqrt(qfi(fam, 0.3)) / 2) < 1e-12

    def test_mixed_state_evaluated_once(self):
        # eval_state's rho is reused by the fixed-basis rank-two test
        bellmix = builtin_scenario("bellmix").family
        calls = []
        counted = MixedGenericFamily(
            bellmix.layout, lambda t: calls.append(t) or bellmix.evaluator(t))
        out = saturation_matrices(counted, 0.5)
        assert len(calls) == 3      # rho at theta and theta +- h for drho
        want = saturation_matrices(bellmix, 0.5)
        assert all(np.array_equal(m.dense(), w.dense())
                   for m, w in zip(out.conditions, want.conditions))

    def test_mixed_rank_two_target_from_checked_rho(self):
        # same bits as the spectral decomposition of family.rho at theta
        bells = bell_states()
        p0 = np.outer(bells["phi+"], bells["phi+"].conj())
        p1 = np.outer(bells["psi+"], bells["psi+"].conj())
        fam = MixedGenericFamily(HilbertLayout((2, 2)),
                                 lambda t: t * p0 + (1 - t) * p1)
        w, v = herm_eig(fam.rho(0.4))
        vecs = v[:, w > 1e-9]
        out = saturation_matrices(fam, 0.4)
        assert np.array_equal(out.target.dense(), np.outer(vecs[:, 0], vecs[:, 1].conj()))

    def test_mixed_rank_two_evaluated_once(self):
        # the rank-two test reuses the rho(theta -+ h) the derivative evaluated
        bells = bell_states()
        p0 = np.outer(bells["phi+"], bells["phi+"].conj())
        p1 = np.outer(bells["psi+"], bells["psi+"].conj())
        calls = []
        fam = MixedGenericFamily(HilbertLayout((2, 2)),
                                 lambda t: calls.append(t) or t * p0 + (1 - t) * p1)
        out = saturation_matrices(fam, 0.4)
        assert out.state_type == "rank-two"
        assert len(calls) == 3      # rho at theta and theta +- h

    def test_mixed_rank_two_drifting_basis_rejected(self):
        def rho_fn(t):
            c, s = np.cos(t), np.sin(t)
            v0 = np.array([c, s], dtype=complex)
            v1 = np.array([-s, c], dtype=complex)
            return 0.7 * np.outer(v0, v0.conj()) + 0.3 * np.outer(v1, v1.conj())

        fam = MixedGenericFamily(QUBIT, rho_fn)
        with pytest.raises(ValueError, match="eigenbasis"):
            saturation_matrices(fam, 0.4)

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

    def test_regularity_violation(self):
        fam = phase_qubit()
        th = 0.3
        psi = fam.psi(th)
        perp = perp_component(psi, fam.dpsi(th))
        phi = perp / np.linalg.norm(perp)      # orthogonal to psi, along psi_perp
        povm = projector_povm([phi, psi])
        rep = check_saturation(povm, fam, th)
        assert rep.regularity_residual > 1e-3
        assert not rep.saturating


class TestInvariantProperties:
    def test_gauge_invariant_qfi_and_target(self, rng):
        # e^{i c theta} psi(theta) is the same family with generator G - c I
        base = random_pure_family((2, 2), rng)
        gauged = UnitaryGeneratorFamily(base.layout, base.psi_in,
                                        base.generator - 0.9 * np.eye(4))
        th = 0.37
        assert abs(qfi(base, th) - qfi(gauged, th)) < 1e-9
        m1 = saturation_matrices(base, th).target.dense()
        m2 = saturation_matrices(gauged, th).target.dense()
        assert np.abs(m1 - m2).max() < 1e-9

    def test_gauge_invariance_numeric_route(self, rng):
        # same statement through the finite-difference evaluator path
        base = random_pure_family((2, 2), rng)
        gauged = PureNumericFamily(base.layout,
                                   lambda t: np.exp(1j * 0.9 * t) * base.psi(t),
                                   step=1e-5)
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
            numeric = PureNumericFamily(fam.layout, fam.psi, step=1e-4)
            th = float(rng.uniform(0, 1))
            _, d1 = eval_state(fam, th)
            _, d2 = eval_state(numeric, th)
            assert np.abs(d1 - d2).max() < 1e-6
