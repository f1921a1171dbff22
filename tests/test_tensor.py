import numpy as np
import pytest
from scipy.stats import unitary_group

from loccfisher.tensor import (HilbertLayout, KetBraSum, check_finite, check_orthonormal,
                               check_real_diagonal, check_trace, check_traceless, check_unit,
                               complex_to_pairs, herm_eig, kron, pairs_to_complex,
                               partial_expectation, partial_trace, recenter, sqrt_psd)

from conftest import (PAULI_X, PAULI_Z, ghz_family, random_density,
                      random_hermitian, random_state)
from oracles import sandwich_index_sum

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


class TestLayout:
    def test_totals(self):
        lay = HilbertLayout((2, 3, 2))
        assert lay.total == 12 and lay.nsub == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            HilbertLayout(())
        with pytest.raises(ValueError):
            HilbertLayout((2, 1))


class TestKetBraSum:
    @pytest.mark.parametrize("shift", [0.0, -0.25, 0.5 - 1.5j])
    def test_trace_and_norm_match_dense(self, rng, shift):
        kets = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        bras = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        m = KetBraSum(kets, bras, shift)
        dense = kets.T @ bras.conj() + shift * np.eye(8)
        assert np.abs(m.dense() - dense).max() < 1e-13
        assert abs(m.trace() - np.trace(dense)) < 1e-13
        assert abs(m.norm() - np.linalg.norm(dense)) < 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("shift", [0.0, 0.3 - 0.2j])
    def test_sandwich_matches_dense(self, rng, shift):
        kets = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        bras = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        m = KetBraSum(kets, bras, shift)
        vectors = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        want = np.einsum("ea,ab,eb->e", vectors.conj(), m.dense(), vectors)
        got = m.sandwich(vectors.conj() @ kets.T, vectors.conj() @ bras.T,
                         np.sum(np.abs(vectors) ** 2, axis=1))
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_from_dense_rows(self, rng):
        m = random_hermitian(5, rng) + 1j * random_hermitian(5, rng)
        rows = KetBraSum.from_dense(m)
        assert np.array_equal(rows.dense(), m)
        assert abs(rows.norm() - np.linalg.norm(m)) < 1e-12 * np.linalg.norm(m)

    @pytest.mark.parametrize("kets, bras, shift", [
        (np.ones((2, 4)), np.ones((2, 3)), 0.0),
        (np.full((1, 4), np.nan), np.ones((1, 4)), 0.0),
        (np.ones((1, 4)), np.ones((1, 4)), np.inf)])
    def test_rejects_bad_factors(self, kets, bras, shift):
        with pytest.raises(ValueError):
            KetBraSum(kets, bras, shift)

    def test_real_diagonal_check(self):
        assert check_real_diagonal(np.array([1.0, 2.0 + 1e-14j])).dtype == float
        with pytest.raises(ValueError, match="not real"):
            check_real_diagonal(np.array([1.0, 2.0 + 1e-6j]))


class TestChecks:
    def test_finite_names_the_array(self):
        a = np.array([1.0, 2.0])
        assert check_finite(a, "psi") is a
        for bad in (np.array([1.0, np.nan]), np.array([[0, np.inf * 1j]]), np.nan):
            with pytest.raises(ValueError, match="^psi contains non-finite entries$"):
                check_finite(bad, "psi")

    def test_unit_rejects_nan(self):
        # |nan - 1| > tol is False, so the norm test alone lets NaN through
        with pytest.raises(ValueError, match="psi_in contains non-finite entries"):
            check_unit(np.array([np.nan, 1.0]), "psi_in")

    @staticmethod
    def drifting(trace, norm):
        """A 2x2 diagonal matrix of Frobenius norm about ``norm`` and trace ``trace``."""
        return np.diag([norm / np.sqrt(2), -norm / np.sqrt(2) + trace]).astype(complex)

    def test_traceless_stack_scales_each_matrix_by_its_own_norm(self):
        # a trace of 1e-5 passes at norm 1e6 (bound 1e-4) but not at norm 1 (bound 1e-10)
        big, small = self.drifting(1e-5, 1e6), self.drifting(1e-5, 1.0)
        assert np.array_equal(check_traceless(big[None]), recenter(big[None]))
        with pytest.raises(ValueError, match="trace 1.000e-05"):
            check_traceless(np.stack([big, small]))
        # an explicit scale applies to every matrix of the stack
        check_traceless(np.stack([big, small]), scale=1e6)

    def test_traceless_stack_names_the_first_drifting_trace(self):
        stack = np.stack([self.drifting(0.0, 1.0), self.drifting(2e-5, 1.0),
                          self.drifting(3e-5, 1.0)])
        with pytest.raises(RuntimeError, match=r"^stack is not traceless \(trace 2.000e-05"):
            check_traceless(stack, "stack", error=RuntimeError)

    def test_traceless_matrix_is_a_stack_of_one(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m -= np.trace(m) / 3 * np.eye(3)
        m[0, 0] += 1e-12
        assert np.array_equal(check_traceless(m), check_traceless(m[None])[0])
        assert check_trace(m) is m          # tested only, not re-centered
        m[0, 0] += 1e-6
        for arg in (m, m[None]):
            with pytest.raises(ValueError, match=r"trace 1.000e-06"):
                check_traceless(arg)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 3, 3)])
    def test_traceless_rejects_non_square_shapes(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix or a stack"):
            check_traceless(np.zeros(shape))

    def test_traceless_rejects_nan_in_a_stack(self):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="nodes contains non-finite entries"):
            check_trace(stack, "nodes")

    def test_orthonormal_stack(self):
        stack = unitary_group.rvs(3, size=4, random_state=5)
        assert check_orthonormal(stack, "bad") is stack
        stack[2, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="^bad$"):
            check_orthonormal(stack, "bad")
        stack[2, 0, 1] = np.nan         # NaN fails the bound instead of slipping past it
        with pytest.raises(ValueError, match="^bad$"):
            check_orthonormal(stack, "bad")

    def test_orthonormal_rows(self):
        # an isometry 2 x 3 with orthonormal rows: its columns are not orthonormal
        u = unitary_group.rvs(3, random_state=2)[:2]
        check_orthonormal(u.T, "rows")
        with pytest.raises(ValueError, match="columns"):
            check_orthonormal(u, "columns")


class TestKron:
    def test_pauli_antidiagonal(self):
        out = kron([PAULI_X, PAULI_X])
        assert np.array_equal(out, np.fliplr(np.eye(4)).astype(complex))

    def test_identity(self):
        assert np.array_equal(kron([np.eye(2), np.eye(3)]), np.eye(6))

    def test_basis_columns(self):
        ket0 = np.array([[1], [0]], dtype=complex)
        ket1 = np.array([[0], [1]], dtype=complex)
        out = kron([ket0, ket1]).reshape(-1)
        assert np.array_equal(out, np.array([0, 1, 0, 0], dtype=complex))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            kron([])


class TestPartialTrace:
    def test_bell_marginal(self):
        rho = np.outer(BELL, BELL.conj())
        out = partial_trace(rho, HilbertLayout((2, 2)), [1])
        assert np.abs(out - np.eye(2) / 2).max() < 1e-12

    def test_product_state(self, rng):
        r1, r2 = random_density(2, rng), random_density(3, rng)
        scaled = 0.7 * r2
        out = partial_trace(np.kron(r1, scaled), HilbertLayout((2, 3)), [1])
        assert np.abs(out - r1 * np.trace(scaled)).max() < 1e-12

    def test_ghz_marginal(self):
        fam = ghz_family(3)
        rho = fam.rho_drho(0.2)[0]
        out = partial_trace(rho, fam.layout, [1, 2])
        assert np.abs(out - np.diag([0.5, 0.5])).max() < 1e-12

    def test_trace_preserved_and_composition(self, rng):
        lay = HilbertLayout((2, 2, 2))
        for _ in range(20):
            m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            once = partial_trace(m, lay, [0, 2])
            twice = partial_trace(partial_trace(m, lay, [2]),
                                  HilbertLayout((2, 2)), [0])
            assert np.abs(once - twice).max() < 1e-10
            assert abs(np.trace(once) - np.trace(m)) < 1e-10

    def test_errors(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(3), HilbertLayout((2, 2)), [0])
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), HilbertLayout((2, 2)), [2])


class TestPartialExpectation:
    def test_bell_conditional(self):
        rho = np.outer(BELL, BELL.conj())
        out = partial_expectation(rho, HilbertLayout((2, 2)), 0,
                                  np.array([1, 0], dtype=complex))
        assert np.abs(out - np.diag([0.5, 0.0])).max() < 1e-12

    def test_product_factorization(self, rng):
        a, b = random_hermitian(2, rng), random_hermitian(3, rng)
        v = random_state(2, rng)
        out = partial_expectation(np.kron(a, b), HilbertLayout((2, 3)), 0, v)
        assert np.abs(out - (v.conj() @ a @ v) * b).max() < 1e-10

    def test_matches_index_sum_oracle(self):
        # conditioning the GHZ2 synthesis target on |+> of the first qubit
        from loccfisher.metrology import saturation_matrices
        fam = ghz_family(2)
        target = saturation_matrices(fam, 0.0).target.dense()
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        got = partial_expectation(target, fam.layout, 0, plus)
        want = sandwich_index_sum(target, (2, 2), 0, plus)
        assert np.abs(got - want).max() < 1e-12

    def test_basis_sum_equals_partial_trace(self, rng):
        lay = HilbertLayout((2, 3))
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        acc = sum(partial_expectation(m, lay, 1, q[:, i]) for i in range(3))
        assert np.abs(acc - partial_trace(m, lay, [1])).max() < 1e-10

    def test_non_unit_vector(self):
        with pytest.raises(ValueError):
            partial_expectation(np.eye(4), HilbertLayout((2, 2)), 0,
                                np.array([1.0, 1.0]))


class TestHermEig:
    def test_pauli_z(self):
        w, v = herm_eig(PAULI_Z)
        assert np.allclose(w, [1, -1])
        assert abs(abs(v[0, 0]) - 1) < 1e-12 and abs(abs(v[1, 1]) - 1) < 1e-12

    def test_pauli_x(self):
        w, v = herm_eig(PAULI_X)
        assert np.allclose(w, [1, -1])
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(np.vdot(plus, v[:, 0])) - 1) < 1e-12

    def test_sort_contract(self):
        w, _ = herm_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [3, 2, 1])

    def test_reconstruction_random(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 17))
            m = random_hermitian(d, rng)
            w, v = herm_eig(m)
            assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-10
            assert np.abs((v * w) @ v.conj().T - m).max() \
                < 1e-9 * max(1.0, np.linalg.norm(m))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError):
            herm_eig(np.ones((2, 3)))


class TestSqrtPsd:
    def test_projector(self, rng):
        v = random_state(4, rng)
        p = np.outer(v, v.conj())
        assert np.abs(sqrt_psd(p) - p).max() < 1e-10

    def test_diagonal(self):
        assert np.abs(sqrt_psd(np.diag([4.0, 9.0])) - np.diag([2.0, 3.0])).max() < 1e-12

    def test_half_identity(self):
        assert np.abs(sqrt_psd(np.eye(3) / 2) - np.eye(3) / np.sqrt(2)).max() < 1e-12

    def test_square_and_commute(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 9))
            m = random_density(d, rng) * rng.uniform(0.5, 3.0)
            r = sqrt_psd(m)
            nrm = max(1.0, np.linalg.norm(m))
            assert np.linalg.norm(r @ r - m) < 1e-9 * nrm
            assert np.linalg.norm(r @ m - m @ r) < 1e-9 * nrm

    def test_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            sqrt_psd(np.diag([1.0, -1e-6]))


def test_complex_pair_round_trip(rng):
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(pairs_to_complex(complex_to_pairs(m)), m)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.array_equal(pairs_to_complex(complex_to_pairs(v)), v)
