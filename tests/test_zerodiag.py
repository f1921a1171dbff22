import numpy as np
import pytest

import loccfisher.zerodiag as zd
from loccfisher.zerodiag import (find_null_vector, simultaneous_zero_diag,
                                 solve_2x2, zero_diag_basis)

from conftest import (PAULI_X, PAULI_Y, PAULI_Z, ghz_family,
                      random_traceless_hermitian)


def diag_residual(u, h):
    return np.abs(np.diag(u.conj().T @ h @ u)).max()


class TestSolve2x2:
    def test_z_y_pair(self):
        rot = solve_2x2(PAULI_Z, PAULI_Y)
        for h in (PAULI_Z, PAULI_Y):
            assert diag_residual(rot.unitary, h) < 1e-10
        # the basis is the +/- pair up to phases and column order
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        for i in range(2):
            col = rot.unitary[:, i]
            assert max(abs(np.vdot(plus, col)), abs(np.vdot(minus, col))) > 1 - 1e-12

    def test_already_zero_diagonal(self):
        rot = solve_2x2(PAULI_X, PAULI_Y)
        assert rot.beta == 0.0 and rot.alpha == 0.0
        assert np.abs(rot.unitary - np.eye(2)).max() < 1e-15

    def test_random_pairs(self, rng):
        for _ in range(100):
            h1 = random_traceless_hermitian(2, rng)
            h2 = random_traceless_hermitian(2, rng)
            u = solve_2x2(h1, h2).unitary
            assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
            assert max(diag_residual(u, h1), diag_residual(u, h2)) \
                < 1e-10 * (np.linalg.norm(h1) + np.linalg.norm(h2))

    def test_rejects_non_traceless(self):
        with pytest.raises(ValueError):
            solve_2x2(np.eye(2), PAULI_Z)


class TestFindNullVector:
    def test_single_matrix(self):
        h1 = np.diag([1.0, -1.0, 0.0]).astype(complex)
        v = find_null_vector(h1, np.zeros((3, 3), dtype=complex))
        assert abs(v.conj() @ h1 @ v) < 1e-12

    def test_with_offdiagonal_partner(self, rng):
        h1 = np.diag([2.0, -1.0, -1.0]).astype(complex)
        h2 = random_traceless_hermitian(3, rng)
        np.fill_diagonal(h2, 0.0)
        v = find_null_vector(h1, h2)
        assert abs(v.conj() @ h1 @ v) < 1e-10
        assert abs(v.conj() @ h2 @ v) < 1e-10

    def test_degenerate_pair(self, rng):
        h = random_traceless_hermitian(4, rng)
        v = find_null_vector(h, h.copy())
        assert abs(v.conj() @ h @ v) < 1e-10
        assert abs(np.linalg.norm(v) - 1) < 1e-12

    def test_residual_property(self, rng):
        for d in range(3, 7):
            for _ in range(25):
                h1 = random_traceless_hermitian(d, rng)
                h2 = random_traceless_hermitian(d, rng)
                v = find_null_vector(h1, h2)
                bound = 1e-9 * (np.linalg.norm(h1) + np.linalg.norm(h2))
                assert abs(v.conj() @ h1 @ v) < bound
                assert abs(v.conj() @ h2 @ v) < bound


class TestSimultaneousZeroDiag:
    def test_base_case_matches_2x2(self, rng):
        h1 = random_traceless_hermitian(2, rng)
        h2 = random_traceless_hermitian(2, rng)
        assert np.abs(simultaneous_zero_diag(h1, h2)
                      - solve_2x2(h1, h2).unitary).max() < 1e-14

    def test_random_suite(self, rng):
        worst = 0.0
        for d in range(3, 9):
            for _ in range(34):          # ~200 pairs over d = 3..8
                h1 = random_traceless_hermitian(d, rng)
                h2 = random_traceless_hermitian(d, rng)
                u = simultaneous_zero_diag(h1, h2)
                assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-10
                for h in (h1, h2):
                    worst = max(worst, diag_residual(u, h) / np.linalg.norm(h))
        assert worst < 1e-8

    def test_structured_pair(self):
        h1 = np.kron(PAULI_Z, np.eye(2))
        h2 = np.kron(PAULI_Y, PAULI_X)
        u = simultaneous_zero_diag(h1, h2)
        assert max(diag_residual(u, h1), diag_residual(u, h2)) < 1e-10

    def test_zero_first_matrix(self, rng):
        h2 = random_traceless_hermitian(4, rng)
        u = simultaneous_zero_diag(np.zeros((4, 4), dtype=complex), h2)
        assert diag_residual(u, h2) < 1e-10

    def test_both_zero(self):
        u = simultaneous_zero_diag(np.zeros((3, 3), complex), np.zeros((3, 3), complex))
        assert np.array_equal(u, np.eye(3))

    def test_recursion_visits_every_dimension(self, rng, monkeypatch):
        seen = []
        original = zd._zero_diag_pair

        def spy(h1, h2, scale):
            seen.append(h1.shape[0])
            return original(h1, h2, scale)

        monkeypatch.setattr(zd, "_zero_diag_pair", spy)
        h1 = random_traceless_hermitian(6, rng)
        h2 = random_traceless_hermitian(6, rng)
        zd.simultaneous_zero_diag(h1, h2)
        # one peel per level: the main chain passes through every dimension
        assert set(range(2, 7)).issubset(set(seen))


class TestScaleRelativeFloors:
    # Floors and tolerances are relative to max(1, ||h1||, ||h2||) of the
    # caller's pair, and sub-problems keep that scale.

    def test_deflated_pair_is_noise_at_parent_scale(self):
        # After the first null vector is peeled off, the deflated h1 vanishes
        # exactly, so it holds only rounding noise of the 3e3 scale, which is
        # above 1e-12 in absolute terms.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                                + 1j * rng.standard_normal((4, 4)))
            h1 = 3e3 * (np.outer(q[:, 0], q[:, 0].conj())
                        - np.outer(q[:, 1], q[:, 1].conj()))
            u = simultaneous_zero_diag(h1, np.zeros_like(h1))
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10
            assert diag_residual(u, h1) < zd.DIAG_TOL * 3e3

    @pytest.mark.parametrize("c1, c2", [(1e-10, 1.0), (1e-6, 1.0), (1.0, 1e-9),
                                        (1e-8, 1e-8), (1e8, 1e3), (1e4, 1e8)])
    def test_scale_sweep(self, rng, c1, c2):
        for d in range(3, 7):
            for _ in range(5):
                h1 = c1 * random_traceless_hermitian(d, rng)
                h2 = c2 * random_traceless_hermitian(d, rng)
                u = simultaneous_zero_diag(h1, h2)
                scale = max(1.0, np.linalg.norm(h1), np.linalg.norm(h2))
                assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-10
                assert max(diag_residual(u, h1), diag_residual(u, h2)) \
                    < zd.DIAG_TOL * scale


class TestZeroDiagBasis:
    def test_ket_bra_already_diagonal(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        u = zero_diag_basis(m)
        assert np.abs(np.abs(u) - np.eye(2)).max() < 1e-12

    def test_generic_complex(self):
        m = PAULI_Z + 1j * PAULI_X
        u = zero_diag_basis(m)
        assert np.abs(np.diag(u.conj().T @ m @ u)).max() < 1e-10

    def test_ghz2_target_end_to_end(self):
        from loccfisher.metrology import saturation_matrices
        fam = ghz_family(2)
        m = saturation_matrices(fam, 0.3).m_tilde
        u = zero_diag_basis(m)
        assert np.abs(np.diag(u.conj().T @ m @ u)).max() < 1e-8 * np.linalg.norm(m)

    def test_scale_invariance(self, rng):
        m = (random_traceless_hermitian(4, rng)
             + 1j * random_traceless_hermitian(4, rng))
        u = zero_diag_basis(m)
        base = np.abs(np.diag(u.conj().T @ m @ u)).max()
        for c in (3.0, -2.0, 0.5j):
            scaled = np.abs(np.diag(u.conj().T @ (c * m) @ u)).max()
            assert scaled <= abs(c) * base + 1e-14

    def test_rejects_trace(self):
        with pytest.raises(ValueError):
            zero_diag_basis(np.eye(2, dtype=complex))
