import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loccfisher.zerodiag as zd
from loccfisher.zerodiag import (find_null_vector, simultaneous_zero_diag,
                                 solve_2x2, zero_diag_basis)

from conftest import (PAULI_X, PAULI_Y, PAULI_Z, ghz_family,
                      random_traceless_hermitian)
from oracles import closed_form_2x2


def diag_residual(u, h):
    return np.abs(np.diag(u.conj().T @ h @ u)).max()


@st.composite
def qubit_node(draw):
    """A traceless 2x2 reduction reaching one branch of the zero-diagonalization."""
    kind = draw(st.sampled_from(["zero", "generic", "hermitian", "anti-hermitian",
                                 "near-zero diagonal", "negative diagonal"]))
    x = draw(st.lists(st.floats(-1, 1), min_size=6, max_size=6))
    diag, upper, lower = complex(x[0], x[1]), complex(x[2], x[3]), complex(x[4], x[5])
    if kind == "zero":
        return np.zeros((2, 2), dtype=complex)
    if kind == "hermitian":                 # zero anti-Hermitian part
        diag, lower = complex(diag.real), upper.conjugate()
    elif kind == "anti-hermitian":          # zero Hermitian part: the swap branch
        diag, lower = complex(0, diag.imag), -upper.conjugate()
    elif kind == "near-zero diagonal":      # both diagonals below the floor, or just above
        diag *= 10.0 ** -draw(st.sampled_from([11, 12, 13, 16]))
    elif kind == "negative diagonal":       # the canonical sign flips both parts
        diag = complex(-abs(diag.real) - 0.1, -abs(diag.imag))
    m = np.array([[diag, upper], [lower, -diag]]) * 10.0 ** draw(st.integers(-8, 8))
    # trace drift of rounding size, which the level's trace check re-centers
    return m + draw(st.sampled_from([0.0, 1e-17, -3e-16])) * np.abs(m).max() * np.eye(2)


@st.composite
def qudit_node(draw, d):
    """A traceless d x d reduction: zero, or with a Hermitian part that has a
    drawn number of positive eigenvalues, or anti-Hermitian (the swap branch)."""
    kind = draw(st.sampled_from(["zero", "generic", "hermitian", "anti-hermitian"]))
    if kind == "zero":
        return np.zeros((d, d), dtype=complex)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    c = draw(st.integers(1, d - 1))             # positive eigenvalues of the Hermitian part
    w = rng.uniform(0.1, 1.0, d)
    w[c:] *= -w[:c].sum() / w[c:].sum()
    h1, h2 = (q * w) @ q.conj().T, random_traceless_hermitian(d, rng)
    m = {"generic": h1 + 1j * h2, "hermitian": h1, "anti-hermitian": 1j * h2}[kind]
    m = m * 10.0 ** draw(st.integers(-8, 8))
    return m + draw(st.sampled_from([0.0, 1e-17, -3e-16])) * np.abs(m).max() * np.eye(d)


def spectral_matrix(d, rng, kind):
    """A traceless Hermitian d x d matrix: random, low-rank, or with two repeated eigenvalues."""
    if kind == "random":
        return random_traceless_hermitian(d, rng)
    q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    w = np.zeros(d)
    if kind == "low-rank":
        k = rng.integers(1, d // 2 + 1)
        w[:k] = rng.uniform(0.5, 1.5, k)
        w[k:2 * k] = -w[:k]
    else:
        c = rng.integers(1, d)
        w[:c], w[c:] = d - c, -c
    return (q * w) @ q.conj().T


@st.composite
def adversarial_pair(draw, d):
    """A traceless Hermitian pair at a scale from 1e-8 to 1e8 whose smaller
    matrix (first or second) has 1 or 1e-4 ... 1e-14 of the other's norm."""
    kinds = st.sampled_from(["random", "low-rank", "repeated"])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.sampled_from([-8, -4, 0, 4, 8]))
    ratio = 10.0 ** -draw(st.sampled_from([0, 4, 6, 8, 10, 12, 14]))
    g, h = spectral_matrix(d, rng, draw(kinds)), spectral_matrix(d, rng, draw(kinds))
    g, h = g * scale / np.linalg.norm(g), h * scale * ratio / np.linalg.norm(h)
    return (h, g) if draw(st.booleans()) else (g, h)


@st.composite
def traceless_blocks(draw):
    """A stack of traceless Hermitian k x k blocks, k = 1 ... 9, each zero,
    random, low-rank or with two repeated eigenvalues, at a scale from 1e-8 to 1e8."""
    k = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = st.sampled_from(["zero", "random", "low-rank", "repeated"])
    blocks = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        t = (np.zeros((k, k), dtype=complex) if kind == "zero" or k == 1
             else spectral_matrix(k, rng, kind))
        blocks.append(t * 10.0 ** draw(st.integers(-8, 8)))
    return np.stack(blocks)


class TestBlockBasis:
    @given(traceless_blocks())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_unitary_and_zero_diagonal(self, t):
        u = zd._block_basis(t, np.zeros(len(t)))
        k = t.shape[1]
        for tp, up in zip(t, u):
            assert np.abs(up.conj().T @ up - np.eye(k)).max() <= 1e-14 * k
            assert np.abs(np.diag(up.conj().T @ tp @ up)).max() \
                <= 1e-14 * max(1.0, np.linalg.norm(tp))

    def test_vanishing_block_keeps_the_identity(self, rng):
        t = np.stack([random_traceless_hermitian(4, rng) * s for s in (1e-13, 1.0)])
        u = zd._block_basis(t, np.full(2, 1e-12))
        assert np.array_equal(u[0], np.eye(4)) and not np.allclose(u[1], np.eye(4))

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_rank_one_target_needs_one_peel(self, rng, monkeypatch, d):
        # the conditioned target of a rank-two family at its last depth: h1
        # and h2 have rank two, so one sign block of h1 is a vanishing block
        # of the target; its identity basis picks h1's extreme eigenvector,
        # and the pair deflated off the null vector vanishes
        seen = []
        zero_diag = zd._zero_diag

        def spy(h, scale, node):
            seen.append(h.shape[2])
            return zero_diag(h, scale, node)

        monkeypatch.setattr(zd, "_zero_diag", spy)
        for _ in range(5):
            a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
            m = np.outer(a, (b - np.vdot(a, b) / np.vdot(a, a) * a).conj())
            seen.clear()
            u = zero_diag_basis(m)
            assert seen == [d, d - 1]
            assert np.abs(np.diag(u.conj().T @ m @ u)).max() <= 1e-14 * np.linalg.norm(m)


class TestSolve2x2:
    def test_z_y_pair(self):
        _, _, u = solve_2x2(PAULI_Z, PAULI_Y)
        for h in (PAULI_Z, PAULI_Y):
            assert diag_residual(u, h) < 1e-10
        # the basis is the +/- pair up to phases and column order
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        for i in range(2):
            col = u[:, i]
            assert max(abs(np.vdot(plus, col)), abs(np.vdot(minus, col))) > 1 - 1e-12

    def test_already_zero_diagonal(self):
        alpha, beta, u = solve_2x2(PAULI_X, PAULI_Y)
        assert beta == 0.0 and alpha == 0.0
        assert np.abs(u - np.eye(2)).max() < 1e-15

    def test_random_pairs(self, rng):
        for _ in range(100):
            h1 = random_traceless_hermitian(2, rng)
            h2 = random_traceless_hermitian(2, rng)
            _, _, u = solve_2x2(h1, h2)
            assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
            assert max(diag_residual(u, h1), diag_residual(u, h2)) \
                < 1e-10 * (np.linalg.norm(h1) + np.linalg.norm(h2))

    def test_rejects_non_traceless(self):
        with pytest.raises(ValueError):
            solve_2x2(np.eye(2), PAULI_Z)

    @given(st.lists(qubit_node(), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_stack_matches_scalar_closed_form_bit_for_bit(self, nodes):
        m = np.stack(nodes)
        h1, h2 = (m + m.conj().swapaxes(1, 2)) / 2, (m - m.conj().swapaxes(1, 2)) / 2j
        alpha, beta, u = zd._solve_2x2(h1, h2)
        for p in range(len(m)):
            want = closed_form_2x2(h1[p], h2[p], zd._TINY)
            assert (alpha[p], beta[p]) == want[:2]
            got, ref = u[p].view(float), want[2].view(float)
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


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
                      - solve_2x2(h1, h2)[2]).max() < 1e-14

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
        original = zd._zero_diag

        def spy(h, scale, node):
            seen.append(h.shape[2])
            return original(h, scale, node)

        monkeypatch.setattr(zd, "_zero_diag", spy)
        h1 = random_traceless_hermitian(6, rng)
        h2 = random_traceless_hermitian(6, rng)
        zd.simultaneous_zero_diag(h1, h2)
        # one peel per level: the main chain passes through every dimension
        assert set(range(2, 7)).issubset(set(seen))

    def test_null_vectors_never_call_the_pair_solver(self, rng, monkeypatch):
        seen, inside = [], []
        zero_diag, null_vectors = zd._zero_diag, zd._null_vectors

        def zero_diag_spy(h, scale, node):
            assert not inside, "_null_vectors reached _zero_diag"
            seen.append(h.shape[2])
            return zero_diag(h, scale, node)

        def null_vectors_spy(h, scale, node):
            inside.append(h.shape[2])
            try:
                return null_vectors(h, scale, node)
            finally:
                inside.pop()

        monkeypatch.setattr(zd, "_zero_diag", zero_diag_spy)
        monkeypatch.setattr(zd, "_null_vectors", null_vectors_spy)
        for d in (3, 6, 9):
            seen.clear()
            zd.simultaneous_zero_diag(random_traceless_hermitian(d, rng),
                                      random_traceless_hermitian(d, rng))
            # one call per deflation, nothing nested
            assert seen == list(range(d, 1, -1))

    @pytest.mark.parametrize("d", [9, 16, 32])
    def test_random_pairs_at_large_d(self, rng, d):
        for _ in range(3):
            h1 = random_traceless_hermitian(d, rng)
            h2 = random_traceless_hermitian(d, rng)
            u = simultaneous_zero_diag(h1, h2)
            scale = max(1.0, np.linalg.norm(h1), np.linalg.norm(h2))
            assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-10
            assert max(diag_residual(u, h1), diag_residual(u, h2)) <= zd.DIAG_TOL * scale


class TestAdversarialStacks:
    @given(st.integers(3, 7).flatmap(lambda d: st.lists(adversarial_pair(d), min_size=1,
                                                        max_size=4)))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_unitary_and_zero_diagonal(self, pairs):
        h1, h2 = (np.stack(hs) for hs in zip(*pairs))
        u = zero_diag_basis(h1 + 1j * h2)
        d = h1.shape[1]
        for p in range(len(pairs)):
            scale = max(1.0, np.linalg.norm(h1[p]), np.linalg.norm(h2[p]))
            assert np.abs(u[p].conj().T @ u[p] - np.eye(d)).max() <= 1e-10
            assert max(diag_residual(u[p], h1[p]), diag_residual(u[p], h2[p])) \
                <= zd.DIAG_TOL * scale


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
        m = saturation_matrices(fam, 0.3).target.dense()
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
