import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loccfisher.zerodiag as zd
from loccfisher.cli import cli_main
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
def sweep_pair(draw, d):
    """A traceless Hermitian d x d pair at a scale from 1e-8 to 1e8: random,
    low-rank, the parts of a rank-one target, h1 with repeated eigenvalues,
    commuting, h2 = +-h1, or with h1, h2 or both zero."""
    kind = draw(st.sampled_from(["random", "low-rank", "rank-one", "repeated", "commuting",
                                 "h2=h1", "h2=-h1", "h1=0", "h2=0", "h1=h2=0"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g, h = random_traceless_hermitian(d, rng), random_traceless_hermitian(d, rng)
    if kind == "low-rank":
        g, h = spectral_matrix(d, rng, "low-rank"), spectral_matrix(d, rng, "low-rank")
    elif kind == "rank-one":
        a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
        m = np.outer(a, (b - np.vdot(a, b) / np.vdot(a, a) * a).conj())
        g, h = (m + m.conj().T) / 2, (m - m.conj().T) / 2j
    elif kind == "repeated":
        g = spectral_matrix(d, rng, "repeated")
    elif kind == "commuting":
        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        g, h = ((q * w) @ q.conj().T for w in rng.standard_normal((2, d)))
        g, h = (x - np.trace(x) / d * np.eye(d) for x in (g, h))
    elif kind in ("h2=h1", "h2=-h1"):
        h = g if kind == "h2=h1" else -g
    elif kind == "h1=0":
        g = np.zeros((d, d), dtype=complex)
    elif kind == "h2=0":
        h = np.zeros((d, d), dtype=complex)
    elif kind == "h1=h2=0":
        g = h = np.zeros((d, d), dtype=complex)
    scale = 10.0 ** draw(st.sampled_from([-8, -4, 0, 4, 8]))
    return g * scale, h * scale


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
        u = zd._block_basis(t)
        k = t.shape[1]
        for tp, up in zip(t, u):
            assert np.abs(up.conj().T @ up - np.eye(k)).max() <= 1e-14 * k
            assert np.abs(np.diag(up.conj().T @ tp @ up)).max() \
                <= 1e-14 * max(1.0, np.linalg.norm(tp))


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

    @pytest.mark.parametrize("h1, h2, error", [
        (PAULI_Z, np.diag([1.0, -1.0, 0.0]), "dimension mismatch"),
        (np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0]), "solve_2x2 expects 2x2 matrices")])
    def test_rejects_other_shapes(self, h1, h2, error):
        with pytest.raises(ValueError, match=error):
            solve_2x2(h1, h2)

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


@st.composite
def qubit_stack(draw):
    """A stack of 1 ... 12 traceless 2x2 matrices, each generic, exactly real,
    diagonal, Hermitian, anti-Hermitian (the swap branch) or zero, at a scale
    from 1e-8 to 1e8, with trace drift of rounding size."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["generic", "real", "diagonal", "hermitian",
                                           "anti-hermitian", "zero"]), min_size=1, max_size=12))
    out = []
    for kind in kinds:
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = {"generic": m, "real": m.real, "diagonal": np.diag(np.diag(m)),
             "hermitian": m + m.conj().T, "anti-hermitian": m - m.conj().T,
             "zero": 0 * m}[kind] * 10.0 ** rng.uniform(-8, 8)
        m = m - np.trace(m) / 2 * np.eye(2)
        out.append(m + rng.choice([0.0, 1e-17, -3e-16]) * np.abs(m).max() * np.eye(2))
    return np.stack(out)


class TestQubitStack:
    @given(qubit_stack())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_matches_the_scalar_closed_form_of_each_pair(self, m):
        # a vanishing pair keeps the identity and a vanishing h1 swaps the pair
        u = zero_diag_basis(m)
        for mp, up in zip(m, u):
            h1, h2 = (mp + mp.conj().T) / 2, (mp - mp.conj().T) / 2j
            n1, n2 = (np.linalg.norm(h - np.trace(h) / 2 * np.eye(2)) for h in (h1, h2))
            floor = zd._TINY * max(1.0, n1, n2)
            want = (np.eye(2) if max(n1, n2) <= floor else
                    closed_form_2x2(h2, h1, zd._TINY)[2] if n1 <= floor else
                    closed_form_2x2(h1, h2, zd._TINY)[2])
            assert np.abs(up - want).max() <= 1e-14
            assert np.abs(up.conj().T @ up - np.eye(2)).max() <= 1e-14
            assert np.abs(np.diag(up.conj().T @ mp @ up)).max() <= 1e-14 * max(1.0, n1, n2)


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


class TestSweep:
    # d >= 3: h1's block basis, then d - 1 plane rotations that zero h2's diagonal

    @given(st.integers(3, 12).flatmap(lambda d: st.lists(sweep_pair(d), min_size=1,
                                                         max_size=4)))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_stack_is_unitary_zero_diagonal_and_pairwise(self, pairs):
        h1, h2 = (np.stack(hs) for hs in zip(*pairs))
        u = zero_diag_basis(h1 + 1j * h2)
        d = h1.shape[1]
        for p in range(len(pairs)):
            scale = max(1.0, np.linalg.norm(h1[p]), np.linalg.norm(h2[p]))
            assert np.abs(u[p].conj().T @ u[p] - np.eye(d)).max() <= 1e-12 * d
            assert max(diag_residual(u[p], h1[p]), diag_residual(u[p], h2[p])) \
                <= zd.DIAG_TOL * scale
            alone = zero_diag_basis(h1[p] + 1j * h2[p]).view(float)
            assert np.array_equal(u[p].view(float), alone)
            assert np.array_equal(np.signbit(u[p].view(float)), np.signbit(alone))

    @pytest.mark.parametrize("d", [3, 4, 5, 9])
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    def test_rounding_perturbation_barely_moves_the_basis(self, d, seed):
        # full-rank targets: eigh of h1 and the rotation angles are continuous
        rng = np.random.default_rng(seed)
        m, e = (x - np.trace(x) / d * np.eye(d)
                for x in rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d)))
        moved = m + 1e-15 * np.linalg.norm(m) * e / np.linalg.norm(e)
        assert np.abs(zero_diag_basis(m) - zero_diag_basis(moved)).max() <= 1e-9


    @staticmethod
    def nan_block_basis(t):
        return np.full(t.shape, np.nan, dtype=complex)

    def test_nan_residual_raises(self, rng, monkeypatch):
        # NaN compares false, so a bound alone would let it through
        monkeypatch.setattr(zd, "_block_basis", self.nan_block_basis)
        m = random_traceless_hermitian(3, rng) + 1j * random_traceless_hermitian(3, rng)
        with pytest.raises(zd.ZeroDiagConvergenceError, match="diagonal residual nan of node 0"):
            zero_diag_basis(m)

    def test_nan_residual_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(zd, "_block_basis", self.nan_block_basis)
        assert cli_main(["synthesize", "lm3x3", "--theta", "0.3"]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert err["kind"] == "non-convergence" and "diagonal residual nan" in err["error"]


class TestScaleRelativeFloors:
    # Floors and tolerances are relative to max(1, ||h1||, ||h2||) of the
    # caller's pair.

    def test_noise_at_pair_scale_is_not_rotated(self):
        # h2 = +-h1 of rank two at 3e5: in h1's block basis h2's diagonal is
        # rounding noise of the 3e5 scale, far above 1e-12 in absolute terms,
        # so the sweep keeps the block basis as it is.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                                + 1j * rng.standard_normal((4, 4)))
            h1 = 3e5 * (np.outer(q[:, 0], q[:, 0].conj())
                        - np.outer(q[:, 1], q[:, 1].conj()))
            block = zd._block_basis(zd._traceless_hermitian(h1[None]))[0]
            noise = np.diag(block.conj().T @ h1 @ block).real
            assert noise.max() - noise.min() > 1e-12
            for sign in (1, -1):
                u = simultaneous_zero_diag(h1, sign * h1)
                assert np.array_equal(u, block)
                assert diag_residual(u, h1) < zd.DIAG_TOL * 3e5

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
