"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from loccfisher import (BipartiteCoeffs, FixedBasisFamily, IsometryPair, Povm, SimConfig,
                        UnitaryGeneratorFamily, check_lm_conditions,
                        check_saturation, construct_lm_2xd, discriminate,
                        fisher_info, flatten, heuristic_lm_search,
                        leaf_vectors, lm_povm_from_pair, qfi, run_trials,
                        saturation_matrices, sld, synthesize_tree, verify_tree)
from loccfisher.locc import bloch_rows
from loccfisher.scenarios import bell_states, builtin_scenario
from loccfisher.tensor import HilbertLayout, KetBraSum, partial_trace

from conftest import PAULI_Z, ghz_family, random_hermitian, random_state
from oracles import fisher_fd, qfi_double_sum

S2 = np.sqrt(2)


def report(ok: bool, label: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_ghz_qfi_and_sld():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 7):
        fam = ghz_family(n)
        d = 2 ** n
        for th in np.linspace(0.0, 1.4, 8):
            ok &= abs(qfi(fam, th) - n * n) < 1e-8 * n * n
            res = sld(*fam.rho_drho(th))
            want = np.zeros((d, d), dtype=complex)
            want[-1, 0] = n * 1j * np.exp(1j * n * th)
            want[0, -1] = -n * 1j * np.exp(-1j * n * th)
            ok &= np.abs(res.L - want).max() < 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(ok, f"criterion 1: GHZ qfi = n^2 and closed-form SLD ({elapsed:.2f}s)")


def test_criterion_2_type_i_locc_saturation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    layouts = [(2, 2), (2, 3), (2, 2, 2), (3, 3)]
    ok = True
    for k in range(50):
        dims = layouts[k % len(layouts)]
        layout = HilbertLayout(dims)
        d = layout.total
        fam = UnitaryGeneratorFamily(layout, random_state(d, rng),
                                     random_hermitian(d, rng))
        th = float(rng.uniform(0.05, 0.9))
        target = saturation_matrices(fam, th).target.dense()
        tree = synthesize_tree(KetBraSum.from_dense(target), layout)
        povm = flatten(tree)
        ok &= np.abs(sum(np.outer(v, v.conj()) for v in povm.vectors)
                     - np.eye(d)).max() < 1e-8
        scale = np.linalg.norm(target)
        ok &= max(abs(np.vdot(v, target @ v)) for _, v in leaf_vectors(tree)) \
            < 1e-7 * scale
        rep = check_saturation(povm, fam, th)
        ok &= rep.saturating and abs(rep.fi - rep.qfi) <= 1e-6 * rep.qfi
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(ok, f"criterion 2: 50 random pure families saturate via the "
               f"adaptive tree ({elapsed:.2f}s)")


def test_criterion_3_type_ii_locc_saturation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    layouts = [(2, 2), (2, 3), (2, 2, 2), (3, 3)]
    ok = True
    for k in range(50):
        layout = HilbertLayout(layouts[k % len(layouts)])
        d = layout.total
        a = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
        q, _ = np.linalg.qr(a)
        c0 = float(rng.uniform(0.25, 0.65))
        c1 = float(rng.uniform(0.1, 0.3))
        fam = FixedBasisFamily(layout, [q[:, 0], q[:, 1]],
                               lambda t, c0=c0, c1=c1: (c0 + c1 * t, 1 - (c0 + c1 * t)),
                               lambda t, c1=c1: (c1, -c1))
        th = float(rng.uniform(0.1, 0.9))
        p, dp = c0 + c1 * th, c1
        want = dp * dp / (p * (1 - p))
        target = KetBraSum.from_dense(saturation_matrices(fam, th).target.dense())
        rep = verify_tree(synthesize_tree(target, layout), fam, th)
        ok &= rep.saturating
        ok &= abs(rep.fi - want) <= 1e-6 * want
        ok &= abs(rep.qfi - want) <= 1e-6 * want
        _, disc = discriminate(q[:, 0], q[:, 1], layout)
        ok &= abs(disc.success_prob - 1.0) < 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(ok, f"criterion 3: 50 random rank-two families saturate and "
               f"discriminate ({elapsed:.2f}s)")


def test_criterion_4_bell_mixture_sld():
    t0 = time.perf_counter()
    sc = builtin_scenario("bellmix")
    bells = bell_states()
    ok = True
    for th in (0.3, 0.5, 0.7):
        res = sld(*sc.family.rho_drho(th))
        want = (1 / (1 + th) * np.outer(bells["phi+"], bells["phi+"].conj())
                + 1 / th * np.outer(bells["phi-"], bells["phi-"].conj())
                - 1 / (1 - th) * np.outer(bells["psi+"], bells["psi+"].conj()))
        ok &= np.abs(res.L - want).max() < 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(ok, f"criterion 4: Bell-mixture SLD coefficients ({elapsed:.2f}s)")


def test_criterion_5_chain4_grid_invariants():
    t0 = time.perf_counter()
    sc = builtin_scenario("chain4")
    layout = sc.family.layout
    ok = True
    first_points = []
    target_norms = []
    for th in sc.theta_grid:
        th = float(th)
        sm = saturation_matrices(sc.family, th)
        tree = synthesize_tree(KetBraSum.from_dense(sm.target.dense()), layout)
        rep = verify_tree(tree, sc.family, th)
        ok &= rep.saturating and abs(rep.fi - rep.qfi) <= 1e-6 * rep.qfi
        reduced_target = partial_trace(sm.target.dense(), layout, [1, 2, 3])
        rho = sc.family.rho_drho(th)[0]
        reduced_dev = partial_trace(rho - np.eye(16) / 16, layout, [1, 2, 3])
        for r in (reduced_target, reduced_dev):
            coef = np.trace(PAULI_Z @ r) / 2
            ok &= np.abs(r - coef * PAULI_Z).max() < 1e-8
        row = bloch_rows(tree, th)[0]
        first_points.append((row["x"], row["y"], row["z"]))
        target_norms.append(np.linalg.norm(reduced_target))
    # the plotted first-qubit point is fixed wherever the node is constrained;
    # at the final grid point the reduced target vanishes identically and the
    # basis choice is free
    pts = np.array([p for p, nrm in zip(first_points, target_norms) if nrm > 1e-10])
    ok &= len(pts) == 31 and target_norms[-1] < 1e-10
    ok &= np.abs(pts - pts[0]).max() < 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(ok, f"criterion 5: four-qubit chain saturation and first-qubit "
               f"invariants on the 32-point grid ({elapsed:.2f}s)")


A_3X3 = np.diag([S2 / 2, 0.5, 0.5]).astype(complex)
B_3X3 = np.diag([S2 * 1j / 2, -1j / 2, -1j / 2])
A_GAP = np.array([[1 / S2, 0], [0.5, 0.5]], dtype=complex)
B_GAP = np.array([[0, 1 / S2], [0.5, -0.5]], dtype=complex)

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


def interpolation_family(a_mat, b_mat):
    psi0 = a_mat.reshape(-1)
    perp = b_mat.reshape(-1)
    gen = 1j * (np.outer(perp, psi0.conj()) - np.outer(psi0, perp.conj()))
    return UnitaryGeneratorFamily(HilbertLayout(a_mat.shape), psi0, gen)


def test_criterion_6_explicit_product_measurements():
    t0 = time.perf_counter()
    ok = True
    # 3x3 diagonal pair with its explicit unitary/isometry solution
    rep = check_lm_conditions(IsometryPair(U_3X3, V_3X4),
                              BipartiteCoeffs(A_3X3, B_3X3))
    ok &= rep.phase_residual < 1e-10 and rep.support_residual < 1e-10
    povm = lm_povm_from_pair(IsometryPair(U_3X3, V_3X4))
    ok &= len(povm.vectors) == 12
    sat = check_saturation(povm, interpolation_family(A_3X3, B_3X3), 0.0)
    ok &= sat.saturating
    # two-qubit gap pair: the pi/8 product basis saturates but does not
    # discriminate (every outcome has weight under both states)
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    pair = IsometryPair(np.eye(2, dtype=complex),
                        np.array([[c, -s], [s, c]], dtype=complex))
    coeffs = BipartiteCoeffs(A_GAP, B_GAP)
    ok &= check_lm_conditions(pair, coeffs).feasible
    sat = check_saturation(lm_povm_from_pair(pair),
                           interpolation_family(A_GAP, B_GAP), 0.0)
    ok &= sat.saturating
    cc, dd = pair.cd(coeffs)
    ok &= np.abs(cc).min() > 1e-3 and np.abs(dd).min() > 1e-3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(ok, f"criterion 6: explicit product measurements verify and "
               f"saturate ({elapsed:.2f}s)")


def test_criterion_7_negative_controls():
    t0 = time.perf_counter()
    ok = True
    # phase condition constructible, support condition necessarily violated
    coeffs = BipartiteCoeffs(S2 * np.eye(2, dtype=complex) / 2,
                             S2 * np.exp(1j * np.pi / 4)
                             * np.array([[0, 1], [1, 0]], complex) / 2)
    rep = check_lm_conditions(construct_lm_2xd(coeffs), coeffs)
    ok &= rep.phase_residual < 1e-8
    ok &= rep.support_residual > 0.1
    # projective search on the 3x3 diagonal pair must fail over 100 restarts,
    # the padded search must succeed
    diag_pair = BipartiteCoeffs(A_3X3, B_3X3)
    _, proj = heuristic_lm_search(diag_pair, restarts=100, iters=150,
                                  allow_isometry_padding=False, seed=7)
    ok &= max(proj.phase_residual, proj.support_residual) > 1e-6 and proj.restarts == 100
    _, padded = heuristic_lm_search(diag_pair, restarts=100,
                                    allow_isometry_padding=True, seed=7)
    ok &= max(padded.phase_residual, padded.support_residual) < 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(ok, f"criterion 7: no-product-measurement evidence holds "
               f"({elapsed:.2f}s)")


def test_criterion_8_statistical_saturation():
    t0 = time.perf_counter()
    fam = ghz_family(3)
    fixed = run_trials(SimConfig(family=fam, theta_true=0.5, shots=10 ** 5,
                                 trials=100, seed=0, prior=(0.0, 1.0)))
    adaptive = run_trials(SimConfig(family=fam, theta_true=0.5, shots=10 ** 5,
                                    trials=100, seed=0, prior=(0.0, 1.0),
                                    strategy="two-step"))
    ok = 0.9 <= fixed.ratio <= 1.1
    ok &= 0.9 <= adaptive.ratio <= 1.1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(ok, f"criterion 8: N J Var in [0.9, 1.1] for fixed "
               f"({fixed.ratio:.3f}) and two-step ({adaptive.ratio:.3f}) "
               f"({elapsed:.2f}s)")


def test_criterion_8_statistical_saturation_at_2000_trials():
    # Var of the sample variance gives N J Var a standard error of about
    # sqrt(2 / 2000) = 0.032, so [0.9, 1.1] is about +-3 standard errors, where
    # 100 trials (0.14) cover about +-0.7
    t0 = time.perf_counter()
    fam = ghz_family(3)
    ratios = [run_trials(SimConfig(family=fam, theta_true=0.5, shots=10 ** 5, trials=2000,
                                   seed=0, prior=(0.0, 1.0), strategy=strategy)).ratio
              for strategy in ("fixed", "two-step")]
    elapsed = time.perf_counter() - t0
    ok = all(0.9 <= r <= 1.1 for r in ratios) and elapsed < 10.0
    report(ok, f"criterion 8 at 2000 trials: N J Var in [0.9, 1.1] for fixed "
               f"({ratios[0]:.3f}) and two-step ({ratios[1]:.3f}) ({elapsed:.2f}s)")


def test_criterion_9_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(20):
        dims = [(2, 2), (2, 3)][int(rng.integers(2))]
        layout = HilbertLayout(dims)
        d = layout.total
        fam = UnitaryGeneratorFamily(layout, random_state(d, rng),
                                     random_hermitian(d, rng))
        th = float(rng.uniform(0.1, 0.9))
        q, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        povm = Povm(vectors=q.T)
        rho, drho = fam.rho_drho(th)
        fi_lib = fisher_info(povm, KetBraSum.from_dense(rho), KetBraSum.from_dense(drho))
        fi_ora = fisher_fd([np.outer(v, v.conj()) for v in povm.vectors],
                           lambda t: fam.rho_drho(t)[0], th)
        ok &= abs(fi_lib - fi_ora) < 1e-6
        ok &= abs(qfi(fam, th) - qfi_double_sum(rho, drho)) < 1e-8
    elapsed = time.perf_counter() - t0
    report(ok, f"criterion 9: library values equal independent oracles "
               f"({elapsed:.2f}s)")
