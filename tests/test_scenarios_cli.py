import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from loccfisher import (check_saturation, flatten, qfi, saturation_matrices,
                        sld, synthesize_tree)
import loccfisher
from loccfisher import cli, metrology
from loccfisher.cli import build_parser, cli_main
from loccfisher.locc import leaf_vectors, tree_from_json, tree_to_json
from loccfisher.scenarios import (PauliStringTerm, Scenario, _ghz_doc, bell_states,
                                  builtin_names, builtin_scenario, parse_scenario)
from loccfisher.tensor import PERP_TOL, HilbertLayout, complex_to_pairs, kron

from conftest import (I2, PAULI_X, PAULI_Z, pauli_doc, pauli_weights_matrix, random_density,
                      random_hermitian)
from oracles import pauli_term_matrix


NO_TARGET_COMMANDS = [["synthesize"], ["export-bloch"],
                      ["simulate", "--shots", "100", "--trials", "2"]]
NO_TARGET_ERROR = {"error": "family has no rank-one synthesis target (a generic mixed family)",
                   "kind": "validation"}


def xy_chain_w_doc(n):
    """The W state under the open chain sum_j (X_j X_j+1 + Y_j Y_j+1) / 2.

    On the one-excitation states the chain is the path graph's adjacency
    matrix A, so qfi = 4 (<1|A^2|1>/n - (<1|A|1>/n)^2) = 4 ((4n - 6)/n - 4 (n - 1)^2/n^2).
    """
    psi_in = np.zeros(2 ** n, dtype=complex)
    psi_in[[1 << k for k in range(n)]] = 1 / np.sqrt(n)
    terms = [{"coeff": 0.5, "string": "I" * j + 2 * p + "I" * (n - j - 2)}
             for j in range(n - 1) for p in "XY"]
    return {"name": f"xyw{n}", "type": "unitary-generator", "layout": [2] * n,
            "psi_in": complex_to_pairs(psi_in), "hamiltonian": {"pauli": terms},
            "theta_grid": [0.3]}


def generic_qubit_pair():
    """2 x 2 coefficient matrices, Tr A^dag B = 0, that the qubit construction answers."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a /= np.sqrt(np.trace(a.conj().T @ a).real)
    return a, b - np.trace(a.conj().T @ b) * a


def spelled(pairs):
    """Nested [re, im] pairs whose first pair holds the strings that spell its numbers."""
    arr = np.array(pairs, dtype=object)
    first = (0,) * (arr.ndim - 1)
    arr[first] = [str(v) for v in arr[first]]
    return arr.tolist()


def bell_mixture_doc():
    """t |phi+><phi+| + (1 - t) |phi-><phi-| as a generic mixed document."""
    bells = bell_states()
    return {"type": "mixed", "layout": [2, 2], "theta_grid": [0.5],
            **{key: complex_to_pairs(np.outer(bells[name], bells[name].conj()))
               for key, name in (("rho1", "phi+"), ("rho2", "phi-"))}}


class TestPauliStrings:
    def test_term_matrix(self):
        term = PauliStringTerm(0.5, "XZ")
        assert np.abs(pauli_term_matrix(term) - 0.5 * np.kron(PAULI_X, PAULI_Z)).max() < 1e-15

    def test_invalid_string(self):
        with pytest.raises(ValueError):
            PauliStringTerm(1.0, "XQ")

    def test_chain4_hamiltonian_matches_dense(self):
        lay = HilbertLayout((2, 2, 2, 2))
        terms = [PauliStringTerm(1.0, "XXII"), PauliStringTerm(1.0, "IXXI"),
                 PauliStringTerm(1.0, "IIXX")]
        want = (kron([PAULI_X, PAULI_X, I2, I2])
                + kron([I2, PAULI_X, PAULI_X, I2])
                + kron([I2, I2, PAULI_X, PAULI_X]))
        assert np.abs(pauli_weights_matrix(terms, lay) - want).max() < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match 3 qubits"):
            parse_scenario(pauli_doc(HilbertLayout((2, 2, 2)), [PauliStringTerm(1.0, "XX")]))

    def test_requires_qubits(self):
        with pytest.raises(ValueError, match="require a qubit layout"):
            parse_scenario(pauli_doc(HilbertLayout((2, 3)), [PauliStringTerm(1.0, "XX")]))

    def test_iz_sum_diagonal_matches_dense(self):
        lay = HilbertLayout((2, 2, 2))
        terms = [PauliStringTerm(0.5, "ZII"), PauliStringTerm(-1.5, "IZZ"),
                 PauliStringTerm(0.25, "III")]
        family = parse_scenario(pauli_doc(lay, terms)).family
        assert np.array_equal(np.diag(family.generator), pauli_weights_matrix(terms, lay))

    def test_dense_fallback_past_the_krylov_cap(self, monkeypatch):
        # chain4's Krylov space needs three steps; with two, G is built column by
        # column and factored by eigh, whose levels of -1, 1 and 3 are not equal bit
        # for bit, and gives the same psi and dpsi
        lanczos = builtin_scenario("chain4").family
        monkeypatch.setattr(metrology, "KRYLOV_CAP", 2)
        dense = builtin_scenario("chain4").family
        assert len(lanczos.generator[0]) == 3 and len(dense.generator[0]) > 3
        for theta in (-0.7, 0.3, 2.1):
            for got, want in zip(dense.psi_dpsi(theta), lanczos.psi_dpsi(theta)):
                assert np.abs(got - want).max() < 1e-12

    def test_iz_scenario_keeps_a_diagonal_generator(self):
        assert builtin_scenario("ghz4").family.generator.shape == (16,)
        # an X/Y sum is stored as (lam, C): chain4's W input touches three levels
        levels, rows = builtin_scenario("chain4").family.generator
        assert np.abs(levels - [-1.0, 1.0, 3.0]).max() < 1e-12 and rows.shape == (3, 16)


class TestBuiltins:
    def test_names_list(self):
        names = builtin_names()
        assert "ghz2" in names and "chain4" in names and "bellmix" in names

    def test_ghz_qfi(self):
        sc = builtin_scenario("ghz3")
        for th in (0.0, 0.4):
            assert abs(qfi(sc.family, th) - 9.0) < 1e-7

    def test_ghz2_sld_closed_form(self):
        sc = builtin_scenario("ghz2")
        th = 0.25
        res = sld(*sc.family.rho_drho(th))
        want = np.zeros((4, 4), dtype=complex)
        want[3, 0] = 2j * np.exp(2j * th)
        want[0, 3] = -2j * np.exp(-2j * th)
        assert np.abs(res.L - want).max() < 1e-9

    def test_ghz_range(self):
        # any ghzN with 2 <= N <= 16 parses; builtin_names lists 2 to 8
        assert builtin_scenario("ghz9").family.layout.nsub == 9
        with pytest.raises(ValueError):
            builtin_scenario("ghz1")
        with pytest.raises(ValueError):
            builtin_scenario("ghz17")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_scenario("mystery")

    def test_bellmix_sld_at_half(self):
        sc = builtin_scenario("bellmix")
        res = sld(*sc.family.rho_drho(0.5))
        bells = bell_states()
        for vec, want in ((bells["phi+"], 2 / 3), (bells["phi-"], 2.0),
                          (bells["psi+"], -2.0)):
            assert abs(np.vdot(vec, res.L @ vec).real - want) < 1e-9

    def test_ranktwo_qfi(self):
        sc = builtin_scenario("ranktwo")
        th = 0.2
        assert abs(qfi(sc.family, th) - 1 / (th * (1 - th))) < 1e-9

    def test_round_trip_idempotent(self):
        for name in builtin_names():
            sc = builtin_scenario(name)
            doc = sc.doc
            again = parse_scenario(doc).doc
            assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


class TestCliCore:
    def test_import_loads_no_scipy(self):
        # only an lm search loads scipy, and then only its compiled MINPACK
        code = ("import sys, loccfisher.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        env = dict(os.environ, PYTHONPATH=str(Path(loccfisher.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert run.stdout.strip() == "[]"

    def test_cold_search_loads_no_scipy_optimize(self, capsys):
        # a fresh process reaches lmder without scipy.optimize and prints what one with it prints
        argv = ["lm-check", "lm3x3", "--projective-only", "--restarts", "1"]
        code = ("import sys; from loccfisher.cli import cli_main\n"
                f"code = cli_main({argv!r})\n"
                "print([m for m in sys.modules if 'scipy.optimize' in m], file=sys.stderr)\n"
                "sys.exit(code)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(loccfisher.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0 and run.stderr.strip() == "[]"
        assert cli_main(argv) == 0
        assert run.stdout == capsys.readouterr().out

    def test_console_entry_point_exits_1_on_a_validation_error(self):
        # main() exits with cli_main's code and prints the error as JSON on stderr only;
        # test_simulate_far_from_zero_ends runs it to exit 0
        env = dict(os.environ, PYTHONPATH=str(Path(loccfisher.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-m", "loccfisher.cli", "qfi", "nosuch"],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 1 and run.stdout == ""
        assert json.loads(run.stderr)["kind"] == "validation"

    def test_scenario_list(self, capsys):
        assert cli_main(["scenario", "list"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(e["name"] == "chain4" for e in doc["scenarios"])

    def test_qfi_command(self, capsys):
        assert cli_main(["qfi", "ghz3", "--theta", "0.3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["qfi"] - 9.0) < 1e-7

    def test_synthesize_verify_round_trip(self, tmp_path, capsys):
        tree_path = str(tmp_path / "tree.json")
        assert cli_main(["synthesize", "ghz3", "--theta", "0.3",
                         "--out", tree_path]) == 0
        capsys.readouterr()
        assert cli_main(["verify", "ghz3", "--tree", tree_path,
                         "--theta", "0.3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["saturating"] is True
        assert abs(doc["fi"] - doc["qfi"]) <= 1e-6 * doc["qfi"]

    def test_verify_rejects_non_finite_tree(self, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        assert cli_main(["synthesize", "ghz2", "--theta", "0.3",
                         "--out", str(tree_path)]) == 0
        doc = json.loads(tree_path.read_text())
        doc["node"]["basis"][1][0] = [float("nan"), 0.0]
        tree_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["verify", "ghz2", "--tree", str(tree_path),
                         "--theta", "0.3"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "validation" and "non-finite" in err["error"]

    @staticmethod
    def verify_error(tmp_path, capsys, synth, scenario):
        """The error of verifying a tree synthesized for ``synth`` against ``scenario``."""
        tree_path = str(tmp_path / "tree.json")
        assert cli_main(["synthesize", synth, "--theta", "0.3", "--out", tree_path]) == 0
        capsys.readouterr()
        assert cli_main(["verify", scenario, "--tree", tree_path, "--theta", "0.3"]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["kind"] == "validation" and captured.out == ""
        return err["error"]

    def test_verify_rejects_a_tree_of_another_layout(self, tmp_path, capsys):
        # ghz3 (2, 2, 2) and (4, 2) share the dimension 8
        psi_in = np.zeros(8, dtype=complex)
        psi_in[0] = psi_in[-1] = 1 / np.sqrt(2)
        doc = {"type": "unitary-generator", "layout": [4, 2],
               "psi_in": complex_to_pairs(psi_in),
               "hamiltonian": {"dense": complex_to_pairs(np.diag(np.arange(8.0)))},
               "theta_grid": [0.3]}
        path = tmp_path / "qudit-qubit.json"
        path.write_text(json.dumps(doc))
        error = self.verify_error(tmp_path, capsys, "ghz3", str(path))
        assert "[2, 2, 2]" in error and "[4, 2]" in error

    def test_verify_rejects_a_tree_of_another_dimension(self, tmp_path, capsys):
        error = self.verify_error(tmp_path, capsys, "ghz2", "ghz3")
        assert "[2, 2]" in error and "[2, 2, 2]" in error

    @pytest.mark.parametrize("scenario, dim", [("ghz3", 8), ("lm3x3", 9)])
    def test_synthesize_reports_one_leaf_per_basis_state(self, tmp_path, capsys,
                                                         scenario, dim):
        tree_path = tmp_path / "tree.json"
        assert cli_main(["synthesize", scenario, "--theta", "0.3",
                         "--out", str(tree_path)]) == 0
        assert json.loads(capsys.readouterr().out)["leaves"] == dim
        tree = tree_from_json(json.loads(tree_path.read_text()))
        assert len(leaf_vectors(tree)) == dim

    def test_out_file_is_one_compact_line_of_the_tree(self, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        assert cli_main(["synthesize", "ghz3", "--theta", "0.3",
                         "--out", str(tree_path)]) == 0
        capsys.readouterr()
        text = tree_path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1 and ", " not in text
        fam = builtin_scenario("ghz3").family
        tree = synthesize_tree(saturation_matrices(fam, 0.3).target, fam.layout)
        assert json.loads(text) == tree_to_json(tree)
        assert cli_main(["verify", "ghz3", "--tree", str(tree_path),
                         "--theta", "0.3"]) == 0
        assert json.loads(capsys.readouterr().out)["saturating"] is True

    def test_parser_is_reused_and_unchanged_by_parsing(self, tmp_path, capsys):
        out = tmp_path / "tree.json"
        calls = [["qfi", "ghz2", "--theta", "nan"], ["qfi", "ghz3"],
                 ["synthesize", "ghz2", "--out", str(out)]]

        def run(argv):
            code = cli_main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err, out.read_bytes() if out.exists() else b""

        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()
        reused = [run(argv) for argv in calls]
        out.unlink()
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        assert reused == fresh
        assert [r[0] for r in reused] == [1, 0, 0] and reused[2][3]

    def test_simulate_reproducible(self, capsys):
        argv = ["simulate", "ghz2", "--theta", "0.4", "--shots", "1000",
                "--trials", "10", "--seed", "5", "--prior", "0", "1"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == first

    def test_rank_two_mixture_at_equal_weights_saturates(self, tmp_path, capsys):
        # at t = 1/2, rho fixes only its support; the document's rho1 - rho2 fixes
        # the basis on it when the document is read
        path, tree = tmp_path / "mix.json", str(tmp_path / "tree.json")
        path.write_text(json.dumps(bell_mixture_doc()))
        for theta in ("0.5", "0.5001"):
            assert cli_main(["synthesize", str(path), "--theta", theta, "--out", tree]) == 0
            capsys.readouterr()
            assert cli_main(["verify", str(path), "--tree", tree, "--theta", theta]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["saturating"] is True
            assert abs(doc["fi"] - doc["qfi"]) <= 1e-6 * doc["qfi"]

    def test_rank_two_mixture_two_step_from_the_prior_midpoint(self, tmp_path, capsys):
        # the reference tree is synthesized at the prior midpoint t = 1/2
        path = tmp_path / "mix.json"
        path.write_text(json.dumps(bell_mixture_doc()))
        assert cli_main(["simulate", str(path), "--two-step", "--prior", "0.1", "0.9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["J"] - 4.0) < 1e-6 and doc["degenerate_trials"] == 0
        assert doc["ci95"][0] <= 1.0 <= doc["ci95"][1]

    def test_bell_mixture_document_reads_exactly(self, tmp_path, capsys):
        # rho1 - rho2 is drho exactly: qfi = 1/(theta (1 - theta)) to rounding, also a
        # step from theta = 0, and the two-step J is the qfi at the prior midpoint
        path = tmp_path / "mix.json"
        path.write_text(json.dumps(bell_mixture_doc()))
        family = parse_scenario(bell_mixture_doc()).family
        assert isinstance(family, metrology.RankTwoFixedBasisFamily)
        for theta in np.arange(1, 10) / 10:
            assert abs(metrology.qfi(family, theta) * theta * (1 - theta) - 1) <= 1e-13
        assert cli_main(["qfi", str(path), "--theta", "0.00005"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["qfi"] * 5e-5 * (1 - 5e-5) - 1) <= 1e-9
        assert cli_main(["simulate", str(path), "--two-step", "--prior", "0.1", "0.9"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["J"] - 4.0) <= 1e-12

    @pytest.mark.parametrize("flags", [[], ["--two-step"]])
    def test_bell_mixture_simulates_over_its_pure_ends(self, tmp_path, capsys, flags):
        # rho(0) and rho(1) are pure states: the outcome law reads them on the grid
        # ends, while the frame there, whose qfi divides by p (1 - p), refuses them
        path = tmp_path / "mix.json"
        path.write_text(json.dumps(bell_mixture_doc()))
        argv = ["simulate", str(path), "--theta", "0.05", "--prior", "0", "1", *flags]
        assert cli_main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["J"] * 0.05 * 0.95 - 1) <= 1e-13 and doc["degenerate_trials"] == 0
        assert cli_main(["qfi", str(path), "--theta", "0"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "p(theta) = 0.0 outside (0, 1)"

    def test_simulate_far_from_zero_ends(self):
        # doubles near theta = 1e7 are farther apart than MLE_WIDTH; run as a child
        # process so that a search that does not end fails on the timeout
        argv = ["simulate", "ghz2", "--theta", "10000000.3", "--prior", "10000000.0",
                "10000000.6", "--shots", "1000", "--trials", "20"]
        env = dict(os.environ, PYTHONPATH=str(Path(loccfisher.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-m", "loccfisher.cli", *argv],
                             capture_output=True, text=True, env=env, timeout=30)
        assert run.returncode == 0, run.stderr
        doc = json.loads(run.stdout)
        assert doc["trials"] == 20 and doc["degenerate_trials"] == 0

    def test_synthesize_order_is_written_and_verifies(self, tmp_path, capsys):
        tree = str(tmp_path / "t.json")
        assert cli_main(["synthesize", "ghz3", "--theta", "0.3", "--order", "2,0,1",
                         "--out", tree]) == 0
        assert json.loads(Path(tree).read_text())["order"] == [2, 0, 1]
        capsys.readouterr()
        assert cli_main(["verify", "ghz3", "--tree", tree, "--theta", "0.3"]) == 0
        assert json.loads(capsys.readouterr().out)["saturating"] is True

    def test_help_exit_0(self, capsys):
        assert cli_main(["qfi", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_simulate_single_trial_valid_json(self, capsys):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert cli_main(["simulate", "ghz2", "--trials", "1", "--shots", "100"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["variance"] is None and doc["ratio"] is None
        assert doc["ci95"] == [None, None]

    def test_simulate_ghz7_default_prior_holds_one_maximum(self, capsys):
        # the law of a tree synthesized at theta repeats at theta +- pi/7; a
        # [0, pi/4] prior also held the alias 0.3 + pi/7 and gave ratio 2.6e5
        assert builtin_scenario("ghz7").theta_grid[-1] == np.pi / 7
        assert cli_main(["simulate", "ghz7", "--theta", "0.3", "--shots", "100000",
                         "--trials", "20", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.5 < doc["ratio"] < 2.0 and doc["boundary_hits"] == 0

    def test_no_command_builds_leaf_vectors(self, tmp_path, capsys, no_leaf_vectors):
        tree = str(tmp_path / "tree.json")
        for argv in (["scenario", "list"], ["qfi", "ghz3"],
                     ["synthesize", "ghz3", "--theta", "0.3", "--out", tree],
                     ["verify", "ghz3", "--tree", tree, "--theta", "0.3"],
                     ["simulate", "ghz3", "--shots", "400", "--trials", "2"],
                     ["simulate", "ranktwo", "--shots", "400", "--trials", "2", "--two-step"],
                     ["lm-check", "lm2x2"], ["export-bloch", "--tree", tree],
                     ["export-bloch", "chain4", "--grid-points", "2"]):
            assert cli_main(argv) == 0, argv
        capsys.readouterr()

    def test_scenario_file_ingestion(self, tmp_path, capsys):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        doc = {
            "name": "custom-qubit",
            "type": "unitary-generator",
            "layout": [2],
            "psi_in": complex_to_pairs(plus),
            "hamiltonian": {"pauli": [{"coeff": 0.5, "string": "Z"}]},
            "theta_grid": {"start": 0.0, "stop": 1.0, "points": 8},
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["qfi", str(path), "--theta", "0.3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["qfi"] - 1.0) < 1e-9

    def test_cosine_rank_two_weight(self, tmp_path, capsys):
        # p = offset + amplitude*cos(frequency*theta + phase) with every entry set
        bells = bell_states()
        off, amp, freq, phase = 0.5, 0.3, 1.7, 0.4
        doc = {"name": "cosine", "type": "rank-two", "layout": [2, 2],
               "psi0": complex_to_pairs(bells["phi+"]), "psi1": complex_to_pairs(bells["psi+"]),
               "p": {"form": "cosine", "offset": off, "amplitude": amp, "frequency": freq,
                     "phase": phase},
               "theta_grid": [0.3]}
        family = parse_scenario(doc).family
        for theta in (0.3, 1.1, -2.0):
            p, dp = family.p_dp(theta)
            assert p == off + amp * np.cos(freq * theta + phase)
            assert dp == -amp * freq * np.sin(freq * theta + phase)
            want = dp * dp / (p * (1 - p))
            assert abs(qfi(family, theta) - want) <= 1e-12 * want
        path, tree = tmp_path / "cosine.json", str(tmp_path / "tree.json")
        path.write_text(json.dumps(doc))
        assert cli_main(["synthesize", str(path), "--theta", "0.3", "--out", tree]) == 0
        capsys.readouterr()
        assert cli_main(["verify", str(path), "--tree", tree, "--theta", "0.3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["saturating"] is True
        assert abs(out["fi"] - out["qfi"]) <= 1e-6 * out["qfi"]


class TestVectorRoute:
    def test_ghz12_qfi_and_synthesis_stay_vector_sized(self, tmp_path, capsys):
        # one dense 4096 x 4096 complex matrix would take 268 MB; verify reads
        # the written tree through leaf amplitudes, with no leaf-vector POVM
        n = 12
        psi_in = np.zeros(2 ** n, dtype=complex)
        psi_in[0] = psi_in[-1] = 1 / np.sqrt(2)
        terms = [{"coeff": 0.5, "string": "".join("Z" if i == j else "I" for i in range(n))}
                 for j in range(n)]
        doc = {"name": "ghz12", "type": "unitary-generator", "layout": [2] * n,
               "psi_in": complex_to_pairs(psi_in), "hamiltonian": {"pauli": terms},
               "theta_grid": [0.3]}
        path, out = tmp_path / "ghz12.json", tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            assert cli_main(["qfi", str(path), "--theta", "0.3"]) == 0
            qfi_doc = json.loads(capsys.readouterr().out)
            assert cli_main(["synthesize", str(path), "--theta", "0.3",
                             "--out", str(out)]) == 0
            synth_doc = json.loads(capsys.readouterr().out)
            assert cli_main(["verify", str(path), "--tree", str(out), "--theta", "0.3"]) == 0
            verify_doc = json.loads(capsys.readouterr().out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(qfi_doc["qfi"] - n * n) < 1e-9 * n * n
        assert synth_doc["leaves"] == 2 ** n
        assert verify_doc["saturating"] and abs(verify_doc["fi"] - n * n) < 1e-9 * n * n
        assert peak < 64 * 2 ** 20


    def test_ghz10_check_saturation_stays_povm_sized(self):
        # the check forms outcome-by-K overlaps only: no D x D array, no copy
        # of the 16 MB POVM (built-in ghz scenarios stop at n = 8)
        n = 10
        psi_in = np.zeros(2 ** n, dtype=complex)
        psi_in[0] = psi_in[-1] = 1 / np.sqrt(2)
        terms = [{"coeff": 0.5, "string": "".join("Z" if i == j else "I" for i in range(n))}
                 for j in range(n)]
        family = parse_scenario({"type": "unitary-generator", "layout": [2] * n,
                                 "psi_in": complex_to_pairs(psi_in),
                                 "hamiltonian": {"pauli": terms},
                                 "theta_grid": [0.3]}).family
        povm = flatten(synthesize_tree(saturation_matrices(family, 0.3).target,
                                       family.layout))
        tracemalloc.start()
        try:
            report = check_saturation(povm, family, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.saturating and abs(report.fi - n * n) < 1e-9 * n * n
        assert peak <= 2 * povm.vectors.nbytes


    def test_xy_chain_w14_parses_matrix_free(self, tmp_path, capsys):
        # a dense G at n = 14 would take 4 GiB; Lanczos keeps K x D rows
        n = 14
        path = tmp_path / "xyw14.json"
        path.write_text(json.dumps(xy_chain_w_doc(n)))
        tracemalloc.start()
        try:
            assert cli_main(["qfi", str(path), "--theta", "0.3"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = 4 * ((4 * n - 6) / n - 4 * (n - 1) ** 2 / n ** 2)
        assert abs(json.loads(capsys.readouterr().out)["qfi"] - want) < 1e-10
        assert peak < 64 * 2 ** 20


class TestCliLmCheck:
    def test_padded_vs_projective(self, capsys):
        assert cli_main(["lm-check", "lm3x3", "--restarts", "10",
                         "--seed", "1"]) == 0
        padded = json.loads(capsys.readouterr().out)
        assert padded["feasible"] is True and padded["projective"] is False
        assert cli_main(["lm-check", "lm3x3", "--projective-only",
                         "--restarts", "8", "--seed", "1"]) == 0
        proj = json.loads(capsys.readouterr().out)
        assert proj["feasible"] is False and proj["projective"] is True

    def test_gap_pair_falls_back_to_search(self, capsys):
        # the constructive pair hits the support obstruction for this family;
        # the search then finds the feasible projective basis
        assert cli_main(["lm-check", "lm2x2", "--restarts", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "heuristic-search"
        assert doc["feasible"] is True
        assert doc["phase_residual"] < 1e-8

    def test_qubit_constructive_path(self, tmp_path, capsys):
        # generic coefficients: C has no zero entries, so the constructed
        # pair meets the support condition vacuously and is used directly
        a, b = generic_qubit_pair()
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(complex_to_pairs(a)))
        pb.write_text(json.dumps(complex_to_pairs(b)))
        assert cli_main(["lm-check", "--a-mat", str(pa), "--b-mat", str(pb)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "qubit-constructive"
        assert doc["feasible"] is True
        assert doc["phase_residual"] < 1e-8

    @pytest.mark.parametrize("overlap", [0.9e-9, 0.9e-10])
    def test_pair_off_orthogonal_refused_past_perp_tol(self, tmp_path, capsys, overlap):
        # |Tr A^dag B| = overlap: past PERP_TOL the pair is refused at the boundary; below
        # it the conditioned targets of the construction pass their trace check
        a, b = generic_qubit_pair()
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(complex_to_pairs(a)))
        pb.write_text(json.dumps(complex_to_pairs(b + 1j * overlap * a)))
        argv = ["lm-check", "--a-mat", str(pa), "--b-mat", str(pb)]
        if overlap > PERP_TOL:
            assert cli_main(argv) == 1
            assert json.loads(capsys.readouterr().err) == {
                "error": "coefficient matrices are not orthogonal", "kind": "validation"}
        else:
            assert cli_main(argv) == 0
            assert json.loads(capsys.readouterr().out)["method"] == "qubit-constructive"

    def test_matrix_file_input(self, tmp_path, capsys):
        s2 = np.sqrt(2)
        a = np.diag([1 / s2, 1 / s2]).astype(complex)
        b = (-1j / 2) * np.diag([1 / s2, -1 / s2]).astype(complex)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(complex_to_pairs(a)))
        pb.write_text(json.dumps(complex_to_pairs(b)))
        assert cli_main(["lm-check", "--a-mat", str(pa), "--b-mat", str(pb)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phase_residual"] < 1e-8


class TestCliExportBloch:
    def test_chain4_first_qubit_rows_constant(self, tmp_path):
        out = str(tmp_path / "bloch.csv")
        assert cli_main(["export-bloch", "chain4", "--grid-points", "6",
                         "--out", out]) == 0
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if r["subsystem"] == "0"]
        assert len(rows) == 6
        # constant wherever the first-qubit target is nonzero (all but the
        # final grid point, where the reduced target vanishes identically)
        xyz = np.array([[float(r["x"]), float(r["y"]), float(r["z"])]
                        for r in rows[:-1]])
        assert np.abs(xyz - xyz[0]).max() < 1e-8

    def test_single_tree_export(self, tmp_path, capsys):
        tree_path = str(tmp_path / "tree.json")
        cli_main(["synthesize", "ghz2", "--theta", "0.2", "--out", tree_path])
        capsys.readouterr()
        assert cli_main(["export-bloch", "--tree", tree_path,
                         "--theta", "0.2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "theta,path,subsystem,x,y,z"
        assert len(lines) == 4      # header + root + two children

    def test_order_puts_its_first_subsystem_at_the_root(self, capsys):
        assert cli_main(["export-bloch", "ghz2", "--grid-points", "2", "--order", "1,0"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 6       # two grid points, root + two children each
        assert [r["subsystem"] for r in rows] == ["1", "0", "0"] * 2


class TestCliErrors:
    def test_unknown_scenario_exit_1(self, capsys):
        assert cli_main(["qfi", "mystery"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_malformed_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli_main(["qfi", str(path)]) == 1

    def test_unknown_subcommand_exit_1(self):
        assert cli_main(["frobnicate"]) == 1

    def test_constant_p_synthesis_refused(self, tmp_path, capsys):
        bells = bell_states()
        doc = {
            "name": "flat",
            "type": "rank-two",
            "layout": [2, 2],
            "psi0": complex_to_pairs(bells["phi+"]),
            "psi1": complex_to_pairs(bells["phi-"]),
            "p": {"form": "linear", "intercept": 0.5, "slope": 0.0},
            "theta_grid": {"start": 0.1, "stop": 0.9, "points": 4},
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["synthesize", str(path), "--theta", "0.5"]) == 1
        assert "no information" in capsys.readouterr().err

    def test_unnormalized_psi0_names_its_norm_as_a_plain_number(self, tmp_path, capsys):
        bells = bell_states()
        doc = {"type": "rank-two", "layout": [2, 2],
               "psi0": complex_to_pairs(2 * bells["phi+"]),
               "psi1": complex_to_pairs(bells["phi-"]),
               "p": {"form": "linear", "intercept": 0.0, "slope": 1.0},
               "theta_grid": [0.5]}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["qfi", str(path), "--theta", "0.5"]) == 1
        err = json.loads(capsys.readouterr().err)
        norm = err["error"].removeprefix("psi0 norm ").removesuffix(" is not 1")
        assert err["kind"] == "validation" and "np." not in err["error"]
        assert abs(float(norm) - 2.0) <= 1e-12

    def test_nan_psi_in_exit_1(self, tmp_path, capsys):
        # JSON NaN parses; the family names the vector instead of a later anonymous check
        doc = {"type": "unitary-generator", "layout": [2],
               "psi_in": [[float("nan"), 0.0], [1.0, 0.0]],
               "hamiltonian": {"pauli": [{"coeff": 1.0, "string": "Z"}]},
               "theta_grid": [0.3]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["qfi", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "validation"
        assert err["error"] == "psi_in contains non-finite entries"

    def test_krylov_space_past_the_dense_limit_exit_1(self, monkeypatch, capsys):
        # chain4 needs three Lanczos steps and D = 16 is above the patched limit
        monkeypatch.setattr(metrology, "KRYLOV_CAP", 2)
        monkeypatch.setattr(metrology, "DENSE_LIMIT", 8)
        assert cli_main(["qfi", "chain4", "--theta", "0.3"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "validation"
        assert err["error"] == ("the Krylov space of psi_in does not close within 2 Lanczos "
                                "steps, and D = 16 is above the dense limit 8")

    def test_lm_check_zero_restarts_exit_1(self, capsys):
        assert cli_main(["lm-check", "lm3x3", "--projective-only",
                         "--restarts", "0"]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["kind"] == "validation" and "restarts" in err["error"]
        assert captured.out == ""

    @pytest.mark.parametrize("bad", [
        {"x": 1}, [[[1, None]]], [[{"re": 1.0}, [0.0, 0.0]]],
        spelled(complex_to_pairs(np.diag([1, -1]) / np.sqrt(2))),
        [[[False, False], [True, False]], [[False, False], [False, False]]]])
    def test_lm_check_matrix_of_the_wrong_json_type_exit_1(self, tmp_path, capsys, bad):
        # an object where a number belongs, a null, a string that spells a number or an
        # array of bools alone is a validation error, not a crash; the last two would
        # otherwise read as a matrix orthogonal to the other one
        good = complex_to_pairs(np.eye(2) / np.sqrt(2))
        for docs in ((bad, good), (good, bad)):
            paths = [tmp_path / "a.json", tmp_path / "b.json"]
            for path, doc in zip(paths, docs):
                path.write_text(json.dumps(doc))
            assert cli_main(["lm-check", "--a-mat", str(paths[0]), "--b-mat", str(paths[1])]) == 1
            captured = capsys.readouterr()
            assert json.loads(captured.err)["kind"] == "validation"
            assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.parametrize("route", ["qubit-constructive", "heuristic-search"])
    @pytest.mark.parametrize("flags, error", [
        (["--restarts", "0"], "argument --restarts: '0' is not a positive integer"),
        (["--restarts", "-3"], "argument --restarts: '-3' is not a positive integer"),
        (["--seed", "-1"], "argument --seed: '-1' is not a non-negative integer")])
    def test_lm_check_bad_restarts_or_seed_exit_1_on_either_route(self, tmp_path, capsys,
                                                                  route, flags, error):
        # a generic 2 x 2 pair is answered by the qubit construction, lm3x3 by the
        # search; each route is checked with valid flags first
        a, b = generic_qubit_pair()
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(complex_to_pairs(a)))
        pb.write_text(json.dumps(complex_to_pairs(b)))
        argv = (["lm-check", "--a-mat", str(pa), "--b-mat", str(pb)]
                if route == "qubit-constructive" else
                ["lm-check", "lm3x3", "--projective-only", "--restarts", "1"])
        assert cli_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["method"] == route
        assert cli_main(argv + flags) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": error, "kind": "validation"}
        assert captured.out == ""

    @pytest.mark.parametrize("prior, error", [
        (("0.0", "0.9"), "p(theta) = 0.0 outside (0, 1)"),
        (("0.2", "1.3"), "p(theta) = 1.0007827788649708 outside (0, 1)")])
    def test_simulate_prior_outside_p_range_names_first_grid_point(self, capsys, prior, error):
        # the outcome law checks p at every grid point in ascending order, so the
        # error names the first offending point
        assert cli_main(["simulate", "ranktwo", "--theta", "0.5", "--prior", *prior]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": error, "kind": "validation"}
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["qfi", "ghz2", "--theta", "inf"],
        ["synthesize", "ghz2", "--theta", "nan"],
        ["simulate", "ghz2", "--prior", "0", "inf", "--shots", "100", "--trials", "2"],
        ["lm-check", "lm3x3", "--theta=-inf"]])
    def test_non_finite_argument_exit_1(self, capsys, recwarn, argv):
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["kind"] == "validation" and "not a finite number" in err["error"]
        assert captured.out == "" and len(recwarn) == 0

    @pytest.mark.parametrize("key", ["rho1", "rho2"])
    @pytest.mark.parametrize("part, value", [(0, float("nan")), (1, float("inf")),
                                             (0, float("-inf"))])
    def test_non_finite_mixed_entry_named(self, tmp_path, capsys, key, part, value):
        # named when the document is read, before any arithmetic can warn
        doc = bell_mixture_doc()
        doc[key][1][2][part] = value
        path = tmp_path / "mix.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["qfi", str(path)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": f"{key} contains non-finite entries",
                                            "kind": "validation"}
        assert captured.out == ""

    @pytest.mark.parametrize("command", NO_TARGET_COMMANDS)
    def test_no_synthesis_target_exit_1_with_one_message(self, capsys, command):
        assert cli_main([command[0], "bellmix", *command[1:]]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err) == NO_TARGET_ERROR
        assert captured.out == ""

    @pytest.mark.parametrize("command", NO_TARGET_COMMANDS)
    def test_moving_rank_two_basis_gets_the_same_message(self, capsys, monkeypatch, command):
        # rho(theta) = e^{-i theta H} rho0 e^{i theta H}, rho0 of rank 2 on C^4
        # (seed 1): the rank-two shortcut does not apply, and there is no target
        rng = np.random.default_rng(1)
        h, rho0 = random_hermitian(4, rng), random_density(4, rng, rank=2)
        lam, q = np.linalg.eigh(h)

        def rho(t):
            u = (q * np.exp(-1j * t * lam)) @ q.conj().T
            return u @ rho0 @ u.conj().T

        rotated = Scenario(name="rotated", family=metrology.MixedGenericFamily(
            HilbertLayout((2, 2)), rho), theta_grid=np.array([0.3, 0.4, 0.5]), notes="", doc={})
        monkeypatch.setattr(cli, "_load_scenario", lambda arg: rotated)
        assert cli_main([command[0], "rotated", *command[1:]]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err) == NO_TARGET_ERROR
        assert captured.out == ""

    @pytest.mark.parametrize("argv, error", [
        (["export-bloch", "ghz2", "--theta", "0.3"], "--theta cannot be used with a scenario"),
        (["export-bloch", "--tree", "{tree}", "--grid-points", "4"],
         "--grid-points cannot be used with --tree"),
        (["export-bloch", "--tree", "{tree}", "--order", "1,0"],
         "--order cannot be used with --tree"),
        (["export-bloch", "ghz2", "--tree", "{tree}"], "scenario cannot be used with --tree"),
        (["lm-check", "--a-mat", "{a}", "--b-mat", "{b}", "--theta", "0"],
         "--theta cannot be used with --a-mat/--b-mat"),
        (["lm-check", "lm2x2", "--a-mat", "{a}", "--b-mat", "{b}"],
         "scenario cannot be used with --a-mat/--b-mat"),
        (["synthesize", "ghz3", "--order", "0,0,1"],
         "order (0, 0, 1) is not a permutation of the subsystems"),
        (["lm-check", "--a-mat", "{a}"], "--a-mat and --b-mat must be given together"),
        (["lm-check"], "give a scenario or --a-mat/--b-mat"),
        (["lm-check", "ranktwo"], "lm-check needs a bipartite pure scenario"),
        (["lm-check", "ghz3"], "lm-check needs a bipartite pure scenario"),
        (["export-bloch"], "give a scenario or --tree"),
        (["simulate", "ghz2", "--shots", "0"], "shots and trials must be positive"),
        (["simulate", "ghz2", "--trials", "0"], "shots and trials must be positive"),
        (["simulate", "ghz2", "--two-step", "--shots", "10"], "two-step needs at least 16 shots"),
        (["simulate", "ghz2", "--theta", "2", "--prior", "0", "1"],
         "theta_true outside the prior interval"),
        (["lm-check", "--a-mat", "{b}", "--b-mat", "{a}"], "state coefficients are not normalized")])
    def test_ignored_argument_exit_1(self, tmp_path, capsys, argv, error):
        # each input file is valid, so the ignored, missing or malformed argument
        # is the only error
        files = {"tree": tmp_path / "tree.json", "a": tmp_path / "a.json",
                 "b": tmp_path / "b.json"}
        assert cli_main(["synthesize", "ghz2", "--theta", "0.3", "--out", str(files["tree"])]) == 0
        files["a"].write_text(json.dumps(complex_to_pairs(np.eye(2) / np.sqrt(2))))
        files["b"].write_text(json.dumps(complex_to_pairs(np.diag([0.5j, -0.5j]))))
        capsys.readouterr()
        assert cli_main([arg.format(**files) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": error, "kind": "validation"}
        assert captured.out == ""

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_export_bloch_non_positive_grid_points_exit_1(self, capsys, points):
        # 0 must not fall back to the scenario's default grid
        assert cli_main(["export-bloch", "chain4", f"--grid-points={points}"]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["kind"] == "validation" and "not a positive integer" in err["error"]
        assert captured.out == ""

    @pytest.mark.parametrize("command, edit", [
        ("verify", lambda d: {**d, "order": [None, 1]}),
        ("verify", lambda d: {**d, "order": 5}),
        ("verify", lambda d: {**d, "layout": 5}),
        ("verify", lambda d: {**d, "layout": [None, 2]}),
        ("verify", lambda d: {**d, "layout": [2.9, 2]}),
        ("verify", lambda d: {**d, "layout": ["2", 2.9]}),
        ("verify", lambda d: {**d, "order": [0, True]}),
        ("verify", lambda d: {**d, "node": {**d["node"], "children": [
            {**child, "subsystem": True} for child in d["node"]["children"]]}}),
        ("verify", lambda d: [d]),
        ("verify", lambda d: None),
        ("verify", lambda d: {**d, "node": {**d["node"], "basis": spelled(d["node"]["basis"])}}),
        ("qfi", lambda d: {**d, "layout": 5}),
        ("qfi", lambda d: [d]),
        ("qfi", lambda d: "ghz2"),
        ("qfi", lambda d: {**d, "hamiltonian": 5}),
        ("qfi", lambda d: {**d, "hamiltonian": {"pauli": [5]}}),
        ("qfi", lambda d: {**d, "psi_in": 5}),
        ("qfi", lambda d: {**d, "hamiltonian": {"dense": {"re": 1.0}}}),
        ("qfi", lambda d: {**builtin_scenario("ranktwo").doc, "p": 5}),
        ("qfi", lambda d: {**builtin_scenario("ranktwo").doc, "psi0": {"re": 1.0}}),
        ("qfi", lambda d: {**builtin_scenario("bellmix").doc, "rho1": {"re": 1.0}}),
        ("qfi", lambda d: {**d, "theta_grid": {"start": None, "stop": 1.0}}),
        ("qfi", lambda d: {**d, "layout": [2.5, 2.5]}),
        ("qfi", lambda d: {**d, "theta_grid": {"start": 0.0, "stop": 1.0, "points": 3.7}}),
        ("qfi", lambda d: {**d, "theta_grid": [0.1, "0.2"]}),
        ("qfi", lambda d: {**builtin_scenario("ranktwo").doc,
                           "p": {"form": "linear", "intercept": False, "slope": 1.0}}),
        ("qfi", lambda d: {**builtin_scenario("ranktwo").doc,
                           "p": {"form": "linear", "intercept": 0.0, "slope": "1"}}),
        ("qfi", lambda d: {**builtin_scenario("ranktwo").doc,
                           "p": {"form": "cosine", "offset": 0.5, "amplitude": 0.3,
                                 "frequency": 1.7, "phase": True}}),
        ("qfi", lambda d: {**d, "psi_in": spelled(d["psi_in"])})])
    def test_document_of_the_wrong_json_shape_exit_1(self, tmp_path, capsys, command, edit):
        # a tree (verify) or scenario (qfi) document whose entries have the wrong JSON type
        tree = tmp_path / "tree.json"
        assert cli_main(["synthesize", "ghz2", "--theta", "0.3", "--out", str(tree)]) == 0
        doc = json.loads(tree.read_text()) if command == "verify" else _ghz_doc(2)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(edit(doc)))
        capsys.readouterr()
        argv = ["verify", "ghz2", "--tree"] if command == "verify" else ["qfi"]
        assert cli_main([*argv, str(path)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err)["kind"] == "validation" and captured.out == ""

    @pytest.mark.parametrize("command, edit, error", [
        ("qfi", lambda d: {k: v for k, v in d.items() if k != "psi_in"}, "missing entry 'psi_in'"),
        ("qfi", lambda d: {**builtin_scenario("ranktwo").doc,
                           "p": {"form": "cosine", "offset": 0.5, "frequency": 1.0}},
         "missing entry 'amplitude'"),
        ("verify", lambda d: {k: v for k, v in d.items() if k != "node"}, "missing entry 'node'"),
        ("qfi", lambda d: {**d, "type": "mystery"}, "unknown scenario type 'mystery'"),
        ("qfi", lambda d: {**builtin_scenario("ranktwo").doc, "p": {"form": "cubic"}},
         "unknown p form 'cubic'"),
        ("qfi", lambda d: {**d, "hamiltonian": {}}, "hamiltonian needs a 'pauli' or 'dense' entry"),
        ("qfi", lambda d: {**d, "hamiltonian": {"dense": complex_to_pairs(np.eye(3))}},
         "psi_in / generator shapes do not match the layout"),
        ("qfi", lambda d: {**builtin_scenario("ranktwo").doc,
                           "psi1": builtin_scenario("ranktwo").doc["psi0"]},
         "psi0 and psi1 must be orthogonal"),
        ("qfi", lambda d: {**bell_mixture_doc(), "layout": [2, 3]},
         f"evaluator output at theta = {0.5 + 1e-4!r} does not match the layout"),
        ("qfi", lambda d: {**bell_mixture_doc(),
                           "rho1": complex_to_pairs(np.diag([2.0, -1.0, 0.0, 0.0]))},
         f"evaluator output at theta = {0.5 + 1e-4!r} is not a unit-trace PSD matrix")])
    def test_refused_document_names_its_fault(self, tmp_path, capsys, command, edit, error):
        # each refusal names its fault; a missing entry is named as one, not as a bare key
        tree = tmp_path / "tree.json"
        assert cli_main(["synthesize", "ghz2", "--theta", "0.3", "--out", str(tree)]) == 0
        doc = json.loads(tree.read_text()) if command == "verify" else _ghz_doc(2)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(edit(doc)))
        capsys.readouterr()
        argv = ["verify", "ghz2", "--tree"] if command == "verify" else ["qfi"]
        assert cli_main([*argv, str(path)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": error, "kind": "validation"}
        assert captured.out == ""

    @pytest.mark.parametrize("command, field, value, error", [
        ("verify", "layout", ["2", 2], "layout entry must be an integer, got '2'"),
        ("verify", "order", [0, True], "order entry must be an integer, got True"),
        ("qfi", "theta_grid", {"start": 0.0, "stop": 1.0, "points": 3.7},
         "theta_grid points must be an integer, got 3.7"),
        ("qfi", "theta_grid", {"start": "0", "stop": 1.0},
         "theta_grid start must be a real number, got '0'"),
        ("qfi", "theta_grid", {"start": 0.0, "stop": True},
         "theta_grid stop must be a real number, got True"),
        ("qfi", "theta_grid", [0.1, False], "theta_grid entry must be a real number, got False"),
        ("qfi", "hamiltonian", {"pauli": [{"coeff": "0.5", "string": "ZI"}]},
         "Pauli coeff must be a real number, got '0.5'")])
    def test_integer_field_of_another_type_is_named(self, tmp_path, capsys, command, field,
                                                    value, error):
        # a float, bool or string where an integer belongs is refused, not truncated, and a
        # bool or string where a real number belongs is refused, not converted
        tree = tmp_path / "tree.json"
        assert cli_main(["synthesize", "ghz2", "--theta", "0.3", "--out", str(tree)]) == 0
        doc = json.loads(tree.read_text()) if command == "verify" else _ghz_doc(2)
        doc[field] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        argv = ["verify", "ghz2", "--tree"] if command == "verify" else ["qfi"]
        assert cli_main([*argv, str(path)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": error, "kind": "validation"}
        assert captured.out == ""

    @pytest.mark.parametrize("grid", [{"start": 0.0, "stop": 1.0, "points": 0}, [],
                                      [[0.1, 0.2]], 0.3, [0.1, float("nan")]])
    @pytest.mark.parametrize("command", [["qfi"], ["synthesize"],
                                         ["simulate", "--shots", "100", "--trials", "2"]])
    def test_bad_theta_grid_exit_1(self, tmp_path, capsys, recwarn, command, grid):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        doc = {
            "type": "unitary-generator",
            "layout": [2],
            "psi_in": complex_to_pairs(plus),
            "hamiltonian": {"pauli": [{"coeff": 0.5, "string": "Z"}]},
            "theta_grid": grid,
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        assert cli_main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["kind"] == "validation" and "theta_grid" in err["error"]
        assert captured.out == "" and len(recwarn) == 0
