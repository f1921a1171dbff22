import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from loccfisher import (check_saturation, eval_state, flatten, qfi, saturation_matrices,
                        sld, synthesize_tree)
import loccfisher
from loccfisher import cli
from loccfisher.cli import build_parser, cli_main
from loccfisher.locc import leaf_vectors, tree_from_json, tree_to_json
from loccfisher.scenarios import (PauliStringTerm, _ghz_doc, bell_states, builtin_names,
                                  builtin_scenario, hamiltonian_from_pauli,
                                  parse_scenario, pauli_diagonal, pauli_term_matrix)
from loccfisher.tensor import HilbertLayout, complex_to_pairs, kron

from conftest import I2, PAULI_X, PAULI_Z


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
        assert np.abs(hamiltonian_from_pauli(terms, lay) - want).max() < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamiltonian_from_pauli([PauliStringTerm(1.0, "XX")],
                                   HilbertLayout((2, 2, 2)))

    def test_requires_qubits(self):
        with pytest.raises(ValueError):
            hamiltonian_from_pauli([PauliStringTerm(1.0, "XX")],
                                   HilbertLayout((2, 3)))

    def test_iz_sum_diagonal_matches_dense(self):
        lay = HilbertLayout((2, 2, 2))
        terms = [PauliStringTerm(0.5, "ZII"), PauliStringTerm(-1.5, "IZZ"),
                 PauliStringTerm(0.25, "III")]
        dense = hamiltonian_from_pauli(terms, lay)
        assert np.array_equal(np.diag(pauli_diagonal(terms, lay)), dense)
        with pytest.raises(ValueError, match="I and Z"):
            pauli_diagonal([PauliStringTerm(1.0, "XZI")], lay)
        with pytest.raises(ValueError, match="qubits"):
            pauli_diagonal([PauliStringTerm(1.0, "ZZ")], lay)

    def test_iz_scenario_keeps_a_diagonal_generator(self):
        assert builtin_scenario("ghz4").family.generator.shape == (16,)
        assert builtin_scenario("chain4").family.generator.shape == (16, 16)


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
        res = sld(*eval_state(sc.family, th))
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
        res = sld(*eval_state(sc.family, 0.5))
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
            doc = sc.to_json()
            again = parse_scenario(doc).to_json()
            assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


class TestCliCore:
    def test_import_loads_no_scipy(self):
        # scipy.optimize is imported by the first lm search, not by the package
        code = ("import sys, loccfisher.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        env = dict(os.environ, PYTHONPATH=str(Path(loccfisher.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert run.stdout.strip() == "[]"

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
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a /= np.sqrt(np.trace(a.conj().T @ a).real)
        b -= np.trace(a.conj().T @ b) * a
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(complex_to_pairs(a)))
        pb.write_text(json.dumps(complex_to_pairs(b)))
        assert cli_main(["lm-check", "--a-mat", str(pa), "--b-mat", str(pb)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "qubit-constructive"
        assert doc["feasible"] is True
        assert doc["phase_residual"] < 1e-8

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

    def test_lm_check_zero_restarts_exit_1(self, capsys):
        assert cli_main(["lm-check", "lm3x3", "--projective-only",
                         "--restarts", "0"]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["kind"] == "validation" and "restarts" in err["error"]
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
        ("verify", lambda d: [d]),
        ("verify", lambda d: None),
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
        ("qfi", lambda d: {**d, "theta_grid": {"start": None, "stop": 1.0}})])
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
