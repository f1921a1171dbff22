import csv
import json

import numpy as np
import pytest

from loccfisher import qfi, sld, eval_state
from loccfisher.cli import cli_main
from loccfisher.locc import leaf_vectors, tree_from_json
from loccfisher.scenarios import (PauliStringTerm, bell_states, builtin_names,
                                  builtin_scenario, hamiltonian_from_pauli,
                                  parse_scenario, pauli_term_matrix)
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
        with pytest.raises(ValueError):
            builtin_scenario("ghz9")
        with pytest.raises(ValueError):
            builtin_scenario("ghz1")

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

    @pytest.mark.parametrize("scenario, dim", [("ghz3", 8), ("lm3x3", 9)])
    def test_synthesize_reports_one_leaf_per_basis_state(self, tmp_path, capsys,
                                                         scenario, dim):
        tree_path = tmp_path / "tree.json"
        assert cli_main(["synthesize", scenario, "--theta", "0.3",
                         "--out", str(tree_path)]) == 0
        assert json.loads(capsys.readouterr().out)["leaves"] == dim
        tree = tree_from_json(json.loads(tree_path.read_text()))
        assert len(leaf_vectors(tree)) == dim

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
