"""Per-job output checker, run outside the timed region.

JSON is parsed strictly (bare NaN/Infinity are rejected), and every number the
checker compares against comes from its own reference model of the scenario
documents: psi(theta) from the generator's spectrum, qfi = 4(|dpsi|^2 -
|<psi|dpsi>|^2) for pure families and p'^2 / (p (1 - p)) for rank-two ones,
and the Fisher information of a synthesized tree from its own leaf vectors.
Only the lm re-verification goes through the package, by
``lm_povm_from_pair`` plus ``check_saturation``, as the method under test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from loccfisher import lm, metrology, scenarios
from loccfisher.tensor import HilbertLayout

GHZ_REL = 1e-9          # GHZ qfi must equal n^2 to this relative accuracy
QFI_REL = 1e-8          # reported qfi against the reference model
FI_REL = metrology.Thresholds().fi_rel
P_TOL = metrology.Thresholds().p_tol

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


class CheckError(Exception):
    """An output that is missing, malformed or wrong."""


def _reject_constant(token: str):
    raise CheckError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


def _complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _close(value: float, ref: float, rel: float, what: str) -> None:
    _expect(abs(value - ref) <= rel * abs(ref),
            f"{what} {value!r} differs from reference {ref!r} (rel tol {rel:g})")


class Reference:
    """Independent evaluation of a scenario document at theta."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.dims = tuple(int(d) for d in doc["layout"])
        self.total = math.prod(self.dims)
        self.kind = doc["type"]
        if self.kind == "unitary-generator":
            self.psi_in = _complex(doc["psi_in"])
            diag, dense = self._generator(doc["hamiltonian"])
            if diag is not None:
                self.gen_diag, self.eigvecs = diag, None
            else:
                w, v = np.linalg.eigh(dense)
                self.gen_diag, self.eigvecs = w, v
                self.coeffs = v.conj().T @ self.psi_in
        elif self.kind == "rank-two":
            self.psi0 = _complex(doc["psi0"])
            self.psi1 = _complex(doc["psi1"])

    def _generator(self, ham: dict):
        if "dense" in ham:
            return None, _complex(ham["dense"])
        terms = ham["pauli"]
        n = len(self.dims)
        if all(ch in "IZ" for t in terms for ch in t["string"]):
            bits = (np.arange(self.total)[:, None] >> np.arange(n - 1, -1, -1)) & 1
            diag = np.zeros(self.total)
            for t in terms:
                zmask = np.array([ch == "Z" for ch in t["string"]])
                diag += t["coeff"] * (1 - 2 * (bits[:, zmask].sum(axis=1) % 2))
            return diag, None
        dense = np.zeros((self.total, self.total), dtype=complex)
        for t in terms:
            op = np.ones((1, 1), dtype=complex)
            for ch in t["string"]:
                op = np.kron(op, _PAULI[ch])
            dense += t["coeff"] * op
        return None, dense

    def psi_dpsi(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        phase = np.exp(-1j * theta * self.gen_diag)
        if self.eigvecs is None:
            psi = phase * self.psi_in
            return psi, -1j * self.gen_diag * psi
        c = phase * self.coeffs
        return self.eigvecs @ c, self.eigvecs @ (-1j * self.gen_diag * c)

    def p_dp(self, theta: float) -> tuple[float, float]:
        p = self.doc["p"]
        if p["form"] == "linear":
            return p["intercept"] + p["slope"] * theta, p["slope"]
        arg = p["frequency"] * theta + p.get("phase", 0.0)
        return (p["offset"] + p["amplitude"] * math.cos(arg),
                -p["amplitude"] * p["frequency"] * math.sin(arg))

    def qfi(self, theta: float) -> float:
        if self.kind == "unitary-generator":
            psi, dpsi = self.psi_dpsi(theta)
            return float(4 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2))
        if self.kind == "rank-two":
            p, dp = self.p_dp(theta)
            return dp * dp / (p * (1 - p))
        raise CheckError(f"no reference qfi for a {self.kind} family")

    def tree_fi(self, leaves: np.ndarray, theta: float) -> float:
        """Classical Fisher information of the rank-one product leaves."""
        if self.kind == "unitary-generator":
            psi, dpsi = self.psi_dpsi(theta)
            amp, damp = leaves.conj() @ psi, leaves.conj() @ dpsi
            prob = np.abs(amp) ** 2
            dprob = 2 * np.real(np.conj(amp) * damp)
        else:
            p, dp = self.p_dp(theta)
            o0 = np.abs(leaves.conj() @ self.psi0) ** 2
            o1 = np.abs(leaves.conj() @ self.psi1) ** 2
            prob, dprob = p * o0 + (1 - p) * o1, dp * (o0 - o1)
        keep = prob >= P_TOL
        return float(np.sum(dprob[keep] ** 2 / prob[keep]))


def tree_leaves(doc: dict) -> np.ndarray:
    """Leaf product vectors (rows, layout order) of a tree document."""
    dims = tuple(int(d) for d in doc["layout"])
    n = len(dims)
    rows: list[np.ndarray] = []

    def walk(node: dict, parts: dict[int, np.ndarray]) -> None:
        sub = int(node["subsystem"])
        _expect(0 <= sub < n and sub not in parts, f"bad subsystem {sub} on a path")
        basis = np.stack([_complex(v) for v in node["basis"]], axis=1)
        _expect(basis.shape == (dims[sub], dims[sub]), "node basis has the wrong size")
        _expect(np.abs(basis.conj().T @ basis - np.eye(dims[sub])).max() < 1e-9,
                "node basis is not orthonormal")
        children = node.get("children")
        _expect((children is None) == (len(parts) == n - 1),
                "tree depth does not match the layout")
        for x in range(dims[sub]):
            parts[sub] = basis[:, x]
            if children is None:
                vec = np.ones(1, dtype=complex)
                for k in range(n):
                    vec = np.kron(vec, parts[k])
                rows.append(vec)
            else:
                walk(children[x], parts)
        del parts[sub]

    walk(doc["node"], {})
    return np.array(rows)


class Checker:
    """Checks job outputs; caches the reference model of each scenario."""

    def __init__(self):
        self._refs: dict[str, Reference] = {}
        self._lm_families: dict = {}

    def reference(self, scenario: str) -> Reference:
        if scenario not in self._refs:
            path = Path(scenario)
            if path.suffix == ".json":
                doc = json.loads(path.read_text())
            else:
                doc = scenarios.builtin_scenario(scenario).doc
            self._refs[scenario] = Reference(doc)
        return self._refs[scenario]

    def check(self, job, codes: list[int], outputs: list[str]) -> None:
        """Raise CheckError unless every command of the job succeeded correctly."""
        for argv, code in zip(job.commands, codes):
            _expect(code == 0, f"exit code {code} from {argv[0]}")
        getattr(self, "_check_" + job.kind.replace("-", "_"))(job, outputs)

    def _check_qfi(self, job, value: float) -> None:
        ref = self.reference(job.family)
        if "ghz" in job.expect:
            _close(value, job.expect["ghz"] ** 2, GHZ_REL, "GHZ qfi")
        if ref.kind != "mixed":
            _close(value, ref.qfi(job.theta), QFI_REL, "qfi")

    def _check_synth_line(self, job, text: str, ref: Reference) -> dict:
        line = strict_json(text)
        _expect(line.get("leaves") == ref.total,
                f"synthesize reports {line.get('leaves')} leaves, expected {ref.total}")
        return line

    def _check_verify(self, job, outputs: list[str]) -> None:
        tree_ref = self.reference(job.commands[0][1])
        self._check_synth_line(job, outputs[0], tree_ref)
        report = strict_json(outputs[1])
        _expect(report.get("saturating") is job.expect["saturating"],
                f"saturating is {report.get('saturating')}, expected "
                f"{job.expect['saturating']}")
        if job.expect["saturating"]:
            fi, qfi = report["fi"], report["qfi"]
            _expect(qfi - fi <= FI_REL * qfi, f"fi {fi!r} falls short of qfi {qfi!r}")
            self._check_qfi(job, qfi)

    def _check_synthesize(self, job, outputs: list[str]) -> None:
        ref = self.reference(job.family)
        self._check_qfi(job, strict_json(outputs[0])["qfi"])
        line = self._check_synth_line(job, outputs[1], ref)
        leaves = tree_leaves(strict_json(Path(line["out"]).read_text()))
        _expect(len(leaves) == ref.total, f"tree has {len(leaves)} leaves")
        qfi = ref.qfi(job.theta)
        fi = ref.tree_fi(leaves, job.theta)
        _expect(abs(qfi - fi) <= FI_REL * qfi,
                f"tree fi {fi!r} does not reach qfi {qfi!r}")

    def _check_estimate(self, job, outputs: list[str]) -> None:
        report = strict_json(outputs[0])
        _expect(report["degenerate_trials"] == 0,
                f"{report['degenerate_trials']} degenerate trials")
        _expect(report["trials"] == job.expect["trials"]
                and report["N"] == job.expect["shots"], "trials or shots changed")
        _expect(report["variance"] > 0 and len(report["ci95"]) == 2, "empty variance")
        _close(report["J"], self.reference(job.family).qfi(job.theta), GHZ_REL, "J")

    def _lm_family(self, key: str | tuple[str, str]) -> metrology.StateFamily:
        if key not in self._lm_families:
            if isinstance(key, tuple):
                # psi(theta) = cos(theta) a + sin(theta) b, as the built-in lm
                # scenarios are defined
                a, b = (_complex(json.loads(Path(p).read_text())) for p in key)
                psi0, perp = a.reshape(-1), b.reshape(-1)
                gen = 1j * (np.outer(perp, psi0.conj()) - np.outer(psi0, perp.conj()))
                fam = metrology.UnitaryGeneratorFamily(HilbertLayout(a.shape), psi0, gen)
            else:
                fam = scenarios.builtin_scenario(key).family
            self._lm_families[key] = fam
        return self._lm_families[key]

    def _check_lm_search(self, job, outputs: list[str]) -> None:
        doc = strict_json(outputs[0])
        if "feasible" in job.expect:
            _expect(doc["feasible"] is job.expect["feasible"],
                    f"feasible is {doc['feasible']}, expected {job.expect['feasible']}")
        if "--projective-only" in job.commands[0]:
            _expect(doc["projective"] is True, "projective-only search returned padding")
        if doc["feasible"]:
            pair = lm.IsometryPair(_complex(doc["U"]), _complex(doc["V"]))
            povm = lm.lm_povm_from_pair(pair)
            rep = metrology.check_saturation(povm, self._lm_family(job.family), job.theta)
            _expect(rep.saturating, f"feasible pair does not saturate (fi {rep.fi!r}, "
                                    f"qfi {rep.qfi!r})")
