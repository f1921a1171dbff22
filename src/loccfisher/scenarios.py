"""Built-in estimation scenarios and the scenario JSON document format.

A scenario bundles a named state family with a default parameter grid. Each
built-in is defined by the same JSON document a user would put in a file, so
file ingestion and the built-ins share one code path. Qubit Hamiltonians may
be given as weighted Pauli strings; qudit generators as dense matrices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import metrology
from .tensor import HilbertLayout, complex_to_pairs, kron, pairs_to_complex

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliStringTerm:
    coeff: float
    string: str

    def __post_init__(self) -> None:
        if not self.string or any(ch not in PAULI for ch in self.string):
            raise ValueError(f"invalid Pauli string {self.string!r}")


# diagonals of the Paulis that are diagonal in the computational basis
PAULI_DIAG = {"I": np.array([1.0, 1.0]), "Z": np.array([1.0, -1.0])}


def pauli_term_matrix(term: PauliStringTerm) -> np.ndarray:
    return term.coeff * kron([PAULI[ch] for ch in term.string])


def _check_terms(terms: list[PauliStringTerm], layout: HilbertLayout) -> None:
    if any(d != 2 for d in layout.dims):
        raise ValueError("Pauli-string Hamiltonians require a qubit layout")
    for term in terms:
        if len(term.string) != layout.nsub:
            raise ValueError(f"string {term.string!r} does not match {layout.nsub} qubits")


def hamiltonian_from_pauli(terms: list[PauliStringTerm],
                           layout: HilbertLayout) -> np.ndarray:
    _check_terms(terms, layout)
    h = np.zeros((layout.total, layout.total), dtype=complex)
    for term in terms:
        h += pauli_term_matrix(term)
    return h


def _is_diagonal(terms: list[PauliStringTerm]) -> bool:
    """Whether every string uses only I and Z, so the sum is diagonal."""
    return all(ch in PAULI_DIAG for term in terms for ch in term.string)


def pauli_diagonal(terms: list[PauliStringTerm], layout: HilbertLayout) -> np.ndarray:
    """Real diagonal of a sum of I/Z strings: a kron of +-1 vectors per term, O(D n)."""
    _check_terms(terms, layout)
    if not _is_diagonal(terms):
        raise ValueError("pauli_diagonal needs strings of I and Z only")
    g = np.zeros(layout.total)
    for term in terms:
        g += term.coeff * kron([PAULI_DIAG[ch] for ch in term.string]).real
    return g


@dataclass
class Scenario:
    name: str
    family: metrology.StateFamily
    theta_grid: np.ndarray
    notes: str
    doc: dict

    def to_json(self) -> dict:
        return self.doc


def _p_functions(p_doc: dict):
    form = p_doc.get("form")
    if form == "linear":
        a, b = float(p_doc["intercept"]), float(p_doc["slope"])
        return (lambda t: a + b * t), (lambda t: b)
    if form == "cosine":
        off = float(p_doc["offset"])
        amp = float(p_doc["amplitude"])
        freq = float(p_doc["frequency"])
        phase = float(p_doc.get("phase", 0.0))
        return (lambda t: off + amp * np.cos(freq * t + phase)),\
               (lambda t: -amp * freq * np.sin(freq * t + phase))
    raise ValueError(f"unknown p form {form!r}")


def _grid(doc) -> np.ndarray:
    if isinstance(doc, dict):
        grid = np.linspace(float(doc["start"]), float(doc["stop"]),
                           int(doc.get("points", 32)))
    else:
        grid = np.asarray(doc, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
        raise ValueError("theta_grid must be a non-empty 1-D list of finite numbers")
    return grid


def parse_scenario(doc: dict) -> Scenario:
    """Build a scenario from its JSON document."""
    name = doc.get("name", "scenario")
    layout = HilbertLayout(tuple(int(d) for d in doc["layout"]))
    kind = doc["type"]
    if kind == "unitary-generator":
        psi_in = pairs_to_complex(doc["psi_in"])
        ham = doc["hamiltonian"]
        if "pauli" in ham:
            terms = [PauliStringTerm(float(t["coeff"]), str(t["string"]))
                     for t in ham["pauli"]]
            # an I/Z sum is kept as its diagonal and never becomes a matrix
            gen = (pauli_diagonal if _is_diagonal(terms) else hamiltonian_from_pauli)(
                terms, layout)
        elif "dense" in ham:
            gen = pairs_to_complex(ham["dense"])
        else:
            raise ValueError("hamiltonian needs a 'pauli' or 'dense' entry")
        family = metrology.UnitaryGeneratorFamily(layout, psi_in, gen)
    elif kind == "rank-two":
        p_fn, dp_fn = _p_functions(doc["p"])
        family = metrology.RankTwoFixedBasisFamily(
            layout, pairs_to_complex(doc["psi0"]), pairs_to_complex(doc["psi1"]),
            p_fn, dp_fn)
    elif kind == "mixed":
        rho1 = pairs_to_complex(doc["rho1"])
        rho2 = pairs_to_complex(doc["rho2"])

        def rho_fn(t: float, rho1=rho1, rho2=rho2) -> np.ndarray:
            return t * rho1 + (1 - t) * rho2

        family = metrology.MixedGenericFamily(layout, rho_fn)
    else:
        raise ValueError(f"unknown scenario type {kind!r}")
    return Scenario(name=name, family=family, theta_grid=_grid(doc["theta_grid"]),
                    notes=doc.get("notes", ""), doc=doc)


# ---------------------------------------------------------------------------
# built-ins


def _ghz_doc(n: int) -> dict:
    if not 2 <= n <= 8:
        raise ValueError("ghz scenarios cover 2 to 8 qubits")
    psi_in = np.zeros(2 ** n, dtype=complex)
    psi_in[0] = psi_in[-1] = 1 / np.sqrt(2)
    terms = [{"coeff": 0.5, "string": "".join("Z" if i == j else "I" for i in range(n))}
             for j in range(n)]
    return {
        "name": f"ghz{n}",
        "type": "unitary-generator",
        "layout": [2] * n,
        "psi_in": complex_to_pairs(psi_in),
        "hamiltonian": {"pauli": terms},
        "theta_grid": {"start": 0.0, "stop": np.pi / 4, "points": 32},
        "notes": f"{n}-qubit GHZ phase estimation; qfi = n^2 at every theta",
    }


def _chain4_doc() -> dict:
    psi_in = np.zeros(16, dtype=complex)
    for idx in (0b1000, 0b0100, 0b0010, 0b0001):
        psi_in[idx] = 0.5
    terms = [{"coeff": 1.0, "string": "XXII"},
             {"coeff": 1.0, "string": "IXXI"},
             {"coeff": 1.0, "string": "IIXX"}]
    return {
        "name": "chain4",
        "type": "unitary-generator",
        "layout": [2, 2, 2, 2],
        "psi_in": complex_to_pairs(psi_in),
        "hamiltonian": {"pauli": terms},
        "theta_grid": {"start": 0.0, "stop": np.pi / 4, "points": 32},
        "notes": ("coupling-strength estimation on an open four-qubit XX chain "
                  "from a single-excitation symmetric input; the first-qubit "
                  "measurement basis is theta-independent"),
    }


def bell_states() -> dict[str, np.ndarray]:
    s2 = np.sqrt(2)
    return {
        "phi+": np.array([1, 0, 0, 1], dtype=complex) / s2,
        "phi-": np.array([1, 0, 0, -1], dtype=complex) / s2,
        "psi+": np.array([0, 1, 1, 0], dtype=complex) / s2,
        "psi-": np.array([0, 1, -1, 0], dtype=complex) / s2,
    }


def _bellmix_doc() -> dict:
    bells = bell_states()
    # Mixture endpoints over three fixed Bell projectors; the mixing weight is
    # the estimated parameter. The label assignment is immaterial.
    b1, b2, b3 = bells["phi+"], bells["phi-"], bells["psi+"]
    rho1 = (2 / 3) * np.outer(b1, b1.conj()) + (1 / 3) * np.outer(b2, b2.conj())
    rho2 = (1 / 3) * np.outer(b1, b1.conj()) + (2 / 3) * np.outer(b3, b3.conj())
    return {
        "name": "bellmix",
        "type": "mixed",
        "layout": [2, 2],
        "rho1": complex_to_pairs(rho1),
        "rho2": complex_to_pairs(rho2),
        "theta_grid": {"start": 0.1, "stop": 0.9, "points": 32},
        "notes": ("rank-three Bell mixture: no adaptive local protocol "
                  "saturates; serves as the negative control"),
    }


def _ranktwo_doc() -> dict:
    bells = bell_states()
    return {
        "name": "ranktwo",
        "type": "rank-two",
        "layout": [2, 2],
        "psi0": complex_to_pairs(bells["phi+"]),
        "psi1": complex_to_pairs(bells["phi-"]),
        "p": {"form": "linear", "intercept": 0.0, "slope": 1.0},
        "theta_grid": {"start": 0.1, "stop": 0.9, "points": 32},
        "notes": "linear-weight rank-two Bell mixture; qfi = 1/(theta(1-theta))",
    }


def _interpolation_doc(name: str, a_mat: np.ndarray, b_mat: np.ndarray,
                       notes: str) -> dict:
    # Pure family psi(theta) = cos(theta) psi0 + sin(theta) perp realized
    # by a unitary generator, so derivatives at theta = 0 are analytic.
    psi0 = a_mat.reshape(-1)
    perp = b_mat.reshape(-1)
    gen = 1j * (np.outer(perp, psi0.conj()) - np.outer(psi0, perp.conj()))
    d1, d2 = a_mat.shape
    return {
        "name": name,
        "type": "unitary-generator",
        "layout": [d1, d2],
        "psi_in": complex_to_pairs(psi0),
        "hamiltonian": {"dense": complex_to_pairs(gen)},
        "theta_grid": {"start": 0.0, "stop": 0.5, "points": 32},
        "notes": notes,
    }


def _lm2x2_doc() -> dict:
    s2 = np.sqrt(2)
    a = np.array([[1 / s2, 0], [0.5, 0.5]], dtype=complex)
    b = np.array([[0, 1 / s2], [0.5, -0.5]], dtype=complex)
    return _interpolation_doc(
        "lm2x2", a, b,
        "two-qubit pure family whose state pair cannot be told apart by any "
        "product measurement, yet a product measurement reaches the bound")


def _lm3x3_doc() -> dict:
    s2 = np.sqrt(2)
    a = np.diag([s2 / 2, 0.5, 0.5]).astype(complex)
    b = np.diag([s2 * 1j / 2, -1j / 2, -1j / 2])
    return _interpolation_doc(
        "lm3x3", a, b,
        "qutrit-pair pure family with no saturating projective product "
        "measurement but a saturating padded one")


_BUILTIN_FACTORIES = {
    "chain4": _chain4_doc,
    "bellmix": _bellmix_doc,
    "ranktwo": _ranktwo_doc,
    "lm2x2": _lm2x2_doc,
    "lm3x3": _lm3x3_doc,
}


def builtin_names() -> list[str]:
    return [f"ghz{n}" for n in range(2, 9)] + sorted(_BUILTIN_FACTORIES)


def builtin_scenario(name: str) -> Scenario:
    m = re.fullmatch(r"ghz(\d+)", name)
    if m:
        return parse_scenario(_ghz_doc(int(m.group(1))))
    if name in _BUILTIN_FACTORIES:
        return parse_scenario(_BUILTIN_FACTORIES[name]())
    raise ValueError(f"unknown scenario {name!r}; known: {', '.join(builtin_names())}")
