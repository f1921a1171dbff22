"""Built-in estimation scenarios and the scenario JSON document format.

A scenario bundles a named state family with a default parameter grid. Each
built-in is defined by the same JSON document a user would put in a file, so
file ingestion and the built-ins share one code path. Qubit Hamiltonians may
be given as weighted Pauli strings; qudit generators as dense matrices. A
Pauli string is read once as integer masks, its first letter on the leading
bit: a sum of I/Z strings becomes its diagonal, any other sum the product
v -> G v, and neither is built as a D x D matrix.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import metrology
from .tensor import (RANK_TOL, RHO_TOL, HilbertLayout, check_finite, check_int, check_real,
                     complex_to_pairs, pairs_to_complex)
# kron is unused here; it stays importable because the benchmark tracer patches it.
from .tensor import kron  # noqa: F401

# i^k for k Y letters in a string, by k mod 4
_I_POWERS = (1, 1j, -1, -1j)


@dataclass(frozen=True)
class PauliStringTerm:
    coeff: float
    string: str

    def __post_init__(self) -> None:
        if not self.string or any(ch not in "IXYZ" for ch in self.string):
            raise ValueError(f"invalid Pauli string {self.string!r}")

    def masks(self) -> tuple[int, int, int]:
        """(flip, sign, #Y): the string maps |b> to i^#Y (-1)^popcount(b & sign) |b ^ flip>.

        The first letter acts on the leading bit of the basis index, the
        first qubit of the layout. X and Y flip their bit; Z and Y sign it.
        """
        flip = sign = 0
        for ch in self.string:
            flip, sign = 2 * flip + (ch in "XY"), 2 * sign + (ch in "YZ")
        return flip, sign, self.string.count("Y")


def _check_terms(terms: list[PauliStringTerm], layout: HilbertLayout) -> None:
    if any(d != 2 for d in layout.dims):
        raise ValueError("Pauli-string Hamiltonians require a qubit layout")
    for term in terms:
        if len(term.string) != layout.nsub:
            raise ValueError(f"string {term.string!r} does not match {layout.nsub} qubits")


def _parity_table(n: int) -> np.ndarray:
    """popcount(b) mod 2 for every b < 2^n, built by doubling (``np.bitwise_count``
    needs numpy 2)."""
    parity = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        parity = np.concatenate([parity, 1 - parity])
    return parity


def _pauli_weights(terms: list[PauliStringTerm], layout: HilbertLayout) -> dict[int, np.ndarray]:
    """G = sum_t c_t P_t grouped by flip mask x, as {x: w_x} with G[b, b ^ x] = w_x[b].

    Each w_x adds its terms in the given order, and an entry of G receives
    terms of its own flip only, so a matrix built from the weights equals
    the sum of the terms' kron products bit for bit.
    """
    _check_terms(terms, layout)
    index = np.arange(layout.total)
    parity = _parity_table(layout.nsub)
    weights: dict[int, np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):  # coefficients near the float limit
        for term in terms:
            flip, sign, n_y = term.masks()
            w = weights.setdefault(flip, np.zeros(layout.total, dtype=complex))
            # row b holds the term's phase on the column state b ^ flip
            w += term.coeff * _I_POWERS[n_y % 4] * (1.0 - 2.0 * parity[(index ^ flip) & sign])
    return {flip: check_finite(w, "generator") for flip, w in weights.items()}


def _pauli_generator(terms: list[PauliStringTerm], layout: HilbertLayout):
    """G as ``UnitaryGeneratorFamily`` takes it, with no D x D array: the real
    diagonal of a sum of I/Z strings, else the product v -> G v, O(D) per flip mask."""
    weights = _pauli_weights(terms, layout)
    if set(weights) <= {0}:
        return weights.get(0, np.zeros(layout.total, dtype=complex)).real
    index = np.arange(layout.total)
    shifts = [(index ^ flip, w) for flip, w in weights.items()]
    return lambda v: sum(w * v[source] for source, w in shifts)


@dataclass
class Scenario:
    name: str
    family: metrology.StateFamily
    theta_grid: np.ndarray
    notes: str
    doc: dict


def _p_functions(p_doc: dict):
    form = p_doc.get("form")
    if form == "linear":
        a, b = (check_real(p_doc[key], f"p {key}") for key in ("intercept", "slope"))
        return (lambda t: a + b * t), (lambda t: b)
    if form == "cosine":
        off, amp, freq = (check_real(p_doc[key], f"p {key}")
                          for key in ("offset", "amplitude", "frequency"))
        phase = check_real(p_doc.get("phase", 0.0), "p phase")
        return (lambda t: off + amp * np.cos(freq * t + phase)),\
               (lambda t: -amp * freq * np.sin(freq * t + phase))
    raise ValueError(f"unknown p form {form!r}")


def _grid(doc) -> np.ndarray:
    if isinstance(doc, dict):
        grid = np.linspace(check_real(doc["start"], "theta_grid start"),
                           check_real(doc["stop"], "theta_grid stop"),
                           check_int(doc.get("points", 32), "theta_grid points"))
    else:       # a list of numbers; anything else is an empty grid
        grid = np.array([check_real(t, "theta_grid entry") for t in doc]
                        if isinstance(doc, list) else [], dtype=float)
    if grid.size == 0 or not np.isfinite(grid).all():
        raise ValueError("theta_grid must be a non-empty 1-D list of finite numbers")
    return grid


def _mixed_family(layout: HilbertLayout, rho1: np.ndarray,
                  rho2: np.ndarray) -> metrology.StateFamily:
    """rho(theta) = theta rho1 + (1 - theta) rho2 of a "mixed" document, its ends checked as
    states. t is the eigenbasis of rho1 - rho2 on the support of rho1 + rho2, largest first, each
    cluster of equal eigenvalues (within RHO_TOL) turned to diagonalize rho2. When both ends are
    diagonal in t within RHO_TOL, the fixed-basis family of p_k = <t_k|rho(theta)|t_k> on the
    theta interval where each p_k >= -RHO_TOL; any other pair is generic, with drho = rho1 - rho2."""
    ends = np.array([metrology.check_state(rho, layout, key)
                     for rho, key in ((rho1, "rho1"), (rho2, "rho2"))])
    drho = ends[0] - ends[1]
    lam, v = np.linalg.eigh(rho1 + rho2)
    support = v[:, lam > RANK_TOL]
    delta, turn = np.linalg.eigh(support.conj().T @ drho @ support)
    for cluster in np.split(np.arange(len(delta)), np.flatnonzero(np.diff(delta) > RHO_TOL) + 1):
        if len(cluster) > 1:    # a degenerate weight change: rho2 fixes the basis
            block = support @ turn[:, cluster]
            turn[:, cluster] = turn[:, cluster] @ np.linalg.eigh(block.conj().T @ ends[1] @ block)[1]
    t = (support @ turn[:, ::-1]).T
    w = np.einsum("kd,sde,ke->sk", t.conj(), ends, t).real
    if max(np.abs(r - (t.T * p) @ t.conj()).max() for r, p in zip(ends, w)) > RHO_TOL:
        return metrology.MixedGenericFamily(layout, lambda t: t * rho1 + (1 - t) * rho2,
                                            lambda t: drho)
    slope = w[0] - w[1]
    bound = (-RHO_TOL - w[1]) / np.where(slope == 0.0, 1.0, slope)  # where p_k = -RHO_TOL
    domain = (float(bound[slope > 0].max(initial=-np.inf)), float(bound[slope < 0].min(initial=np.inf)))
    return metrology.FixedBasisFamily(layout, t, lambda x: x * w[0] + (1 - x) * w[1],
                                      lambda x: slope, domain)


@contextmanager
def _json_types():
    """Report a TypeError or AttributeError of reading document entries as a ValueError."""
    try:
        yield
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"scenario document has an entry of the wrong JSON type ({exc})") from None


def parse_scenario(doc: dict) -> Scenario:
    """Build a scenario from its JSON document; an entry of the wrong JSON type is a ValueError."""
    with _json_types():
        name, kind = doc.get("name", "scenario"), doc["type"]
        layout = HilbertLayout(tuple(doc["layout"]))
    if kind == "unitary-generator":
        with _json_types():
            psi_in, ham = pairs_to_complex(doc["psi_in"]), doc["hamiltonian"]
            terms = ([PauliStringTerm(check_real(t["coeff"], "Pauli coeff"), str(t["string"]))
                      for t in ham["pauli"]] if "pauli" in ham else None)
            dense = pairs_to_complex(ham["dense"]) if terms is None and "dense" in ham else None
        if terms is not None:
            gen = _pauli_generator(terms, layout)
        elif dense is not None:
            gen = dense
        else:
            raise ValueError("hamiltonian needs a 'pauli' or 'dense' entry")
        family = metrology.UnitaryGeneratorFamily(layout, psi_in, gen)
    elif kind == "rank-two":
        with _json_types():
            p_fn, dp_fn = _p_functions(doc["p"])
            psi0, psi1 = pairs_to_complex(doc["psi0"]), pairs_to_complex(doc["psi1"])
        family = metrology.FixedBasisFamily(layout, [psi0, psi1], p_fn, dp_fn)
    elif kind == "mixed":
        with _json_types():
            rho1, rho2 = pairs_to_complex(doc["rho1"]), pairs_to_complex(doc["rho2"])
        family = _mixed_family(layout, rho1, rho2)
    else:
        raise ValueError(f"unknown scenario type {kind!r}")
    with _json_types():
        grid = _grid(doc["theta_grid"])
    return Scenario(name=name, family=family, theta_grid=grid,
                    notes=doc.get("notes", ""), doc=doc)


# ---------------------------------------------------------------------------
# built-ins


def _ghz_doc(n: int) -> dict:
    if not 2 <= n <= 16:
        raise ValueError("ghz scenarios cover 2 to 16 qubits")
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
        # the law of a tree synthesized at theta repeats at theta +- pi/n
        "theta_grid": {"start": 0.0, "stop": min(np.pi / 4, np.pi / n), "points": 32},
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
