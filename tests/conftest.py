import numpy as np
import pytest

from loccfisher import UnitaryGeneratorFamily, locc
from loccfisher.scenarios import _pauli_weights
from loccfisher.tensor import HilbertLayout, complex_to_pairs, kron

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def random_traceless_hermitian(d, rng):
    h = random_hermitian(d, rng)
    return h - np.trace(h) / d * np.eye(d)


def random_state(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density(d, rng, rank=None):
    rank = rank or d
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure_inputs(dims, rng):
    """(layout, psi_in, G): a random state and a random dense Hermitian generator."""
    layout = HilbertLayout(dims)
    return layout, random_state(layout.total, rng), random_hermitian(layout.total, rng)


def random_pure_family(dims, rng):
    return UnitaryGeneratorFamily(*random_pure_inputs(dims, rng))


def ghz_family(n):
    """GHZ phase family on n qubits (n = 1 allowed for the plain phase qubit)."""
    layout = HilbertLayout((2,) * n)
    psi_in = np.zeros(2 ** n, dtype=complex)
    psi_in[0] = psi_in[-1] = 1 / np.sqrt(2)
    gen = sum(kron([PAULI_Z if i == j else I2 for i in range(n)])
              for j in range(n)) / 2
    return UnitaryGeneratorFamily(layout, psi_in, gen)


def pauli_weights_matrix(terms, layout):
    """The D x D matrix of a Pauli sum, scattered from the package's mask weights."""
    h, index = np.zeros((layout.total,) * 2, dtype=complex), np.arange(layout.total)
    for flip, w in _pauli_weights(terms, layout).items():
        h[index, index ^ flip] = w
    return h


def pauli_doc(layout, terms):
    """A unitary-generator scenario document of a Pauli sum, on the uniform psi_in."""
    return {"type": "unitary-generator", "layout": list(layout.dims),
            "psi_in": complex_to_pairs(np.full(layout.total, layout.total ** -0.5)),
            "hamiltonian": {"pauli": [{"coeff": t.coeff, "string": t.string} for t in terms]},
            "theta_grid": [0.0]}


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def no_leaf_vectors(monkeypatch):
    """Fail the test if it builds leaf vectors (``locc.leaf_vectors`` or ``locc.flatten``)."""
    def refuse(*_):
        raise AssertionError("a leaf vector was built")
    monkeypatch.setattr(locc, "leaf_vectors", refuse)
    monkeypatch.setattr(locc, "flatten", refuse)
