"""tools/compare_jobs.py compares lm-check reports by verdict, not by entries."""

import importlib.util
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from loccfisher import BipartiteCoeffs, check_lm_conditions, construct_lm_2xd
from loccfisher.tensor import complex_to_pairs

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_jobs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_jobs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def job():
    """Coefficients of a random 2 x 3 pair and the constructive report for them."""
    rng = np.random.default_rng(7)
    a, b = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)) for _ in range(2))
    a /= np.linalg.norm(a)
    b -= np.vdot(a, b) * a
    coeffs = BipartiteCoeffs(a, b / np.linalg.norm(b))
    pair = construct_lm_2xd(coeffs)
    doc = asdict(check_lm_conditions(pair, coeffs))
    assert doc["feasible"]
    doc.update(method="qubit-constructive", U=complex_to_pairs(pair.u_mat),
               V=complex_to_pairs(pair.v_mat))
    return [complex_to_pairs(coeffs.a_mat), complex_to_pairs(coeffs.b_mat)], pair, doc


def compare(tool, job, change):
    pairs, _, doc = job
    comparison = tool.Comparison()
    comparison.lm_report("job", (doc, change), (pairs, pairs))
    return comparison


def test_another_valid_pair_is_information(tool, job):
    # column phases of V leave every C_ij conj(D_ij) as it is
    _, pair, doc = job
    v = pair.v_mat * np.exp(1j * np.array([0.3, -1.1, 2.0]))
    comparison = compare(tool, job, dict(doc, V=complex_to_pairs(v)))
    assert comparison.ok
    assert comparison.lm_reports == 1 and comparison.lm_differ == {"U": 0, "V": 1}
    assert comparison.largest["lm-check V (abs, information)"] > 0.1


def test_a_pair_that_does_not_check_as_reported_is_a_mismatch(tool, job):
    _, pair, doc = job
    v = pair.v_mat[[1, 0, 2]]             # permuted rows miss the phase condition
    comparison = compare(tool, job, dict(doc, V=complex_to_pairs(v)))
    assert not comparison.ok
    assert "change pair checks as (feasible, projective) (False, True)" \
        in comparison.verdict_mismatches[0]


@pytest.mark.parametrize("field, value", [("feasible", False), ("method", "heuristic-search"),
                                          ("restarts", 3)])
def test_a_different_verdict_is_a_mismatch(tool, job, field, value):
    _, _, doc = job
    assert not compare(tool, job, dict(doc, **{field: value})).ok
