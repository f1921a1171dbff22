"""Per-layer tracing from outside the package.

The layers are the package modules. A span is recorded around each call into
a layer's public functions by replacing the name where the caller looks it up
(the modules import names directly, so ``locc.partial_trace`` and
``tensor.partial_trace`` are both wrapped). Spans keep name, job, start, end
and parent, stay in memory, and are written out when the benchmark ends.
Counters (state evaluations, tree nodes, least-squares restarts and function
evaluations, feasible searches) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter
from time import perf_counter

import loccfisher.cli as cli
import loccfisher.lm as lm
import loccfisher.locc as locc
import loccfisher.metrology as metrology
import loccfisher.scenarios as scenarios
import loccfisher.simulate as simulate
import loccfisher.tensor as tensor
import loccfisher.zerodiag as zerodiag

MODULES = ("scenarios", "metrology", "tensor", "zerodiag", "locc", "simulate", "lm", "cli")

# span name -> every (namespace, attribute) through which callers reach it.
# Spans that are not reported on their own still place their time in the
# right module's self time.
SPANS = {
    "scenarios.parse_scenario": [(scenarios, "parse_scenario")],
    "scenarios.builtin_scenario": [(scenarios, "builtin_scenario")],
    "metrology.qfi": [(metrology, "qfi")],
    "metrology.saturation_matrices": [(metrology, "saturation_matrices")],
    "metrology.check_saturation": [(metrology, "check_saturation")],
    "metrology.fisher_info": [(metrology, "fisher_info")],
    "metrology.Povm.validate": [(metrology.Povm, "validate")],
    "metrology.perp_component": [(metrology, "perp_component")],
    "tensor.partial_trace": [(locc, "partial_trace"), (tensor, "partial_trace")],
    "tensor.partial_expectation": [(locc, "partial_expectation"),
                                   (tensor, "partial_expectation")],
    "tensor.kron": [(locc, "kron"), (scenarios, "kron")],
    "tensor.sqrt_psd": [(metrology, "sqrt_psd")],
    "tensor.herm_eig": [(metrology, "herm_eig"), (tensor, "herm_eig")],
    "tensor.complex_to_pairs": [(cli, "complex_to_pairs"), (locc, "complex_to_pairs"),
                                (scenarios, "complex_to_pairs")],
    "tensor.pairs_to_complex": [(cli, "pairs_to_complex"), (locc, "pairs_to_complex"),
                                (scenarios, "pairs_to_complex")],
    "zerodiag.zero_diag_basis": [(locc, "zero_diag_basis"), (lm, "zero_diag_basis")],
    "zerodiag.simultaneous_zero_diag": [(zerodiag, "simultaneous_zero_diag"),
                                        (lm, "simultaneous_zero_diag")],
    "zerodiag.find_null_vector": [(zerodiag, "find_null_vector")],
    "zerodiag.solve_2x2": [(zerodiag, "solve_2x2")],
    "locc.synthesize_tree": [(locc, "synthesize_tree")],
    "locc.leaf_vectors": [(locc, "leaf_vectors")],
    "locc.flatten": [(locc, "flatten")],
    "locc.verify_tree": [(locc, "verify_tree")],
    "locc.tree_to_json": [(locc, "tree_to_json")],
    "locc.tree_from_json": [(locc, "tree_from_json")],
    "simulate.run_trials": [(simulate, "run_trials")],
    "simulate.mle": [(simulate, "mle")],
    "simulate.two_step": [(simulate, "two_step")],
    "simulate.leaf_distribution": [(simulate, "leaf_distribution")],
    "lm.heuristic_lm_search": [(lm, "heuristic_lm_search")],
    "lm.construct_lm_2xd": [(lm, "construct_lm_2xd")],
    "lm.check_lm_conditions": [(lm, "check_lm_conditions")],
    "lm.coefficient_matrices": [(lm, "coefficient_matrices")],
    "lm.least_squares": [(lm, "least_squares")],
}

# family methods whose calls count as state evaluations
STATE_EVALS = [(cls, meth)
               for cls in (metrology.UnitaryGeneratorFamily, metrology.PureNumericFamily)
               for meth in ("psi", "rho_drho")] + [
    (metrology.RankTwoFixedBasisFamily, "rho_drho"),
    (metrology.MixedGenericFamily, "rho_drho"),
]

ROOT = "cli.cli_main"

# reported span metrics: name -> fields
_REPORTED = {name: ("calls", "s") for name in (
    "scenarios.parse_scenario", "metrology.qfi", "metrology.saturation_matrices",
    "metrology.check_saturation", "metrology.fisher_info", "metrology.Povm.validate",
    "tensor.partial_trace", "tensor.partial_expectation", "tensor.kron",
    "tensor.sqrt_psd", "tensor.herm_eig", "zerodiag.zero_diag_basis",
    "zerodiag.find_null_vector", "locc.synthesize_tree", "locc.leaf_vectors",
    "locc.flatten", "locc.tree_to_json", "locc.tree_from_json",
    "simulate.run_trials", "simulate.mle", "simulate.two_step",
    "lm.heuristic_lm_search", "lm.construct_lm_2xd")}
_REPORTED["zerodiag.solve_2x2"] = ("calls",)
_REPORTED["simulate.leaf_distribution"] = ("calls",)

COUNTERS = {
    "metrology.state_evals": ("count", "lower"),
    "locc.tree_nodes": ("count", "lower"),
    "lm.restarts": ("count", "lower"),
    "lm.nfev": ("count", "lower"),
    "lm.feasible_frac": ("1", "higher"),
    "cli.exit_nonzero": ("count", "lower"),
}


def per_layer_spec() -> list[dict]:
    """The per-layer metrics a traced run reports, in BENCHMARK.json form."""
    spec = []
    for name, fields in _REPORTED.items():
        for f in fields:
            unit = "count" if f == "calls" else "s"
            spec.append({"name": f"{name}.{f}", "unit": unit, "better": "lower"})
    for mod in MODULES:
        spec.append({"name": f"{mod}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in COUNTERS.items():
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


def _tree_nodes(tree) -> int:
    stack, count = [tree.root], 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children or ())
    return count


class Tracer:
    """Span recorder; ``install`` patches the layers, ``uninstall`` restores them.

    Spans accumulate over the whole run; counters restart at every ``install``.
    """

    def __init__(self):
        self.spans: list[list] = []     # [name, job, start, end, parent index]
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, tracer.job, perf_counter(), 0.0,
                   tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                tracer._stack.pop()
            tracer._observe(name, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "locc.synthesize_tree":
            self.counts["locc.tree_nodes"] += _tree_nodes(result)
        elif name == "lm.least_squares":
            self.counts["lm.restarts"] += 1
            self.counts["lm.nfev"] += int(result.nfev)
        elif name == "lm.heuristic_lm_search":
            self.counts["lm.searches"] += 1
            self.counts["lm.feasible_searches"] += bool(result[1].feasible)

    def _patch(self, owner, attr: str, wrapper_fn) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_fn(original))

    def install(self) -> None:
        self.counts = Counter()
        for name, sites in SPANS.items():
            for owner, attr in sites:
                self._patch(owner, attr, lambda fn, name=name: self._wrap(name, fn))
        for owner, attr in STATE_EVALS:
            self._patch(owner, attr, lambda fn: self._count("metrology.state_evals", fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call_root(self, job: str, fn, *args):
        """Run ``fn(*args)`` as the root span of one job."""
        self.job = job
        return self._wrap(ROOT, fn)(*args)

    def pass_metrics(self, first_span: int, speed: float) -> dict[str, float]:
        """Per-layer metrics over the spans recorded since ``first_span``.

        Times are multiplied by ``speed``, the pass's machine-speed factor.
        """
        spans = self.spans[first_span:]
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_s: Counter = Counter()
        child_time = [0.0] * len(spans)
        for i, (name, _job, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            p = parent - first_span
            if p >= 0:
                child_time[p] += dur
            # inclusive time counts only the outermost of nested same-name spans
            q = p
            while q >= 0 and spans[q][0] != name:
                q = spans[q][4] - first_span
            if q < 0:
                inclusive[name] += dur
        for i, (name, _job, start, end, _parent) in enumerate(spans):
            self_s[name.split(".")[0]] += (end - start) - child_time[i]
        out: dict[str, float] = {}
        for name, fields in _REPORTED.items():
            if "calls" in fields:
                out[f"{name}.calls"] = calls[name]
            if "s" in fields:
                out[f"{name}.s"] = inclusive[name] * speed
        for mod in MODULES:
            out[f"{mod}.self_s"] = self_s[mod] * speed
        return out


def counter_metrics(counts: Counter, exit_nonzero: int) -> dict[str, float]:
    searches = counts["lm.searches"]
    return {
        "metrology.state_evals": counts["metrology.state_evals"],
        "locc.tree_nodes": counts["locc.tree_nodes"],
        "lm.restarts": counts["lm.restarts"],
        "lm.nfev": counts["lm.nfev"],
        "lm.feasible_frac": counts["lm.feasible_searches"] / searches if searches else 0.0,
        "cli.exit_nonzero": exit_nonzero,
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
