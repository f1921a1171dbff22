"""Adaptive rank-one local measurement trees and their synthesis.

The measurement acts subsystem by subsystem in a fixed order; the basis used
on each subsystem depends on the outcomes observed so far (one-way classical
communication). Synthesis takes a traceless target matrix, zero-diagonalizes
its reduction onto the first subsystem, conditions on each outcome and
recurses, so that every leaf product vector E satisfies <E|target|E> = 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import metrology
# kron is unused here; it stays importable because the benchmark tracer patches it.
from .tensor import (ISOMETRY_TOL, ORTHOGONAL_TOL, TARGET_TRACE_TOL,  # noqa: F401
                     HilbertLayout, as_layout, check_traceless, check_unit,
                     complex_to_pairs, kron, pairs_to_complex,
                     partial_expectation, partial_trace)
from .zerodiag import zero_diag_basis

LEAF_TOL = 1e-7           # admissible |<E|target|E>| relative to target norm
NODE_TRACE_TOL = 1e-9     # admissible conditioned-trace drift, absolute vs target scale


class SynthesisError(RuntimeError):
    """Raised when a synthesized tree violates its leaf condition."""


@dataclass
class TreeNode:
    """One measurement node: a local orthonormal basis on one subsystem.

    ``basis`` holds the measurement vectors as columns; ``children[x]`` is the
    node measured next after outcome x (None at the last subsystem).
    """

    subsystem: int
    basis: np.ndarray
    children: list["TreeNode"] | None


@dataclass
class MeasurementTree:
    layout: HilbertLayout
    order: tuple[int, ...]
    root: TreeNode


def _check_order(layout: HilbertLayout, order: Sequence[int] | None) -> tuple[int, ...]:
    if order is None:
        return tuple(range(layout.nsub))
    order = tuple(int(k) for k in order)
    if sorted(order) != list(range(layout.nsub)):
        raise ValueError(f"order {order} is not a permutation of the subsystems")
    return order


def synthesize_tree(m_tilde: np.ndarray, layout: HilbertLayout | Sequence[int],
                    order: Sequence[int] | None = None) -> MeasurementTree:
    """Adaptive tree whose leaves zero-sandwich the traceless target matrix.

    At each node the target, conditioned on all previous outcomes, is traced
    down to the current subsystem and zero-diagonalized; each basis vector
    spawns one child on the remaining subsystems. Conditioned matrices stay
    traceless by construction; their numerical trace drift is re-centered and
    asserted small.
    """
    layout = as_layout(layout)
    order = _check_order(layout, order)
    m_tilde = np.asarray(m_tilde, dtype=complex)
    # checked only: the target is conditioned as given, each node re-centers its reduction
    check_traceless(m_tilde, "target matrix", TARGET_TRACE_TOL)
    scale = float(np.linalg.norm(m_tilde))

    def build(m_cur: np.ndarray, rem_ids: tuple[int, ...], depth: int) -> TreeNode:
        sub = order[depth]
        pos = rem_ids.index(sub)
        rem_layout = HilbertLayout(tuple(layout.dims[i] for i in rem_ids))
        if len(rem_ids) == 1:
            reduced = m_cur
        else:
            reduced = partial_trace(m_cur, rem_layout,
                                    [i for i in range(len(rem_ids)) if i != pos])
        reduced = check_traceless(reduced, f"conditioned matrix at depth {depth}",
                                  NODE_TRACE_TOL, scale, SynthesisError)
        basis = zero_diag_basis(reduced)
        d = basis.shape[0]
        if depth == layout.nsub - 1:
            return TreeNode(subsystem=sub, basis=basis, children=None)
        children = []
        next_ids = rem_ids[:pos] + rem_ids[pos + 1:]
        for x in range(d):
            m_next = partial_expectation(m_cur, rem_layout, pos, basis[:, x])
            children.append(build(m_next, next_ids, depth + 1))
        return TreeNode(subsystem=sub, basis=basis, children=children)

    tree = MeasurementTree(layout=layout, order=order,
                           root=build(m_tilde, tuple(range(layout.nsub)), 0))
    vectors = np.stack([vec for _, vec in leaf_vectors(tree)])
    worst = float(np.abs(metrology._sandwich(vectors, m_tilde)).max())
    if worst > LEAF_TOL * scale:
        raise SynthesisError(
            f"leaf condition violated: residual {worst:.3e} > {LEAF_TOL:.0e} * norm")
    return tree


def leaf_vectors(tree: MeasurementTree) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All (outcome path, product vector) pairs, vectors in layout order.

    Built one depth at a time: every node at depth t measures order[t], so
    one broadcast product extends all prefixes at once. The factors multiply
    in measurement order; for the identity order that is the left fold of
    ``kron`` over the layout, entry for entry.
    """
    order = tree.order
    nodes = [tree.root]
    paths: list[tuple[int, ...]] = [()]
    vecs = None
    for depth, sub in enumerate(order):
        if any(node.subsystem != sub for node in nodes):
            raise ValueError(f"a node at depth {depth} does not measure subsystem {sub}")
        cols = np.stack([node.basis.T for node in nodes], dtype=complex)
        if not np.isfinite(cols).all():
            raise ValueError("kron factor contains non-finite entries")
        d = cols.shape[1]
        # row p * d + x is prefix p extended by column x of its node's basis
        vecs = cols.reshape(-1, d) if vecs is None else (
            vecs[:, None, :, None] * cols[:, :, None, :]).reshape(len(paths) * d, -1)
        paths = [p + (x,) for p in paths for x in range(d)]
        if depth < len(order) - 1:
            nodes = [child for node in nodes for child in node.children or ()]
            if len(nodes) != len(paths):
                raise ValueError(f"a node at depth {depth} lacks one child per outcome")
    if order != tuple(range(len(order))):
        dims = tuple(tree.layout.dims[k] for k in order)
        vecs = vecs.reshape((len(paths),) + dims).transpose(
            (0,) + tuple(1 + order.index(k) for k in range(len(order)))).reshape(len(paths), -1)
    return list(zip(paths, vecs))


def flatten(tree: MeasurementTree) -> metrology.Povm:
    """Rank-one product POVM with one leaf vector per outcome path."""
    paths, vectors = zip(*leaf_vectors(tree))
    return metrology.Povm(vectors=np.stack(vectors), labels=list(paths))


def verify_tree(tree: MeasurementTree, family: metrology.StateFamily, theta: float,
                thresholds: metrology.Thresholds | None = None) -> metrology.SaturationReport:
    """Flatten the tree and run the full saturation check at theta."""
    return metrology.check_saturation(flatten(tree), family, theta, thresholds)


@dataclass
class DiscriminationReport:
    success_prob: float
    leaf_assignment: dict[tuple[int, ...], int]
    residual: float


def discriminate(psi0: np.ndarray, psi1: np.ndarray,
                 layout: HilbertLayout | Sequence[int],
                 order: Sequence[int] | None = None
                 ) -> tuple[MeasurementTree, DiscriminationReport]:
    """Adaptive local protocol distinguishing two orthogonal states.

    Synthesizes the tree for the target |psi0><psi1|; each leaf then overlaps
    at most one of the two hypotheses, so the outcome identifies the state
    with certainty. Leaves are assigned to the larger-overlap hypothesis.
    """
    layout = as_layout(layout)
    psi0 = check_unit(psi0, "psi0")
    psi1 = check_unit(psi1, "psi1")
    if abs(np.vdot(psi0, psi1)) > ORTHOGONAL_TOL:
        raise ValueError("psi0 and psi1 must be orthogonal")

    tree = synthesize_tree(np.outer(psi0, psi1.conj()), layout, order)
    assignment: dict[tuple[int, ...], int] = {}
    residual = 0.0
    success = 0.0
    for path, vec in leaf_vectors(tree):
        o0, o1 = np.vdot(vec, psi0), np.vdot(vec, psi1)
        residual = max(residual, abs(o0 * np.conj(o1)))
        hyp = 0 if abs(o0) >= abs(o1) else 1
        assignment[path] = hyp
        success += 0.5 * max(abs(o0) ** 2, abs(o1) ** 2)
    return tree, DiscriminationReport(success_prob=float(success),
                                      leaf_assignment=assignment,
                                      residual=float(residual))


def tree_to_json(tree: MeasurementTree) -> dict:
    """JSON document for the tree; child order equals outcome label order."""

    def node_doc(node: TreeNode) -> dict:
        doc = {
            "subsystem": node.subsystem,
            "basis": [complex_to_pairs(node.basis[:, x])
                      for x in range(node.basis.shape[1])],
        }
        if node.children is not None:
            doc["children"] = [node_doc(c) for c in node.children]
        return doc

    return {
        "layout": list(tree.layout.dims),
        "order": list(tree.order),
        "node": node_doc(tree.root),
    }


def tree_from_json(doc: dict) -> MeasurementTree:
    """Tree of a JSON document; every node at depth t must measure order[t]."""
    layout = HilbertLayout(tuple(doc["layout"]))
    order = _check_order(layout, doc["order"])

    def parse(node_doc: dict, depth: int) -> TreeNode:
        sub, d = order[depth], layout.dims[order[depth]]
        basis = np.stack([pairs_to_complex(v) for v in node_doc["basis"]], axis=1)
        last = depth == layout.nsub - 1
        if (int(node_doc["subsystem"]) != sub or basis.shape != (d, d)
                or last == ("children" in node_doc)):
            raise ValueError(f"node at depth {depth} does not fit layout "
                             f"{list(layout.dims)} and order {list(order)}")
        # NaN fails every comparison, so the orthonormality test alone would pass it
        if not np.isfinite(basis).all():
            raise ValueError("node basis contains non-finite entries")
        if np.abs(basis.conj().T @ basis - np.eye(d)).max() > ISOMETRY_TOL:
            raise ValueError("node basis is not orthonormal")
        children = None
        if not last:
            children = [parse(c, depth + 1) for c in node_doc["children"]]
            if len(children) != d:
                raise ValueError("child count does not match basis size")
        return TreeNode(subsystem=sub, basis=basis, children=children)

    return MeasurementTree(layout=layout, order=order, root=parse(doc["node"], 0))


def bloch_rows(tree: MeasurementTree, theta: float) -> list[dict]:
    """Bloch coordinates of the first basis vector of every qubit node.

    Coordinates are (x, y, z) = <E|sigma|E> for the vector labeled outcome 0;
    the antipodal point corresponds to the other basis vector.
    """
    rows: list[dict] = []

    def walk(node: TreeNode, path: tuple[int, ...]) -> None:
        if node.basis.shape[0] == 2:
            a, b = node.basis[0, 0], node.basis[1, 0]
            rows.append({
                "theta": theta,
                "path": "".join(str(x) for x in path),
                "subsystem": node.subsystem,
                "x": float(2 * np.real(np.conj(a) * b)),
                "y": float(2 * np.imag(np.conj(a) * b)),
                "z": float(abs(a) ** 2 - abs(b) ** 2),
            })
        if node.children is not None:
            for x, child in enumerate(node.children):
                walk(child, path + (x,))

    walk(tree.root, ())
    return rows


def write_bloch_csv(rows: Iterable[dict], stream) -> None:
    writer = csv.DictWriter(stream, fieldnames=["theta", "path", "subsystem",
                                                "x", "y", "z"])
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
