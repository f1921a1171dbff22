"""Adaptive rank-one local measurement trees and their synthesis.

The measurement acts subsystem by subsystem in a fixed order; the basis used
on each subsystem depends on the outcomes observed so far (one-way classical
communication). Synthesis takes a traceless target matrix, zero-diagonalizes
its reduction onto the first subsystem, conditions on each outcome and
recurses, so that every leaf product vector E satisfies <E|target|E> = 0.

Trees are walked one depth at a time: every node at depth t measures
subsystem order[t], so the P nodes of a depth stack into one (P, d, d) array
of bases and a whole depth is one batched contraction. Vectors being
conditioned are kept as (P, K, *remaining dims) arrays, rows in outcome-path
order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import metrology
# kron, partial_expectation and partial_trace are unused here; they stay
# importable because the benchmark tracer patches them.
from .tensor import (ISOMETRY_TOL, ORTHOGONAL_TOL, TARGET_TRACE_TOL,  # noqa: F401
                     HilbertLayout, KetBraSum, as_layout, check_unit,
                     complex_to_pairs, kron, pairs_to_complex, partial_expectation,
                     partial_trace, recenter)
from .zerodiag import zero_diag_basis, zero_diag_qubits

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


def _levels(tree: MeasurementTree):
    """(subsystem, stacked bases (P, d, d)) per depth, nodes in outcome-path order.

    Checks that every node at depth t measures order[t] with finite entries
    and has one child per outcome.
    """
    order = tree.order
    nodes = [tree.root]
    for depth, sub in enumerate(order):
        if any(node.subsystem != sub for node in nodes):
            raise ValueError(f"a node at depth {depth} does not measure subsystem {sub}")
        bases = np.stack([node.basis for node in nodes], dtype=complex)
        if not np.isfinite(bases).all():
            raise ValueError("kron factor contains non-finite entries")
        yield sub, bases
        if depth < len(order) - 1:
            nodes = [child for node in nodes for child in node.children or ()]
            if len(nodes) != bases.shape[0] * bases.shape[1]:
                raise ValueError(f"a node at depth {depth} lacks one child per outcome")


def _lead(cur: np.ndarray, pos: int) -> np.ndarray:
    """(P, K, *dims) -> (P, d, K, rest): axis ``pos`` of dims first, the others flattened."""
    p, k = cur.shape[:2]
    return np.moveaxis(cur, 2 + pos, 1).reshape(p, cur.shape[2 + pos], k, -1)


def _condition(lead: np.ndarray, bases: np.ndarray, rest_dims: tuple[int, ...]) -> np.ndarray:
    """Contract <u_x| of node p's basis column x into the lead axis; row p * d + x."""
    p, d, k, r = lead.shape
    out = bases.conj().transpose(0, 2, 1) @ lead.reshape(p, d, k * r)
    return out.reshape((p * d, k) + rest_dims)


def _node_bases(reduced: np.ndarray, depth: int, scale: float) -> np.ndarray:
    """Zero-diagonalizing bases (P, d, d) of the P node reductions of one depth.

    One trace test bounds every node's drift by NODE_TRACE_TOL * max(1, scale)
    and the nodes are re-centered together. A qubit depth is solved in one
    pass; other nodes go one by one through ``zero_diag_basis``.
    """
    if not np.isfinite(reduced).all():
        raise ValueError("matrix contains non-finite entries")
    trace = np.trace(reduced, axis1=1, axis2=2)
    drift = np.abs(trace) > NODE_TRACE_TOL * max(1.0, scale)
    if drift.any():
        raise SynthesisError(f"conditioned matrix at depth {depth} is not traceless "
                             f"(trace {trace[drift.argmax()]:.3e})")
    reduced = recenter(reduced)
    if reduced.shape[1] == 2:
        return zero_diag_qubits(reduced)
    return np.stack([zero_diag_basis(m) for m in reduced])


def synthesize_tree(m_tilde: KetBraSum | np.ndarray, layout: HilbertLayout | Sequence[int],
                    order: Sequence[int] | None = None) -> MeasurementTree:
    """Adaptive tree whose leaves zero-sandwich the traceless target matrix.

    The target is factored, m_tilde = sum_k |a_k><b_k| + c I; a dense matrix
    enters as its D ket-bra rows. At each node the target, conditioned on all
    previous outcomes, is traced down to the current subsystem and
    zero-diagonalized; each basis vector spawns one child on the remaining
    subsystems. Conditioning on outcome u maps a_k, b_k to (<u| x I) a_k,
    (<u| x I) b_k and keeps c, so a node's reduction is A B^dag + c rest I with
    A, B the d x (K rest) reshapes of its conditioned kets and bras. The
    nodes of one depth are conditioned together. Conditioned matrices stay
    traceless by construction; their numerical trace drift is re-centered
    and asserted small.
    """
    layout = as_layout(layout)
    order = _check_order(layout, order)
    target = KetBraSum.of(m_tilde)
    if target.dim != layout.total:
        raise ValueError(f"target dimension {target.dim} does not match layout "
                         f"{list(layout.dims)}")
    scale = target.norm()
    # checked only: the target is conditioned as given, each node re-centers its reduction
    trace = target.trace()
    if abs(trace) > TARGET_TRACE_TOL * max(1.0, scale):
        raise ValueError(f"target matrix is not traceless (trace {trace:.3e})")

    k = target.kets.shape[0]
    vectors = np.concatenate([target.kets, target.bras])
    cur = vectors.reshape((1, 2 * k) + layout.dims)
    remaining = list(range(layout.nsub))
    levels: list[list[TreeNode]] = []
    for depth, sub in enumerate(order):
        lead = _lead(cur, remaining.index(sub))
        remaining.remove(sub)
        p, d, _, rest = lead.shape
        kets = lead[:, :, :k].reshape(p, d, k * rest)
        bras = lead[:, :, k:].reshape(p, d, k * rest)
        reduced = kets @ bras.conj().transpose(0, 2, 1) + (target.shift * rest) * np.eye(d)
        bases = _node_bases(reduced, depth, scale)
        levels.append([TreeNode(subsystem=sub, basis=u, children=None) for u in bases])
        if remaining:
            cur = _condition(lead, bases, tuple(layout.dims[i] for i in remaining))
    for parents, children in zip(levels, levels[1:]):
        d = len(children) // len(parents)
        for i, node in enumerate(parents):
            node.children = children[i * d:(i + 1) * d]

    tree = MeasurementTree(layout=layout, order=order, root=levels[0][0])
    amps = tree_amplitudes(tree, vectors)
    leaf = np.sum(amps[:, :k] * amps[:, k:].conj(), axis=1) + target.shift
    worst = float(np.abs(leaf).max())
    if worst > LEAF_TOL * scale:
        raise SynthesisError(
            f"leaf condition violated: residual {worst:.3e} > {LEAF_TOL:.0e} * norm")
    return tree


def tree_amplitudes(tree: MeasurementTree, vectors: np.ndarray) -> np.ndarray:
    """<e|v> for every leaf e (rows, in ``leaf_vectors`` order) and row v of ``vectors``.

    ``vectors`` is K x D (or one length-D vector, giving a length-L result).
    Each depth contracts the conjugated node bases into one subsystem axis,
    so the cost is O(K D (d_1 + ... + d_n)) and no leaf vector is built.
    """
    v = np.asarray(vectors, dtype=complex)
    dims = tree.layout.dims
    flat = np.atleast_2d(v)
    if flat.ndim != 2 or flat.shape[1] != tree.layout.total:
        raise ValueError(f"vectors of shape {v.shape} do not match layout {list(dims)}")
    if not np.isfinite(flat).all():
        raise ValueError("vectors contain non-finite entries")
    cur = flat.reshape((1, flat.shape[0]) + dims)
    remaining = list(range(len(dims)))
    for sub, bases in _levels(tree):
        lead = _lead(cur, remaining.index(sub))
        remaining.remove(sub)
        cur = _condition(lead, bases, tuple(dims[i] for i in remaining))
    amps = cur.reshape(-1, flat.shape[0])
    return amps[:, 0] if v.ndim == 1 else amps


def leaf_vectors(tree: MeasurementTree) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All (outcome path, product vector) pairs, vectors in layout order.

    Built one depth at a time: one broadcast product extends all prefixes at
    once. The factors multiply in measurement order; for the identity order
    that is the left fold of ``kron`` over the layout, entry for entry.
    """
    order = tree.order
    paths: list[tuple[int, ...]] = [()]
    vecs = None
    for sub, bases in _levels(tree):
        cols = bases.transpose(0, 2, 1)
        d = cols.shape[1]
        # row p * d + x is prefix p extended by column x of its node's basis
        vecs = cols.reshape(-1, d) if vecs is None else (
            vecs[:, None, :, None] * cols[:, :, None, :]).reshape(len(paths) * d, -1)
        paths = [p + (x,) for p in paths for x in range(d)]
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
    if tree.layout != family.layout:
        raise ValueError(f"tree layout {list(tree.layout.dims)} does not match "
                         f"family layout {list(family.layout.dims)}")
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

    tree = synthesize_tree(KetBraSum(psi0, psi1), layout, order)
    amps = tree_amplitudes(tree, np.stack([psi0, psi1]))
    mag = np.abs(amps)
    hyps = (mag[:, 0] < mag[:, 1]).astype(int)
    paths = np.ndindex(*(layout.dims[k] for k in tree.order))
    assignment = {path: int(h) for path, h in zip(paths, hyps)}
    residual = float(np.abs(amps[:, 0] * amps[:, 1].conj()).max())
    success = 0.5 * float(np.sum(mag.max(axis=1) ** 2))
    return tree, DiscriminationReport(success_prob=success,
                                      leaf_assignment=assignment,
                                      residual=residual)


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
