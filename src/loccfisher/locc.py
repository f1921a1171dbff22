"""Adaptive rank-one local measurement trees and their synthesis.

The measurement acts subsystem by subsystem in a fixed order; the basis used
on each subsystem depends on the outcomes observed so far (one-way classical
communication). Synthesis takes a traceless target matrix, zero-diagonalizes
its reduction onto the first subsystem, conditions on each outcome and
recurses, so that every leaf product vector E satisfies <E|target|E> = 0.

Every node at depth t measures subsystem order[t], so a tree is one
(P, d, d) stack of node bases per depth and a whole depth is one batched
contraction. Vectors being conditioned are kept as (P, K, *remaining dims)
arrays, rows in outcome-path order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from . import metrology
# kron, partial_expectation and partial_trace are unused here; they stay
# importable because the benchmark tracer patches them.
from .tensor import (ORTHOGONAL_TOL, TARGET_TRACE_TOL, HilbertLayout,  # noqa: F401
                     KetBraSum, as_layout, check_finite, check_orthonormal, check_trace,
                     check_traceless, check_unit, complex_to_pairs, kron,
                     pairs_to_complex, partial_expectation, partial_trace)
from .zerodiag import zero_diag_basis

LEAF_TOL = 1e-7           # admissible |<E|target|E>| relative to target norm
NODE_TRACE_TOL = 1e-9     # admissible conditioned-trace drift, absolute vs target scale


class SynthesisError(RuntimeError):
    """Raised when a synthesized tree violates its leaf condition."""


def _check_order(layout: HilbertLayout, order: Sequence[int] | None) -> tuple[int, ...]:
    if order is None:
        return tuple(range(layout.nsub))
    order = tuple(int(k) for k in order)
    if sorted(order) != list(range(layout.nsub)):
        raise ValueError(f"order {order} is not a permutation of the subsystems")
    return order


@dataclass
class MeasurementTree:
    """An adaptive local measurement as one stack of node bases per depth.

    ``bases[t]`` is the (P_t, d, d) stack of the nodes at depth t, which all
    measure subsystem order[t] of dimension d. A node's basis holds its
    measurement vectors as columns, and the child of node p after outcome x
    is node p * d + x of the next depth. Construction checks the order, the
    count and shapes of the stacks, finiteness and every node's
    orthonormality, once; readers trust the stacks.
    """

    layout: HilbertLayout
    order: tuple[int, ...]
    bases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        self.order = _check_order(self.layout, self.order)
        self.bases = tuple(np.ascontiguousarray(b, dtype=complex) for b in self.bases)
        if len(self.bases) != self.layout.nsub:
            raise ValueError(f"{len(self.bases)} depths of bases for {self.layout.nsub} subsystems")
        nodes = 1
        for depth, (sub, stack) in enumerate(zip(self.order, self.bases)):
            d = self.layout.dims[sub]
            if stack.shape != (nodes, d, d):
                raise ValueError(f"bases at depth {depth} have shape {stack.shape}, "
                                 f"not {(nodes, d, d)}")
            # the orthonormality test fails NaN too, but this names the cause
            if not np.isfinite(stack).all():
                raise ValueError(f"bases at depth {depth} contain non-finite entries")
            check_orthonormal(stack, f"a basis at depth {depth} is not orthonormal")
            nodes *= d

    @property
    def root(self) -> SimpleNamespace:
        """Nodes linked through ``children`` only, for the benchmark tracer's node
        count; nothing else reads it, and it goes when the tracer stops walking it."""
        nodes = [SimpleNamespace(children=None) for _ in self.bases[-1]]
        for stack in reversed(self.bases[:-1]):
            d = stack.shape[1]
            nodes = [SimpleNamespace(children=nodes[p * d:(p + 1) * d])
                     for p in range(len(stack))]
        return nodes[0]

    def amplitudes(self, rows: np.ndarray) -> np.ndarray:
        """<e|v> for every leaf e (rows, in np.ndindex path order) and row v of ``rows``.

        ``rows`` is K x D (or one length-D vector, giving a length-L result).
        Each depth contracts the conjugated node bases into one subsystem axis,
        so the cost is O(K D (d_1 + ... + d_n)) and no leaf vector is built.
        """
        v = np.asarray(rows, dtype=complex)
        dims = self.layout.dims
        flat = np.atleast_2d(v)
        if flat.ndim != 2 or flat.shape[1] != self.layout.total:
            raise ValueError(f"vectors of shape {v.shape} do not match layout {list(dims)}")
        check_finite(flat, "vector array")
        cur = flat.reshape((1, flat.shape[0]) + dims)
        remaining = list(range(len(dims)))
        for sub, bases in zip(self.order, self.bases):
            lead = _lead(cur, remaining.index(sub))
            remaining.remove(sub)
            cur = _condition(lead, bases, tuple(dims[i] for i in remaining))
        amps = cur.reshape(-1, flat.shape[0])
        return amps[:, 0] if v.ndim == 1 else amps


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

    One trace test bounds every node's drift by NODE_TRACE_TOL * max(1, scale);
    the nodes are re-centered together and the whole stack goes through one
    ``zero_diag_basis`` call, whatever d is.
    """
    return zero_diag_basis(check_traceless(reduced, f"conditioned matrix at depth {depth}",
                                           NODE_TRACE_TOL, scale, SynthesisError))


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
    # tested only: the target is conditioned as given, each node re-centers its reduction
    check_trace(target, "target matrix", TARGET_TRACE_TOL, scale)

    k = target.kets.shape[0]
    cur = np.concatenate([target.kets, target.bras]).reshape((1, 2 * k) + layout.dims)
    remaining = list(range(layout.nsub))
    levels = []
    for depth, sub in enumerate(order):
        lead = _lead(cur, remaining.index(sub))
        remaining.remove(sub)
        p, d, _, rest = lead.shape
        kets = lead[:, :, :k].reshape(p, d, k * rest)
        bras = lead[:, :, k:].reshape(p, d, k * rest)
        reduced = kets @ bras.conj().transpose(0, 2, 1) + (target.shift * rest) * np.eye(d)
        bases = _node_bases(reduced, depth, scale)
        levels.append(bases)
        cur = _condition(lead, bases, tuple(layout.dims[i] for i in remaining))

    tree = MeasurementTree(layout, order, levels)
    amps = cur.reshape(-1, 2 * k)       # every leaf's overlaps with the kets and bras
    worst = float(np.abs(target.sandwich(amps[:, :k], amps[:, k:])).max())
    if worst > LEAF_TOL * scale:
        raise SynthesisError(
            f"leaf condition violated: residual {worst:.3e} > {LEAF_TOL:.0e} * norm")
    return tree


def leaf_vectors(tree: MeasurementTree) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All (outcome path, product vector) pairs, vectors in layout order (a reference helper).

    Built one depth at a time: one broadcast product extends all prefixes at
    once. The factors multiply in measurement order; for the identity order
    that is the left fold of ``kron`` over the layout, entry for entry.
    """
    order = tree.order
    paths: list[tuple[int, ...]] = [()]
    vecs = None
    for bases in tree.bases:
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
    """Rank-one product POVM with one leaf vector per outcome path (a reference helper)."""
    paths, vectors = zip(*leaf_vectors(tree))
    return metrology.Povm(vectors=np.stack(vectors), labels=list(paths))


def verify_tree(tree: MeasurementTree, family: metrology.StateFamily,
                theta: float) -> metrology.SaturationReport:
    """The full saturation check at theta, from leaf amplitudes (no leaf vector is built)."""
    if tree.layout != family.layout:
        raise ValueError(f"tree layout {list(tree.layout.dims)} does not match "
                         f"family layout {list(family.layout.dims)}")
    return metrology.check_saturation(tree, family, theta)


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
    psi0 = check_unit(psi0, "psi0")
    psi1 = check_unit(psi1, "psi1")
    if abs(np.vdot(psi0, psi1)) > ORTHOGONAL_TOL:
        raise ValueError("psi0 and psi1 must be orthogonal")

    tree = synthesize_tree(KetBraSum(psi0, psi1), layout, order)
    amps = tree.amplitudes(np.stack([psi0, psi1]))
    mag = np.abs(amps)
    hyps = (mag[:, 0] < mag[:, 1]).astype(int)
    paths = np.ndindex(*(tree.layout.dims[k] for k in tree.order))
    assignment = {path: int(h) for path, h in zip(paths, hyps)}
    residual = float(np.abs(amps[:, 0] * amps[:, 1].conj()).max())
    success = 0.5 * float(np.sum(mag.max(axis=1) ** 2))
    return tree, DiscriminationReport(success_prob=success,
                                      leaf_assignment=assignment,
                                      residual=residual)


def tree_to_json(tree: MeasurementTree) -> dict:
    """JSON document for the tree, built bottom-up; child order equals outcome label order."""
    docs = None
    for sub, bases in zip(reversed(tree.order), reversed(tree.bases)):
        d, below = bases.shape[1], docs
        docs = [{"subsystem": sub, "basis": cols}
                for cols in complex_to_pairs(bases.transpose(0, 2, 1))]
        for p, node in enumerate(docs if below else ()):
            node["children"] = below[p * d:(p + 1) * d]
    return {
        "layout": list(tree.layout.dims),
        "order": list(tree.order),
        "node": docs[0],
    }


def tree_from_json(doc: dict) -> MeasurementTree:
    """Tree of a JSON document; every node at depth t must measure order[t]."""
    try:        # a document, layout or order of the wrong JSON type
        layout = HilbertLayout(tuple(doc["layout"]))
        order = _check_order(layout, doc["order"])
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"tree layout and order must be lists of integers ({exc})") from None
    nodes, levels = [doc["node"]], []
    for depth, sub in enumerate(order):
        d, last = layout.dims[sub], depth == layout.nsub - 1
        try:        # an entry of the wrong JSON type fits nowhere
            cols = pairs_to_complex([node["basis"] for node in nodes])
            fits = cols.shape == (len(nodes), d, d) and all(
                node["subsystem"] == sub and ("children" in node) != last
                and (last or len(node["children"]) == d) for node in nodes)
        except (AttributeError, TypeError, ValueError):
            fits = False
        if not fits:
            raise ValueError(f"node at depth {depth} does not fit layout "
                             f"{list(layout.dims)} and order {list(order)}")
        levels.append(cols.transpose(0, 2, 1))
        nodes = [child for node in nodes for child in node.get("children", ())]
    return MeasurementTree(layout, order, levels)


def bloch_rows(tree: MeasurementTree, theta: float) -> list[dict]:
    """Bloch coordinates of the first basis vector of every qubit node.

    Coordinates are (x, y, z) = <E|sigma|E> for the vector labeled outcome 0;
    the antipodal point corresponds to the other basis vector. Rows run depth
    first: sorted by outcome path, as the path string would not be past 9.
    """
    keyed = []
    for depth, (sub, bases) in enumerate(zip(tree.order, tree.bases)):
        paths = np.ndindex(*(tree.layout.dims[k] for k in tree.order[:depth]))
        # scalar arithmetic per node: numpy's array loops round differently
        for path, (a, b) in zip(paths, bases[:, :, 0] if bases.shape[1] == 2 else ()):
            keyed.append((path, {
                "theta": theta,
                "path": "".join(str(x) for x in path),
                "subsystem": sub,
                "x": float(2 * np.real(np.conj(a) * b)),
                "y": float(2 * np.imag(np.conj(a) * b)),
                "z": float(abs(a) ** 2 - abs(b) ** 2),
            }))
    return [row for _, row in sorted(keyed, key=lambda item: item[0])]


def write_bloch_csv(rows: Iterable[dict], stream) -> None:
    writer = csv.DictWriter(stream, fieldnames=["theta", "path", "subsystem",
                                                "x", "y", "z"])
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
