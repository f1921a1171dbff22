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
# kron, partial_expectation, partial_trace and zero_diag_basis are unused here; they
# stay importable because the benchmark tracer patches them.
from .tensor import (ORTHOGONAL_TOL, TARGET_TRACE_TOL, HilbertLayout,  # noqa: F401
                     KetBraSum, as_layout, check_finite, check_int, check_orthonormal,
                     check_trace, check_traceless, check_unit, complex_to_pairs, identity,
                     kron, pairs_to_complex, partial_expectation, partial_trace)
from .zerodiag import zero_diag_basis, zero_diag_stack  # noqa: F401

LEAF_TOL = 1e-7           # admissible |<E|target|E>| relative to target norm
NODE_TRACE_TOL = 1e-9     # admissible conditioned-trace drift, absolute vs target scale


class SynthesisError(RuntimeError):
    """Raised when a synthesized tree violates its leaf condition."""


def _check_order(layout: HilbertLayout, order: Sequence[int] | None) -> tuple[int, ...]:
    if order is None:
        return tuple(range(layout.nsub))
    order = tuple(check_int(k, "order entry") for k in order)
    if sorted(order) != list(range(layout.nsub)):
        raise ValueError(f"order {order} is not a permutation of the subsystems")
    return order


@dataclass
class MeasurementTree:
    """An adaptive local measurement as one stack of node bases per depth.

    ``bases[t]`` is the (P_t, d, d) stack of the nodes at depth t, which all
    measure subsystem order[t] of dimension d. A node's basis holds its
    measurement vectors as columns, and the child of node p after outcome x
    is node p * d + x of the next depth. The constructor (and so
    ``tree_from_json``) checks the order, the count and shapes of the stacks,
    finiteness and every node's orthonormality; ``synthesize_trees`` checks
    each depth of all its trees at once and skips it. Readers trust the stacks.
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
            _check_depth(stack, depth)
            nodes *= d

    @property
    def outcome_dims(self) -> tuple[int, ...]:
        """dims[order[t]] per depth t: every leaf reader runs over ``np.ndindex(*outcome_dims)``."""
        return tuple(self.layout.dims[k] for k in self.order)

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
        """<e|v> for every leaf e (rows, in ``np.ndindex(*outcome_dims)`` order) and row v of ``rows``.

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
        amps = stacked_amplitudes([self], flat)[0]
        return amps[:, 0] if v.ndim == 1 else amps


def stacked_amplitudes(trees: Sequence[MeasurementTree], rows: np.ndarray) -> np.ndarray:
    """``amplitudes`` (T, L, K) of T trees of one layout and order, of trusted K x D rows or
    a (T, K, D) stack: one contraction per depth, in which each tree gets its arithmetic alone."""
    dims, k = trees[0].layout.dims, rows.shape[-2]
    cur = np.broadcast_to(rows, (len(trees), k, rows.shape[-1])).reshape((len(trees), k) + dims)
    remaining = list(range(len(dims)))
    for depth, sub in enumerate(trees[0].order):
        lead = _lead(cur, remaining.index(sub))
        remaining.remove(sub)
        bases = np.concatenate([tree.bases[depth] for tree in trees])
        cur = _condition(lead, bases, tuple(dims[i] for i in remaining))
    return cur.reshape(len(trees), -1, k)


def _check_depth(stack: np.ndarray, depth: int) -> None:
    """Checks every basis of a depth's (P, d, d) stack finite and orthonormal; an error names the depth."""
    # the orthonormality test fails NaN too, but this names the cause
    if not np.isfinite(stack).all():
        raise ValueError(f"bases at depth {depth} contain non-finite entries")
    check_orthonormal(stack, f"a basis at depth {depth} is not orthonormal")


def _lead(cur: np.ndarray, pos: int) -> np.ndarray:
    """(P, K, *dims) -> (P, d, K, rest): axis ``pos`` of dims first, the others flattened."""
    axes = [0, 2 + pos, 1] + [i for i in range(2, cur.ndim) if i != 2 + pos]  # moveaxis, cheaper
    return cur.transpose(axes).reshape(cur.shape[0], cur.shape[2 + pos], cur.shape[1], -1)


def _condition(lead: np.ndarray, bases: np.ndarray, rest_dims: tuple[int, ...]) -> np.ndarray:
    """Contract <u_x| of node p's basis column x into the lead axis; row p * d + x."""
    p, d, k, r = lead.shape
    out = bases.conj().transpose(0, 2, 1) @ lead.reshape(p, d, k * r)
    return out.reshape((p * d, k) + rest_dims)


def _node_bases(reduced: np.ndarray, depth: int, scale: np.ndarray) -> np.ndarray:
    """Zero-diagonalizing bases (P, d, d) of the P node reductions of one depth.

    One trace test bounds each node's drift by NODE_TRACE_TOL * max(1, its scale);
    the nodes are re-centered together and the whole stack goes through one
    ``zero_diag_stack`` call, whatever d is: ``zero_diag_basis`` without its own trace test.
    """
    return zero_diag_stack(check_traceless(reduced, f"conditioned matrix at depth {depth}",
                                           NODE_TRACE_TOL, scale, SynthesisError))


def synthesize_trees(targets: Sequence[KetBraSum], layout: HilbertLayout | Sequence[int],
                     order: Sequence[int] | None = None) -> list[MeasurementTree]:
    """One adaptive tree per traceless target, whose leaves zero-sandwich it.

    A target is factored, m_tilde = sum_k |a_k><b_k| + c I, with one K for all
    (a dense m enters as ``KetBraSum.from_dense(m)``). Conditioning on outcome
    u maps a_k, b_k to (<u| x I) a_k, (<u| x I) b_k and keeps c, so a node's
    reduction is A B^dag + c rest I, which is zero-diagonalized; each basis
    vector spawns one child. Depth t of every tree is one tree-major (T P_t, d,
    d) stack with one trace check, one ``zero_diag_stack`` call (an error
    names a node by its stack index) and one finiteness and orthonormality
    check of its bases; a node's basis does not depend on the rest of the
    stack, and each tree keeps its own scale, shift and leaf check. The trees
    are built from the checked stacks, without the constructor's checks.
    """
    layout = as_layout(layout)
    order = _check_order(layout, order)
    if not targets:
        return []
    k, scales = targets[0].kets.shape[0], np.array([m_tilde.norm() for m_tilde in targets])
    for m_tilde, scale in zip(targets, scales):
        if m_tilde.dim != layout.total or m_tilde.kets.shape[0] != k:
            raise ValueError(f"target of {m_tilde.kets.shape[0]} rows of dimension {m_tilde.dim} "
                             f"does not stack with {k} rows on layout {list(layout.dims)}")
        # tested only: the target is conditioned as given, each node re-centers its reduction
        check_trace(m_tilde, "target matrix", TARGET_TRACE_TOL, scale)

    trees = len(targets)
    shifts = np.array([m_tilde.shift for m_tilde in targets])[:, None, None, None]
    cur = np.concatenate([rows for m in targets for rows in (m.kets, m.bras)]).reshape(
        (trees, 2 * k) + layout.dims)
    remaining = list(range(layout.nsub))
    levels = []
    for depth, sub in enumerate(order):
        lead = _lead(cur, remaining.index(sub))
        remaining.remove(sub)
        p, d, _, rest = lead.shape
        a = lead[:, :, :k].reshape(p, d, k * rest)      # the A and B of each node
        b = lead[:, :, k:].reshape(p, d, k * rest)
        reduced = (a @ b.conj().swapaxes(1, 2)).reshape(trees, -1, d, d) + shifts * rest * identity(d)
        bases = _node_bases(reduced.reshape(p, d, d), depth, scales.repeat(p // trees))
        _check_depth(bases, depth)
        levels.append(bases.reshape(reduced.shape))
        cur = _condition(lead, bases, tuple(layout.dims[i] for i in remaining))

    out = [object.__new__(MeasurementTree) for _ in range(trees)]   # stacks checked per depth
    for t, tree in enumerate(out):
        tree.layout, tree.order, tree.bases = layout, order, tuple(stack[t] for stack in levels)
    # every leaf's overlaps with the kets and bras, per tree
    for m_tilde, scale, amps in zip(targets, scales, cur.reshape(trees, -1, 2 * k)):
        worst = float(np.abs(m_tilde.sandwich(amps[:, :k], amps[:, k:])).max())
        if not worst <= LEAF_TOL * scale:       # NaN fails too
            raise SynthesisError(
                f"leaf condition violated: residual {worst:.3e} > {LEAF_TOL:.0e} * norm")
    return out


def synthesize_tree(m_tilde: KetBraSum, layout: HilbertLayout | Sequence[int],
                    order: Sequence[int] | None = None) -> MeasurementTree:
    """The tree of one target: ``synthesize_trees`` of a stack of one."""
    return synthesize_trees([m_tilde], layout, order)[0]


def synthesis_target(frame: metrology.SaturationMatrices) -> KetBraSum:
    """The frame's rank-one target; a family without one is a ValueError."""
    if frame.target is None:
        raise ValueError("family has no rank-one synthesis target (a generic mixed family)")
    return frame.target


def synthesize_at(family: metrology.StateFamily, theta: float,
                  order: Sequence[int] | None = None) -> MeasurementTree:
    """The tree that saturates the QCRB of a pure or fixed-basis rank-two family at theta."""
    frame = metrology.saturation_matrices(family, theta)
    return synthesize_tree(synthesis_target(frame), family.layout, order)


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
        vecs = vecs.reshape((len(paths),) + tree.outcome_dims).transpose(
            (0,) + tuple(1 + order.index(k) for k in range(len(order)))).reshape(len(paths), -1)
    return list(zip(paths, vecs))


def flatten(tree: MeasurementTree) -> metrology.Povm:
    """Rank-one product POVM with one leaf vector per outcome path (a reference helper)."""
    return metrology.Povm(np.stack([v for _, v in leaf_vectors(tree)]))


def verify_tree(tree: MeasurementTree, family: metrology.StateFamily,
                theta: float) -> metrology.SaturationReport:
    """``check_saturation``: layout test, then one ``amplitudes`` call; no leaf vector is built."""
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
    assignment = {path: int(h) for path, h in zip(np.ndindex(*tree.outcome_dims), hyps)}
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
                check_int(node["subsystem"], "subsystem") == sub and ("children" in node) != last
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
        paths = np.ndindex(*tree.outcome_dims[:depth])
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
