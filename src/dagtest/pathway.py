"""Pathway graphs: parsing, validation, topological ordering, repair, perturbation.

A pathway is a directed graph over genes. The estimator downstream requires a
DAG, so this module provides a deterministic cycle-removal repair for curated
pathways that contain feedback loops, plus the edge perturbations used in the
graph mis-specification experiments.

Node indexing conventions:
  * ``edges`` store *original* node indices (the order labels first appear).
  * ``parent_sets`` are expressed in *topological positions*: ``parent_sets[k]``
    lists positions ``i < k`` whose nodes point at the node in position ``k``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CycleDetected,
    DuplicateEdge,
    InsufficientNonEdges,
    MalformedLine,
    SelfLoop,
)

Edge = tuple[int, int]


def round_half_up(x: float) -> int:
    """Round a nonnegative quantity with ties going up (0.5 -> 1)."""
    return math.floor(x + 0.5)


# ---------------------------------------------------------------------------
# Core type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathwayDag:
    """An immutable directed acyclic gene-interaction graph.

    Attributes:
        p: number of nodes (genes).
        edges: directed edges ``(j, k)`` meaning j -> k, in original indices.
        node_labels: optional gene identifiers, length ``p``.
        topo_order: ``topo_order[position] = original index``; every edge points
            from a smaller position to a larger one.
        parent_sets: per topological position, the sorted tuple of parent
            positions.
        removed_edges: edges deleted by :func:`acyclic_reduction` when this dag
            was produced by repairing a cyclic graph (empty otherwise).
        edge_signs: optional activation/inhibition annotations keyed by edge;
            carried as metadata only, never used by the estimator.
    """

    p: int
    edges: frozenset[Edge]
    node_labels: tuple[str, ...] | None
    topo_order: tuple[int, ...]
    parent_sets: tuple[tuple[int, ...], ...]
    removed_edges: tuple[Edge, ...] = ()
    edge_signs: Mapping[Edge, str] | None = None

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        p: int,
        labels: Sequence[str] | None = None,
        removed_edges: Sequence[Edge] = (),
        edge_signs: Mapping[Edge, str] | None = None,
    ) -> "PathwayDag":
        """Build a dag from an edge set, deriving order and parent sets.

        Raises:
            SelfLoop: if any edge is of the form (j, j).
            CycleDetected: if the graph has a directed cycle.
        """
        edge_set = frozenset((int(j), int(k)) for j, k in edges)
        for j, k in sorted(edge_set):
            if not (0 <= j < p and 0 <= k < p):
                raise ValueError(f"edge ({j}, {k}) out of range for p={p}")
            if j == k:
                raise SelfLoop(f"self-loop at node {j}")
        order = topological_order(edge_set, p)
        position = {node: pos for pos, node in enumerate(order)}
        parents: list[list[int]] = [[] for _ in range(p)]
        for j, k in edge_set:
            parents[position[k]].append(position[j])
        parent_sets = tuple(tuple(sorted(s)) for s in parents)
        return cls(
            p=p,
            edges=edge_set,
            node_labels=tuple(labels) if labels is not None else None,
            topo_order=tuple(order),
            parent_sets=parent_sets,
            removed_edges=tuple(removed_edges),
            edge_signs=dict(edge_signs) if edge_signs else None,
        )

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if self.node_labels is not None and len(self.node_labels) != self.p:
            raise ValueError("node_labels length must equal p")
        if sorted(self.topo_order) != list(range(self.p)):
            raise ValueError("topo_order must be a permutation of 0..p-1")
        position = {node: pos for pos, node in enumerate(self.topo_order)}
        for j, k in self.edges:
            if j == k:
                raise SelfLoop(f"self-loop at node {j}")
            if position[j] >= position[k]:
                raise CycleDetected([j, k])
        for pos, s in enumerate(self.parent_sets):
            if any(i >= pos for i in s):
                raise ValueError(f"parent set at position {pos} is not upstream")

    # -- derived counts ------------------------------------------------------

    @property
    def n_edges(self) -> int:
        """Ne, the number of directed edges."""
        return len(self.edges)

    @property
    def n_children(self) -> int:
        """p0, the number of nodes with at least one parent."""
        return sum(1 for s in self.parent_sets if s)

    @property
    def max_in_degree(self) -> int:
        """d, the largest parent-set size."""
        return max((len(s) for s in self.parent_sets), default=0)

    def label_of(self, node: int) -> str:
        return self.node_labels[node] if self.node_labels else str(node)


# ---------------------------------------------------------------------------
# Ordering and cycle handling
# ---------------------------------------------------------------------------

def topological_order(edges: Iterable[Edge], p: int) -> list[int]:
    """Order nodes so that every edge points forward.

    Uses Kahn's algorithm with a min-heap so ties are broken by ascending
    original index, making the result deterministic: an edgeless graph maps to
    ``[0, 1, ..., p-1]``.

    Raises:
        CycleDetected: carrying the node list of one cycle.
    """
    succ: list[list[int]] = [[] for _ in range(p)]
    in_deg = [0] * p
    for j, k in set(edges):
        succ[j].append(k)
        in_deg[k] += 1
    ready = [node for node in range(p) if in_deg[node] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for k in succ[node]:
            in_deg[k] -= 1
            if in_deg[k] == 0:
                heapq.heappush(ready, k)
    if len(order) < p:
        remaining = set(range(p)) - set(order)
        adj = {u: sorted(k for k in succ[u] if k in remaining) for u in remaining}
        cycle = _find_cycle_in(adj, sorted(remaining))
        raise CycleDetected(cycle if cycle is not None else sorted(remaining))
    return order


def _find_cycle_in(adj: Mapping[int, Sequence[int]], starts: Sequence[int]) -> list[int] | None:
    """Return one cycle's node list via iterative DFS, or None.

    Nodes are explored in the order of ``starts`` and neighbors in the order
    stored in ``adj``, so discovery order is deterministic.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {u: WHITE for u in adj}
    for start in starts:
        if color[start] != WHITE:
            continue
        path = [start]
        stack = [(start, iter(adj[start]))]
        color[start] = GRAY
        while stack:
            node, neighbors = stack[-1]
            advanced = False
            for nxt in neighbors:
                if nxt not in color:
                    continue
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if color[nxt] == GRAY:
                    return path[path.index(nxt):]
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def acyclic_reduction(
    edges: Iterable[Edge],
    p: int,
    labels: Sequence[str] | None = None,
    edge_signs: Mapping[Edge, str] | None = None,
) -> tuple[PathwayDag, list[Edge]]:
    """Repair an arbitrary directed graph into a DAG.

    Self-loops are dropped first (in ascending node order). Then, while a cycle
    remains, one cycle is located by depth-first search (nodes and neighbors
    visited in ascending order) and its lexicographically smallest edge —
    minimum source index, then minimum target index — is removed. The rule is a
    documented convention chosen for determinism; curated pathways rarely have
    more than a couple of feedback loops, so the choice is low-impact.

    Returns:
        (dag, removed_edges) with deletions listed in removal order.
        Idempotent: running it on a DAG returns the graph unchanged.
    """
    working = {(int(j), int(k)) for j, k in edges}
    removed: list[Edge] = []
    for j, k in sorted(working):
        if j == k:
            working.discard((j, k))
            removed.append((j, k))
    while True:
        adj = {u: [] for u in range(p)}
        for j, k in working:
            adj[j].append(k)
        for u in adj:
            adj[u].sort()
        cycle = _find_cycle_in(adj, list(range(p)))
        if cycle is None:
            break
        cycle_edges = [
            (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
        ]
        victim = min(cycle_edges)
        working.discard(victim)
        removed.append(victim)
    signs = None
    if edge_signs:
        signs = {e: s for e, s in edge_signs.items() if e in working}
    return (
        PathwayDag.from_edges(
            working, p, labels=labels, removed_edges=removed, edge_signs=signs
        ),
        removed,
    )


# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgePerturbation:
    """Random graph mis-specification: delete or add a fraction of edges.

    Attributes:
        mode: "none", "missing" (delete edges), or "redundant" (add forward
            non-edges, so the result remains a DAG).
        fraction: fraction of the current edge count to change, in [0, 1).
        seed: reproducibility token; None draws fresh entropy.
    """

    mode: str = "none"
    fraction: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("none", "missing", "redundant"):
            raise ValueError(f"unknown perturbation mode {self.mode!r}")
        if not (isinstance(self.fraction, (int, float)) and 0.0 <= self.fraction < 1.0):
            raise ValueError("fraction must lie in [0, 1)")
        # A JSON config may give an integer; reports echo it as a float.
        object.__setattr__(self, "fraction", float(self.fraction))

    def to_dict(self) -> dict:
        return asdict(self)


def perturb_edges(
    dag: PathwayDag,
    pert: EdgePerturbation,
    rng: np.random.Generator | None = None,
) -> PathwayDag:
    """Apply an :class:`EdgePerturbation` to a dag.

    Missing mode deletes ``round(fraction * Ne)`` edges sampled uniformly
    without replacement. Redundant mode adds the same number of uniformly
    sampled pairs ``(j, k)`` with ``position(j) < position(k)`` that are not
    already edges, which keeps the graph acyclic by construction.

    Args:
        rng: optional generator overriding ``pert.seed`` (used by the
            simulation driver to hand each replicate its own stream).

    Raises:
        InsufficientNonEdges: redundant mode with too few forward non-edges.
    """
    if pert.mode == "none":
        return dag
    k_change = round_half_up(pert.fraction * dag.n_edges)
    if k_change == 0:
        return dag
    if rng is None:
        rng = np.random.default_rng(pert.seed)
    if pert.mode == "missing":
        pool = sorted(dag.edges)
        drop_idx = rng.choice(len(pool), size=k_change, replace=False)
        keep = set(pool) - {pool[i] for i in drop_idx}
        return PathwayDag.from_edges(keep, dag.p, labels=dag.node_labels)
    # redundant: forward non-edges under the existing topological order
    candidates = []
    for a in range(dag.p):
        for b in range(a + 1, dag.p):
            e = (dag.topo_order[a], dag.topo_order[b])
            if e not in dag.edges:
                candidates.append(e)
    if k_change > len(candidates):
        raise InsufficientNonEdges(
            f"asked for {k_change} new edges but only {len(candidates)} "
            "forward non-edges exist"
        )
    add_idx = rng.choice(len(candidates), size=k_change, replace=False)
    new_edges = set(dag.edges) | {candidates[i] for i in add_idx}
    return PathwayDag.from_edges(new_edges, dag.p, labels=dag.node_labels)


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def parse_edge_document(
    text: str,
) -> tuple[list[str], list[Edge], dict[Edge, str]]:
    """Tokenize an edge-list document without acyclicity or self-loop checks.

    Format: one edge per line, ``src<TAB>dst`` with an optional third column
    holding a sign annotation (kept as metadata, ignored by the estimator).
    A header line ``nodes: A,B,C`` may declare nodes with no edges — genes
    with no interactions still enter the test with an empty parent set.
    Labels are indexed in first-appearance order, header included.

    Returns:
        (labels, edges, edge_signs) with edges as index pairs.

    Raises:
        MalformedLine: wrong field count or empty endpoint (with line number).
        DuplicateEdge: the same (src, dst) pair listed twice.
    """
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[Edge] = []
    seen: set[Edge] = set()
    signs: dict[Edge, str] = {}

    def intern(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("nodes:"):
            for name in line[len("nodes:"):].split(","):
                name = name.strip()
                if name:
                    intern(name)
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise MalformedLine(
                lineno, f"expected 2 or 3 tab-separated fields, got {len(parts)}"
            )
        src, dst = parts[0].strip(), parts[1].strip()
        if not src or not dst:
            raise MalformedLine(lineno, "empty edge endpoint")
        e = (intern(src), intern(dst))
        if e in seen:
            raise DuplicateEdge(f"line {lineno}: edge {src} -> {dst} repeated")
        seen.add(e)
        edges.append(e)
        if len(parts) == 3 and parts[2].strip():
            signs[e] = parts[2].strip()
    return labels, edges, signs

