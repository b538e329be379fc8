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
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    CycleDetected,
    DuplicateEdge,
    InsufficientNonEdges,
    MalformedLine,
    SelfLoop,
    _is_int,
    _is_number,
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

    The graph is its edges: the topological order and the parent sets are
    derived from ``p`` and ``edges`` on construction and cannot be passed in.
    The fit plan (``topo_index``, ``in_degrees``, ``parent_groups``,
    ``support``) and the counts built on it are derived from them on first
    use, once per dag; they are not fields, so equality, hashing and the
    repr ignore them. Their arrays are read-only, so threads can share a dag.

    Attributes:
        p: number of nodes (genes).
        edges: directed edges ``(j, k)`` meaning j -> k, in original indices.
        node_labels: optional gene identifiers, length ``p``.
        edge_signs: optional activation/inhibition annotations keyed by edge;
            carried as metadata only, never used by the estimator.
        topo_order: derived; ``topo_order[position] = original index``, the
            order of :func:`topological_order`, so every edge points from a
            smaller position to a larger one.
        parent_sets: derived; per topological position, the sorted tuple of
            parent positions.

    Raises:
        ValueError: an edge index out of range, a negative ``p``, or
            ``node_labels`` of another length than ``p``.
        SelfLoop: if any edge is of the form (j, j).
        CycleDetected: if the graph has a directed cycle.
    """

    p: int
    edges: frozenset[Edge]
    node_labels: tuple[str, ...] | None
    edge_signs: Mapping[Edge, str] | None = field(default=None, hash=False)
    topo_order: tuple[int, ...] = field(init=False)
    parent_sets: tuple[tuple[int, ...], ...] = field(init=False)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        p: int,
        labels: Sequence[str] | None = None,
        edge_signs: Mapping[Edge, str] | None = None,
    ) -> "PathwayDag":
        """Build a dag from any iterable of edges, normalised to a frozenset
        of int pairs, with the labels as a tuple and the signs as a dict."""
        return cls(
            p=p,
            edges=frozenset((int(j), int(k)) for j, k in edges),
            node_labels=tuple(labels) if labels is not None else None,
            edge_signs=dict(edge_signs) if edge_signs else None,
        )

    def __post_init__(self):
        p = self.p
        _check_edges(self.edges, p, self_loops=True)
        order = topological_order(self.edges, p)
        if p < 0:
            raise ValueError("p must be nonnegative")
        if self.node_labels is not None and len(self.node_labels) != p:
            raise ValueError("node_labels length must equal p")
        position = {node: pos for pos, node in enumerate(order)}
        parents: list[list[int]] = [[] for _ in range(p)]
        for j, k in self.edges:
            parents[position[k]].append(position[j])
        object.__setattr__(self, "topo_order", tuple(order))
        object.__setattr__(
            self, "parent_sets", tuple(tuple(sorted(s)) for s in parents)
        )

    # -- derived on first use -------------------------------------------------

    @cached_property
    def in_degrees(self) -> np.ndarray:
        """Parent-set size per topological position; read-only."""
        return _read_only(np.fromiter(map(len, self.parent_sets), np.intp, self.p))

    @cached_property
    def topo_index(self) -> np.ndarray:
        """``topo_order`` as a read-only index array: gathering with it
        converts no list per call."""
        return _read_only(np.fromiter(self.topo_order, np.intp, self.p))

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(parent positions, child positions) of every edge, read-only, in
        the order of ``parent_sets``: by child, then by parent."""
        parents = chain.from_iterable(self.parent_sets)
        return (
            _read_only(np.fromiter(parents, np.intp, self.n_edges)),
            _read_only(np.repeat(np.arange(self.p), self.in_degrees)),
        )

    @cached_property
    def parent_groups(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """{k: (positions, columns)} over the parent counts k, in order of
        first appearance: ``positions`` (m,) are the ascending positions with
        k parents, and row i of ``columns`` (m, k+1) is the parent set of
        ``positions[i]`` followed by ``positions[i]`` itself, the gather
        index of that node's augmented fit block. Read-only; ``fit_sem`` fits
        one group per call."""
        parent_sets = self.parent_sets
        groups: dict[int, list[int]] = {}
        for pos, parents in enumerate(parent_sets):
            groups.setdefault(len(parents), []).append(pos)
        return {
            k: (
                _read_only(np.array(positions, np.intp)),
                _read_only(
                    np.array([(*parent_sets[pos], pos) for pos in positions], np.intp)
                ),
            )
            for k, positions in groups.items()
        }

    @property
    def n_edges(self) -> int:
        """Ne, the number of directed edges."""
        return len(self.edges)

    @cached_property
    def n_children(self) -> int:
        """p0, the number of nodes with at least one parent."""
        return int(np.count_nonzero(self.in_degrees))

    @cached_property
    def max_in_degree(self) -> int:
        """d, the largest parent-set size."""
        return int(self.in_degrees.max(initial=0))

    def label_of(self, node: int) -> str:
        return self.node_labels[node] if self.node_labels else str(node)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# Ordering and cycle handling
# ---------------------------------------------------------------------------

def _check_edges(edges: Iterable[Edge], p: int, self_loops: bool = False) -> None:
    """Raise for the smallest edge (j, k) with an end outside 0..p−1 or,
    when ``self_loops`` is set, with j == k: ValueError for the first kind,
    SelfLoop for the second.

    The one range rule for edges, which ``PathwayDag``,
    ``topological_order`` and ``acyclic_reduction`` share. Only the failing
    edges are sorted.
    """
    bad = [
        (j, k)
        for j, k in edges
        if not (0 <= j < p and 0 <= k < p) or self_loops and j == k
    ]
    if bad:
        j, k = min(bad)
        if j == k and 0 <= j < p:
            raise SelfLoop(f"self-loop at node {j}")
        raise ValueError(f"edge ({j}, {k}) out of range for p={p}")


def topological_order(edges: Iterable[Edge], p: int) -> list[int]:
    """Order nodes so that every edge points forward.

    Uses Kahn's algorithm with a min-heap so ties are broken by ascending
    original index, making the result deterministic: an edgeless graph maps to
    ``[0, 1, ..., p-1]``.

    Raises:
        ValueError: an edge index outside 0..p−1.
        CycleDetected: carrying the node list of the first cycle that a
            depth-first search finds, with nodes and successors in ascending
            order. On a graph without self-loops, ``acyclic_reduction``
            removes this cycle's smallest edge first.
    """
    edges = set(edges)
    _check_edges(edges, p)
    succ: list[list[int]] = [[] for _ in range(p)]
    in_deg = [0] * p
    for j, k in edges:
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
        raise CycleDetected(_find_cycle([sorted(s) for s in succ]))
    return order


def _find_cycle(adj: Sequence[Sequence[int]]) -> list[int] | None:
    """The node list of the first cycle a depth-first search finds, or None
    when the graph has none.

    ``adj[u]`` lists the successors of node u in ascending order. The search
    starts nodes in ascending order and visits successors in that order, so
    the cycle found is deterministic.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(adj)
    for start in range(len(adj)):
        if color[start] != WHITE:
            continue
        path = [start]
        stack = [iter(adj[start])]
        color[start] = GRAY
        while stack:
            for nxt in stack[-1]:
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append(iter(adj[nxt]))
                    break
                if color[nxt] == GRAY:
                    return path[path.index(nxt):]
            else:  # no successor left to visit: the node is done
                color[path.pop()] = BLACK
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
    remains, the first cycle a depth-first search finds (nodes and successors
    visited in ascending order) loses its lexicographically smallest edge —
    minimum source index, then minimum target index. The rule is a
    documented convention chosen for determinism; curated pathways rarely have
    more than a couple of feedback loops, so the choice is low-impact.

    Returns:
        (dag, removed): the repaired dag and the deleted edges in removal
        order; the dag itself does not keep them. Idempotent: running it on
        a DAG returns the graph unchanged and no removed edges.

    Raises:
        ValueError: an edge index outside 0..p−1, self-loops included.
    """
    working = {(int(j), int(k)) for j, k in edges}
    _check_edges(working, p)
    removed: list[Edge] = sorted((j, k) for j, k in working if j == k)
    adj: list[list[int]] = [[] for _ in range(p)]
    for j, k in working:
        if j != k:
            adj[j].append(k)
    for successors in adj:
        successors.sort()
    while (cycle := _find_cycle(adj)) is not None:
        victim = min(zip(cycle, cycle[1:] + cycle[:1]))
        adj[victim[0]].remove(victim[1])
        removed.append(victim)
    working.difference_update(removed)
    signs = None
    if edge_signs:
        signs = {e: s for e, s in edge_signs.items() if e in working}
    return (
        PathwayDag.from_edges(working, p, labels=labels, edge_signs=signs),
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
        seed: None, which draws fresh entropy, or a nonnegative integer.

    Raises:
        ConfigError: at ``/perturbation/mode``, ``/perturbation/fraction`` or
            ``/perturbation/seed``, the paths of these fields in a simulation
            config.
    """

    mode: str = "none"
    fraction: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("none", "missing", "redundant"):
            raise ConfigError("/perturbation/mode", f"unknown mode {self.mode!r}")
        if not (_is_number(self.fraction) and 0.0 <= self.fraction < 1.0):
            raise ConfigError("/perturbation/fraction", "must lie in [0, 1)")
        if not (self.seed is None or (_is_int(self.seed) and self.seed >= 0)):
            raise ConfigError(
                "/perturbation/seed", "null or nonnegative integer required"
            )
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
        # The line is stripped, so its first field is never empty.
        if not dst:
            raise MalformedLine(lineno, "empty edge endpoint")
        e = (intern(src), intern(dst))
        if e in seen:
            raise DuplicateEdge(f"line {lineno}: edge {src} -> {dst} repeated")
        seen.add(e)
        edges.append(e)
        if len(parts) == 3 and parts[2].strip():
            signs[e] = parts[2].strip()
    return labels, edges, signs

