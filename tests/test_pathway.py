"""Graph layer: ordering, cycle repair, perturbation, and edge-list parsing."""

import heapq
import itertools
import re

import numpy as np
import pytest

from dagtest.errors import (
    ConfigError,
    CycleDetected,
    DuplicateEdge,
    InsufficientNonEdges,
    MalformedLine,
    SelfLoop,
)
from dagtest.pathway import (
    EdgePerturbation,
    PathwayDag,
    acyclic_reduction,
    parse_edge_document,
    perturb_edges,
    topological_order,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def is_topological(order, edges):
    """True iff every edge points forward under `order`."""
    pos = {node: i for i, node in enumerate(order)}
    return all(pos[j] < pos[k] for j, k in edges)


def all_topological_orders(edges, p):
    """Brute-force enumeration; only usable for tiny p."""
    return [
        perm
        for perm in itertools.permutations(range(p))
        if is_topological(perm, edges)
    ]


def has_cycle(edges, p):
    """Reachability-based acyclicity check, independent of the library."""
    adj = {j: [] for j in range(p)}
    for j, k in edges:
        if j == k:
            return True
        adj[j].append(k)

    state = {}  # 1 = on stack, 2 = done

    def visit(start):
        stack = [(start, iter(adj[start]))]
        state[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state.get(nxt) == 1:
                    return True
                if nxt not in state:
                    state[nxt] = 1
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()
        return False

    return any(visit(j) for j in range(p) if j not in state)


def reference_repair(edges, p):
    """(removed, kept edges, topological order) by the repair loop that
    rebuilds and re-sorts the adjacency after every removal, with the
    cycle search that takes a start list and skips nodes outside it, and
    the heap form of Kahn's algorithm. A copy kept as the reference for
    ``acyclic_reduction``'s removal order."""

    def find_cycle_in(adj, starts):
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

    working = {(int(j), int(k)) for j, k in edges}
    removed = []
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
        cycle = find_cycle_in(adj, list(range(p)))
        if cycle is None:
            break
        cycle_edges = [
            (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
        ]
        victim = min(cycle_edges)
        working.discard(victim)
        removed.append(victim)
    in_deg = [0] * p
    for _, k in working:
        in_deg[k] += 1
    ready = [node for node in range(p) if in_deg[node] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for k in adj[node]:
            in_deg[k] -= 1
            if in_deg[k] == 0:
                heapq.heappush(ready, k)
    return removed, working, tuple(order)


def random_dag_edges(rng, p, density=0.3):
    """Random DAG: scramble node ids so the topo order is nontrivial."""
    perm = rng.permutation(p)
    edges = []
    for a in range(p):
        for b in range(a + 1, p):
            if rng.random() < density:
                edges.append((int(perm[a]), int(perm[b])))
    return edges


# ---------------------------------------------------------------------------
# topological_order
# ---------------------------------------------------------------------------

def test_topological_order_frozen_example():
    assert topological_order([(2, 0), (0, 1)], p=3) == [2, 0, 1]


def test_topological_order_is_min_lex_among_valid():
    # Min-heap Kahn yields the lexicographically smallest valid order.
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = int(rng.integers(2, 7))
        edges = random_dag_edges(rng, p, density=0.4)
        valid = all_topological_orders(edges, p)
        assert tuple(topological_order(edges, p)) == min(valid)


def test_topological_order_isolated_nodes():
    assert topological_order([], p=4) == [0, 1, 2, 3]


def test_cycle_detection_two_node():
    with pytest.raises(CycleDetected) as err:
        topological_order([(0, 1), (1, 0)], p=2)
    cycle = err.value.cycle
    assert sorted(cycle) == [0, 1]


def test_cycle_detection_reports_actual_cycle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = int(rng.integers(3, 8))
        edges = random_dag_edges(rng, p, density=0.35)
        # Close a random back edge to force one cycle.
        order = topological_order(edges, p)
        if len(edges) == 0:
            continue
        j, k = edges[int(rng.integers(len(edges)))]
        edges.append((k, j))
        with pytest.raises(CycleDetected) as err:
            topological_order(edges, p)
        cyc = err.value.cycle
        edge_set = set(edges)
        assert len(cyc) >= 2
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert (a, b) in edge_set
        # The cycle named is the one repair breaks first.
        removed = acyclic_reduction(edges, p)[1]
        assert min(zip(cyc, cyc[1:] + cyc[:1])) == removed[0]
    # The search from node 0 meets the cycle 3 -> 4 -> 3 before 1 -> 2 -> 1,
    # so repair removes (3, 4) first, and the error names that cycle.
    with pytest.raises(CycleDetected) as err:
        topological_order([(0, 3), (3, 4), (4, 3), (1, 2), (2, 1)], p=5)
    assert err.value.cycle == [3, 4]


# ---------------------------------------------------------------------------
# PathwayDag
# ---------------------------------------------------------------------------

def test_from_edges_parent_sets_and_counts():
    dag = PathwayDag.from_edges([(0, 2), (1, 2), (2, 3)], p=5)
    assert dag.p == 5
    assert dag.n_edges == 3
    assert dag.n_children == 2  # nodes 2 and 3 have parents
    assert dag.max_in_degree == 2
    by_node = dict(zip(dag.topo_order, dag.parent_sets))
    pos = {node: i for i, node in enumerate(dag.topo_order)}
    assert sorted(dag.topo_order[q] for q in by_node[2]) == [0, 1]
    assert [dag.topo_order[q] for q in by_node[3]] == [2]
    assert by_node[4] == ()
    assert all(q < pos[2] for q in by_node[2])
    # Order and parent sets are derived from the edges alone: any edge order
    # and the plain constructor give the same dag, and neither can be passed.
    for edges in ([(2, 3), (1, 2), (0, 2)], iter([(1, 2), (2, 3), (0, 2)])):
        other = PathwayDag.from_edges(edges, p=5)
        assert other == dag
        assert other.topo_order == dag.topo_order
        assert other.parent_sets == dag.parent_sets
    assert PathwayDag(p=5, edges=dag.edges, node_labels=None) == dag
    for derived in ("topo_order", "parent_sets"):
        with pytest.raises(TypeError):
            PathwayDag(p=5, edges=dag.edges, node_labels=None, **{derived: ()})
    # A dag with edge signs hashes; equality still compares the signs.
    signed = [
        PathwayDag.from_edges([(0, 1)], 2, edge_signs={(0, 1): sign})
        for sign in ("+", "+", "-")
    ]
    assert hash(signed[0]) == hash(signed[1])
    assert signed[0] == signed[1]
    assert signed[0] != signed[2]
    assert len(set(signed)) == 2


def test_fit_plan_matches_parent_sets_and_is_read_only():
    # Shuffled labels, so positions and original indices differ.
    rng = np.random.default_rng(7)
    order = rng.permutation(12)
    edges = [
        (int(order[i]), int(order[k]))
        for k in range(1, 12)
        for i in rng.choice(k, size=min(k, int(rng.integers(0, 4))), replace=False)
    ]
    for dag in (
        PathwayDag.from_edges(edges, p=12),
        PathwayDag.from_edges([], p=3),
        PathwayDag.from_edges([], p=0),
    ):
        sizes = [len(s) for s in dag.parent_sets]
        assert dag.topo_index.dtype == np.intp
        assert dag.topo_index.tolist() == list(dag.topo_order)
        assert dag.in_degrees.tolist() == sizes
        parents, children = dag.support
        assert list(zip(children.tolist(), parents.tolist())) == [
            (k, j) for k, s in enumerate(dag.parent_sets) for j in s
        ]
        # Groups in order of first appearance, positions ascending.
        assert list(dag.parent_groups) == list(dict.fromkeys(sizes))
        for k, (positions, columns) in dag.parent_groups.items():
            assert positions.tolist() == [i for i, m in enumerate(sizes) if m == k]
            assert columns.shape == (len(positions), k + 1)
            assert [tuple(row) for row in columns.tolist()] == [
                (*dag.parent_sets[i], i) for i in positions.tolist()
            ]
        assert dag.n_children == sum(1 for m in sizes if m)
        assert dag.max_in_degree == max(sizes, default=0)
        assert type(dag.n_children) is int and type(dag.max_in_degree) is int
        # One gather for every group's blocks; the nodes of two or more
        # parents, and where each of their coefficients lands in the p × p
        # coefficient matrix.
        gather, multi, target = dag.group_index
        groups = dag.parent_groups.items()
        assert gather.tolist() == [
            dag.topo_order[i] for _, (_, c) in groups for i in c.ravel().tolist()
        ]
        assert multi.tolist() == [
            i for k, (positions, _) in groups if k >= 2 for i in positions.tolist()
        ]
        assert target.tolist() == [
            parent * dag.p + pos
            for pos in multi.tolist()
            for parent in dag.parent_sets[pos]
        ]
        arrays = [dag.topo_index, dag.in_degrees, *dag.support, *dag.group_index]
        arrays += [a for group in dag.parent_groups.values() for a in group]
        for a in arrays:
            assert not a.flags.writeable
            if a.size:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0


def test_from_edges_rejects_self_loop_and_range():
    with pytest.raises(SelfLoop):
        PathwayDag.from_edges([(1, 1)], p=3)
    with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range for p=3"):
        PathwayDag.from_edges([(0, 3)], p=3)
    with pytest.raises(ValueError, match="p must be nonnegative"):
        PathwayDag.from_edges([], p=-1)
    with pytest.raises(ValueError, match="node_labels length must equal p"):
        PathwayDag.from_edges([(0, 1)], p=3, labels=["A", "B"])


@pytest.mark.parametrize(
    "entry",
    [
        lambda edges, p: PathwayDag.from_edges(edges, p),
        topological_order,
        acyclic_reduction,
    ],
    ids=["PathwayDag", "topological_order", "acyclic_reduction"],
)
@pytest.mark.parametrize(
    "edges, named",
    [
        ([(-1, 0)], "(-1, 0)"),
        ([(5, 0)], "(5, 0)"),
        ([(0, 2)], "(0, 2)"),
        ([(5, 5)], "(5, 5)"),  # out of range before it is a self-loop
        ([(0, 1), (1, 7), (-3, 1), (6, 0)], "(-3, 1)"),  # the smallest
    ],
    ids=["negative", "past-p", "at-p", "self-loop-past-p", "several"],
)
def test_every_entry_point_refuses_an_edge_out_of_range(entry, edges, named):
    # One range rule, one message: the smallest offending edge is named, as
    # PathwayDag names it.
    with pytest.raises(ValueError, match=rf"^edge {re.escape(named)} out of range for p=2$"):
        entry(edges, 2)


def test_dag_reports_whichever_of_range_and_self_loop_sorts_first():
    with pytest.raises(ValueError, match=r"edge \(0, 5\) out of range"):
        PathwayDag.from_edges([(1, 1), (0, 5)], p=2)
    with pytest.raises(SelfLoop, match="self-loop at node 0"):
        PathwayDag.from_edges([(0, 0), (1, 5)], p=2)
    # acyclic_reduction drops an in-range self-loop and still refuses the
    # out-of-range edge.
    with pytest.raises(ValueError, match=r"edge \(1, 5\) out of range"):
        acyclic_reduction([(0, 0), (1, 5)], p=2)


# ---------------------------------------------------------------------------
# acyclic_reduction
# ---------------------------------------------------------------------------

def test_reduction_two_cycle_removes_smaller_edge():
    dag, removed = acyclic_reduction([(0, 1), (1, 0)], p=2)
    assert removed == [(0, 1)]
    assert dag.edges == frozenset({(1, 0)})


def test_reduction_strips_self_loops_first():
    dag, removed = acyclic_reduction([(1, 1), (0, 1)], p=2)
    assert removed == [(1, 1)]
    assert dag.edges == frozenset({(0, 1)})


def test_reduction_noop_on_dag():
    edges = [(0, 1), (1, 2), (0, 2)]
    dag, removed = acyclic_reduction(edges, p=3)
    assert removed == []
    assert dag.edges == frozenset(edges)


def random_digraph(rng, p):
    """A random subset of all p² pairs, self-loops included."""
    n_edges = int(rng.integers(0, p * p))
    pool = [(a, b) for a in range(p) for b in range(p)]
    picks = rng.choice(len(pool), size=min(n_edges, len(pool)), replace=False)
    return [pool[i] for i in picks]


def test_reduction_properties_random_digraphs():
    rng = np.random.default_rng(37)
    corpus = []
    for _ in range(60):
        p = int(rng.integers(2, 9))
        corpus.append((p, random_digraph(rng, p)))
    # Graphs of up to 12 nodes, kept when they hold a self-loop and need at
    # least two cycle edges removed: there the removal order has choices.
    while len(corpus) < 460:
        p = int(rng.integers(3, 13))
        edges = random_digraph(rng, p)
        removed = reference_repair(edges, p)[0]
        n_loops = sum(j == k for j, k in removed)
        if n_loops and len(removed) - n_loops >= 2:
            corpus.append((p, edges))
    for p, edges in corpus:
        dag, removed = acyclic_reduction(edges, p)
        ref_removed, ref_kept, ref_order = reference_repair(edges, p)
        assert removed == ref_removed
        assert dag.edges == ref_kept
        assert dag.topo_order == ref_order
        # Partition: every input edge is either kept or removed, never both.
        assert dag.edges | set(removed) == set(edges)
        assert not (dag.edges & set(removed))
        assert not has_cycle(dag.edges, p)
        # Idempotence: reducing the repaired graph removes nothing.
        dag2, removed2 = acyclic_reduction(sorted(dag.edges), p)
        assert removed2 == []
        assert dag2.edges == dag.edges


# ---------------------------------------------------------------------------
# perturb_edges
# ---------------------------------------------------------------------------

def chain_dag(p):
    return PathwayDag.from_edges([(j, j + 1) for j in range(p - 1)], p=p)


def test_perturb_none_is_identity():
    dag = chain_dag(6)
    out = perturb_edges(dag, EdgePerturbation())
    assert out.edges == dag.edges


def test_perturb_missing_counts_and_subset():
    dag = chain_dag(11)  # 10 edges
    for fraction, expect in [(0.4, 4), (0.25, 3), (0.24, 2)]:
        out = perturb_edges(
            dag, EdgePerturbation("missing", fraction), rng=np.random.default_rng(5)
        )
        assert out.edges < dag.edges
        assert out.n_edges == dag.n_edges - expect


def test_perturb_redundant_superset_and_acyclic():
    rng = np.random.default_rng(71)
    for _ in range(30):
        p = int(rng.integers(3, 10))
        edges = random_dag_edges(rng, p, density=0.3)
        if not edges:
            continue
        dag = PathwayDag.from_edges(edges, p=p)
        out = perturb_edges(
            dag, EdgePerturbation("redundant", 0.4), rng=np.random.default_rng(6)
        )
        added = len(out.edges) - len(dag.edges)
        assert added == int(np.floor(0.4 * dag.n_edges + 0.5))
        assert out.edges > dag.edges or added == 0
        assert not has_cycle(out.edges, p)


def test_perturb_redundant_exhausted_candidates():
    # Complete DAG on 3 nodes has no room for extra edges.
    dag = PathwayDag.from_edges([(0, 1), (0, 2), (1, 2)], p=3)
    with pytest.raises(InsufficientNonEdges):
        perturb_edges(dag, EdgePerturbation("redundant", 0.5))


def test_perturb_seed_reproducible():
    dag = chain_dag(12)
    pert = EdgePerturbation("missing", 0.3, seed=99)
    assert perturb_edges(dag, pert).edges == perturb_edges(dag, pert).edges


def test_perturbation_validation():
    # Each field fails at its own path in a simulation config.
    with pytest.raises(ConfigError) as err:
        EdgePerturbation("typo", 0.1)
    assert err.value.path == "/perturbation/mode"
    for fraction in (1.0, "0.1", True):
        with pytest.raises(ConfigError) as err:
            EdgePerturbation("missing", fraction)
        assert err.value.path == "/perturbation/fraction"
    for seed in (-1, True, "3", 2.5):
        with pytest.raises(ConfigError) as err:
            EdgePerturbation("missing", 0.2, seed=seed)
        assert err.value.path == "/perturbation/seed"
    back = EdgePerturbation(**EdgePerturbation("redundant", 0.4, seed=3).to_dict())
    assert back == EdgePerturbation("redundant", 0.4, seed=3)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

PATHWAY_DOC = """\
nodes: EGFR, KRAS, ORPHAN

EGFR\tKRAS\tactivates
KRAS\tMAPK1
MAPK1\tJUN\tinhibits
"""


def test_parse_edge_document_fixture():
    labels, edges, signs = parse_edge_document(PATHWAY_DOC)
    assert labels == ["EGFR", "KRAS", "ORPHAN", "MAPK1", "JUN"]
    assert edges == [(0, 1), (1, 3), (3, 4)]
    assert signs == {(0, 1): "activates", (3, 4): "inhibits"}


def test_parse_edge_document_malformed_line_number():
    with pytest.raises(MalformedLine) as err:
        parse_edge_document("A\tB\n\nA B C D\n")
    assert err.value.lineno == 3


def test_parse_edge_document_empty_endpoint():
    # A line's outer whitespace is stripped, so "A\t" is a one-field line;
    # an endpoint is empty only between two tabs.
    with pytest.raises(MalformedLine, match="^line 1: expected 2 or 3"):
        parse_edge_document("A\t\n")
    with pytest.raises(MalformedLine, match="^line 2: empty edge endpoint$"):
        parse_edge_document("A\tB\nA\t \tactivates\n")


def test_parse_edge_document_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        parse_edge_document("A\tB\nB\tC\nA\tB\n")


def test_parse_edge_document_keeps_cycles():
    labels, edges, _ = parse_edge_document("A\tB\nB\tA\n")
    assert edges == [(0, 1), (1, 0)]
