"""Child-process side of the benchmark: library loops and the traced replay.

Run as ``python3 bench/replay.py <mode> ...`` in a fresh interpreter whose
environment fixes the BLAS thread count. Modes:

* ``highdim NPZ SECONDS MIN_OPS OUT``: the untraced `highdim_library` loop.
  Set-up (import dagtest, load the arrays, build every dag) ends with a
  ``SETUP_MARK`` line on stderr, which the parent times.
* ``trace BATCH_DIR NPZ SIM_CONFIG SIZES_JSON OUT``: replay all three
  workloads through the public functions the CLI calls, with a span around
  each call.

Results go to OUT as JSON; spans are kept in memory until the end.
"""

from __future__ import annotations

import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import inputs  # noqa: E402
from oracle import ORACLE_DATASETS  # noqa: E402

HIGHDIM_METHODS = ("t2dag_chi2", "t2dag_z", "bai_saranadasa", "chen_qin")
# Printed to stderr, with the monotonic clock, once set-up is done.
SETUP_MARK = "bench-setup-done"
WARMUP_OPS = 5


def _build_dags(edge_arrays, p):
    from dagtest import PathwayDag

    return [PathwayDag.from_edges(map(tuple, e.tolist()), p) for e in edge_arrays]


def highdim_op(X1, X2, dag):
    """One `highdim_library` analysis, exactly as a library user writes it."""
    from dagtest import GroupedSample, baseline, t2dag

    sample = GroupedSample.from_groups(X1, X2)
    chi2_res, z_res = t2dag(sample, dag)
    bs = baseline(sample, "bai_saranadasa", dag=dag)
    cq = baseline(sample, "chen_qin", dag=dag)
    return (chi2_res, z_res, bs, cq)


def run_highdim(npz: str, seconds: float, min_ops: int) -> dict:
    """The timed loop. After each analysis the reference kernel is timed
    too, so the parent can express the loop in reference seconds."""
    from dagtest.errors import DagTestError

    X1, X2, edges = inputs.load_highdim(Path(npz))
    dags = _build_dags(edges, X1.shape[2])
    print(SETUP_MARK, time.clock_gettime(time.CLOCK_MONOTONIC), file=sys.stderr, flush=True)
    K = len(dags)
    for k in range(WARMUP_OPS):
        highdim_op(X1[k % K], X2[k % K], dags[k % K])
        calibrate.timed_kernel()
    walls, cpus, kernels, stats = [], [], [], {}
    failed = 0
    start = time.perf_counter()
    while len(walls) < min_ops or time.perf_counter() - start < seconds:
        k = len(walls) % K
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            results = highdim_op(X1[k], X2[k], dags[k])
        except DagTestError:
            failed += len(HIGHDIM_METHODS)
            results = ()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        kernels.append(calibrate.timed_kernel())
        if k < ORACLE_DATASETS and str(k) not in stats and results:
            stats[str(k)] = {r.method: r.statistic for r in results}
    return {
        "walls": walls,
        "cpus": cpus,
        "kernels": kernels,
        "attempted": len(walls) * len(HIGHDIM_METHODS),
        "failed": failed,
        "stats": stats,
    }


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Spans in memory: [name, item, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, item: str):
        return _Span(self, name, item)


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: Tracer, name: str, item: str):
        parent = tracer._stack[-1] if tracer._stack else -1
        self.tracer = tracer
        self.index = len(tracer.spans)
        tracer.spans.append([name, item, 0.0, 0.0, parent])

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][3] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Replay:
    """Traced replay of every workload, plus the counts the layers report."""

    def __init__(self):
        import dagtest

        self.dt = dagtest
        self.tracer = Tracer()
        self.counts = {
            "cycle_edges_removed": 0,
            "nodes_fit": 0,
            "fit_failures": 0,
            "replicates": 0,
            "method_failures": dict.fromkeys(dagtest.METHODS, 0),
            "attempted": 0,
        }
        self.stats: dict[str, dict] = {}
        self.results_for_p_value: list = []

    def span(self, name, item):
        return self.tracer.span(name, item)

    def _fit(self, sample, dag, item):
        """fit_sem, then the DAG pair from that estimate, as `t2dag` does."""
        dt = self.dt
        self.counts["attempted"] += 2
        try:
            with self.span("sem.fit_sem", item):
                est = dt.fit_sem(sample, dag)
        except dt.errors.DagTestError:
            self.counts["fit_failures"] += 1
            self.counts["method_failures"]["t2dag_chi2"] += 1
            self.counts["method_failures"]["t2dag_z"] += 1
            return []
        self.counts["nodes_fit"] += dag.p
        with self.span("mean_tests.t2dag", item):
            pair = dt.t2dag(sample, dag, estimate=est)
        return list(pair)

    def _method(self, method, item, call):
        self.counts["attempted"] += 1
        try:
            with self.span(f"mean_tests.{method}", item):
                return [call()]
        except self.dt.errors.DagTestError:
            self.counts["method_failures"][method] += 1
            return []

    def _analyze(self, sample, dag, item, with_hotelling: bool) -> list:
        """Every method the workload runs, each failure tallied per method."""
        dt = self.dt
        calls = [("hotelling", partial(dt.hotelling, sample, dag=dag))] if with_hotelling else []
        calls += [
            (which, partial(dt.baseline, sample, which, dag=dag))
            for which in ("bai_saranadasa", "chen_qin")
        ]
        results = self._fit(sample, dag, item)
        for method, call in calls:
            results += self._method(method, item, call)
        return results

    def _fit_nodes(self, sample, dag, item):
        """Each node fit on its own, in the order `fit_sem` visits them."""
        topo = sample.reorder_columns(dag.topo_order)
        for pos, parents in enumerate(dag.parent_sets):
            with self.span("sem.fit_node", item):
                self.dt.fit_node(topo, pos, parents)

    # -- batch_wide ----------------------------------------------------------

    def batch(self, batch_dir: Path, fit_node_items: int) -> None:
        dt = self.dt
        with self.span("data_io.load_expression", "batch"):
            sample, gene_index = dt.load_expression(str(batch_dir / "expression.csv"))
        outcomes = []
        for idx, path in enumerate(sorted((batch_dir / "pathways").glob("*.tsv"))):
            item = f"batch:{path.stem}"
            with self.span("bench.pathway", item):
                text = path.read_text()
                with self.span("pathway.parse_edge_document", item):
                    labels, edges, signs = dt.parse_edge_document(text)
                with self.span("pathway.acyclic_reduction", item):
                    dag, removed = dt.acyclic_reduction(
                        edges, p=len(labels), labels=labels, edge_signs=signs
                    )
                self.counts["cycle_edges_removed"] += len(removed)
                with self.span("data_io.align_pathway", item):
                    aligned, dropped = dt.align_pathway(dag, gene_index)
                with self.span("sem.grouped_sample", item):
                    cols = [gene_index[lab] for lab in aligned.node_labels]
                    sub = dt.GroupedSample(
                        X=sample.X[:, cols], g=sample.g, n1=sample.n1, n2=sample.n2
                    )
                results = self._analyze(sub, aligned, item, with_hotelling=True)
                if idx < fit_node_items:
                    self._fit_nodes(sub, aligned, item)
                self.results_for_p_value += results
                self.stats[item] = {r.method: r.statistic for r in results}
                outcomes.append(
                    {
                        "name": path.stem,
                        "p": aligned.p,
                        "removed_cycle_edges": [[labels[j], labels[k]] for j, k in removed],
                        "dropped_genes": list(dropped),
                        "results": [r.to_dict() for r in results],
                    }
                )
        with self.span("data_io.dump_json", "batch"):
            dt.data_io.dump_json({"pathways": outcomes})

    # -- simulate_grid -------------------------------------------------------

    def simulate(self, config_path: Path, replicates: int, fit_node_items: int) -> None:
        dt = self.dt
        doc = json.loads(config_path.read_text())
        deltas = doc.pop("delta_grid")
        base = dt.SimConfig.from_dict(doc)
        for r in range(replicates):
            cfg = dt.SimConfig.from_dict(dict(doc, delta=deltas[r % len(deltas)]))
            item = f"sim:{r}"
            with self.span("bench.replicate", item):
                with self.span("simulate.gen_dataset", item):
                    sample, _true_dag, used_dag, _model = dt.gen_dataset(cfg, r)
                self._generator_steps(base, r, item)
                self.counts["replicates"] += 1
                results = self._analyze(sample, used_dag, item, with_hotelling=True)
                if r < fit_node_items:
                    self._fit_nodes(sample, used_dag, item)
                self.results_for_p_value += results

    def _generator_steps(self, cfg, r, item) -> None:
        """`gen_dataset`'s sub-steps again, as siblings on the same streams."""
        dt = self.dt
        # Substream numbers follow the generator's documented order:
        # adjacency, coefficients, errors.
        with self.span("simulate.gen_adjacency", item):
            dag = dt.gen_adjacency(
                cfg.p, cfg.p0_fraction, cfg.nb_failures, cfg.nb_success,
                dt.stream_rng(cfg.seed, r, 0),
            )
        with self.span("simulate.gen_coefficients", item):
            Q = dt.gen_coefficients(dag, cfg.kappa, dt.stream_rng(cfg.seed, r, 1))
        R = np.full(cfg.p, cfg.r0)
        with self.span("simulate.gen_errors", item):
            dt.gen_errors(cfg.error_family, R, cfg.n1 + cfg.n2, dt.stream_rng(cfg.seed, r, 2))
        with self.span("divergence.population_model", item):
            dt.PopulationModel(mu1=np.zeros(cfg.p), mu2=np.zeros(cfg.p), Q=Q, R=R)

    # -- highdim_library -----------------------------------------------------

    def highdim(self, npz: Path, pairs: int, fit_node_items: int) -> dict:
        """Set-up, then pairs of one untraced and one traced analysis of the
        same dataset, in alternating order; the difference between the two
        sides is what recording spans costs."""
        dt = self.dt
        X1, X2, edges = inputs.load_highdim(npz)
        K, p = X1.shape[0], X1.shape[2]
        t0 = time.perf_counter()
        dags = []
        for k in range(K):
            with self.span("pathway.from_edges", f"highdim:{k}"):
                dags.append(dt.PathwayDag.from_edges(map(tuple, edges[k].tolist()), p))
        traced_wall = time.perf_counter() - t0
        for k in range(WARMUP_OPS):
            highdim_op(X1[k % K], X2[k % K], dags[k % K])

        def untraced_op(k):
            sample = dt.GroupedSample.from_groups(X1[k], X2[k])
            est = dt.fit_sem(sample, dags[k])
            dt.t2dag(sample, dags[k], estimate=est)
            dt.baseline(sample, "bai_saranadasa", dag=dags[k])
            dt.baseline(sample, "chen_qin", dag=dags[k])

        def traced_op(k, item):
            with self.span("bench.analysis", item):
                with self.span("sem.grouped_sample", item):
                    sample = dt.GroupedSample.from_groups(X1[k], X2[k])
                return self._analyze(sample, dags[k], item, with_hotelling=False)

        untraced = traced = 0.0
        for pair in range(pairs):
            k = pair % K
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                if side:
                    results = traced_op(k, f"highdim:{k}:{pair}")
                    traced += time.perf_counter() - t0
                else:
                    untraced_op(k)
                    untraced += time.perf_counter() - t0
            if f"highdim:{k}" not in self.stats:
                self.stats[f"highdim:{k}"] = {r.method: r.statistic for r in results}
                self.results_for_p_value += results
        t0 = time.perf_counter()
        for k in range(min(fit_node_items, K)):
            sample = dt.GroupedSample.from_groups(X1[k], X2[k])
            self._fit_nodes(sample, dags[k], f"highdim:{k}")
        traced_wall += traced + time.perf_counter() - t0
        return {"untraced_s": untraced, "traced_s": traced, "traced_wall": traced_wall}

    def reference_p_values(self) -> None:
        for res in self.results_for_p_value:
            with self.span("mean_tests.reference_p_value", "p_value"):
                self.dt.reference_p_value(res.statistic, res.reference)


def run_trace(batch_dir: str, npz: str, sim_config: str, sizes: dict) -> dict:
    replay = Replay()
    walls = {}
    t0 = time.perf_counter()
    replay.batch(Path(batch_dir), sizes["fit_node_items"])
    walls["batch"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    replay.simulate(Path(sim_config), sizes["sim_replicates"], sizes["fit_node_items"])
    walls["sim"] = time.perf_counter() - t0
    overhead = replay.highdim(Path(npz), sizes["highdim_pairs"], sizes["fit_node_items"])
    walls["highdim"] = overhead.pop("traced_wall")
    t0 = time.perf_counter()
    replay.reference_p_values()
    walls["p_value"] = time.perf_counter() - t0
    return {
        "spans": replay.tracer.spans,
        "counts": replay.counts,
        "stats": replay.stats,
        "walls": walls,
        "overhead": overhead,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "highdim":
        out = run_highdim(argv[1], float(argv[2]), int(argv[3]))
        Path(argv[4]).write_text(json.dumps(out))
        return 0
    if mode == "trace":
        sizes = json.loads(argv[4])
        out = run_trace(argv[1], argv[2], argv[3], sizes)
        Path(argv[5]).write_text(json.dumps(out))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
