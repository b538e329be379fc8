"""Command-line front end: ``dagtest test | batch | simulate``.

Each command parses its flags, calls the library and prints. ``test`` and
``batch`` share one pipeline: ``_analyze_pathway`` turns a pathway file into
its report entry (parse, repair cycles, align to the measured genes, run the
methods), and ``_decide`` rejects at the Bonferroni threshold alpha/H, where H
counts the pathways that produced at least one result (for ``test``, H = 1).
``batch`` runs it over a directory in a worker pool, where a file that fails
fails alone. ``simulate`` reads its JSON config with
``simulate.read_config_document`` and writes CSV and JSON tables. Reports
written with ``--out`` have stable bytes.

Exit status: 0 when at least one result was produced, 1 when none were,
2 for usage/config/input errors.

BLAS threads: a process that imports this module before numpy runs with one
BLAS thread, unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set in
its environment, in which case both are left as the user set them. Extra BLAS
threads shorten no analysis at pathway sizes, cost CPU, oversubscribe the
cores under ``--threads N`` and change the last bits of reduction-heavy
statistics, so reports would depend on the core count.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path
from typing import Mapping

# BLAS reads these once, when numpy (or scipy) loads its OpenBLAS, which is
# the only point at which both bundled copies can be reached.
if "numpy" not in sys.modules and not (
    {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys()
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"

from .data_io import (  # noqa: E402
    align_pathway,
    csv_text,
    dump_json,
    load_expression,
    log2_shift_transform,
    read_text,
)
from .errors import ConfigError, DagTestError  # noqa: E402
from .mean_tests import (  # noqa: E402
    METHODS,
    map_in_order,
    method_families,
    run_methods,
)
from .pathway import acyclic_reduction, parse_edge_document  # noqa: E402
from .sem import GroupedSample  # noqa: E402
from .simulate import (  # noqa: E402
    MethodSummary,
    read_config_document,
    run_delta_grid,
)


def _parse_methods(text: str) -> tuple[str, ...]:
    if text.strip() == "all":
        return METHODS
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    if not methods:
        raise ValueError("no methods given")
    method_families(methods)
    return methods


def _maybe_log2(sample: GroupedSample, flag: bool) -> GroupedSample:
    if not flag:
        return sample
    return replace(sample, X=log2_shift_transform(sample.X))


def _analyze_pathway(
    sample: GroupedSample, gene_index: Mapping[str, int], path, methods
) -> dict:
    """The report entry of one pathway file: parsed, its cycles broken, its
    genes aligned to the measured ones, and ``methods`` run on them."""
    labels, edges, signs = parse_edge_document(read_text(path))
    dag, removed = acyclic_reduction(
        edges, p=len(labels), labels=labels, edge_signs=signs
    )
    aligned, dropped = align_pathway(dag, gene_index)
    sub = sample.reorder_columns([gene_index[lab] for lab in aligned.node_labels])
    results, errors = run_methods(sub, aligned, methods)
    return {
        "file": str(path),
        "p": aligned.p,
        "p0": aligned.n_children,
        "d": aligned.max_in_degree,
        "Ne": aligned.n_edges,
        "removed_cycle_edges": [[labels[j], labels[k]] for j, k in removed],
        "dropped_genes": list(dropped),
        "n1": sub.n1,
        "n2": sub.n2,
        "results": [r.to_dict() for r in results],
        "errors": errors,
    }


def _decide(entries: list[dict], alpha: float) -> float | None:
    """Give each entry its decisions at the Bonferroni threshold alpha/H.

    H counts the entries with at least one result, and is the family of each
    method: where a method failed on one of them, that test counts toward H
    unrejected. Returns the threshold, or None when H is 0.
    """
    n_analyzed = sum(1 for entry in entries if entry["results"])
    threshold = alpha / n_analyzed if n_analyzed else None
    for entry in entries:
        entry["decisions"] = {
            r["method"]: r["p_value"] <= threshold for r in entry["results"]
        }
    return threshold


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_test(args) -> int:
    methods = _parse_methods(args.methods)
    if not (0.0 < args.alpha < 1.0):
        print("error: --alpha must lie in (0, 1)", file=sys.stderr)
        return 2
    sample, gene_index = load_expression(args.expression, args.labels)
    sample = _maybe_log2(sample, args.log2_transform)
    entry = _analyze_pathway(sample, gene_index, args.pathway, methods)
    _decide([entry], args.alpha)
    pathway = dict(entry)
    report = {
        "pathway": pathway,
        "n1": pathway.pop("n1"),
        "n2": pathway.pop("n2"),
        "alpha": args.alpha,
        "results": pathway.pop("results"),
        "decisions": pathway.pop("decisions"),
        "errors": pathway.pop("errors"),
    }
    print(
        f"pathway {pathway['file']}: p={pathway['p']} p0={pathway['p0']} "
        f"d={pathway['d']} Ne={pathway['Ne']} "
        f"(dropped {len(pathway['dropped_genes'])} unmeasured genes, "
        f"removed {len(pathway['removed_cycle_edges'])} cycle edges)"
    )
    print(f"groups: n1={report['n1']} n2={report['n2']}, alpha={args.alpha}")
    print(f"{'method':<16} {'statistic':>14} {'p_value':>12}  decision")
    for r in report["results"]:
        decision = "reject" if report["decisions"][r["method"]] else "retain"
        print(
            f"{r['method']:<16} {r['statistic']:>14.6g} {r['p_value']:>12.4g}  "
            f"{decision}"
        )
    for line in report["errors"]:
        print(f"failed: {line}")
    if args.out:
        Path(args.out).write_text(dump_json(report))
    return 0 if report["results"] else 1


def cmd_batch(args) -> int:
    methods = _parse_methods(args.methods)
    if not (0.0 < args.alpha0 < 1.0):
        print("error: --alpha0 must lie in (0, 1)", file=sys.stderr)
        return 2
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    sample, gene_index = load_expression(args.expression, args.labels)
    sample = _maybe_log2(sample, args.log2_transform)
    files = sorted(Path(args.pathway_dir).glob("*.tsv"))
    if not files:
        print(
            f"error: no *.tsv pathway files in {args.pathway_dir}",
            file=sys.stderr,
        )
        return 2

    def worker(path) -> dict:
        try:
            entry = _analyze_pathway(sample, gene_index, path, methods)
        # A file that cannot be read or decoded fails its own pathway.
        except (DagTestError, OSError) as exc:
            entry = {"file": str(path), "results": [], "errors": [str(exc)]}
        return {"name": path.stem, **entry}

    outcomes = map_in_order(worker, files, args.threads)
    threshold = _decide(outcomes, args.alpha0)
    n_analyzed = sum(1 for o in outcomes if o["results"])
    report = {
        "alpha0": args.alpha0,
        "n_files": len(files),
        "n_analyzed": n_analyzed,
        "bonferroni_threshold": threshold,
        "pathways": outcomes,
    }
    shown = "none" if threshold is None else f"{threshold:.6g}"
    print(
        f"analyzed {n_analyzed} of {len(files)} pathways; "
        f"Bonferroni threshold alpha0/H = {shown}"
    )
    for outcome in outcomes:
        if not outcome["results"]:
            print(f"{outcome['name']}: FAILED ({'; '.join(outcome['errors'])})")
            continue
        for r in outcome["results"]:
            decision = "reject" if outcome["decisions"][r["method"]] else "retain"
            print(
                f"{outcome['name']:<24} {r['method']:<16} "
                f"p={r['p_value']:.4g}  {decision}"
            )
    if args.out:
        Path(args.out).write_text(dump_json(report))
    return 0 if n_analyzed else 1


def cmd_simulate(args) -> int:
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        doc = json.loads(read_text(args.config))
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg, deltas = read_config_document(doc)
        methods = _parse_methods(args.methods)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        tables = run_delta_grid(cfg, deltas, methods, threads=args.threads)
    except ConfigError as exc:
        print(f"error: config error at {exc.path}: {exc.reason}", file=sys.stderr)
        return 2
    header = ["delta", *(f.name for f in fields(MethodSummary))]
    rows = [
        [delta, *astuple(r)]
        for delta, table in zip(deltas, tables)
        for r in table.rows
    ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "experiment.csv").write_text(csv_text(header, rows))
    (out_dir / "experiment.json").write_text(
        dump_json({"experiments": [t.to_dict() for t in tables]})
    )
    print(f"{'delta':>6} {'method':<16} {'rate':>8} {'95% interval':>18} failed")
    for delta, table in zip(deltas, tables):
        for r in table.rows:
            print(
                f"{delta:>6g} {r.method:<16} {r.rate:>8.4f} "
                f"[{r.ci_low:.4f}, {r.ci_high:.4f}]    {r.n_failed}"
            )
        for note in table.failure_notes:
            print(f"note: {note}")
    print(f"wrote {out_dir / 'experiment.csv'} and {out_dir / 'experiment.json'}")
    return 0 if any(r.n_total > 0 for t in tables for r in t.rows) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagtest",
        description="DAG-informed two-sample mean tests for gene pathways",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser(
        "test", help="test one pathway against grouped expression data"
    )
    test.add_argument(
        "--expression", required=True, help="expression CSV (samples x genes)"
    )
    test.add_argument(
        "--labels",
        help="sample,group CSV; takes precedence over an in-file group column",
    )
    test.add_argument("--pathway", required=True, help="pathway edge-list TSV")
    test.add_argument(
        "--methods",
        default="all",
        help=f"comma list from {', '.join(METHODS)}, or 'all' (default)",
    )
    test.add_argument("--alpha", type=float, default=0.05)
    test.add_argument("--out", help="write the JSON report to this file")
    test.add_argument(
        "--log2-transform",
        action="store_true",
        help="apply log2(x - min + 1) to the expression matrix first",
    )
    test.set_defaults(func=cmd_test)

    batch = sub.add_parser(
        "batch", help="test every pathway in a directory with FWER control"
    )
    batch.add_argument("--expression", required=True)
    batch.add_argument("--labels")
    batch.add_argument(
        "--pathway-dir", required=True, help="directory of pathway *.tsv files"
    )
    batch.add_argument("--methods", default="all")
    batch.add_argument(
        "--alpha0", type=float, default=0.05, help="family-wise error level"
    )
    batch.add_argument("--out", help="write the JSON report to this file")
    batch.add_argument(
        "--threads",
        type=int,
        default=1,
        help="pathway files analysed at once (default 1); on 2 cores, 100 "
        "pathways on 200 x 5000 values took 0.82 s at 1 and 0.70 s at 2",
    )
    batch.add_argument("--log2-transform", action="store_true")
    batch.set_defaults(func=cmd_batch)

    simulate = sub.add_parser(
        "simulate", help="run a replicated synthetic experiment from a config"
    )
    simulate.add_argument(
        "--config", required=True, help="experiment config JSON"
    )
    simulate.add_argument(
        "--out", default=".", help="directory for experiment.csv/.json"
    )
    simulate.add_argument(
        "--threads",
        type=int,
        default=1,
        help="replicates run at once (default 1); a replicate holds the "
        "interpreter lock, so on 2 cores 100 replicates at n1 = n2 = p = "
        "100 took 1.00 s at 1 and 0.99 s at 2",
    )
    simulate.add_argument(
        "--seed", type=int, help="override the seed in the config"
    )
    simulate.add_argument(
        "--methods",
        default="t2dag_chi2,t2dag_z",
        help="comma list of methods (default: the two DAG-informed tests)",
    )
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    """Run one ``dagtest`` command and return its exit status.

    ``main`` is a process's entry point: ``sys.exit(main())`` ends the
    process. It registers ``gc.freeze`` with ``atexit`` (once per process),
    so at interpreter exit the heap that the imports built sits in the
    permanent generation and the shutdown collections skip it. On a 2-core
    Xeon, exit after a ``batch`` run then takes about 10.5 ms instead of
    46 ms; what is left is the rest of the shutdown and the process
    teardown (``os._exit`` would take 2.6 ms, but skip every other
    ``atexit`` handler). Nothing changes before exit, so a caller that goes
    on after ``main`` returns, such as a test suite, keeps normal garbage
    collection. Cyclic objects still alive at exit are not finalized by the
    shutdown sweep; every file ``main`` writes is closed before it returns.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DagTestError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
