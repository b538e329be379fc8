"""Command-line front end: ``dagtest test | batch | simulate``.

``test`` runs the selected methods on one pathway against an expression
matrix, prints a table, and optionally writes a JSON report with stable bytes.
``batch`` runs the same pipeline over a directory of pathway files in a worker
pool and applies a Bonferroni threshold alpha0/H, where H counts the pathways
that produced at least one test result. ``simulate`` drives replicated
synthetic experiments from a JSON config, writing CSV and JSON tables.

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
import json
import math
import os
import sys
import time
from dataclasses import astuple, fields
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
)
from .errors import ConfigError, DagTestError  # noqa: E402
from .mean_tests import (  # noqa: E402
    METHODS,
    bonferroni_adjust,
    map_in_order,
    method_families,
    run_methods,
)
from .pathway import acyclic_reduction, parse_edge_document  # noqa: E402
from .sem import GroupedSample  # noqa: E402
from .simulate import MethodSummary, SimConfig, run_delta_grid  # noqa: E402


def _parse_methods(text: str) -> tuple[str, ...]:
    if text.strip() == "all":
        return METHODS
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    if not methods:
        raise ValueError("no methods given")
    try:
        method_families(methods)
    except ValueError as exc:
        raise ValueError(f"{exc}; choose from {', '.join(METHODS)}") from None
    return methods


def _maybe_log2(sample: GroupedSample, flag: bool) -> GroupedSample:
    if not flag:
        return sample
    return GroupedSample(
        X=log2_shift_transform(sample.X), g=sample.g, n1=sample.n1, n2=sample.n2
    )


def _prepare_pathway(sample: GroupedSample, gene_index: Mapping[str, int], path):
    """Parse, repair, and align one pathway file; subset the sample columns."""
    text = Path(path).read_text()
    labels, edges, signs = parse_edge_document(text)
    dag, removed = acyclic_reduction(
        edges, p=len(labels), labels=labels, edge_signs=signs
    )
    aligned, dropped = align_pathway(dag, gene_index)
    cols = [gene_index[lab] for lab in aligned.node_labels]
    sub = sample.reorder_columns(cols)
    removed_labels = [[labels[j], labels[k]] for j, k in removed]
    return sub, aligned, removed_labels, list(dropped)


def _pathway_meta(path, aligned, removed_labels, dropped) -> dict:
    return {
        "file": str(path),
        "p": aligned.p,
        "p0": aligned.n_children,
        "d": aligned.max_in_degree,
        "Ne": aligned.n_edges,
        "removed_cycle_edges": removed_labels,
        "dropped_genes": dropped,
    }


def _print_results(rows: list[tuple[str, float, float, str]]) -> None:
    print(f"{'method':<16} {'statistic':>14} {'p_value':>12}  decision")
    for method, statistic, p_value, decision in rows:
        print(f"{method:<16} {statistic:>14.6g} {p_value:>12.4g}  {decision}")


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
    sub, aligned, removed_labels, dropped = _prepare_pathway(
        sample, gene_index, args.pathway
    )
    results, errors = run_methods(sub, aligned, methods)
    decisions = {r.method: bool(r.p_value <= args.alpha) for r in results}
    report = {
        "pathway": _pathway_meta(args.pathway, aligned, removed_labels, dropped),
        "n1": sub.n1,
        "n2": sub.n2,
        "alpha": args.alpha,
        "results": [r.to_dict() for r in results],
        "decisions": decisions,
        "errors": errors,
    }
    meta = report["pathway"]
    print(
        f"pathway {meta['file']}: p={meta['p']} p0={meta['p0']} "
        f"d={meta['d']} Ne={meta['Ne']} "
        f"(dropped {len(dropped)} unmeasured genes, "
        f"removed {len(removed_labels)} cycle edges)"
    )
    print(f"groups: n1={sub.n1} n2={sub.n2}, alpha={args.alpha}")
    _print_results(
        [
            (
                r.method,
                r.statistic,
                r.p_value,
                "reject" if decisions[r.method] else "retain",
            )
            for r in results
        ]
    )
    for line in errors:
        print(f"failed: {line}")
    if args.out:
        Path(args.out).write_text(dump_json(report))
    return 0 if results else 1


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
        start = time.perf_counter()
        outcome = {"name": path.stem}
        try:
            sub, aligned, removed_labels, dropped = _prepare_pathway(
                sample, gene_index, path
            )
            results, errors = run_methods(sub, aligned, methods)
            outcome.update(_pathway_meta(path, aligned, removed_labels, dropped))
            outcome["n1"] = sub.n1
            outcome["n2"] = sub.n2
            outcome["results"] = [r.to_dict() for r in results]
            outcome["errors"] = errors
        # A file that cannot be read or decoded fails its own pathway.
        except (DagTestError, OSError, UnicodeDecodeError) as exc:
            outcome["file"] = str(path)
            outcome["results"] = []
            outcome["errors"] = [str(exc)]
        outcome["wall_clock_s"] = time.perf_counter() - start
        return outcome

    outcomes = map_in_order(worker, files, args.threads)
    analyzed = [o for o in outcomes if o["results"]]
    n_analyzed = len(analyzed)
    threshold = None
    for outcome in outcomes:
        outcome["decisions"] = {}
    # Each method's family is the H analyzed pathways; where the method
    # failed on one of them, that test counts toward H unrejected.
    for method in methods if analyzed else ():
        p_values = [
            {r["method"]: r["p_value"] for r in o["results"]}.get(method)
            for o in analyzed
        ]
        family = bonferroni_adjust(p_values, args.alpha0)
        threshold = family.threshold
        for outcome, p_value, reject in zip(analyzed, p_values, family.decisions):
            if p_value is not None:
                outcome["decisions"][method] = reject
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
        with open(args.config) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(doc, dict):
        print("error: config error at /: must be a JSON object", file=sys.stderr)
        return 2
    doc = dict(doc)
    delta_grid = doc.pop("delta_grid", None)
    if args.seed is not None:
        doc["seed"] = args.seed
    methods = _parse_methods(args.methods)
    try:
        if delta_grid is not None and (
            not isinstance(delta_grid, list)
            or not delta_grid
            or not all(
                type(d) in (int, float) and math.isfinite(d)
                for d in delta_grid
            )
        ):
            raise ConfigError(
                "/delta_grid", "must be a nonempty array of finite numbers"
            )
        if delta_grid is not None and "delta" in doc:
            raise ConfigError("/delta", "must not be set together with delta_grid")
        cfg = SimConfig.from_dict(doc)
        deltas = (
            [float(d) for d in delta_grid]
            if delta_grid is not None
            else [cfg.delta]
        )
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
    batch.add_argument("--threads", type=int, default=1)
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
    simulate.add_argument("--threads", type=int, default=1)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DagTestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
