"""End-to-end command-line behavior for test, batch, and simulate."""

import gc
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dagtest.cli import _decide, main
from dagtest.mean_tests import METHODS

EXPRESSION = """\
sample,GA,GB,GC,GD,GE,group
s1,1.10,2.30,0.90,3.10,2.20,1
s2,0.80,2.70,1.30,2.80,1.90,1
s3,1.40,2.00,1.10,3.40,2.40,1
s4,0.95,2.40,1.20,3.00,2.10,1
s5,2.20,3.50,2.10,4.20,3.30,2
s6,2.60,3.10,1.90,4.60,3.10,2
s7,2.40,3.80,2.30,4.10,3.60,2
s8,2.10,3.30,2.00,4.40,3.20,2
"""

PATHWAY = "GA\tGB\nGB\tGC\nGC\tGD\nGD\tGE\n"

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "expr.csv").write_text(EXPRESSION)
    pw_dir = tmp_path / "pathways"
    pw_dir.mkdir()
    (pw_dir / "chain.tsv").write_text(PATHWAY)
    (pw_dir / "pair.tsv").write_text("GA\tGC\n")
    return tmp_path


# ---------------------------------------------------------------------------
# test subcommand
# ---------------------------------------------------------------------------

def test_cmd_test_all_methods(workdir, capsys):
    out = workdir / "report.json"
    code = main(
        [
            "test",
            "--expression",
            str(workdir / "expr.csv"),
            "--pathway",
            str(workdir / "pathways" / "chain.tsv"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert [r["method"] for r in report["results"]] == [
        "t2dag_chi2",
        "t2dag_z",
        "hotelling",
        "bai_saranadasa",
        "chen_qin",
    ]
    assert report["pathway"]["p"] == 5
    assert report["pathway"]["Ne"] == 4
    assert report["n1"] == 4 and report["n2"] == 4
    assert report["errors"] == []
    for r in report["results"]:
        assert 0.0 <= r["p_value"] <= 1.0
    stdout = capsys.readouterr().out
    assert "t2dag_chi2" in stdout and "chen_qin" in stdout


def test_cmd_test_json_bytes_stable(workdir):
    args = [
        "test",
        "--expression",
        str(workdir / "expr.csv"),
        "--pathway",
        str(workdir / "pathways" / "chain.tsv"),
    ]
    out1 = workdir / "a.json"
    out2 = workdir / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cmd_test_partial_failure_continues(tmp_path):
    # Six samples, five genes: Hotelling needs n > p + 1 and fails, the
    # remaining methods still produce results and the exit code stays 0.
    rows = ["sample,GA,GB,GC,GD,GE,group"]
    vals = [
        "1.0,2.0,3.0,4.0,5.0",
        "1.2,2.1,3.3,4.2,5.1",
        "0.9,1.8,3.1,4.4,4.9",
        "2.0,3.0,4.1,5.2,6.0",
        "2.2,3.2,3.9,5.4,6.2",
        "1.9,2.8,4.3,5.1,5.8",
    ]
    for i, v in enumerate(vals):
        rows.append(f"s{i},{v},{1 if i < 3 else 2}")
    (tmp_path / "expr.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "pw.tsv").write_text("GA\tGB\nGB\tGC\nGC\tGD\nGD\tGE\n")
    out = tmp_path / "report.json"
    code = main(
        [
            "test",
            "--expression",
            str(tmp_path / "expr.csv"),
            "--pathway",
            str(tmp_path / "pw.tsv"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    produced = {r["method"] for r in report["results"]}
    assert "hotelling" not in produced
    assert {"t2dag_chi2", "t2dag_z", "bai_saranadasa", "chen_qin"} <= produced
    assert any(e.startswith("hotelling:") for e in report["errors"])


def test_cmd_test_all_methods_fail_exits_one(tmp_path, capsys):
    # Four samples over a three-gene pathway: Hotelling needs n > p + 1,
    # the baselines need three per group, and the SEM fit needs n >= 5.
    rows = ["sample,GA,GB,GC,group"]
    vals = ["1.0,2.0,3.0", "1.1,2.2,3.1", "2.0,3.0,4.0", "2.1,3.1,4.1"]
    for i, v in enumerate(vals):
        rows.append(f"s{i},{v},{1 if i < 2 else 2}")
    (tmp_path / "expr.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "pw.tsv").write_text("GA\tGB\nGB\tGC\n")
    code = main(
        [
            "test",
            "--expression",
            str(tmp_path / "expr.csv"),
            "--pathway",
            str(tmp_path / "pw.tsv"),
        ]
    )
    assert code == 1
    assert "failed" in capsys.readouterr().out


def test_cmd_test_unmeasured_genes_and_cycle_repair(workdir):
    (workdir / "loop.tsv").write_text("GA\tGB\nGB\tGA\nGB\tGHOST\n")
    out = workdir / "loop.json"
    code = main(
        [
            "test",
            "--expression",
            str(workdir / "expr.csv"),
            "--pathway",
            str(workdir / "loop.tsv"),
            "--methods",
            "t2dag_chi2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pathway"]["removed_cycle_edges"] == [["GA", "GB"]]
    assert report["pathway"]["dropped_genes"] == ["GHOST"]
    assert report["pathway"]["p"] == 2


def test_cmd_test_log2_transform_changes_statistic(workdir):
    args = [
        "test",
        "--expression",
        str(workdir / "expr.csv"),
        "--pathway",
        str(workdir / "pathways" / "chain.tsv"),
        "--methods",
        "t2dag_chi2",
    ]
    out_raw = workdir / "raw.json"
    out_log = workdir / "log.json"
    assert main(args + ["--out", str(out_raw)]) == 0
    assert main(args + ["--out", str(out_log), "--log2-transform"]) == 0
    raw = json.loads(out_raw.read_text())["results"][0]["statistic"]
    logged = json.loads(out_log.read_text())["results"][0]["statistic"]
    assert raw != logged


def test_cmd_test_rejects_unknown_method(workdir, capsys):
    code = main(
        [
            "test",
            "--expression",
            str(workdir / "expr.csv"),
            "--pathway",
            str(workdir / "pathways" / "chain.tsv"),
            "--methods",
            "anova",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: unknown method 'anova'; choose from t2dag_chi2, t2dag_z, "
        "hotelling, bai_saranadasa, chen_qin\n"
    )


# ---------------------------------------------------------------------------
# batch subcommand
# ---------------------------------------------------------------------------

def test_cmd_batch_bonferroni_over_analyzed_pathways(workdir):
    (workdir / "pathways" / "broken.tsv").write_text("GA GB no tabs\n")
    out = workdir / "batch.json"
    code = main(
        [
            "batch",
            "--expression",
            str(workdir / "expr.csv"),
            "--pathway-dir",
            str(workdir / "pathways"),
            "--alpha0",
            "0.05",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n_files"] == 3
    assert report["n_analyzed"] == 2  # broken.tsv fails to parse
    assert report["bonferroni_threshold"] == 0.05 / 2
    names = [p["name"] for p in report["pathways"]]
    assert names == sorted(names) == ["broken", "chain", "pair"]
    broken = report["pathways"][0]
    assert broken["results"] == [] and broken["errors"]
    for entry in report["pathways"]:
        # Reports hold no timings, so their bytes are reproducible.
        assert "wall_clock_s" not in entry
        for r in entry["results"]:
            assert entry["decisions"][r["method"]] == (
                r["p_value"] <= report["bonferroni_threshold"]
            )


def test_cmd_batch_failed_method_counts_toward_h(tmp_path):
    # On "wide" p = 8 >= n - 1 = 7, so Hotelling fails and the other methods
    # give results: the pathway counts toward H, with no Hotelling decision.
    rng = np.random.default_rng(4)
    genes = [f"G{j}" for j in range(8)]
    rows = [",".join(["sample", *genes, "group"])]
    for i, values in enumerate(rng.normal(size=(8, 8)).round(4).tolist()):
        rows.append(",".join([f"s{i}", *map(repr, values), "1" if i < 4 else "2"]))
    (tmp_path / "expr.csv").write_text("\n".join(rows) + "\n")
    pw_dir = tmp_path / "pathways"
    pw_dir.mkdir()
    (pw_dir / "wide.tsv").write_text(
        "".join(f"{a}\t{b}\n" for a, b in zip(genes, genes[1:]))
    )
    (pw_dir / "narrow.tsv").write_text("G0\tG1\nG1\tG2\n")
    (pw_dir / "broken.tsv").write_text("G0 G1 no tabs\n")
    out = tmp_path / "batch.json"
    args = ["batch", "--expression", str(tmp_path / "expr.csv")]
    assert main(args + ["--pathway-dir", str(pw_dir), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["n_analyzed"] == 2
    assert report["bonferroni_threshold"] == 0.05 / 2
    broken, narrow, wide = report["pathways"]
    assert broken["results"] == [] and broken["decisions"] == {}
    assert list(narrow["decisions"]) == list(METHODS)
    assert [line.split(":")[0] for line in wide["errors"]] == ["hotelling"]
    assert list(wide["decisions"]) == [m for m in METHODS if m != "hotelling"]


def test_decide_counts_only_pathways_with_results():
    # A pathway with no result is out of the family; one whose methods
    # partly failed is in it, and decides only the methods that gave results.
    def entry(*p_values):
        results = [{"method": f"m{k}", "p_value": pv} for k, pv in enumerate(p_values)]
        return {"results": results}

    entries = [entry(0.001, 0.03), entry(), entry(0.02)]
    assert _decide(entries, 0.05) == 0.05 / 2
    assert [e["decisions"] for e in entries] == [
        {"m0": True, "m1": False},
        {},
        {"m0": True},
    ]
    # With no result anywhere, H = 0 and there is no threshold.
    entries = [entry(), entry()]
    assert _decide(entries, 0.05) is None
    assert [e["decisions"] for e in entries] == [{}, {}]


def test_cmd_batch_threads_invariant(workdir):
    reports = []
    for threads, name in [("1", "t1.json"), ("3", "t3.json")]:
        out = workdir / name
        code = main(
            [
                "batch",
                "--expression",
                str(workdir / "expr.csv"),
                "--pathway-dir",
                str(workdir / "pathways"),
                "--threads",
                threads,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("alpha", ["0.05", "0.001"])
def test_cmd_test_and_batch_agree(workdir, alpha):
    # `test` decides at the Bonferroni threshold over one pathway, alpha/1;
    # on a directory holding only that pathway `batch` gives the same entry.
    # At 0.001 Hotelling (p = 0.0016) is retained and the others rejected.
    only = workdir / "only"
    only.mkdir()
    shutil.copy(workdir / "pathways" / "chain.tsv", only / "chain.tsv")
    common = ["--expression", str(workdir / "expr.csv")]
    single, batch = workdir / "single.json", workdir / "batch.json"
    code = main(
        ["test", *common, "--pathway", str(only / "chain.tsv")]
        + ["--alpha", alpha, "--out", str(single)]
    )
    assert code == 0
    code = main(
        ["batch", *common, "--pathway-dir", str(only)]
        + ["--alpha0", alpha, "--out", str(batch)]
    )
    assert code == 0
    single, batch = json.loads(single.read_text()), json.loads(batch.read_text())
    (entry,) = batch["pathways"]
    assert batch["bonferroni_threshold"] == single["alpha"] == float(alpha)
    assert single["pathway"] == {k: entry[k] for k in single["pathway"]}
    for key in ("n1", "n2", "results", "errors", "decisions"):
        assert single[key] == entry[key]
    assert single["decisions"]["hotelling"] == (alpha == "0.05")
    assert sum(single["decisions"].values()) == 4 + (alpha == "0.05")


def test_cmd_batch_empty_dir_errors(workdir, capsys):
    empty = workdir / "none"
    empty.mkdir()
    code = main(
        [
            "batch",
            "--expression",
            str(workdir / "expr.csv"),
            "--pathway-dir",
            str(empty),
        ]
    )
    assert code == 2
    assert "no *.tsv" in capsys.readouterr().err


def test_cmd_batch_rejects_non_finite_expression(tmp_path, capsys):
    # One NaN in gene A must stop the run at ingest with its location, not
    # surface later as a numeric failure of every pathway.
    rng = np.random.default_rng(3)
    rows = ["sample,A,B,C,group"]
    for i, vals in enumerate(rng.normal(size=(12, 3)).round(3).tolist()):
        cells = [repr(v) for v in vals]
        if i == 4:
            cells[0] = "nan"
        rows.append(f"s{i},{','.join(cells)},{1 if i < 6 else 2}")
    (tmp_path / "expr.csv").write_text("\n".join(rows) + "\n")
    pw_dir = tmp_path / "pathways"
    pw_dir.mkdir()
    (pw_dir / "ab.tsv").write_text("A\tB\n")
    (pw_dir / "bc.tsv").write_text("B\tC\n")
    out = tmp_path / "batch.json"
    code = main(
        [
            "batch",
            "--expression",
            str(tmp_path / "expr.csv"),
            "--pathway-dir",
            str(pw_dir),
            "--out",
            str(out),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 6, column 'A': not a finite number: 'nan'" in err
    assert not out.exists()


def _overflowing_expression(path):
    """Genes A, B, C on 12 samples, six per group; sample s4 holds 1e200 in
    gene A. The cell is finite, but its square overflows."""
    rng = np.random.default_rng(3)
    rows = ["sample,A,B,C,group"]
    for i, vals in enumerate(rng.normal(size=(12, 3)).round(3).tolist()):
        cells = [repr(v) for v in vals]
        if i == 4:
            cells[0] = "1e200"
        rows.append(f"s{i},{','.join(cells)},{1 if i < 6 else 2}")
    path.write_text("\n".join(rows) + "\n")


def _assert_every_method_names_gene_a(errors):
    """One line per method, in order, all with the same out-of-range message."""
    assert [line.split(": ", 1)[0] for line in errors] == list(METHODS)
    messages = {line.split(": ", 1)[1] for line in errors}
    assert len(messages) == 1
    assert messages.pop().startswith(
        "gene A holds a value out of range: NaN, infinite or |x| > "
    )


def test_cmd_batch_overflowing_pathway_fails_alone(tmp_path, capsys):
    # Gene A as a lone root, as a child, and at the head of a chain: each
    # pathway fails on its own with the same line for every method, naming
    # gene A (the root cases once aborted the run with a NaN p-value); the
    # pathway without A is still analyzed.
    _overflowing_expression(tmp_path / "expr.csv")
    pw_dir = tmp_path / "pathways"
    pw_dir.mkdir()
    (pw_dir / "a_alone.tsv").write_text("nodes: A\n")
    (pw_dir / "a_child.tsv").write_text("B\tA\n")
    (pw_dir / "abc.tsv").write_text("A\tB\nB\tC\n")
    (pw_dir / "bc.tsv").write_text("B\tC\n")
    out = tmp_path / "batch.json"
    code = main(
        [
            "batch",
            "--expression",
            str(tmp_path / "expr.csv"),
            "--pathway-dir",
            str(pw_dir),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n_analyzed"] == 1
    *failed, bc = report["pathways"]
    assert bc["name"] == "bc" and len(bc["results"]) == 5 and bc["errors"] == []
    assert [o["name"] for o in failed] == ["a_alone", "a_child", "abc"]
    for outcome in failed:
        assert outcome["results"] == []
        _assert_every_method_names_gene_a(outcome["errors"])
    assert "abc: FAILED" in capsys.readouterr().out


def test_cmd_test_out_of_range_root_fails_every_method(tmp_path, capsys):
    # All methods fail, so the command exits 1 with a report, not 2.
    _overflowing_expression(tmp_path / "expr.csv")
    (tmp_path / "pw.tsv").write_text("nodes: A\n")
    out = tmp_path / "report.json"
    code = main(
        [
            "test",
            "--expression",
            str(tmp_path / "expr.csv"),
            "--pathway",
            str(tmp_path / "pw.tsv"),
            "--out",
            str(out),
        ]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["results"] == []
    _assert_every_method_names_gene_a(report["errors"])
    assert "failed: hotelling: gene A" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
def test_cmd_test_log2_transform_of_values_spanning_the_float_range(
    tmp_path, capsys
):
    # x − min overflows to inf where gene A holds 1e308 and gene B −1e308:
    # gene A then fails every method on the range check, with no warning.
    rows = ["sample,A,B,group"]
    for i in range(12):
        a, b = ("1e308", "-1e308") if i == 4 else (f"{i}.5", f"{i}.25")
        rows.append(f"s{i},{a},{b},{1 if i < 6 else 2}")
    (tmp_path / "expr.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "pw.tsv").write_text("nodes: A\n")
    out = tmp_path / "report.json"
    code = main(
        [
            "test",
            "--expression",
            str(tmp_path / "expr.csv"),
            "--pathway",
            str(tmp_path / "pw.tsv"),
            "--log2-transform",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["results"] == []
    _assert_every_method_names_gene_a(report["errors"])
    assert capsys.readouterr().err == ""


def test_cmd_batch_unreadable_pathway_files_fail_alone(workdir, capsys):
    # A file that is not valid UTF-8 and a directory matching *.tsv each
    # fail their own pathway, named by file; the other two are analyzed.
    pw_dir = workdir / "pathways"
    (pw_dir / "binary.tsv").write_bytes(b"GA\tGB\n\xff\tGC\n")
    (pw_dir / "folder.tsv").mkdir()
    out = workdir / "batch.json"
    code = main(
        [
            "batch",
            "--expression",
            str(workdir / "expr.csv"),
            "--pathway-dir",
            str(pw_dir),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n_files"] == 4 and report["n_analyzed"] == 2
    by_name = {o["name"]: o for o in report["pathways"]}
    for name in ("binary", "folder"):
        failed = by_name[name]
        assert failed["file"] == str(pw_dir / f"{name}.tsv")
        assert failed["results"] == [] and len(failed["errors"]) == 1
    assert by_name["binary"]["errors"][0].startswith(f"{pw_dir / 'binary.tsv'}: ")
    assert "can't decode byte 0xff" in by_name["binary"]["errors"][0]
    assert "Is a directory" in by_name["folder"]["errors"][0]
    assert by_name["chain"]["results"] and by_name["pair"]["results"]
    printed = capsys.readouterr().out
    assert "binary: FAILED" in printed and "folder: FAILED" in printed


def test_cmd_test_reports_csv_reader_error(workdir, capsys):
    expr = workdir / "big.csv"
    expr.write_text(EXPRESSION + "s9," + "1" * 140_000 + "\n")
    code = main(
        [
            "test",
            "--expression",
            str(expr),
            "--pathway",
            str(workdir / "pathways" / "chain.tsv"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {expr}: line 10: field larger than field limit (131072)\n"
    )


def test_cmd_test_reports_undecodable_expression_file(workdir, capsys):
    expr = workdir / "binary.csv"
    expr.write_bytes(EXPRESSION.encode() + b"s9,\xff,1,1,1,1,2\n")
    code = main(
        [
            "test",
            "--expression",
            str(expr),
            "--pathway",
            str(workdir / "pathways" / "chain.tsv"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {expr}: ")
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize("command", ["test", "simulate"])
def test_undecodable_pathway_or_config_names_the_file(workdir, capsys, command):
    bad = workdir / "binary.txt"
    bad.write_bytes(b"\xff\tGA\n")
    if command == "test":
        argv = ["--expression", str(workdir / "expr.csv"), "--pathway", str(bad)]
    else:
        argv = ["--config", str(bad), "--out", str(workdir / "sim")]
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert "can't decode byte 0xff" in err


def test_cmd_test_drops_byte_order_mark_of_pathway_file(workdir):
    # Editors on Windows save UTF-8 with a leading U+FEFF; kept, it would
    # make the first gene '\ufeffGA', which is not measured.
    pathway = workdir / "bom.tsv"
    pathway.write_bytes("\ufeffGA\tGB\nGB\tGC\n".encode())
    out = workdir / "report.json"
    argv = ["test", "--expression", str(workdir / "expr.csv"), "--pathway", str(pathway)]
    assert main(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())["pathway"]
    assert (report["p"], report["Ne"], report["dropped_genes"]) == (3, 2, [])


# ---------------------------------------------------------------------------
# simulate subcommand
# ---------------------------------------------------------------------------

SIM_CONFIG = {
    "n1": 15,
    "n2": 15,
    "p": 10,
    "replicates": 6,
    "seed": 11,
    "delta_grid": [0.0, 0.4],
}


def run_simulate(tmp_path, config, out_name, extra=()):
    cfg = tmp_path / f"{out_name}.cfg.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / out_name
    code = main(
        ["simulate", "--config", str(cfg), "--out", str(out_dir), *extra]
    )
    return code, out_dir


def test_cmd_simulate_grid_outputs(tmp_path):
    code, out_dir = run_simulate(tmp_path, SIM_CONFIG, "run")
    assert code == 0
    csv_lines = (out_dir / "experiment.csv").read_text().splitlines()
    assert csv_lines[0] == "delta,method,n_reject,n_total,rate,ci_low,ci_high,n_failed"
    # Two grid points x the default two DAG-informed methods.
    assert len(csv_lines) == 1 + 4
    assert [line.split(",")[0] for line in csv_lines[1:]] == [
        "0.0",
        "0.0",
        "0.4",
        "0.4",
    ]
    doc = json.loads((out_dir / "experiment.json").read_text())
    assert len(doc["experiments"]) == 2
    assert doc["experiments"][0]["config"]["delta"] == 0.0
    assert doc["experiments"][1]["config"]["delta"] == 0.4


def test_cmd_simulate_drops_byte_order_mark_of_config(tmp_path):
    cfg = tmp_path / "bom.cfg.json"
    cfg.write_bytes(("\ufeff" + json.dumps(SIM_CONFIG)).encode())
    out_dir = tmp_path / "bom"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == 0
    _, plain = run_simulate(tmp_path, SIM_CONFIG, "plain")
    for name in ("experiment.csv", "experiment.json"):
        assert (out_dir / name).read_bytes() == (plain / name).read_bytes()


def test_cmd_simulate_bytes_stable_across_runs_and_threads(tmp_path):
    _, first = run_simulate(tmp_path, SIM_CONFIG, "a")
    _, second = run_simulate(tmp_path, SIM_CONFIG, "b")
    _, threaded = run_simulate(tmp_path, SIM_CONFIG, "c", extra=("--threads", "4"))
    ref = (first / "experiment.csv").read_bytes()
    assert (second / "experiment.csv").read_bytes() == ref
    assert (threaded / "experiment.csv").read_bytes() == ref


def test_cmd_simulate_seed_override(tmp_path):
    _, base = run_simulate(tmp_path, SIM_CONFIG, "base")
    _, other = run_simulate(
        tmp_path, SIM_CONFIG, "other", extra=("--seed", "99")
    )
    _, same = run_simulate(
        tmp_path, SIM_CONFIG, "same", extra=("--seed", "11")
    )
    ref = (base / "experiment.csv").read_bytes()
    assert (other / "experiment.csv").read_bytes() != ref
    assert (same / "experiment.csv").read_bytes() == ref


def test_cmd_simulate_reports_config_errors(tmp_path, capsys):
    bad = dict(SIM_CONFIG)
    bad["p0_fraction"] = 2.0
    code, _ = run_simulate(tmp_path, bad, "bad")
    assert code == 2
    assert "config error at /p0_fraction" in capsys.readouterr().err

    unknown = dict(SIM_CONFIG)
    unknown["shape"] = 3
    code, _ = run_simulate(tmp_path, unknown, "unknown")
    assert code == 2
    assert "config error at /shape" in capsys.readouterr().err

    grid = dict(SIM_CONFIG)
    grid["delta_grid"] = []
    code, _ = run_simulate(tmp_path, grid, "grid")
    assert code == 2
    assert "config error at /delta_grid" in capsys.readouterr().err

    # JSON "Infinity" parses to a float; it must not reach the generator.
    infinite = dict(SIM_CONFIG)
    infinite["r0"] = math.inf
    code, _ = run_simulate(tmp_path, infinite, "infinite")
    assert code == 2
    assert "config error at /r0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "patch, path",
    [
        ({"perturbation": {"fractoin": 0.5}}, "/perturbation/fractoin"),
        ({"perturbation": 5}, "/perturbation"),
        ({"confounders": 5}, "/confounders"),
        ({"perturbation": {"mode": "missing", "seed": "abc"}}, "/perturbation/seed"),
        ({"confounders": {"count": 1.5}}, "/confounders/count"),
        # delta_grid replaces delta; both set is ambiguous.
        ({"delta": 0.1}, "/delta"),
        ({"seed": True}, "/seed"),
        ({"delta_grid": [True, False]}, "/delta_grid"),
        ({"kappa": "1.5"}, "/kappa"),
        ({"alpha": None}, "/alpha"),
        ({"perturbation": {"mode": "sideways"}}, "/perturbation/mode"),
        ({"perturbation": {"mode": "missing", "fraction": 1.5}}, "/perturbation/fraction"),
    ],
)
def test_cmd_simulate_config_errors_exit_2(tmp_path, capsys, patch, path):
    code, out_dir = run_simulate(tmp_path, {**SIM_CONFIG, **patch}, "bad")
    assert code == 2
    assert f"error: config error at {path}:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cmd_simulate_custom_methods(tmp_path):
    config = dict(SIM_CONFIG)
    config.pop("delta_grid")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / "methods"
    code = main(
        [
            "simulate",
            "--config",
            str(cfg),
            "--out",
            str(out_dir),
            "--methods",
            "t2dag_chi2,chen_qin",
        ]
    )
    assert code == 0
    lines = (out_dir / "experiment.csv").read_text().splitlines()
    methods = [line.split(",")[1] for line in lines[1:]]
    assert methods == ["t2dag_chi2", "chen_qin"]


@pytest.mark.parametrize(
    "command, doc, err",
    [
        (["test", "--alpha", "0"], None, "--alpha must lie in (0, 1)"),
        (["test", "--alpha", "1.5"], None, "--alpha must lie in (0, 1)"),
        (["test", "--methods", ","], None, "no methods given"),
        (
            ["test", "--methods", "t2dag_chi2,t2dag_chi2"],
            None,
            "method 't2dag_chi2' is named twice",
        ),
        (
            ["simulate", "--methods", "t2dag_z,t2dag_z"],
            SIM_CONFIG,
            "method 't2dag_z' is named twice",
        ),
        (["batch", "--alpha0", "1"], None, "--alpha0 must lie in (0, 1)"),
        (["batch", "--threads", "0"], None, "--threads must be >= 1"),
        (["simulate", "--threads", "0"], SIM_CONFIG, "--threads must be >= 1"),
        (
            ["simulate"],
            "{not json",
            "config is not valid JSON: Expecting property name enclosed in "
            "double quotes: line 1 column 2 (char 1)",
        ),
        (["simulate"], [1, 2], "config error at /: must be a JSON object"),
        # The document is read before the methods.
        (
            ["simulate", "--methods", "bogus"],
            [1, 2],
            "config error at /: must be a JSON object",
        ),
        # The first missing field in field order is named.
        (["simulate"], {"p": 5}, "config error at /n1: missing required field"),
        (["simulate"], {"n1": 10, "n2": 10}, "config error at /p: missing required field"),
        (
            ["simulate"],
            {"n1": 10, "n2": 10, "p": 5, "p0_fraction": 0, "confounders": {}},
            "config error at /confounders: need p0_fraction > 0: the "
            "confounder variance divides by max|Q|",
        ),
    ],
)
def test_cli_checks_exit_2(workdir, capsys, command, doc, err):
    name, argv = command[0], list(command)
    if name == "test":
        argv += ["--pathway", str(workdir / "pathways" / "chain.tsv")]
    elif name == "batch":
        argv += ["--pathway-dir", str(workdir / "pathways")]
    if name == "simulate":
        cfg = workdir / "cfg.json"
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv += ["--config", str(cfg), "--out", str(workdir / "sim")]
    else:
        argv += ["--expression", str(workdir / "expr.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


# ---------------------------------------------------------------------------
# console script wiring
# ---------------------------------------------------------------------------

def test_console_script_help_runs():
    # Call the [project.scripts] target the way an installed wrapper script
    # does, so the declared wiring is checked without installing the package.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["dagtest"]
    module, _, attr = target.partition(":")
    code = (
        "import importlib, operator, sys\n"
        f"func = operator.attrgetter({attr!r})(importlib.import_module({module!r}))\n"
        "sys.argv = ['dagtest', '--help']\n"
        "sys.exit(func())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "simulate" in proc.stdout


@pytest.mark.skipif(
    shutil.which("dagtest") is None, reason="dagtest is not installed on PATH"
)
def test_installed_console_script_help_runs():
    proc = subprocess.run(
        ["dagtest", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dagtest.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "batch" in proc.stdout


# ---------------------------------------------------------------------------
# BLAS thread policy
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**blas) -> dict:
    """This process's environment without the BLAS variables, plus `blas`.

    Built explicitly: the pytest process may carry a BLAS setting of its own,
    from the caller or from an import of dagtest.cli before numpy.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    env.update(blas)
    return env


def run_python(code: str, env: dict) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


SHOW_BLAS_ENV = f"import os; print(*(os.environ.get(v) for v in {BLAS_VARS!r}))"


@pytest.mark.parametrize(
    "imports, blas, expected",
    [
        ("import dagtest.cli", {}, "1 1"),
        ("import dagtest.cli", {"OPENBLAS_NUM_THREADS": "2"}, "2 None"),
        ("import dagtest.cli", {"OMP_NUM_THREADS": "3"}, "None 3"),
        # Library use: numpy has already read its thread count.
        ("import numpy, dagtest.cli", {}, "None None"),
    ],
)
def test_cli_blas_thread_policy(imports, blas, expected):
    assert run_python(f"{imports}; {SHOW_BLAS_ENV}", child_env(**blas)) == expected


@pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="needs Linux /proc/self/task"
)
def test_cli_process_starts_no_blas_threads():
    # numpy's and scipy's OpenBLAS each start their worker threads at load.
    code = "import os, dagtest.cli; print(len(os.listdir('/proc/self/task')))"
    assert run_python(code, child_env()) == "1"


def write_wide_batch(root: Path) -> tuple[Path, Path]:
    """200 samples x 300 genes and 5 pathways of 60 genes: p ≤ n in every
    pathway, with 60 x 60 Gram products large enough for a multi-threaded
    BLAS to split."""
    rng = np.random.default_rng(11)
    n, genes, pathways, size = 200, 300, 5, 60
    X = 8.0 + rng.normal(size=(n, genes))
    X[n // 2 :, :20] += 0.3
    names = [f"G{j:03d}" for j in range(genes)]
    lines = [",".join(["sample", *names, "group"])]
    for i in range(n):
        cells = ",".join(repr(v) for v in X[i].round(6).tolist())
        lines.append(f"s{i},{cells},{1 if i < n // 2 else 2}")
    expression = root / "expr.csv"
    expression.write_text("\n".join(lines) + "\n")
    pw_dir = root / "pathways"
    pw_dir.mkdir()
    for k in range(pathways):
        genes_k = rng.choice(genes, size=size, replace=False)
        edges = [
            f"{names[genes_k[i]]}\t{names[genes_k[j]]}"
            for j in range(1, size)
            for i in rng.choice(j, size=min(j, 2), replace=False)
        ]
        (pw_dir / f"pw{k}.tsv").write_text("\n".join(edges) + "\n")
    return expression, pw_dir


def test_batch_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    expression, pw_dir = write_wide_batch(tmp_path)
    reports = []
    for name, blas in [("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})]:
        out = tmp_path / f"{name}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "dagtest.cli", "batch",
                "--expression", str(expression), "--pathway-dir", str(pw_dir),
                "--methods", "all", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env=child_env(**blas),
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_batch_single_baseline_runs_equal_methods_all(tmp_path):
    # n = 200 > p = 60: Hotelling and Bai–Saranadasa read the pooled Gram
    # summed from the group Grams that Chen–Qin reads, so a run of one of
    # them reports the bytes of its results under --methods all.
    expression, pw_dir = write_wide_batch(tmp_path)

    def results(methods):
        out = tmp_path / f"{methods}.json"
        code = main(
            [
                "batch", "--expression", str(expression), "--pathway-dir",
                str(pw_dir), "--methods", methods, "--out", str(out),
            ]
        )
        assert code == 0
        return [entry["results"] for entry in json.loads(out.read_text())["pathways"]]

    every = results("all")
    for method in ("hotelling", "bai_saranadasa"):
        alone = results(method)
        assert alone == [[r for r in rs if r["method"] == method] for rs in every]
        assert all(len(rs) == 1 for rs in alone)


# ---------------------------------------------------------------------------
# Process exit
# ---------------------------------------------------------------------------

def command_args(workdir: Path, command: str) -> list[str]:
    """One run of `command` on the workdir fixture that writes its --out."""
    if command == "simulate":
        config = workdir / "sim.json"
        config.write_text(json.dumps(SIM_CONFIG))
        return ["simulate", "--config", str(config), "--out", str(workdir / "sim")]
    inputs = (
        ["--pathway", str(workdir / "pathways" / "chain.tsv")]
        if command == "test"
        else ["--pathway-dir", str(workdir / "pathways")]
    )
    return [
        command, "--expression", str(workdir / "expr.csv"), *inputs,
        "--out", str(workdir / f"{command}.json"),
    ]


@pytest.mark.parametrize("command", ["test", "batch", "simulate"])
def test_main_leaves_garbage_collection_alone_and_no_file_for_it(workdir, command):
    # main freezes the heap only at interpreter exit, so a caller that goes
    # on after it returns collects garbage as before. The shutdown
    # collections then skip the frozen heap and close nothing, so every file
    # main opens must be closed before it returns: a collection finds none.
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(command_args(workdir, command)) == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_main_freezes_the_heap_at_exit_and_passes_exit_codes_through(workdir):
    # atexit runs handlers last in, first out: one registered before main
    # runs after main's gc.freeze, and sees the frozen heap.
    rows = ["sample,GA,GB,GC,group", "s0,1.0,2.0,3.0,1", "s1,1.1,2.2,3.1,1"]
    rows += ["s2,2.0,3.0,4.0,2", "s3,2.1,3.1,4.1,2"]
    (workdir / "tiny.csv").write_text("\n".join(rows) + "\n")
    program = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
        "from dagtest.cli import main\n"
        "sys.exit(main())\n"
    )
    pathway = ["--pathway", str(workdir / "pathways" / "chain.tsv")]
    cases = [
        (0, ["--expression", str(workdir / "expr.csv"), *pathway]),
        (1, ["--expression", str(workdir / "tiny.csv"), *pathway]),
        (2, ["--expression", str(workdir / "expr.csv"), *pathway, "--alpha", "2"]),
    ]
    for code, args in cases:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", program, "test", *args],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.splitlines()[-1] == "frozen at exit: True"
