"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _perturbed(stats: dict, key: str) -> dict:
    out = dict(stats)
    out[key] = stats[key] * (1.0 + 1e-6)
    return out


def test_oracle_rejects_a_batch_statistic_off_by_1e6(tmp_path):
    from dagtest.cli import main

    inp = inputs.make_batch(7, tmp_path / "batch", inputs.TINY["batch"])
    report_path = tmp_path / "report.json"
    code = main([
        "batch", "--expression", str(inp.expression_csv), "--pathway-dir",
        str(inp.pathway_dir), "--methods", "all", "--out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    refs = oracle.batch_references(inp)
    assert refs
    assert oracle.check_batch_report(report, inp, refs) == ([], 0)
    for pw in report["pathways"]:
        if pw["name"] in refs:
            for method in ("t2dag_chi2", "hotelling"):
                row = next(r for r in pw["results"] if r["method"] == method)
                row["statistic"] *= 1.0 + 1e-6
                errors, _ = oracle.check_batch_report(report, inp, refs)
                assert len(errors) == 1 and method in errors[0]
                row["statistic"] /= 1.0 + 1e-6


def test_oracle_rejects_a_highdim_statistic_off_by_1e6(tmp_path):
    from dagtest import GroupedSample, PathwayDag, baseline, t2dag

    npz = tmp_path / "highdim.npz"
    inputs.make_highdim(7, npz, inputs.TINY["highdim"])
    X1, X2, edges = inputs.load_highdim(npz)
    dag = PathwayDag.from_edges(map(tuple, edges[0].tolist()), X1.shape[2])
    sample = GroupedSample.from_groups(X1[0], X2[0])
    results = list(t2dag(sample, dag)) + [
        baseline(sample, which) for which in ("bai_saranadasa", "chen_qin")
    ]
    got = {r.method: r.statistic for r in results}
    want = oracle.highdim_reference(X1[0], X2[0], edges[0])
    assert oracle.mismatches("dataset 0", got, want) == []
    for key in want:
        assert len(oracle.mismatches("dataset 0", _perturbed(got, key), want)) == 1


def test_oracle_rejects_a_simulated_dataset_off_by_1e6():
    from dagtest import SimConfig, gen_dataset

    cfg = SimConfig(n1=10, n2=10, p=6, replicates=2, seed=3, delta=0.5)
    sample, dag, _, model = gen_dataset(cfg, 1)
    kwargs = dict(seed=3, replicate=1, n1=10, r0=cfg.r0, kappa=cfg.kappa, q=cfg.q, delta=0.5)
    assert oracle.simulated_dataset_errors(model.Q, dag.parent_sets, sample.X, **kwargs) == []
    X = sample.X.copy()
    X[np.unravel_index(np.argmax(np.abs(X)), X.shape)] *= 1.0 + 1e-6
    assert oracle.simulated_dataset_errors(model.Q, dag.parent_sets, X, **kwargs)
