"""Dense numpy reference values for the statistics the benchmark checks.

Each function recomputes a statistic from its textbook definition, without
calling the library: per-node OLS with ``lstsq`` on the full design
[1, g, parents], a dense precision (I−Q)R⁻¹(I−Q)ᵀ, explicit pooled
covariances and explicit leave-out loops. Values agree with the library to
rounding, so a relative tolerance of 1e-8 separates a correct result from a
wrong one.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

import inputs

RTOL = 1e-8
METHODS = ("t2dag_chi2", "t2dag_z", "hotelling", "bai_saranadasa", "chen_qin")
ORACLE_PATHWAYS = (1, 4, 5, 20, 37)  # plain, cycle, unmeasured, both, plain
ORACLE_DATASETS = 5
SIM_ORACLE_REPLICATES = 3


def close(got: float, want: float, rtol: float = RTOL) -> bool:
    """Relative agreement; a tiny absolute floor covers values at zero."""
    return abs(got - want) <= rtol * max(abs(got), abs(want)) + 1e-300


def mismatches(label: str, got: Mapping[str, float], want: Mapping[str, float]) -> list[str]:
    """One message per statistic of ``want`` that ``got`` misses or misstates."""
    out = []
    for key, ref in want.items():
        value = got.get(key)
        if value is None or not close(float(value), ref):
            out.append(f"{label} {key}: got {value!r}, reference {ref!r}")
    return out


def _mean_diff(X1, X2):
    return X1.mean(axis=0) - X2.mean(axis=0)


def _effective_n(n1, n2):
    return n1 * n2 / (n1 + n2)


def t2dag_chi2(X1: np.ndarray, X2: np.ndarray, parents: Sequence[Sequence[int]]) -> float:
    """N·dᵀ(I−Q)R⁻¹(I−Q)ᵀd with one OLS of each column on [1, g, parents].

    ``parents[j]`` lists the parent columns of column j; r_j uses the
    denominator n − |S_j| − 4.
    """
    X = np.vstack([X1, X2])
    n1, n = X1.shape[0], X1.shape[0] + X2.shape[0]
    p = X.shape[1]
    g = np.r_[np.ones(n1), np.zeros(n - n1)]
    Q = np.zeros((p, p))
    R = np.zeros(p)
    for j in range(p):
        pa = list(parents[j])
        design = np.column_stack([np.ones(n), g] + [X[:, i] for i in pa])
        coef, *_ = np.linalg.lstsq(design, X[:, j], rcond=None)
        resid = X[:, j] - design @ coef
        R[j] = float(resid @ resid) / (n - len(pa) - 4)
        Q[pa, j] = coef[2:]
    B = np.eye(p) - Q
    precision = B @ np.diag(1.0 / R) @ B.T
    d = _mean_diff(X1, X2)
    return _effective_n(n1, n - n1) * float(d @ precision @ d)


def t2dag_z(chi2: float, p: int) -> float:
    return (chi2 - p) / math.sqrt(2.0 * p)


def _within_scatter(X1, X2):
    C1 = X1 - X1.mean(axis=0)
    C2 = X2 - X2.mean(axis=0)
    return C1.T @ C1 + C2.T @ C2


def hotelling(X1: np.ndarray, X2: np.ndarray) -> float:
    """N·dᵀS⁻¹d with the pooled covariance S on denominator n1+n2−1."""
    n1, n2 = X1.shape[0], X2.shape[0]
    S = _within_scatter(X1, X2) / (n1 + n2 - 1)
    d = _mean_diff(X1, X2)
    return _effective_n(n1, n2) * float(d @ np.linalg.solve(S, d))


def bai_saranadasa(X1: np.ndarray, X2: np.ndarray) -> float:
    """Bai & Saranadasa (1996): M / sqrt(2τ²(n+1)/n · B²), n = n1+n2−2."""
    n1, n2 = X1.shape[0], X2.shape[0]
    n = n1 + n2 - 2
    tau = 1.0 / n1 + 1.0 / n2
    S = _within_scatter(X1, X2) / n
    tr_s = float(np.trace(S))
    tr_s2 = float(np.trace(S @ S))
    d = _mean_diff(X1, X2)
    m_stat = float(d @ d) - tau * tr_s
    b2 = n * n / ((n + 2.0) * (n - 1.0)) * (tr_s2 - tr_s**2 / n)
    return m_stat / math.sqrt(2.0 * tau**2 * (n + 1.0) / n * b2)


def _tr_sigma2(X: np.ndarray) -> float:
    """Chen & Qin's leave-two-out tr(Σ²): pairs j≠k, mean without both."""
    n = X.shape[0]
    total = X.sum(axis=0)
    acc = 0.0
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            mean_out = (total - X[j] - X[k]) / (n - 2)
            acc += float(X[j] @ (X[k] - mean_out)) * float(X[k] @ (X[j] - mean_out))
    return acc / (n * (n - 1))


def _tr_sigma12(X1: np.ndarray, X2: np.ndarray) -> float:
    """Chen & Qin's leave-one-out tr(Σ₁Σ₂)."""
    n1, n2 = X1.shape[0], X2.shape[0]
    t1, t2 = X1.sum(axis=0), X2.sum(axis=0)
    acc = 0.0
    for l in range(n1):
        mean1 = (t1 - X1[l]) / (n1 - 1)
        for k in range(n2):
            mean2 = (t2 - X2[k]) / (n2 - 1)
            acc += float((X1[l] - mean1) @ X2[k]) * float((X2[k] - mean2) @ X1[l])
    return acc / (n1 * n2)


def chen_qin(X1: np.ndarray, X2: np.ndarray) -> float:
    """Chen & Qin (2010): cross-product statistic over its plug-in sd."""
    n1, n2 = X1.shape[0], X2.shape[0]
    t = 0.0
    for X, m in ((X1, n1), (X2, n2)):
        gram = X @ X.T
        t += (gram.sum() - np.trace(gram)) / (m * (m - 1))
    t -= 2.0 * float((X1 @ X2.T).sum()) / (n1 * n2)
    variance = (
        2.0 / (n1 * (n1 - 1)) * _tr_sigma2(X1)
        + 2.0 / (n2 * (n2 - 1)) * _tr_sigma2(X2)
        + 4.0 / (n1 * n2) * _tr_sigma12(X1, X2)
    )
    return float(t) / math.sqrt(variance)


def parents_from_edges(edges, p: int) -> list[list[int]]:
    parents: list[list[int]] = [[] for _ in range(p)]
    for i, j in edges:
        parents[int(j)].append(int(i))
    return parents


def highdim_reference(X1, X2, edges) -> dict[str, float]:
    """Every statistic `highdim_library` computes on one dataset."""
    p = X1.shape[1]
    chi2 = t2dag_chi2(X1, X2, parents_from_edges(edges, p))
    return {
        "t2dag_chi2": chi2,
        "t2dag_z": t2dag_z(chi2, p),
        "bai_saranadasa": bai_saranadasa(X1, X2),
        "chen_qin": chen_qin(X1, X2),
    }


def simulated_dataset_errors(Q, parent_sets, X, *, seed, replicate, n1, r0, kappa, q, delta) -> list[str]:
    """Check one `gen_dataset` replicate against a dense reconstruction.

    The coefficient matrix must sit on the graph's support with equal
    magnitudes and spectral norm 1/kappa (dense SVD). The rows must equal
    μ + (I−Qᵀ)⁻¹ε, with ε redrawn from the replicate's error substream
    (Philox keyed by (seed, replicate, 2), N(0, r0) entries) and group 2
    shifted by delta on its first q coordinates.
    """
    errors = []
    n, p = X.shape
    support = np.zeros((p, p), dtype=bool)
    for k, parents in enumerate(parent_sets):
        support[list(parents), k] = True
    if np.any(Q[~support] != 0.0) or np.any(Q[support] == 0.0):
        errors.append(f"replicate {replicate}: Q support differs from the graph")
    if support.any():
        mags = np.abs(Q[support])
        if not np.allclose(mags, mags[0], rtol=RTOL, atol=0.0):
            errors.append(f"replicate {replicate}: Q magnitudes differ")
        norm = float(np.linalg.norm(Q, 2))
        if not close(norm, 1.0 / kappa):
            errors.append(f"replicate {replicate}: ||Q||_2 = {norm!r}, want {1.0 / kappa!r}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, replicate, 2))))
    eps = rng.normal(0.0, np.full(p, math.sqrt(r0)), size=(n, p))
    want = eps @ np.linalg.inv(np.eye(p) - Q)
    want[n1:, :q] += delta
    if float(np.max(np.abs(X - want))) > RTOL * float(np.max(np.abs(want))):
        errors.append(f"replicate {replicate}: sample rows differ from (I-Q^T)^-1 eps + mu")
    return errors


def population_sigma_errors(Q, R, Sigma, replicate) -> list[str]:
    """Σ must equal (I−Qᵀ)⁻¹ diag(R) (I−Q)⁻¹, computed with a dense inverse."""
    inv = np.linalg.inv(np.eye(Q.shape[0]) - Q)
    want = inv.T @ np.diag(R) @ inv
    if float(np.max(np.abs(Sigma - want))) > RTOL * float(np.max(np.abs(want))):
        return [f"replicate {replicate}: population covariance differs from dense"]
    return []


# ---------------------------------------------------------------------------
# Checks of whole program outputs
# ---------------------------------------------------------------------------

def batch_references(inp: inputs.BatchInputs) -> dict[str, dict]:
    """Dense t2dag_chi2 and Hotelling values for the oracle pathways."""
    refs = {}
    for idx in ORACLE_PATHWAYS:
        if idx >= len(inp.pathways):
            continue
        pw = inp.pathways[idx]
        kept = [g for g in pw.genes if g not in pw.unmeasured]
        local = {g: j for j, g in enumerate(kept)}
        cols = [int(g[1:]) for g in kept]
        parents = parents_from_edges(
            [(local[a], local[b]) for a, b in pw.edges if a in local and b in local], len(kept)
        )
        X1, X2 = inp.X1[:, cols], inp.X2[:, cols]
        refs[pw.name] = {
            "t2dag_chi2": t2dag_chi2(X1, X2, parents),
            "hotelling": hotelling(X1, X2),
        }
    return refs


def check_batch_report(report: dict, inp: inputs.BatchInputs, refs: dict) -> tuple[list[str], int]:
    """(mismatches, failed method results) for one `dagtest batch` report."""
    errors = []
    n_pw = len(inp.pathways)
    if report.get("n_files") != n_pw or len(report.get("pathways", ())) != n_pw:
        return [f"report covers {report.get('n_files')} of {n_pw} pathways"], n_pw * len(METHODS)
    failed = 0
    for pw, got in zip(inp.pathways, report["pathways"]):
        results = {r["method"]: r["statistic"] for r in got.get("results", ())}
        failed += len(METHODS) - len(results)
        if got["name"] != pw.name:
            errors.append(f"{got['name']}: expected {pw.name}")
            continue
        if not got.get("results"):
            continue
        want_removed = [list(pw.cycle_edge)] if pw.cycle_edge else []
        if got["removed_cycle_edges"] != want_removed:
            errors.append(f"{pw.name}: removed {got['removed_cycle_edges']}, planted {want_removed}")
        if sorted(got["dropped_genes"]) != sorted(pw.unmeasured):
            errors.append(f"{pw.name}: dropped {got['dropped_genes']}, unmeasured {pw.unmeasured}")
        if got["p"] != len(pw.genes) - len(pw.unmeasured):
            errors.append(f"{pw.name}: p = {got['p']}")
        if pw.name in refs:
            errors += mismatches(pw.name, results, refs[pw.name])
    return errors, failed


def sim_generator_errors(config: dict, delta: float) -> list[str]:
    """Replay `gen_dataset` for the first replicates and check each one
    against a dense reconstruction from its error substream."""
    from dagtest import SimConfig, gen_dataset

    doc = {k: v for k, v in config.items() if k != "delta_grid"}
    cfg = SimConfig.from_dict(dict(doc, delta=delta))
    errors = []
    for r in range(min(SIM_ORACLE_REPLICATES, cfg.replicates)):
        sample, true_dag, used_dag, model = gen_dataset(cfg, r)
        if used_dag is not true_dag:
            errors.append(f"replicate {r}: test graph differs from the true graph")
        errors += simulated_dataset_errors(
            model.Q, true_dag.parent_sets, sample.X, seed=cfg.seed, replicate=r,
            n1=cfg.n1, r0=cfg.r0, kappa=cfg.kappa, q=cfg.q, delta=delta,
        )
        errors += population_sigma_errors(model.Q, model.R, model.Sigma, r)
    return errors


def check_sim_table(doc: dict, config: dict) -> tuple[list[str], int]:
    """(structure errors, failed method results) for one experiment.json."""
    errors = []
    failed = 0
    experiments = doc.get("experiments", [])
    if len(experiments) != len(config["delta_grid"]):
        return [f"{len(experiments)} experiments for {len(config['delta_grid'])} deltas"], 0
    for delta, exp in zip(config["delta_grid"], experiments):
        if exp["config"]["delta"] != delta or exp["config"]["seed"] != config["seed"]:
            errors.append(f"experiment for delta {delta} has config {exp['config']}")
        methods = [row["method"] for row in exp["results"]]
        if tuple(methods) != METHODS:
            errors.append(f"delta {delta}: methods {methods}")
        for row in exp["results"]:
            if row["n_total"] + row["n_failed"] != config["replicates"]:
                errors.append(
                    f"delta {delta}, {row['method']}: n_total {row['n_total']} + "
                    f"n_failed {row['n_failed']} != {config['replicates']} replicates"
                )
            if not 0 <= row["n_reject"] <= row["n_total"]:
                errors.append(f"delta {delta}, {row['method']}: n_reject {row['n_reject']}")
            failed += row["n_failed"]
    return errors, failed


def highdim_errors(stats: dict, npz: Path, key) -> list[str]:
    """Compare the library's statistics on the first datasets with dense ones."""
    X1, X2, edges = inputs.load_highdim(npz)
    errors = []
    for k in range(min(ORACLE_DATASETS, X1.shape[0])):
        got = stats.get(key(k))
        if got is None:
            errors.append(f"dataset {k}: no statistics returned")
            continue
        want = highdim_reference(X1[k], X2[k], edges[k])
        errors += mismatches(f"dataset {k}", got, want)
    return errors


