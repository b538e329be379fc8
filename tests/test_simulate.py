"""Synthetic data generator and the replicated experiment driver."""

import json
import math
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg.blas import dtrsm

import dagtest.mean_tests
import dagtest.simulate
from dagtest.cli import main
from dagtest.data_io import csv_text
from dagtest.divergence import PopulationModel
from dagtest.errors import ConfigError
from dagtest.mean_tests import METHODS, finish_methods, run_methods
from dagtest.pathway import EdgePerturbation, PathwayDag, perturb_edges
from dagtest.sem import GroupedSample
from dagtest.simulate import (
    _ADJACENCY,
    _COEFFICIENTS,
    _CONFOUNDERS,
    _ERRORS,
    _PERTURBATION,
    ERROR_FAMILIES,
    ConfounderConfig,
    MethodSummary,
    SimConfig,
    _confounder_noise,
    gen_adjacency,
    gen_coefficients,
    gen_dataset,
    gen_errors,
    run_delta_grid,
    run_experiment,
    round_half_up,
    stream_rng,
)


# ---------------------------------------------------------------------------
# stream_rng / round_half_up
# ---------------------------------------------------------------------------

def test_stream_rng_reproducible_and_distinct():
    a = stream_rng(7, 3, 1).standard_normal(8)
    b = stream_rng(7, 3, 1).standard_normal(8)
    c = stream_rng(7, 3, 2).standard_normal(8)
    d = stream_rng(7, 4, 1).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.49) == 2
    assert round_half_up(0.5) == 1
    assert round_half_up(0.0) == 0


# ---------------------------------------------------------------------------
# gen_adjacency
# ---------------------------------------------------------------------------

def test_gen_adjacency_child_count_and_parent_bounds():
    rng = np.random.default_rng(72)
    for _ in range(20):
        p = int(rng.integers(5, 60))
        frac = float(rng.uniform(0.2, 0.9))
        dag = gen_adjacency(p, frac, seed=int(rng.integers(1 << 30)))
        assert dag.p == p
        assert dag.n_children == round_half_up(frac * p)
        assert dag.topo_order == tuple(range(p))  # edges drawn forward
        for j, k in dag.edges:
            assert 0 <= j < k < p
        for pos, parents in enumerate(dag.parent_sets):
            if parents:
                assert pos >= 1
                assert len(parents) <= pos
                assert len(set(parents)) == len(parents)


def test_gen_adjacency_every_child_has_a_parent():
    dag = gen_adjacency(30, 0.5, seed=4)
    children = {k for _, k in dag.edges}
    assert len(children) == dag.n_children
    assert 0 not in children  # the first node can never have parents


def test_gen_adjacency_seed_determinism():
    a = gen_adjacency(40, 0.6, seed=11)
    b = gen_adjacency(40, 0.6, seed=11)
    c = gen_adjacency(40, 0.6, seed=12)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_gen_adjacency_max_in_degree_envelope():
    # Own frozen envelope: over seeds 0..199 at p=100, p0_fraction=0.6 the
    # maximum in-degree stayed within [5, 16] (observed range 6..16, mode 8).
    ds = [gen_adjacency(100, 0.6, seed=s).max_in_degree for s in range(200)]
    inside = np.mean([5 <= d <= 16 for d in ds])
    assert inside >= 0.95


def test_gen_adjacency_denser_parent_regime():
    # Raising the negative-binomial success parameter shrinks the parent
    # draws: at 0.8 the max in-degree concentrates on single digits.
    ds = [
        gen_adjacency(100, 0.8, nb_success=0.8, seed=s).max_in_degree
        for s in range(100)
    ]
    assert 3 <= np.min(ds) and np.max(ds) <= 10


# ---------------------------------------------------------------------------
# gen_coefficients
# ---------------------------------------------------------------------------

def test_gen_coefficients_support_and_norm():
    rng = np.random.default_rng(73)
    for _ in range(10):
        dag = gen_adjacency(25, 0.6, seed=int(rng.integers(1 << 30)))
        Q = gen_coefficients(dag, kappa=1.5, seed=int(rng.integers(1 << 30)))
        support = {(i, k) for i, k in zip(*np.nonzero(Q))}
        expected = set()
        for pos, parents in enumerate(dag.parent_sets):
            expected |= {(i, pos) for i in parents}
        assert support == expected
        top = np.linalg.svd(Q, compute_uv=False)[0]
        assert abs(top - 1.0 / 1.5) < 1e-8


def test_gen_coefficients_single_edge_magnitude():
    dag = PathwayDag.from_edges([(0, 1)], p=2)
    Q = gen_coefficients(dag, kappa=1.5, seed=5)
    assert_allclose(abs(Q[0, 1]), 2.0 / 3.0, atol=1e-12)


def test_gen_coefficients_signs_vary():
    dag = gen_adjacency(40, 0.7, seed=9)
    Q = gen_coefficients(dag, seed=10)
    vals = Q[np.nonzero(Q)]
    assert (vals > 0).any() and (vals < 0).any()


def test_gen_coefficients_edgeless_graph():
    dag = PathwayDag.from_edges([], p=4)
    Q = gen_coefficients(dag, seed=1)
    assert np.all(Q == 0.0)


def per_edge_coefficients(dag, kappa, rng):
    """The per-edge sign loop and dense spectral norm that gen_coefficients
    replaced, kept as its reference."""
    p = dag.p
    q0 = np.zeros((p, p))
    support = sorted(
        (i, k) for k, parents in enumerate(dag.parent_sets) for i in parents
    )
    if not support:
        return q0
    flips = rng.integers(0, 2, size=len(support))
    for (i, k), flip in zip(support, flips):
        q0[i, k] = -1.0 if flip else 1.0
    return q0 / (kappa * np.linalg.norm(q0, 2))


def coefficient_dags():
    """Index-ordered dags (p from 2 to 100, a single edge, edgeless, every
    forward edge), each also with its nodes relabelled by a permutation, so
    that its topological positions are not its indices."""
    rng = np.random.default_rng(2405)
    dags = [
        PathwayDag.from_edges([(0, 1)], p=2),
        PathwayDag.from_edges([(3, 7)], p=10),
        PathwayDag.from_edges([], p=5),
        PathwayDag.from_edges([(i, j) for j in range(12) for i in range(j)], p=12),
    ]
    for p, p0 in [(2, 0.5), (5, 0.6), (17, 0.6), (40, 0.3), (60, 0.9), (100, 0.65)]:
        dags += [gen_adjacency(p, p0, seed=int(rng.integers(1 << 30))) for _ in range(3)]
    permuted = []
    for dag in dags:
        perm = rng.permutation(dag.p)
        edges = [(perm[j], perm[k]) for j, k in dag.edges]
        permuted.append(PathwayDag.from_edges(edges, p=dag.p))
    return dags + permuted


def test_gen_coefficients_matches_the_per_edge_loop():
    # The same draws give the same sign on every edge, and the block's
    # largest singular value moves the magnitudes in their last bits only.
    dags = coefficient_dags()
    assert any(dag.topo_order != tuple(range(dag.p)) for dag in dags)
    for index, dag in enumerate(dags):
        for kappa in (1.5, 0.7):
            ours, theirs = stream_rng(24, index, 1), stream_rng(24, index, 1)
            Q = gen_coefficients(dag, kappa, ours)
            want = per_edge_coefficients(dag, kappa, theirs)
            assert np.array_equal(np.sign(Q), np.sign(want))
            assert_allclose(Q, want, rtol=1e-14, atol=0.0)
            # Both consumed the same draws.
            assert np.array_equal(ours.random(4), theirs.random(4))


# ---------------------------------------------------------------------------
# gen_errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ERROR_FAMILIES)
def test_gen_errors_centered_with_target_variance(family):
    r = np.array([0.2, 1.0, 3.0])
    draws = gen_errors(family, r, n=200_000, seed=21)
    assert draws.shape == (200_000, 3)
    if family == "lognormal":
        expected_var = np.full(3, (math.exp(0.16) - 1.0) * math.exp(0.16))
    else:
        expected_var = r
    assert_allclose(draws.mean(axis=0), 0.0, atol=0.02)
    assert_allclose(draws.var(axis=0), expected_var, rtol=0.03)


@pytest.mark.parametrize("seed", [0, 5, 91])
@pytest.mark.parametrize("n, p", [(1, 1), (4, 7), (200, 100)])
def test_gen_errors_gaussian_is_numpys_normal_bit_for_bit(seed, n, p):
    # Scaling standard normals in place is numpy's own 0 + √r·z: the same
    # stream gives the same bits, signed zeros included.
    r = np.random.default_rng(seed + 100).uniform(0.01, 50.0, size=p)
    got = gen_errors("gaussian", r, n=n, seed=np.random.default_rng(seed))
    want = np.random.default_rng(seed).normal(0.0, np.sqrt(r), size=(n, p))
    assert got.shape == (n, p)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_gen_errors_uniform_support():
    r = np.array([1.0 / 3.0])
    draws = gen_errors("uniform", r, n=50_000, seed=22)
    # Variance r = 1/3 means the half-width sqrt(3r) is exactly 1.
    assert np.max(np.abs(draws)) <= 1.0
    assert np.max(np.abs(draws)) > 0.999


def test_gen_errors_gamma_skewed():
    draws = gen_errors("gamma", np.array([1.0]), n=100_000, seed=23)
    standardized = draws[:, 0] / draws[:, 0].std()
    assert np.mean(standardized ** 3) > 0.3  # gamma(10) skewness ~ 0.63


def test_gen_errors_rejects_unknown_family():
    with pytest.raises(ValueError):
        gen_errors("weibull", np.array([1.0]), n=10, seed=0)


@pytest.mark.parametrize("r", [0.0, -1.0])
def test_gen_errors_rejects_a_nonpositive_variance(r):
    with pytest.raises(ValueError, match="^r_values must be positive$"):
        gen_errors("gaussian", np.array([1.0, r]), n=10, seed=0)


# ---------------------------------------------------------------------------
# gen_dataset
# ---------------------------------------------------------------------------

def test_gen_dataset_shapes_and_model():
    cfg = SimConfig(n1=15, n2=25, p=12, delta=0.3, seed=3)
    sample, true_dag, used_dag, model = gen_dataset(cfg, replicate=2)
    assert sample.X.shape == (40, 12)
    assert sample.n1 == 15 and sample.n2 == 25
    assert true_dag is used_dag  # no perturbation configured
    assert model.p == 12
    # Group 2 carries the shift on the first q coordinates.
    q = cfg.q
    assert_allclose(model.mean_shift[:q], -0.3, rtol=1e-15)
    assert np.all(model.mean_shift[q:] == 0.0)


def test_gen_dataset_solves_triangular_system():
    # Reconstructing the noise through (I - Q^T) x must reproduce the error
    # stream exactly: forward substitution is an exact inverse pair here.
    cfg = SimConfig(n1=10, n2=10, p=8, delta=0.0, seed=14)
    sample, true_dag, _, model = gen_dataset(cfg, replicate=0)
    from dagtest.simulate import _ERRORS

    eps = gen_errors(
        cfg.error_family, model.R, 20, stream_rng(cfg.seed, 0, _ERRORS)
    )
    reconstructed = sample.X @ (np.eye(8) - model.Q)
    assert_allclose(reconstructed, eps, atol=1e-12)


def test_gen_dataset_replicates_differ_same_replicate_identical():
    cfg = SimConfig(n1=8, n2=8, p=6, seed=5)
    a = gen_dataset(cfg, replicate=1)[0].X
    b = gen_dataset(cfg, replicate=1)[0].X
    c = gen_dataset(cfg, replicate=2)[0].X
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gen_dataset_covariance_recovery_no_edges():
    # With Q ~ 0-free graph this check needs edges allowed; use a tiny
    # p0_fraction so only one child exists, then compare empirical and
    # implied covariance entrywise.
    cfg = SimConfig(n1=50_000, n2=2, p=10, p0_fraction=0.1, r0=0.2, seed=8)
    sample, true_dag, _, model = gen_dataset(cfg)
    emp = np.cov(sample.X[: cfg.n1].T)
    assert np.max(np.abs(emp - model.Sigma)) < 0.02
    frob = np.linalg.norm(emp - model.Sigma) / np.linalg.norm(model.Sigma)
    assert frob < 0.05


def test_gen_dataset_perturbation_modes():
    pert = EdgePerturbation("missing", 0.4)
    cfg = SimConfig(n1=10, n2=10, p=20, perturbation=pert, seed=6)
    sample, true_dag, used_dag, _ = gen_dataset(cfg, replicate=3)
    removed = true_dag.n_edges - used_dag.n_edges
    assert removed == round_half_up(0.4 * true_dag.n_edges)
    assert used_dag.edges < true_dag.edges
    # Same replicate reproduces the same perturbed graph.
    again = gen_dataset(cfg, replicate=3)[2]
    assert again.edges == used_dag.edges


def test_gen_dataset_confounders_inflate_variance():
    base = SimConfig(n1=4000, n2=2, p=10, r0=0.2, seed=9)
    conf = SimConfig(
        n1=4000, n2=2, p=10, r0=0.2, seed=9, confounders=ConfounderConfig()
    )
    x_base = gen_dataset(base)[0].X
    x_conf = gen_dataset(conf)[0].X
    assert x_conf.var(axis=0).mean() > x_base.var(axis=0).mean()


# ---------------------------------------------------------------------------
# SimConfig
# ---------------------------------------------------------------------------

def test_sim_config_dict_round_trip():
    cfg = SimConfig(
        n1=20,
        n2=30,
        p=15,
        delta=0.25,
        error_family="uniform",
        confounders=ConfounderConfig(count=3),
        perturbation=EdgePerturbation("redundant", 0.4, seed=2),
        replicates=50,
        seed=42,
    )
    back = SimConfig.from_dict(cfg.to_dict())
    assert back == cfg


@pytest.mark.parametrize(
    "patch, path",
    [
        ({"n1": 1}, "/n1"),
        ({"n2": "many"}, "/n2"),
        ({"p": 1}, "/p"),
        ({"p0_fraction": 1.0}, "/p0_fraction"),
        ({"p0_fraction": 0.001}, "/p0_fraction"),
        ({"nb_success": 0.0}, "/nb_success"),
        ({"nb_failures": 0}, "/nb_failures"),
        ({"kappa": 0.0}, "/kappa"),
        ({"r0": -1.0}, "/r0"),
        ({"q_fraction": 1.5}, "/q_fraction"),
        ({"error_family": "weibull"}, "/error_family"),
        ({"replicates": 0}, "/replicates"),
        ({"alpha": 1.0}, "/alpha"),
        ({"seed": -1}, "/seed"),
        ({"kappa": math.inf}, "/kappa"),
        ({"r0": math.inf}, "/r0"),
        ({"perturbation": 5}, "/perturbation"),
        ({"confounders": 5}, "/confounders"),
        ({"perturbation": {"mode": "missing", "seed": "abc"}}, "/perturbation/seed"),
        ({"perturbation": {"mode": "missing", "seed": -1}}, "/perturbation/seed"),
        ({"perturbation": {"mode": "missing", "fraction": "x"}}, "/perturbation/fraction"),
        ({"confounders": {"count": 1.5}}, "/confounders/count"),
        # JSON true and false are Python bools, which are ints.
        ({"seed": True}, "/seed"),
        ({"replicates": True}, "/replicates"),
        ({"nb_failures": True}, "/nb_failures"),
        ({"delta": True}, "/delta"),
        ({"confounders": {"count": True}}, "/confounders/count"),
        ({"confounders": {"c_density": True}}, "/confounders/c_density"),
        ({"perturbation": {"mode": "missing", "seed": True}}, "/perturbation/seed"),
        ({"perturbation": {"mode": "missing", "fraction": False}}, "/perturbation/fraction"),
        # A value of the wrong JSON type fails at its own path.
        ({"kappa": "1.5"}, "/kappa"),
        ({"alpha": None}, "/alpha"),
        ({"p0_fraction": [0.5]}, "/p0_fraction"),
        ({"confounders": {"c_scale": "1"}}, "/confounders/c_scale"),
        ({"perturbation": {"mode": "sideways"}}, "/perturbation/mode"),
        ({"confounders": {"c_scale": math.inf}}, "/confounders/c_scale"),
        # The confounder variance 0.2²/max|Q| needs an edge.
        ({"p0_fraction": 0.0, "confounders": {}}, "/confounders"),
    ],
)
def test_sim_config_validation_paths(patch, path):
    doc = SimConfig(n1=10, n2=10, p=10).to_dict()
    doc.update(patch)
    with pytest.raises(ConfigError) as err:
        SimConfig.from_dict(doc)
    assert err.value.path == path


# A JSON integer beyond the float range.
_HUGE = 10**400


@pytest.mark.parametrize(
    "patch, path",
    [
        ({"delta": _HUGE}, "/delta"),
        ({"kappa": _HUGE}, "/kappa"),
        ({"r0": _HUGE}, "/r0"),
        ({"delta_grid": [0.0, _HUGE]}, "/delta_grid"),
        ({"p": _HUGE}, "/p"),
        ({"nb_failures": _HUGE}, "/nb_failures"),
        ({"confounders": {"c_scale": _HUGE}}, "/confounders/c_scale"),
    ],
)
def test_integer_beyond_the_float_range_is_a_config_error(
    tmp_path, capsys, patch, path
):
    doc = {"n1": 6, "n2": 6, "p": 5, "replicates": 2, "seed": 1, **patch}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", str(config), "--out", str(out_dir)])
    assert code == 2
    assert f"error: config error at {path}:" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "patch, path",
    [
        ({"n1": 10**300}, "/n1"),
        ({"n2": 10**300}, "/n2"),
        ({"n1": 2**61}, "/n1"),
        ({"p": 10**30}, "/p"),
        ({"p": 2**31}, "/p"),
        ({"confounders": {"count": 10**30}}, "/confounders/count"),
        ({"confounders": {"count": 2**61}}, "/confounders/count"),
    ],
)
def test_size_beyond_numpy_index_range_is_a_config_error(
    tmp_path, capsys, patch, path
):
    # Sizes within the float range whose replicate arrays numpy could not
    # index fail at their own path before any replicate is drawn.
    doc = {"n1": 6, "n2": 6, "p": 5, "replicates": 2, "seed": 1, **patch}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", str(config), "--out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: config error at {path}: too large: a replicate's arrays "
        "could not be indexed\n"
    )
    assert not out_dir.exists()


def test_largest_indexable_sizes_pass_the_config_check():
    limit = dagtest.simulate._MAX_VALUES
    SimConfig(n1=2, n2=2, p=math.isqrt(limit))
    SimConfig(n1=limit // 5 - 2, n2=2, p=5)
    SimConfig(n1=6, n2=6, p=5, confounders=ConfounderConfig(count=limit // 12))


def test_allocation_failure_is_one_error_line(tmp_path, capsys, monkeypatch):
    # A replicate too large for memory (not for numpy's index range) ends the
    # run with one error line and exit 2, not a traceback.
    def draw(cfg, replicate):
        raise MemoryError("Unable to allocate 40.0 TiB for an array")

    monkeypatch.setattr(dagtest.simulate, "_draw", draw)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n1": 6, "n2": 6, "p": 5, "replicates": 2}))
    out_dir = tmp_path / "out"
    for threads in ("1", "2"):
        code = main(
            ["simulate", "--config", str(config), "--out", str(out_dir),
             "--threads", threads]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 40.0 TiB for an array\n"
        assert captured.out == ""
    assert not out_dir.exists()


def test_seed_takes_an_integer_beyond_the_float_range():
    doc = SimConfig(n1=10, n2=10, p=10).to_dict()
    doc["seed"] = _HUGE
    assert SimConfig.from_dict(doc).seed == _HUGE


def test_sim_config_unknown_keys():
    doc = SimConfig(n1=10, n2=10, p=10).to_dict()
    doc["zeta"] = 1
    with pytest.raises(ConfigError) as err:
        SimConfig.from_dict(doc)
    assert err.value.path == "/zeta"
    doc = SimConfig(n1=10, n2=10, p=10, confounders=ConfounderConfig()).to_dict()
    doc["confounders"]["spread"] = 2
    with pytest.raises(ConfigError) as err:
        SimConfig.from_dict(doc)
    assert err.value.path == "/confounders/spread"
    doc = SimConfig(n1=10, n2=10, p=10).to_dict()
    doc["perturbation"] = {"mode": "missing", "fractoin": 0.5}
    with pytest.raises(ConfigError) as err:
        SimConfig.from_dict(doc)
    assert err.value.path == "/perturbation/fractoin"


def test_sim_config_q_counts():
    cfg = SimConfig(n1=10, n2=10, p=40, q_fraction=0.5)
    assert cfg.q == 20
    assert cfg.n_children == 24  # 0.6 * 40


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_run_experiment_single_replicate_rates():
    cfg = SimConfig(n1=20, n2=20, p=8, replicates=1, seed=13)
    table = run_experiment(cfg, methods=("t2dag_chi2",))
    row = table.rows[0]
    assert row.n_total == 1
    assert row.rate in (0.0, 1.0)
    assert row.n_failed == 0
    assert 0.0 <= row.ci_low <= row.rate <= row.ci_high <= 1.0


def test_run_experiment_threads_do_not_change_results():
    cfg = SimConfig(n1=15, n2=15, p=10, delta=0.2, replicates=24, seed=17)
    methods = ("t2dag_chi2", "t2dag_z", "chen_qin")
    serial = run_experiment(cfg, methods, threads=1)
    pooled = run_experiment(cfg, methods, threads=4)
    assert serial.to_dict() == pooled.to_dict()


def test_run_experiment_power_increases_with_delta():
    base = SimConfig(n1=25, n2=25, p=10, delta=0.0, replicates=60, seed=19)
    strong = SimConfig(n1=25, n2=25, p=10, delta=0.8, replicates=60, seed=19)
    rate0 = run_experiment(base, ("t2dag_chi2",)).rows[0].rate
    rate1 = run_experiment(strong, ("t2dag_chi2",)).rows[0].rate
    assert rate1 > rate0 + 0.3
    assert rate1 > 0.9


def test_run_experiment_counts_method_failures():
    # p = 41 > n - 2 makes Hotelling impossible in every replicate while the
    # DAG-informed test still runs.
    cfg = SimConfig(n1=20, n2=20, p=41, replicates=25, seed=23)
    table = run_experiment(cfg, methods=("hotelling", "t2dag_chi2"))
    by_method = {row.method: row for row in table.rows}
    assert by_method["hotelling"].n_total == 0
    assert by_method["hotelling"].n_failed == 25
    assert by_method["hotelling"].rate == 0.0
    assert by_method["t2dag_chi2"].n_total == 25
    # Failure notes are capped at 20 plus a "... and K more" summary line.
    assert len(table.failure_notes) == 21
    assert table.failure_notes[0].startswith(
        "replicate 0, hotelling: Hotelling T2 needs n1+n2 > p+1"
    )
    assert table.failure_notes[-1].endswith("more")


def test_run_experiment_non_finite_replicates_fail_per_replicate():
    # A valid, subnormal kappa makes every replicate's rescaled coefficients
    # overflow: the generator's own check fails each replicate with a note
    # while the experiment completes.
    cfg = SimConfig(n1=10, n2=10, p=5, replicates=3, kappa=1e-320)
    table = run_experiment(cfg, methods=("t2dag_chi2", "chen_qin"))
    assert all(row.n_total == 0 and row.n_failed == 3 for row in table.rows)
    assert table.failure_notes == tuple(
        f"replicate {r}: array must not contain infs or NaNs" for r in range(3)
    )


def test_run_experiment_uniform_overflow_fails_per_replicate():
    # sqrt(3 * 1e308) overflows; each replicate fails with a note instead of
    # numpy's OverflowError ending the experiment.
    cfg = SimConfig(n1=10, n2=10, p=5, replicates=3, r0=1e308, error_family="uniform")
    table = run_experiment(cfg, methods=("t2dag_chi2", "chen_qin"))
    assert all(row.n_total == 0 and row.n_failed == 3 for row in table.rows)
    assert table.failure_notes == tuple(
        f"replicate {r}: uniform half-width sqrt(3*r) is not finite" for r in range(3)
    )
    with pytest.raises(ValueError, match="half-width"):
        gen_errors("uniform", np.array([1.0, math.inf]), n=4, seed=0)


def test_run_experiment_table_serialization():
    cfg = SimConfig(n1=12, n2=12, p=6, replicates=4, seed=29)
    table = run_experiment(cfg, methods=("t2dag_z",))
    doc = table.to_dict()
    assert doc["config"]["n1"] == 12
    assert doc["results"][0]["method"] == "t2dag_z"
    assert doc["results"][0]["n_total"] == 4
    assert doc["failure_notes"] == []


# ---------------------------------------------------------------------------
# run_delta_grid: one draw per replicate for the whole grid
# ---------------------------------------------------------------------------

GRID = (0.0, 0.3, -1.0)


def _forced_infinite_r0(cfg: SimConfig) -> SimConfig:
    # Past the config check: every replicate's draw fails.
    object.__setattr__(cfg, "r0", math.inf)
    return cfg


def grid_configs() -> dict:
    base = SimConfig(n1=12, n2=12, p=8, replicates=5, seed=3)
    return {
        "default": base,
        "confounders": replace(base, confounders=ConfounderConfig()),
        "perturbation_seeded": replace(
            base, perturbation=EdgePerturbation("missing", 0.4, seed=4)
        ),
        "perturbation_unseeded": replace(
            base, perturbation=EdgePerturbation("redundant", 0.5)
        ),
        "uniform": replace(base, error_family="uniform"),
        "gamma": replace(base, error_family="gamma"),
        "lognormal": replace(base, error_family="lognormal"),
        # p >= n: Hotelling fails in every replicate.
        "p_at_least_n": replace(base, n1=5, n2=5, p=12),
        # A valid config whose every draw fails: sqrt(3 * 1e308) overflows.
        "draw_overflows": replace(base, replicates=3, r0=1e308, error_family="uniform"),
        # Six samples and parent sets of two or more: the SEM fit (and
        # Hotelling) fails in every replicate, while both baselines run.
        "fit_fails": replace(base, n1=3, n2=3, nb_success=0.1),
    }


def experiment_csv(deltas, tables) -> str:
    """experiment.csv as ``dagtest simulate`` writes it."""
    header = ["delta", *(f.name for f in fields(MethodSummary))]
    rows = [
        [delta, *astuple(r)] for delta, table in zip(deltas, tables) for r in table.rows
    ]
    return csv_text(header, rows)


def _fresh_per_delta_tables(cfg: SimConfig, deltas) -> list:
    """The tables of a grid as gen_dataset and run_methods give them, one
    fresh sample and one full run of every method per (replicate, delta)."""
    tables = []
    for delta in deltas:
        c = replace(cfg, delta=delta)
        outcomes = []
        for r in range(c.replicates):
            try:
                sample, _true_dag, used_dag, _model = gen_dataset(c, r)
            except ValueError as exc:
                outcomes.append((dict.fromkeys(METHODS), [f"replicate {r}: {exc}"]))
                continue
            results, errors = run_methods(sample, used_dag, METHODS)
            decisions = dict.fromkeys(METHODS)
            for result in results:
                decisions[result.method] = bool(result.p_value <= c.alpha)
            outcomes.append((decisions, [f"replicate {r}, {e}" for e in errors]))
        tables.append(dagtest.simulate._fold_table(c, METHODS, outcomes))
    return tables


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", list(grid_configs()))
def test_run_delta_grid_equals_one_experiment_per_delta(name, threads):
    cfg = grid_configs()[name]
    grid = run_delta_grid(cfg, GRID, METHODS, threads=threads)
    singles = [run_experiment(replace(cfg, delta=d), METHODS, threads) for d in GRID]
    assert [t.to_dict() for t in grid] == [t.to_dict() for t in singles]
    assert experiment_csv(GRID, grid) == experiment_csv(GRID, singles)
    # The grid fits each replicate once, on its first in-range sample; the
    # decisions, counts and notes must be those of a fresh fit of every
    # shifted sample.
    fresh = _fresh_per_delta_tables(cfg, GRID)
    assert [t.to_dict() for t in grid] == [t.to_dict() for t in fresh]
    assert experiment_csv(GRID, grid) == experiment_csv(GRID, fresh)
    if name == "draw_overflows":
        for table in grid:
            assert all(row.n_failed == 3 for row in table.rows)
            assert table.failure_notes == tuple(
                f"replicate {r}: uniform half-width sqrt(3*r) is not finite"
                for r in range(3)
            )
    if name == "p_at_least_n":
        hotelling = [row for row in grid[0].rows if row.method == "hotelling"]
        assert hotelling[0].n_failed == cfg.replicates
    if name == "fit_fails":
        for table in grid:
            failed = {row.method: row.n_failed for row in table.rows}
            assert failed == {
                "t2dag_chi2": cfg.replicates,
                "t2dag_z": cfg.replicates,
                "hotelling": cfg.replicates,
                "bai_saranadasa": 0,
                "chen_qin": 0,
            }


def test_unshifted_draw_out_of_range_runs_each_delta_alone(monkeypatch):
    # Group 2's shifted columns hold 1e80, out of range, until a delta of
    # -1e80 brings them to 0: only then does a sample get results, so the
    # unshifted draw can hold no state for the grid.
    real = dagtest.simulate._draw

    def draw(cfg, replicate):
        X, *rest = real(cfg, replicate)
        X[cfg.n1 :, : cfg.q] = 1e80
        return (X, *rest)

    monkeypatch.setattr(dagtest.simulate, "_draw", draw)
    cfg = replace(grid_configs()["default"], replicates=3)
    deltas = (0.0, -1e80)
    grid = run_delta_grid(cfg, deltas, METHODS)
    assert [t.to_dict() for t in grid] == [
        t.to_dict() for t in _fresh_per_delta_tables(cfg, deltas)
    ]
    assert all(row.n_failed == 3 for row in grid[0].rows)
    assert "out of range" in grid[0].failure_notes[0]
    assert any(row.n_total == 3 for row in grid[1].rows)


@pytest.mark.parametrize("name", [n for n in grid_configs() if n != "draw_overflows"])
def test_shared_state_statistics_match_a_fresh_fit(name):
    # At delta = 0 the shared state's sample is the tested one: every
    # statistic is bit-identical. At delta != 0 the centered rows of the
    # shifted sample, which every family's delta-free part reads (Chen–Qin's
    # Grams too), differ from the unshifted ones in the last bits only.
    cfg = grid_configs()[name]
    for r in range(cfg.replicates):
        unshifted, _true_dag, used_dag, _model = gen_dataset(cfg, r)
        states = {}
        finish_methods(states, unshifted, used_dag, METHODS)
        for delta in GRID:
            sample = gen_dataset(replace(cfg, delta=delta), r)[0]
            got, got_errors = finish_methods(states, sample, used_dag, METHODS)
            want, want_errors = run_methods(sample, used_dag, METHODS)
            assert got_errors == want_errors
            assert [g.method for g in got] == [w.method for w in want]
            by_method = {w.method: w for w in want}
            for g in got:
                w = by_method[g.method]
                assert g.to_dict()["reference"] == w.to_dict()["reference"]
                if delta == 0.0:
                    assert g.statistic == w.statistic, (g.method, delta)
                elif g.method == "t2dag_z":
                    chi2 = by_method["t2dag_chi2"].statistic
                    tol = 1e-12 * chi2 / math.sqrt(2 * cfg.p)
                    assert abs(g.statistic - w.statistic) <= tol
                else:
                    assert_allclose(g.statistic, w.statistic, rtol=1e-12, atol=0)


def test_run_delta_grid_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="deltas must be nonempty"):
        run_delta_grid(SimConfig(n1=10, n2=10, p=5), [], ("t2dag_chi2",))


def test_run_delta_grid_rejects_a_method_named_twice():
    # A method named twice would give its table two rows for one test.
    cfg = SimConfig(n1=10, n2=10, p=5, replicates=3)
    with pytest.raises(ValueError, match="method 't2dag_z' is named twice"):
        run_delta_grid(cfg, [0.0], ("t2dag_z", "t2dag_z"))


@pytest.mark.parametrize("threads", [1, 3])
def test_forced_non_finite_draw_fails_in_every_table(threads):
    # kappa = 1e-320 passes the config check and forces infinite
    # coefficients, so every replicate's draw fails under every delta.
    cfg = SimConfig(n1=10, n2=10, p=5, replicates=3, kappa=1e-320)
    grid = run_delta_grid(cfg, GRID, METHODS, threads)
    singles = [run_experiment(replace(cfg, delta=d), METHODS, threads) for d in GRID]
    assert [t.to_dict() for t in grid] == [t.to_dict() for t in singles]
    assert experiment_csv(GRID, grid) == experiment_csv(GRID, singles)
    for table in grid:
        assert all(row.n_total == 0 and row.n_failed == 3 for row in table.rows)
        assert table.failure_notes == tuple(
            f"replicate {r}: array must not contain infs or NaNs" for r in range(3)
        )


def test_cmd_simulate_csv_equals_one_experiment_per_delta(tmp_path):
    doc = {"n1": 10, "n2": 10, "p": 6, "replicates": 4, "seed": 8,
           "confounders": {}, "delta_grid": list(GRID)}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    args = ["simulate", "--config", str(tmp_path / "cfg.json"),
            "--methods", "all", "--out", str(tmp_path / "out")]
    assert main(args) == 0
    base = SimConfig.from_dict({k: v for k, v in doc.items() if k != "delta_grid"})
    singles = [run_experiment(replace(base, delta=d), METHODS) for d in GRID]
    written = (tmp_path / "out" / "experiment.csv").read_text()
    assert written == experiment_csv(GRID, singles)


@pytest.fixture
def adjacency_calls(monkeypatch):
    calls = []
    real = dagtest.simulate.gen_adjacency

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dagtest.simulate, "gen_adjacency", counting)
    return calls


def test_run_delta_grid_draws_each_replicate_once(adjacency_calls):
    cfg = SimConfig(n1=10, n2=10, p=6, replicates=4, seed=2)
    tables = run_delta_grid(cfg, GRID, ("t2dag_chi2",), threads=2)
    assert len(tables) == len(GRID)
    assert len(adjacency_calls) == cfg.replicates


def test_run_delta_grid_fits_each_replicate_once(monkeypatch):
    # One SEM fit and one Cholesky factor per replicate, not per delta.
    calls = {"fit_sem": 0, "dpotrf": 0}
    for name in calls:
        real = getattr(dagtest.mean_tests, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(dagtest.mean_tests, name, counted)
    cfg = SimConfig(n1=10, n2=10, p=6, replicates=4, seed=2)
    tables = run_delta_grid(cfg, GRID, METHODS, threads=2)
    assert len(GRID) == 3
    assert all(row.n_total == cfg.replicates for t in tables for row in t.rows)
    assert calls == {"fit_sem": cfg.replicates, "dpotrf": cfg.replicates}


def test_grid_starting_off_zero_fits_each_replicate_once(monkeypatch):
    # The state comes from the grid's first sample, here a shifted one: one
    # SEM fit per replicate, the statistics of a fresh fit at that delta bit
    # for bit, and the tables of a fresh fit per delta.
    fits, finished = [], []
    real_fit = dagtest.mean_tests.fit_sem
    real_finish = dagtest.simulate.finish_methods

    def fit(*args):
        fits.append(args)
        return real_fit(*args)

    def finish(*args):
        finished.append(real_finish(*args))
        return finished[-1]

    monkeypatch.setattr(dagtest.mean_tests, "fit_sem", fit)
    monkeypatch.setattr(dagtest.simulate, "finish_methods", finish)
    cfg = grid_configs()["confounders"]
    deltas = (0.3, 0.0, -1.0)
    grid = run_delta_grid(cfg, deltas, METHODS)
    monkeypatch.undo()
    assert len(fits) == cfg.replicates
    assert len(finished) == cfg.replicates * len(deltas)
    for r in range(cfg.replicates):
        sample, _true_dag, used_dag, _model = gen_dataset(replace(cfg, delta=0.3), r)
        results, errors = run_methods(sample, used_dag, METHODS)
        got_results, got_errors = finished[r * len(deltas)]
        assert [g.statistic for g in got_results] == [w.statistic for w in results]
        assert got_errors == errors
    fresh = _fresh_per_delta_tables(cfg, deltas)
    assert [t.to_dict() for t in grid] == [t.to_dict() for t in fresh]
    assert experiment_csv(deltas, grid) == experiment_csv(deltas, fresh)


def test_cmd_simulate_draws_each_replicate_once(tmp_path, adjacency_calls):
    doc = {"n1": 10, "n2": 10, "p": 6, "replicates": 4, "seed": 2,
           "delta_grid": list(GRID)}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    args = ["simulate", "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "out")]
    assert main(args) == 0
    assert len(adjacency_calls) == doc["replicates"]


def _gen_dataset_reference(cfg: SimConfig, replicate: int = 0):
    """gen_dataset as one function, before its delta-free draw was split
    from the group-2 shift: the reference the split must match bit for bit."""
    p, n1, n2 = cfg.p, cfg.n1, cfg.n2
    n = n1 + n2
    true_dag = gen_adjacency(
        p,
        cfg.p0_fraction,
        cfg.nb_failures,
        cfg.nb_success,
        stream_rng(cfg.seed, replicate, _ADJACENCY),
    )
    Q = gen_coefficients(
        true_dag, cfg.kappa, stream_rng(cfg.seed, replicate, _COEFFICIENTS)
    )
    R = np.full(p, cfg.r0)
    noise = gen_errors(
        cfg.error_family, R, n, stream_rng(cfg.seed, replicate, _ERRORS)
    )
    if cfg.confounders is not None:
        noise = noise + _confounder_noise(
            cfg.confounders, Q, n, stream_rng(cfg.seed, replicate, _CONFOUNDERS)
        )
    if not (np.isfinite(Q).all() and np.isfinite(noise).all()):
        raise ValueError("array must not contain infs or NaNs")
    X = dtrsm(1.0, np.eye(p) - Q.T, noise.T, lower=1, diag=1).T
    mu1 = np.zeros(p)
    mu2 = np.zeros(p)
    mu2[: cfg.q] = cfg.delta
    X[n1:] += mu2
    sample = GroupedSample.from_groups(X[:n1], X[n1:])
    used_dag = true_dag
    if cfg.perturbation.mode != "none":
        if cfg.perturbation.seed is not None:
            pert_rng = np.random.default_rng(cfg.perturbation.seed)
        else:
            pert_rng = stream_rng(cfg.seed, replicate, _PERTURBATION)
        used_dag = perturb_edges(true_dag, cfg.perturbation, rng=pert_rng)
    model = PopulationModel(mu1=mu1, mu2=mu2, Q=Q, R=R)
    return sample, true_dag, used_dag, model


@pytest.mark.parametrize("delta", [0.0, 0.3, -1.0])
@pytest.mark.parametrize("name", [n for n in grid_configs() if n != "draw_overflows"])
def test_gen_dataset_bit_identical_to_reference(name, delta):
    cfg = replace(grid_configs()[name], delta=delta)
    for replicate in range(3):
        got = gen_dataset(cfg, replicate)
        want = _gen_dataset_reference(cfg, replicate)
        for attr in ("X", "g"):
            a, b = getattr(got[0], attr), getattr(want[0], attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (got[0].n1, got[0].n2) == (want[0].n1, want[0].n2)
        for a, b in zip(got[1:3], want[1:3]):
            assert (a.p, a.edges) == (b.p, b.edges)
        for attr in ("mu1", "mu2", "Q", "R"):
            a, b = getattr(got[3], attr), getattr(want[3], attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_gen_dataset_draw_failure_matches_reference():
    cfg = _forced_infinite_r0(SimConfig(n1=10, n2=10, p=5))
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _gen_dataset_reference(cfg)
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        gen_dataset(cfg)
