"""Test statistics: DAG-informed quadratic form, Hotelling, BS/CQ baselines."""

import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.linalg import solve_triangular

from dagtest.errors import (
    DagTestError,
    DimensionTooLarge,
    EmptyList,
    InsufficientSamples,
)
from dagtest import mean_tests
from dagtest.mean_tests import (
    METHODS,
    baseline,
    bonferroni_adjust,
    hotelling,
    reference_p_value,
    t2dag,
)
from dagtest.divergence import PopulationModel, kl_divergence, power_lower_bound
from dagtest.pathway import PathwayDag
from dagtest.sem import GroupedSample, dag_precision, fit_sem
from dagtest.simulate import _clopper_pearson


def random_sample(rng, n1, n2, p, shift=0.0):
    return GroupedSample.from_groups(
        rng.normal(size=(n1, p)) + shift, rng.normal(size=(n2, p))
    )


def chain_dag(p):
    return PathwayDag.from_edges([(j, j + 1) for j in range(p - 1)], p=p)


def sem_sample(rng, n1, n2, p, Q, r, shift=0.0):
    """Draw two groups from the linear SEM with coefficient matrix Q."""

    def draw(n, mu):
        eps = rng.normal(scale=math.sqrt(r), size=(n, p))
        return mu + solve_triangular(
            np.eye(p) - Q.T, eps.T, lower=True, unit_diagonal=True
        ).T

    return GroupedSample.from_groups(draw(n1, shift), draw(n2, 0.0))


# ---------------------------------------------------------------------------
# t2dag
# ---------------------------------------------------------------------------

def test_t2dag_matches_dense_precision_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        p = int(rng.integers(2, 9))
        order = [int(v) for v in rng.permutation(p)]
        edges = [
            (order[i], order[k])
            for i in range(p)
            for k in range(i + 1, p)
            if rng.random() < 0.35
        ]
        dag = PathwayDag.from_edges(edges, p=p)
        sample = random_sample(rng, 12, 14, p, shift=0.2)
        est = fit_sem(sample, dag)
        P = dag_precision(est)
        d = sample.mean_diff[list(dag.topo_order)]
        oracle = sample.effective_n * float(d @ P @ d)
        chi2_res, z_res = t2dag(sample, dag)
        assert_allclose(chi2_res.statistic, oracle, rtol=1e-10)
        assert chi2_res.method == "t2dag_chi2"
        assert z_res.method == "t2dag_z"
        assert chi2_res.meta["p"] == p
        assert chi2_res.meta["Ne"] == dag.n_edges
        assert chi2_res.meta["n1"] == 12 and chi2_res.meta["n2"] == 14


def test_t2dag_reuses_provided_estimate():
    rng = np.random.default_rng(32)
    dag = chain_dag(5)
    sample = random_sample(rng, 10, 10, 5)
    est = fit_sem(sample, dag)
    a, _ = t2dag(sample, dag, estimate=est)
    b, _ = t2dag(sample, dag)
    assert a.statistic == b.statistic


def test_t2dag_equal_means():
    rng = np.random.default_rng(33)
    X1 = rng.normal(size=(10, 6))
    sample = GroupedSample.from_groups(X1, X1.copy())
    dag = chain_dag(6)
    chi2_res, z_res = t2dag(sample, dag)
    assert chi2_res.statistic == 0.0
    assert chi2_res.p_value == 1.0
    assert_allclose(z_res.statistic, -math.sqrt(6 / 2), rtol=1e-15)
    assert_allclose(
        z_res.p_value, 2 * stats.norm.sf(math.sqrt(3.0)), rtol=1e-12
    )


def test_t2dag_z_identity_one_ulp():
    rng = np.random.default_rng(34)
    for _ in range(20):
        p = int(rng.integers(2, 12))
        sample = random_sample(rng, 9, 9, p, shift=0.3)
        chi2_res, z_res = t2dag(sample, chain_dag(p))
        expected = (chi2_res.statistic - p) / math.sqrt(2 * p)
        assert abs(z_res.statistic - expected) <= math.ulp(expected)


def test_t2dag_diagonal_reduction_exact():
    rng = np.random.default_rng(35)
    p = 7
    sample = random_sample(rng, 8, 11, p, shift=0.4)
    dag = PathwayDag.from_edges([], p=p)
    est = fit_sem(sample, dag)
    d = sample.mean_diff
    oracle = sample.effective_n * float(np.sum(d * d / est.R_hat))
    chi2_res, _ = t2dag(sample, dag)
    assert chi2_res.statistic == oracle


def test_t2dag_scale_equivariance_no_edges():
    rng = np.random.default_rng(36)
    sample = random_sample(rng, 8, 8, 4, shift=0.2)
    dag = PathwayDag.from_edges([], p=4)
    base, _ = t2dag(sample, dag)
    X = sample.X.copy()
    X[:, 2] *= 4.0  # power of two: rescaling is exact in binary
    scaled, _ = t2dag(GroupedSample(X=X, g=sample.g, n1=8, n2=8), dag)
    assert scaled.statistic == base.statistic
    X2 = sample.X.copy()
    X2[:, 1] *= 3.7
    scaled2, _ = t2dag(GroupedSample(X=X2, g=sample.g, n1=8, n2=8), dag)
    assert_allclose(scaled2.statistic, base.statistic, rtol=1e-11)


def test_t2dag_scale_equivariance_common_factor_with_edges():
    rng = np.random.default_rng(37)
    dag = PathwayDag.from_edges([(0, 1), (1, 3), (2, 3)], p=4)
    sample = random_sample(rng, 9, 9, 4, shift=0.2)
    base, _ = t2dag(sample, dag)
    scaled, _ = t2dag(
        GroupedSample(X=2.5 * sample.X, g=sample.g, n1=9, n2=9), dag
    )
    assert_allclose(scaled.statistic, base.statistic, rtol=1e-10)


def test_t2dag_null_calibration_small_design():
    rng = np.random.default_rng(38)
    p = 10
    Q = np.zeros((p, p))
    for j in range(p - 1):
        Q[j, j + 1] = 0.5
    dag = chain_dag(p)
    reject_z = 0
    reps = 2000
    for _ in range(reps):
        sample = sem_sample(rng, 30, 30, p, Q, r=0.2)
        _, z_res = t2dag(sample, dag)
        reject_z += z_res.p_value <= 0.05
    assert 0.03 <= reject_z / reps <= 0.07


# ---------------------------------------------------------------------------
# hotelling
# ---------------------------------------------------------------------------

def test_hotelling_univariate_vs_t_oracle():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n1 = int(rng.integers(4, 15))
        n2 = int(rng.integers(4, 15))
        sample = random_sample(rng, n1, n2, 1, shift=0.5)
        res = hotelling(sample)
        t_stat = stats.ttest_ind(sample.X[:n1, 0], sample.X[n1:, 0]).statistic
        n = n1 + n2
        # Pooled covariance here uses denominator n-1, the t-test uses n-2.
        assert_allclose(res.statistic, t_stat ** 2 * (n - 1) / (n - 2), rtol=1e-10)


def test_hotelling_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(15):
        p = 5
        n1, n2 = 12, 9
        sample = random_sample(rng, n1, n2, p, shift=0.3)
        n = n1 + n2
        S = sample.centered.T @ sample.centered / (n - 1)
        d = sample.mean_diff
        oracle = sample.effective_n * float(d @ np.linalg.solve(S, d))
        res = hotelling(sample)
        assert_allclose(res.statistic, oracle, rtol=1e-10)
        f_val = oracle * (n - p - 1) / (p * (n - 2))
        assert_allclose(res.p_value, stats.f.sf(f_val, p, n - 1 - p), rtol=1e-12)


def test_hotelling_equal_means():
    rng = np.random.default_rng(43)
    X1 = rng.normal(size=(8, 3))
    res = hotelling(GroupedSample.from_groups(X1, X1.copy()))
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_hotelling_dimension_guard():
    rng = np.random.default_rng(44)
    with pytest.raises(DimensionTooLarge):
        hotelling(random_sample(rng, 5, 5, 10))  # p = n
    with pytest.raises(DimensionTooLarge):
        hotelling(random_sample(rng, 5, 5, 9))  # p = n - 1, still too large
    hotelling(random_sample(rng, 5, 5, 8))  # p = n - 2 is admissible


# ---------------------------------------------------------------------------
# baselines: independent oracles
# ---------------------------------------------------------------------------

def bs_oracle(sample):
    n1, n2 = sample.n1, sample.n2
    n = n1 + n2 - 2
    tau = (n1 + n2) / (n1 * n2)
    S = sample.centered.T @ sample.centered / n
    d = sample.mean_diff
    tr_s = float(np.trace(S))
    tr_s2 = float(np.trace(S @ S))
    m = float(d @ d) - tau * tr_s
    b2 = n ** 2 / ((n + 2) * (n - 1)) * (tr_s2 - tr_s ** 2 / n)
    return m / math.sqrt(2 * tau ** 2 * (n + 1) / n * b2)


def cq_oracle(sample):
    """Literal pairwise-loop transcription of the Chen-Qin statistic."""
    X1 = sample.X[: sample.n1]
    X2 = sample.X[sample.n1 :]
    n1, n2 = sample.n1, sample.n2

    def within_mean_cross(X):
        n = len(X)
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    total += float(X[i] @ X[j])
        return total / (n * (n - 1))

    cross = 0.0
    for i in range(n1):
        for j in range(n2):
            cross += float(X1[i] @ X2[j])
    stat = (
        within_mean_cross(X1)
        + within_mean_cross(X2)
        - 2.0 * cross / (n1 * n2)
    )

    def tr_sigma_sq(X):
        n = len(X)
        total = np.sum(X, axis=0)
        acc = 0.0
        for j in range(n):
            for k in range(n):
                if j == k:
                    continue
                mean_jk = (total - X[j] - X[k]) / (n - 2)
                acc += float(X[j] @ (X[k] - mean_jk)) * float(
                    X[k] @ (X[j] - mean_jk)
                )
        return acc / (n * (n - 1))

    def tr_sigma_cross(XA, XB):
        nA, nB = len(XA), len(XB)
        totA = np.sum(XA, axis=0)
        totB = np.sum(XB, axis=0)
        acc = 0.0
        for k in range(nA):
            mean_a = (totA - XA[k]) / (nA - 1)
            for l in range(nB):
                mean_b = (totB - XB[l]) / (nB - 1)
                acc += float(XA[k] @ (XB[l] - mean_b)) * float(
                    XB[l] @ (XA[k] - mean_a)
                )
        return acc / (nA * nB)

    var = (
        2.0 / (n1 * (n1 - 1)) * tr_sigma_sq(X1)
        + 2.0 / (n2 * (n2 - 1)) * tr_sigma_sq(X2)
        + 4.0 / (n1 * n2) * tr_sigma_cross(X1, X2)
    )
    return stat / math.sqrt(var)


def test_bai_saranadasa_matches_oracle():
    rng = np.random.default_rng(51)
    for _ in range(10):
        sample = random_sample(rng, 9, 11, 7, shift=0.3)
        res = baseline(sample, "bai_saranadasa")
        assert_allclose(res.statistic, bs_oracle(sample), rtol=1e-10)
        assert_allclose(
            res.p_value, stats.norm.sf(res.statistic), rtol=1e-12
        )


def test_chen_qin_matches_pairwise_loop_oracle():
    rng = np.random.default_rng(52)
    for _ in range(5):
        sample = random_sample(rng, 8, 10, 6, shift=0.3)
        res = baseline(sample, "chen_qin")
        assert_allclose(res.statistic, cq_oracle(sample), rtol=1e-9)


def test_baselines_identical_groups_do_not_reject():
    # With duplicated groups the mean-difference term vanishes, so both
    # centered statistics sit at or below zero and the upper-tail p-value
    # is near one (it cannot be ~0.5 because the centering term (-tau tr S)
    # is strictly negative).
    rng = np.random.default_rng(53)
    X1 = rng.normal(size=(50, 40))
    sample = GroupedSample.from_groups(X1, X1.copy())
    for which in ("bai_saranadasa", "chen_qin"):
        res = baseline(sample, which)
        assert res.statistic <= 0.0
        assert res.p_value >= 0.9


def test_baselines_need_three_per_group():
    rng = np.random.default_rng(54)
    sample = random_sample(rng, 2, 5, 4)
    for which in ("bai_saranadasa", "chen_qin"):
        with pytest.raises(InsufficientSamples):
            baseline(sample, which)


def test_baseline_rejects_unknown_method():
    rng = np.random.default_rng(55)
    with pytest.raises(ValueError):
        baseline(random_sample(rng, 5, 5, 3), "hotelling")


def test_baselines_null_calibration():
    rng = np.random.default_rng(56)
    reps = 2000
    hits = {"bai_saranadasa": 0, "chen_qin": 0}
    for _ in range(reps):
        sample = random_sample(rng, 25, 25, 40)
        for which in hits:
            hits[which] += baseline(sample, which).p_value <= 0.05
    for which, k in hits.items():
        assert 0.03 <= k / reps <= 0.07, which


def test_baselines_power_above_level():
    rng = np.random.default_rng(57)
    reps = 400
    hits = {"bai_saranadasa": 0, "chen_qin": 0}
    for _ in range(reps):
        shift = np.zeros(40)
        shift[:20] = 0.3
        sample = GroupedSample.from_groups(
            rng.normal(size=(25, 40)) + shift, rng.normal(size=(25, 40))
        )
        for which in hits:
            hits[which] += baseline(sample, which).p_value <= 0.05
    for which, k in hits.items():
        assert k / reps > 0.3, which


# ---------------------------------------------------------------------------
# bonferroni
# ---------------------------------------------------------------------------

def test_bonferroni_threshold_and_decisions():
    p_values = [0.05 / 206 * 0.9, 0.01, 0.9]
    out = bonferroni_adjust(p_values + [0.5] * 203, alpha0=0.05)
    assert_allclose(out.threshold, 0.05 / 206, rtol=1e-15)
    assert out.decisions[0] is True
    assert out.decisions[1] is False
    assert sum(out.decisions) == 1


def test_bonferroni_single_test_uses_alpha0():
    out = bonferroni_adjust([0.04], alpha0=0.05)
    assert out.threshold == 0.05
    assert list(out.decisions) == [True]


def test_bonferroni_all_ones_never_rejects():
    out = bonferroni_adjust([1.0] * 12, alpha0=0.05)
    assert not any(out.decisions)


def test_bonferroni_missing_p_value_counts_toward_h():
    out = bonferroni_adjust([0.001, None, 0.02], alpha0=0.05)
    assert out.threshold == 0.05 / 3
    assert out.decisions == (True, False, False)


def test_bonferroni_validation():
    with pytest.raises(EmptyList):
        bonferroni_adjust([], alpha0=0.05)
    with pytest.raises(ValueError):
        bonferroni_adjust([0.5], alpha0=0.0)
    with pytest.raises(ValueError):
        bonferroni_adjust([0.5], alpha0=1.0)


# ---------------------------------------------------------------------------
# TestResult / reference_p_value
# ---------------------------------------------------------------------------

def test_reference_p_value_families():
    assert_allclose(
        reference_p_value(3.0, {"family": "chi_squared", "df": 2}),
        stats.chi2.sf(3.0, 2),
        rtol=1e-12,
    )
    assert_allclose(
        reference_p_value(
            1.5, {"family": "standard_normal", "tail": "two_sided"}
        ),
        2 * stats.norm.sf(1.5),
        rtol=1e-12,
    )
    assert_allclose(
        reference_p_value(-0.5, {"family": "standard_normal", "tail": "upper"}),
        stats.norm.sf(-0.5),
        rtol=1e-12,
    )
    assert_allclose(
        reference_p_value(
            2.0, {"family": "f", "df1": 3, "df2": 10, "scale": 0.5}
        ),
        stats.f.sf(1.0, 3, 10),
        rtol=1e-12,
    )
    with pytest.raises(ValueError):
        reference_p_value(1.0, {"family": "cauchy"})


def _same(got, want):
    return got == want or (math.isnan(got) and math.isnan(want))


def test_reference_tails_equal_scipy_stats_exactly():
    # dagtest computes tails with scipy.special; scipy.stats, the reference
    # here, wraps the same functions with its own out-of-support rules.
    edges = [-math.inf, -1.0, -1e-300, 0.0, 5e-324, math.inf, math.nan]
    inner = np.geomspace(1e-3, 3e3, 16).tolist()
    stats_grid = edges + inner
    for df in range(1, 1001):
        ref = {"family": "chi_squared", "df": df, "tail": "upper"}
        want = stats.chi2.sf(np.array(stats_grid + [float(df)]), df)
        for x, w in zip(stats_grid + [float(df)], want.tolist()):
            assert _same(reference_p_value(x, ref), w), (df, x)
    for df1 in (1, 2, 3, 5, 10, 30, 60, 100):
        for df2 in (1, 2, 4, 7, 15, 40, 99, 180):
            for scale in (1.0, 0.37):
                ref = {"family": "f", "df1": df1, "df2": df2, "scale": scale}
                want = stats.f.sf(np.array(stats_grid) * scale, df1, df2)
                for x, w in zip(stats_grid, want.tolist()):
                    assert _same(reference_p_value(x, ref), w), (df1, df2, x)
    z_grid = edges + [-x for x in inner] + inner
    upper = stats.norm.sf(np.array(z_grid)).tolist()
    two_sided = (2.0 * stats.norm.sf(np.abs(z_grid))).tolist()
    for x, w_up, w_two in zip(z_grid, upper, two_sided):
        got_up = reference_p_value(x, {"family": "standard_normal", "tail": "upper"})
        got_two = reference_p_value(
            x, {"family": "standard_normal", "tail": "two_sided"}
        )
        assert _same(got_up, w_up) and _same(got_two, w_two), x

    rng = np.random.default_rng(11)
    for p in (1, 3, 20, 300):
        for scale in (0.0, 0.05, 0.3, 1.0, 4.0):
            model = PopulationModel(
                mu1=np.zeros(p),
                mu2=rng.normal(scale=scale, size=p),
                Q=np.zeros((p, p)),
                R=rng.uniform(0.5, 2.0, size=p),
            )
            for n1, n2, alpha in ((5, 7, 0.05), (40, 40, 0.01), (300, 200, 0.2)):
                margin = -stats.norm.isf(alpha / 2.0) + (
                    n1 * n2 / (n1 + n2)
                ) * kl_divergence(model) / np.sqrt(2.0 * p)
                want = (
                    0.0
                    if margin <= 0.0
                    else float(min(1.0, 1.0 - 2.0 * stats.norm.sf(margin)))
                )
                assert power_lower_bound(model, n1, n2, p, alpha) == want

    for n in list(range(1, 121)) + [500, 999, 5000]:
        for level in (0.9, 0.95, 0.99):
            tail = (1.0 - level) / 2.0
            for k in sorted({0, 1, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
                low = 0.0 if k == 0 else float(stats.beta.ppf(tail, k, n - k + 1))
                high = (
                    1.0
                    if k == n
                    else float(stats.beta.ppf(1.0 - tail, k + 1, n - k))
                )
                assert _clopper_pearson(k, n, level) == (low, high), (k, n, level)


def test_import_does_not_load_scipy_stats():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, dagtest, dagtest.cli; "
            "print('scipy.stats' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_test_result_consistency_enforced():
    ref = {"family": "chi_squared", "df": 4}
    ok = mean_tests.TestResult(
        method="t2dag_chi2", statistic=5.0, reference=ref, meta={}
    )
    assert ok.p_value == reference_p_value(5.0, ref)
    assert ok.to_dict()["method"] == "t2dag_chi2"
    with pytest.raises(ValueError, match="unknown method"):
        mean_tests.TestResult(
            method="unheard_of", statistic=5.0, reference=ref, meta={}
        )


def test_run_methods_dispatches_each_method_once(monkeypatch):
    # p = n - 1: Hotelling's dimension guard fails, the other four run.
    rng = np.random.default_rng(5)
    sample = random_sample(rng, 4, 4, 7)
    dag = chain_dag(7)
    calls = {"fit_sem": 0, "reference_p_value": 0}
    for name in calls:
        real = getattr(mean_tests, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(mean_tests, name, counted)
    methods = ("chen_qin", "t2dag_z", "hotelling", "bai_saranadasa", "t2dag_chi2")
    results, errors = mean_tests.run_methods(sample, dag, methods)
    assert [r.method for r in results] == [m for m in methods if m != "hotelling"]
    assert len(errors) == 1
    assert errors[0].startswith("hotelling: Hotelling T2 needs n1+n2 > p+1")
    assert calls == {"fit_sem": 1, "reference_p_value": len(results)}
    monkeypatch.undo()
    chi2_res, z_res = t2dag(sample, dag)
    by_method = {r.method: r for r in results}
    assert by_method["t2dag_chi2"].statistic == chi2_res.statistic
    assert by_method["t2dag_z"].statistic == z_res.statistic


def _out_of_range(sample):
    sample.X[3, 1] = np.inf
    return sample


@pytest.mark.parametrize(
    "make, edges, failing",
    [
        (lambda rng: random_sample(rng, 8, 8, 4), [(0, 1), (1, 2), (2, 3)], set()),
        # p >= n - 1: Hotelling's dimension check.
        (lambda rng: random_sample(rng, 4, 4, 7), [(0, 1), (1, 2)], {"hotelling"}),
        # n_g = 2: the baselines' group size.
        (
            lambda rng: random_sample(rng, 2, 6, 3),
            [(0, 1)],
            {"bai_saranadasa", "chen_qin"},
        ),
        # Node 2 has two parents and n = 6: too few samples for the SEM fit.
        (
            lambda rng: random_sample(rng, 3, 3, 3),
            [(0, 2), (1, 2)],
            {"t2dag_chi2", "t2dag_z"},
        ),
        (
            lambda rng: _out_of_range(random_sample(rng, 8, 8, 4)),
            [(0, 1), (1, 2), (2, 3)],
            set(METHODS),
        ),
    ],
)
def test_entry_points_agree_with_run_methods(make, edges, failing):
    # Each method's own entry point gives run_methods' result bit for bit,
    # or raises the error behind run_methods' line for that method.
    sample = make(np.random.default_rng(7))
    dag = PathwayDag.from_edges(edges, p=sample.p)
    entries = {
        "t2dag_chi2": lambda: t2dag(sample, dag)[0],
        "t2dag_z": lambda: t2dag(sample, dag)[1],
        "hotelling": lambda: hotelling(sample, dag=dag),
        "bai_saranadasa": lambda: baseline(sample, "bai_saranadasa", dag=dag),
        "chen_qin": lambda: baseline(sample, "chen_qin", dag=dag),
    }
    assert tuple(entries) == METHODS
    expected_results, expected_errors = [], []
    for method, call in entries.items():
        try:
            res = call()
        except DagTestError as exc:
            expected_errors.append(f"{method}: {exc}")
        else:
            expected_results.append((method, res.statistic, res.p_value))
    results, errors = mean_tests.run_methods(sample, dag, METHODS)
    assert [(r.method, r.statistic, r.p_value) for r in results] == expected_results
    assert errors == expected_errors
    assert {line.split(":")[0] for line in errors} == failing
    if "t2dag_chi2" not in failing:
        pair = t2dag(sample, dag, estimate=fit_sem(sample, dag))
        assert [(r.statistic, r.p_value) for r in pair] == [
            (r.statistic, r.p_value) for r in results[:2]
        ]


def test_out_of_range_sample_prepares_no_state():
    # prepare_methods holds nothing for an out-of-range sample; finish_methods
    # checks the range before it reads the state, so None gives one range
    # line per method, the lines run_methods reports.
    rng = np.random.default_rng(6)
    sample = random_sample(rng, 6, 6, 4)
    sample.X[7, 2] = np.inf
    dag = chain_dag(4)
    assert mean_tests.prepare_methods(sample, dag, METHODS) is None
    results, errors = mean_tests.finish_methods(None, sample, dag, METHODS)
    assert results == []
    assert errors == [
        f"{method}: gene 2 holds a value out of range: NaN, infinite or "
        f"|x| > {sample._value_bound:.3g}"
        for method in METHODS
    ]
    assert mean_tests.run_methods(sample, dag, METHODS) == (results, errors)


def test_methods_tuple_is_stable():
    assert METHODS == (
        "t2dag_chi2",
        "t2dag_z",
        "hotelling",
        "bai_saranadasa",
        "chen_qin",
    )
