"""Two-sample mean tests: the DAG-informed pair and classical baselines.

The headline statistic is the quadratic form of the mean difference in the
DAG-informed precision estimate,

    chi2 = N · (x̄⁽¹⁾−x̄⁽²⁾)ᵀ (I−Q̂) R̂⁻¹ (I−Q̂)ᵀ (x̄⁽¹⁾−x̄⁽²⁾),   N = n1·n2/(n1+n2),

referenced against chi_squared(p), and its standardization
z = (chi2 − p)/√(2p) referenced against a two-sided standard normal.

Baselines:

* Hotelling's T² with pooled covariance (denominator n1+n2−1) and the exact
  F(p, n1+n2−1−p) reference after the scale factor (n1+n2−p−1)/(p·(n1+n2−2)).
* Bai–Saranadasa: with n = n1+n2−2, τ = 1/n1 + 1/n2 and S_n the pooled
  covariance (denominator n),

      M   = ‖x̄⁽¹⁾−x̄⁽²⁾‖² − τ·tr S_n,
      B²  = n²/((n+2)(n−1)) · [tr S_n² − (tr S_n)²/n],
      Z   = M / √(2·τ²·(n+1)/n · B²),

  upper-tail standard-normal p-value (the statistic is negative-shifted under
  exact null data, so only large positive values are evidence).
* Chen–Qin: sum of within-group mean cross-products minus twice the
  cross-group mean product,

      T = Σ_{i≠j} x⁽¹⁾ᵢᵀx⁽¹⁾ⱼ/(n1(n1−1)) + Σ_{i≠j} x⁽²⁾ᵢᵀx⁽²⁾ⱼ/(n2(n2−1))
          − 2·Σ_{i,j} x⁽¹⁾ᵢᵀx⁽²⁾ⱼ/(n1·n2),

  standardized by the plug-in null variance
  2/(n1(n1−1))·tr(Σ₁²)^ + 2/(n2(n2−1))·tr(Σ₂²)^ + 4/(n1n2)·tr(Σ₁Σ₂)^,
  where the trace functionals use the leave-out cross-product estimators of
  the original construction; upper-tail normal p-value.

Each method runs in two parts. The delta-free part reads the group-centered
rows, which a shift of either group's mean does not move: the SEM fit for
the t2dag pair, the dimension check and the Cholesky factor of the pooled
covariance for Hotelling, and tr S_n with the null variance for
Bai–Saranadasa; it also raises the method's size, rank and singularity
errors. The per-delta part reads that state and the mean difference d:
y = d − Q̂ᵀd and the chi² sum, Hotelling's triangular solves, and ‖d‖².
Chen–Qin reads raw rows and its variance estimate is not shift-invariant,
so all of its work is per-delta. ``t2dag``, ``hotelling``, ``baseline`` and
``run_methods`` each run both parts on one sample; ``prepare_methods`` and
``finish_methods`` expose them separately, so that a simulated replicate is
fit once, on the first of its grid's samples that is in range, and tested
under every delta of the grid.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import chdtrc, fdtrc, ndtr

from .errors import (
    DagTestError,
    DimensionTooLarge,
    EmptyList,
    InsufficientSamples,
    SingularCovariance,
)
from .pathway import PathwayDag
from .sem import GroupedSample, SemEstimate, fit_sem

METHODS = ("t2dag_chi2", "t2dag_z", "hotelling", "bai_saranadasa", "chen_qin")


def reference_p_value(statistic: float, reference: Mapping) -> float:
    """p-value implied by a reference-distribution descriptor.

    Descriptors: ``{"family": "chi_squared", "df": k, "tail": "upper"}``,
    ``{"family": "standard_normal", "tail": "upper" | "two_sided"}``, and
    ``{"family": "f", "df1": a, "df2": b, "scale": s, "tail": "upper"}`` where
    the statistic is multiplied by ``s`` before the F tail is taken.
    """
    # Below the support the scipy.special ufuncs return NaN; the upper tail
    # there is 1.0.
    family = reference["family"]
    if family == "chi_squared":
        if statistic < 0.0:
            return 1.0
        return float(chdtrc(reference["df"], statistic))
    if family == "standard_normal":
        if reference.get("tail") == "two_sided":
            return float(2.0 * ndtr(-abs(statistic)))
        return float(ndtr(-statistic))
    if family == "f":
        scaled = statistic * reference.get("scale", 1.0)
        if scaled < 0.0:
            return 1.0
        return float(fdtrc(reference["df1"], reference["df2"], scaled))
    raise ValueError(f"unknown reference family {family!r}")


@dataclass(frozen=True, eq=False)
class TestResult:
    """One test outcome: statistic, reference law, p-value, and context.

    ``p_value`` is derived, not passed: it is computed once from
    (statistic, reference) at construction, so it always agrees with them.
    ``meta`` carries the pathway and sample dimensions (p, p0, d, Ne, n1, n2,
    N); graph entries are None for tests that do not use a graph.
    """

    method: str
    statistic: float
    reference: Mapping
    p_value: float = field(init=False)
    meta: Mapping

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        p_value = reference_p_value(self.statistic, self.reference)
        if not (0.0 <= p_value <= 1.0):
            raise ValueError("p_value must lie in [0, 1]")
        object.__setattr__(self, "p_value", p_value)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "reference": dict(self.reference),
            "meta": dict(self.meta),
        }


def _meta(sample: GroupedSample, dag: PathwayDag | None) -> dict:
    return {
        "p": sample.p,
        "p0": dag.n_children if dag is not None else None,
        "d": dag.max_in_degree if dag is not None else None,
        "Ne": dag.n_edges if dag is not None else None,
        "n1": sample.n1,
        "n2": sample.n2,
        "N": sample.effective_n,
    }


def _result(method, statistic, reference, meta) -> TestResult:
    return TestResult(
        method=method, statistic=float(statistic), reference=reference, meta=meta
    )


# ---------------------------------------------------------------------------
# DAG-informed pair
# ---------------------------------------------------------------------------

def t2dag(
    sample: GroupedSample,
    dag: PathwayDag,
    estimate: SemEstimate | None = None,
) -> tuple[TestResult, TestResult]:
    """The DAG-informed chi-squared statistic and its z standardization.

    The quadratic form is evaluated without forming the dense precision
    matrix: with d = x̄⁽¹⁾−x̄⁽²⁾ in topological order and y = (I−Q̂)ᵀd = d − Q̂ᵀd
    from one dense matrix-vector product, chi2 = N·Σ_k y_k²/r̂_k, which is
    O(p²).

    Args:
        estimate: optionally a pre-computed fit of (sample, dag); when omitted
            the SEM is fit here.

    Returns:
        (chi2 result, z result) sharing one SEM fit; the z statistic is
        exactly (chi2 − p)/√(2p).

    Raises:
        ValueOutOfRange: some value of the sample is out of range.
    """
    sample._check_range(dag)
    est = estimate if estimate is not None else fit_sem(sample, dag)
    pair = _t2dag_pair(sample, dag, est)
    return pair["t2dag_chi2"], pair["t2dag_z"]


def _t2dag_pair(sample: GroupedSample, dag: PathwayDag, est: SemEstimate) -> dict:
    p = dag.p
    d = sample.mean_diff[list(dag.topo_order)]
    y = d - est.Q_hat.T @ d
    chi2_stat = sample.effective_n * float(np.sum(y * y / est.R_hat))
    z_stat = (chi2_stat - p) / math.sqrt(2.0 * p)
    meta = _meta(sample, dag)
    return {
        "t2dag_chi2": _result(
            "t2dag_chi2",
            chi2_stat,
            {"family": "chi_squared", "df": p, "tail": "upper"},
            meta,
        ),
        "t2dag_z": _result(
            "t2dag_z",
            z_stat,
            {"family": "standard_normal", "tail": "two_sided"},
            meta,
        ),
    }


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def hotelling(sample: GroupedSample, dag: PathwayDag | None = None) -> TestResult:
    """Classical Hotelling T² with the exact F reference.

    Args:
        dag: optional, used only to fill the graph entries of ``meta``.

    Raises:
        ValueOutOfRange: some value of the sample is out of range.
        DimensionTooLarge: unless n1+n2 > p+1.
        SingularCovariance: pooled covariance not positive definite.
    """
    sample._check_range(dag)
    return _hotelling_result(sample, dag, _hotelling_factor(sample))


def _hotelling_factor(sample: GroupedSample):
    """Cholesky factor of the pooled covariance (denominator n − 1)."""
    p, n = sample.p, sample.n
    if n <= p + 1:
        raise DimensionTooLarge(
            f"Hotelling T2 needs n1+n2 > p+1; got n1+n2={n}, p={p}"
        )
    pooled = sample.gram / (n - 1)
    try:
        return cho_factor(pooled, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"pooled covariance is singular: {exc}") from exc


def _hotelling_result(sample: GroupedSample, dag, factor) -> TestResult:
    p, n = sample.p, sample.n
    diff = sample.mean_diff
    t2 = sample.effective_n * float(diff @ cho_solve(factor, diff))
    scale = (n - p - 1) / (p * (n - 2))
    reference = {
        "family": "f",
        "df1": p,
        "df2": n - 1 - p,
        "scale": scale,
        "tail": "upper",
    }
    return _result("hotelling", t2, reference, _meta(sample, dag))


def _bai_saranadasa_traces(sample: GroupedSample) -> tuple[float, float]:
    """(tr S_n, the null standard deviation of M) from the pooled Gram."""
    n1, n2 = sample.n1, sample.n2
    n = n1 + n2 - 2
    tau = (n1 + n2) / (n1 * n2)
    pooled = sample.gram / n
    tr_s = float(np.trace(pooled))
    tr_s2 = float(np.sum(pooled * pooled))
    b2 = n * n / ((n + 2.0) * (n - 1.0)) * (tr_s2 - tr_s * tr_s / n)
    variance = 2.0 * tau * tau * (n + 1.0) / n * b2
    if not variance > 0.0:
        raise SingularCovariance(
            "variance estimate of the mean-norm statistic is not positive"
        )
    return tr_s, math.sqrt(variance)


def _bai_saranadasa_statistic(sample: GroupedSample, traces) -> float:
    tr_s, sd = traces
    tau = (sample.n1 + sample.n2) / (sample.n1 * sample.n2)
    m_stat = float(sample.mean_diff @ sample.mean_diff) - tau * tr_s
    return m_stat / sd


def _within_trace(gram: np.ndarray) -> float:
    """Leave-two-out estimate of tr(Σ²) from one group's row Gram XXᵀ."""
    n = gram.shape[0]
    row_sum = gram.sum(axis=1)
    adj = gram - (row_sum[:, None] - np.diag(gram)[:, None] - gram) / (n - 2.0)
    np.fill_diagonal(adj, 0.0)
    return float(np.sum(adj * adj.T)) / (n * (n - 1.0))


def _cross_trace(cross: np.ndarray) -> float:
    """Leave-one-out estimate of tr(Σ₁Σ₂) from the cross Gram X₁X₂ᵀ."""
    n1, n2 = cross.shape
    left = cross - (cross.sum(axis=0)[None, :] - cross) / (n1 - 1.0)
    right = cross - (cross.sum(axis=1)[:, None] - cross) / (n2 - 1.0)
    return float(np.sum(left * right)) / (n1 * n2)


def _chen_qin_statistic(sample: GroupedSample) -> float:
    X1, X2 = sample.X[: sample.n1], sample.X[sample.n1 :]
    n1, n2 = sample.n1, sample.n2
    g1 = X1 @ X1.T
    g2 = X2 @ X2.T
    h = X1 @ X2.T
    t_stat = (
        (g1.sum() - np.trace(g1)) / (n1 * (n1 - 1.0))
        + (g2.sum() - np.trace(g2)) / (n2 * (n2 - 1.0))
        - 2.0 * h.sum() / (n1 * n2)
    )
    variance = (
        2.0 / (n1 * (n1 - 1.0)) * _within_trace(g1)
        + 2.0 / (n2 * (n2 - 1.0)) * _within_trace(g2)
        + 4.0 / (n1 * n2) * _cross_trace(h)
    )
    if not variance > 0.0:
        raise SingularCovariance(
            "variance estimate of the cross-product statistic is not positive"
        )
    return float(t_stat) / math.sqrt(variance)


def baseline(
    sample: GroupedSample,
    which: str,
    dag: PathwayDag | None = None,
) -> TestResult:
    """Covariance-free high-dimensional baselines.

    Args:
        which: "bai_saranadasa" or "chen_qin".
        dag: optional, used only to fill the graph entries of ``meta``.

    Raises:
        ValueOutOfRange: some value of the sample is out of range.
        InsufficientSamples: either group has fewer than 3 samples.
    """
    if which not in ("bai_saranadasa", "chen_qin"):
        raise ValueError(f"unknown baseline {which!r}")
    sample._check_range(dag)
    state = _delta_free(which, sample, dag)
    return _per_delta(which, state, sample, dag)[which]


# ---------------------------------------------------------------------------
# The two parts of each method
# ---------------------------------------------------------------------------

# Method -> the family whose two parts compute it; the t2dag pair shares one.
_FAMILY = {
    "t2dag_chi2": "t2dag",
    "t2dag_z": "t2dag",
    "hotelling": "hotelling",
    "bai_saranadasa": "bai_saranadasa",
    "chen_qin": "chen_qin",
}


def _delta_free(family: str, sample: GroupedSample, dag: PathwayDag | None):
    """The state of one family that the group means do not enter."""
    if family == "t2dag":
        return fit_sem(sample, dag)
    if family == "hotelling":
        return _hotelling_factor(sample)
    if sample.n1 < 3 or sample.n2 < 3:
        raise InsufficientSamples("baselines need at least 3 samples per group")
    if family == "bai_saranadasa":
        return _bai_saranadasa_traces(sample)
    return None


def _per_delta(
    family: str, state, sample: GroupedSample, dag: PathwayDag | None
) -> dict[str, TestResult]:
    """{method: result} of one family from its state and the sample's means
    (Chen–Qin: from the sample's rows)."""
    if family == "t2dag":
        return _t2dag_pair(sample, dag, state)
    if family == "hotelling":
        return {family: _hotelling_result(sample, dag, state)}
    if family == "bai_saranadasa":
        stat = _bai_saranadasa_statistic(sample, state)
    else:
        stat = _chen_qin_statistic(sample)
    reference = {"family": "standard_normal", "tail": "upper"}
    return {family: _result(family, stat, reference, _meta(sample, dag))}


def prepare_methods(
    sample: GroupedSample, dag: PathwayDag, methods: Sequence[str]
) -> dict | None:
    """The delta-free part of each named method on one sample.

    Returns {family: state}, where a state is the family's delta-free work
    (the t2dag SEM fit, Hotelling's Cholesky factor, the Bai–Saranadasa
    traces, nothing for Chen–Qin) or the DagTestError that work raised; or
    None for an out-of-range sample, which holds no usable state.
    """
    for method in methods:
        if method not in _FAMILY:
            raise ValueError(f"unknown method {method!r}")
    if sample._out_of_range is not None:
        return None
    states = {}
    for family in dict.fromkeys(_FAMILY[method] for method in methods):
        try:
            states[family] = _delta_free(family, sample, dag)
        except DagTestError as exc:
            states[family] = exc
    return states


def finish_methods(
    states: Mapping | None, sample: GroupedSample, dag: PathwayDag, methods: Sequence[str]
) -> tuple[list[TestResult], list[str]]:
    """The per-delta part of each named method, as ``run_methods`` reports it.

    The range check runs on this sample first, before ``states`` is read:
    out of range, every method fails with its line, and ``states`` may be
    None. In range, ``states`` comes from ``prepare_methods`` on this sample,
    or on another in-range sample that differs from it only by a shift of a
    group's mean: such a shift moves only the means that this part reads,
    and the centered rows behind the states in their last bits.
    """
    try:
        sample._check_range(dag)
    except DagTestError as exc:
        return [], [f"{method}: {exc}" for method in methods]
    results: list[TestResult] = []
    errors: list[str] = []
    done: dict = {}
    for method in methods:
        family = _FAMILY[method]
        if family not in done:
            state = states[family]
            try:
                done[family] = (
                    state
                    if isinstance(state, DagTestError)
                    else _per_delta(family, state, sample, dag)
                )
            except DagTestError as exc:
                done[family] = exc
        outcome = done[family]
        if isinstance(outcome, DagTestError):
            errors.append(f"{method}: {outcome}")
        else:
            results.append(outcome[method])
    return results, errors


def run_methods(
    sample: GroupedSample, dag: PathwayDag, methods: Sequence[str]
) -> tuple[list[TestResult], list[str]]:
    """Run each named method on one sample, tolerating per-method failures.

    This is ``finish_methods(prepare_methods(sample, dag, methods), ...)``:
    each method's delta-free part, then its per-delta part, on this one
    sample. ``t2dag_chi2`` and ``t2dag_z`` share one SEM fit. A method that
    raises a DagTestError yields the line ``"{method}: {message}"`` in the
    errors instead of a result.

    Returns:
        (results in the order of ``methods``, error lines).
    """
    states = prepare_methods(sample, dag, methods)
    return finish_methods(states, sample, dag, methods)


def map_in_order(fn: Callable, items: Iterable, threads: int) -> list:
    """[fn(item) for item in items], in item order.

    With ``threads == 1`` every call runs on the calling thread; otherwise the
    calls run on a pool of ``threads`` worker threads.
    """
    if threads == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Multiplicity
# ---------------------------------------------------------------------------

class BonferroniResult(NamedTuple):
    threshold: float
    decisions: tuple[bool, ...]


def bonferroni_adjust(
    p_values: Sequence[float | None], alpha0: float
) -> BonferroniResult:
    """Family-wise error control across H tests: reject iff p ≤ alpha0/H.

    A test that gave no p-value (None) counts toward H and is not rejected.

    Raises:
        EmptyList: no p-values supplied.
    """
    if not (0.0 < alpha0 < 1.0):
        raise ValueError("alpha0 must lie in (0, 1)")
    values = list(p_values)
    if not values:
        raise EmptyList("no p-values to adjust")
    threshold = alpha0 / len(values)
    return BonferroniResult(
        threshold=threshold,
        decisions=tuple(pv is not None and pv <= threshold for pv in values),
    )
