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
  exact null data, so only large positive values are evidence). With C_g
  group g's centered rows and G_g = C_gC_gᵀ, n·tr S_n = tr G₁ + tr G₂ and
  n²·tr S_n² = ‖G₁‖²_F + ‖G₂‖²_F + 2‖C₁C₂ᵀ‖²_F.
* Chen–Qin: sum of within-group mean cross-products minus twice the
  cross-group mean product,

      T = Σ_{i≠j} x⁽¹⁾ᵢᵀx⁽¹⁾ⱼ/(n1(n1−1)) + Σ_{i≠j} x⁽²⁾ᵢᵀx⁽²⁾ⱼ/(n2(n2−1))
          − 2·Σ_{i,j} x⁽¹⁾ᵢᵀx⁽²⁾ⱼ/(n1·n2),

  standardized by the plug-in null variance
  2/(n1(n1−1))·tr(Σ₁²)^ + 2/(n2(n2−1))·tr(Σ₂²)^ + 4/(n1n2)·tr(Σ₁Σ₂)^,
  where the trace functionals use the leave-out cross-product estimators of
  the original construction; upper-tail normal p-value. Here
  T = ‖d‖² − tr G₁/(n1(n1−1)) − tr G₂/(n2(n2−1)), the cross trace is
  ‖C₁C₂ᵀ‖²_F/((n1−1)(n2−1)), and each within trace reads ‖G_g‖²_F,
  diag G_g and C_g·x̄⁽ᵍ⁾ (see ``_within_trace``).

Bai–Saranadasa and Chen–Qin read the Grams only through
``GroupedSample.gram_norms``, which picks their smaller side: O((n1+n2)²p)
when p ≫ n1+n2. Hotelling reads the p × p ``GroupedSample.gram``.

Each method belongs to one family of the table ``_FAMILIES`` (the t2dag
pair shares one), and each family runs in two parts. The delta-free part
reads the group-centered rows, which a shift of either group's mean does not
move (the SEM fit, Hotelling's Cholesky factor, the Bai–Saranadasa traces,
Chen–Qin's Gram norms and diagonals), and raises the family's size, rank
and singularity errors. The per-delta part reads that state and the group
means; Chen–Qin's variance estimate is not shift-invariant, so it reads
C_g·x̄⁽ᵍ⁾ there, from the centered rows kept in its state. One
runner, ``_run``, runs both parts after the range check and keeps the
delta-free outcome, a state or its error, in a dict keyed by family. Every
entry point passes it a dict: ``t2dag``, ``hotelling``, ``baseline`` and
``run_methods`` a fresh one, and a simulated replicate one dict for its whole
delta grid, which the first in-range sample fills.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import chdtrc, fdtrc, ndtr

from .errors import (
    DagTestError,
    DimensionTooLarge,
    InsufficientSamples,
    SingularCovariance,
)
from .pathway import PathwayDag
from .sem import GroupedSample, SemEstimate, _precision_form, fit_sem


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
    pair = _run("t2dag", sample, dag, {} if estimate is None else {"t2dag": estimate})
    return pair["t2dag_chi2"], pair["t2dag_z"]


def _t2dag_pair(est: SemEstimate, sample: GroupedSample, dag: PathwayDag) -> dict:
    p = dag.p
    d = sample.mean_diff[dag.topo_index]
    chi2_stat = sample.effective_n * _precision_form(d, est.Q_hat, est.R_hat)
    z_stat = (chi2_stat - p) / math.sqrt(2.0 * p)
    meta = _meta(sample, dag)
    chi2_reference = {"family": "chi_squared", "df": p, "tail": "upper"}
    z_reference = {"family": "standard_normal", "tail": "two_sided"}
    return {
        "t2dag_chi2": _result("t2dag_chi2", chi2_stat, chi2_reference, meta),
        "t2dag_z": _result("t2dag_z", z_stat, z_reference, meta),
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
    return _run("hotelling", sample, dag, {})["hotelling"]


def _hotelling_factor(sample: GroupedSample, dag):
    """Cholesky factor of the pooled covariance (denominator n − 1)."""
    p, n = sample.p, sample.n
    if n <= p + 1:
        raise DimensionTooLarge(
            f"Hotelling T2 needs n1+n2 > p+1; got n1+n2={n}, p={p}"
        )
    # n > p + 1 here, so the p × p Gram is the smaller side. The range
    # check has passed, so the entries are finite.
    factor, info = dpotrf(sample.gram / (n - 1), clean=0)
    if info > 0:
        raise SingularCovariance(
            f"pooled covariance is singular: {info}-th leading minor of the "
            "array is not positive definite"
        )
    return factor


def _hotelling_result(factor, sample: GroupedSample, dag) -> dict:
    p, n = sample.p, sample.n
    diff = sample.mean_diff
    t2 = sample.effective_n * float(diff @ dpotrs(factor, diff)[0])
    scale = (n - p - 1) / (p * (n - 2))
    reference = {
        "family": "f",
        "df1": p,
        "df2": n - 1 - p,
        "scale": scale,
        "tail": "upper",
    }
    return {"hotelling": _result("hotelling", t2, reference, _meta(sample, dag))}


def _upper_normal(method: str, statistic: float, sample: GroupedSample, dag) -> dict:
    reference = {"family": "standard_normal", "tail": "upper"}
    return {method: _result(method, statistic, reference, _meta(sample, dag))}


def _check_group_sizes(sample: GroupedSample, dag=None) -> None:
    if sample.n1 < 3 or sample.n2 < 3:
        raise InsufficientSamples("baselines need at least 3 samples per group")


def _bai_saranadasa_traces(sample: GroupedSample, dag) -> tuple[float, float]:
    """(tr S_n, the null standard deviation of M) from the sample's Gram
    norms, as the module docstring gives them."""
    _check_group_sizes(sample)
    n1, n2 = sample.n1, sample.n2
    n = n1 + n2 - 2
    tau = (n1 + n2) / (n1 * n2)
    (diag1, diag2), (frob1, frob2), cross = sample.gram_norms
    tr_s = float(diag1.sum() + diag2.sum()) / n
    tr_s2 = (frob1 + frob2 + 2.0 * cross) / (n * n)
    b2 = n * n / ((n + 2.0) * (n - 1.0)) * (tr_s2 - tr_s * tr_s / n)
    variance = 2.0 * tau * tau * (n + 1.0) / n * b2
    if not variance > 0.0:
        raise SingularCovariance(
            "variance estimate of the mean-norm statistic is not positive"
        )
    return tr_s, math.sqrt(variance)


def _bai_saranadasa_result(traces, sample: GroupedSample, dag) -> dict:
    tr_s, sd = traces
    tau = (sample.n1 + sample.n2) / (sample.n1 * sample.n2)
    m_stat = float(sample.mean_diff @ sample.mean_diff) - tau * tr_s
    return _upper_normal("bai_saranadasa", m_stat / sd, sample, dag)


def _chen_qin_state(sample: GroupedSample, dag) -> tuple:
    """Chen–Qin's delta-free part: the centered rows and the Gram norms."""
    _check_group_sizes(sample)
    return sample.centered, sample.gram_norms


def _within_trace(frobenius: float, diagonal: np.ndarray, u: np.ndarray) -> float:
    """Chen & Qin's leave-two-out estimate of tr(Σ²) from one group's
    ‖G‖²_F, diag G and u = C·x̄, with x̄ the group's mean.

    The estimate is the mean over i ≠ j of a_ij·a_ji, where
    a_ij = x_iᵀ(x_j − x̄₍ᵢⱼ₎) and x̄₍ᵢⱼ₎ is the mean of the other rows. With
    κ = (n−1)/(n−2) and b = (u + diag G)/(n−2), a_ij = κG_ij + κu_j + b_i.
    The rows of G and the entries of u sum to 0, and a_ii = n·b_i, so
    n(n−1) times the estimate is κ²‖G‖²_F + 2κn·b·u + (Σb)² − n²‖b‖².
    """
    n = diagonal.shape[0]
    kappa = (n - 1.0) / (n - 2.0)
    b = (u + diagonal) / (n - 2.0)
    total = (
        kappa * kappa * frobenius
        + 2.0 * kappa * n * float(b @ u)
        + float(b.sum()) ** 2
        - n * n * float(b @ b)
    )
    return total / (n * (n - 1.0))


def _chen_qin_result(state, sample: GroupedSample, dag) -> dict:
    centered, ((diag1, diag2), (frob1, frob2), cross) = state
    n1, n2 = sample.n1, sample.n2
    d = sample.mean_diff
    t_stat = (
        float(d @ d)
        - float(diag1.sum()) / (n1 * (n1 - 1.0))
        - float(diag2.sum()) / (n2 * (n2 - 1.0))
    )
    u1 = centered[:n1] @ sample.means[0]
    u2 = centered[n1:] @ sample.means[1]
    variance = (
        2.0 / (n1 * (n1 - 1.0)) * _within_trace(frob1, diag1, u1)
        + 2.0 / (n2 * (n2 - 1.0)) * _within_trace(frob2, diag2, u2)
        + 4.0 / (n1 * n2) * cross / ((n1 - 1.0) * (n2 - 1.0))
    )
    if not variance > 0.0:
        raise SingularCovariance(
            "variance estimate of the cross-product statistic is not positive"
        )
    return _upper_normal("chen_qin", float(t_stat) / math.sqrt(variance), sample, dag)


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
    return _run(which, sample, dag, {})[which]


# ---------------------------------------------------------------------------
# The method families
# ---------------------------------------------------------------------------

class _Family(NamedTuple):
    """A family's methods, its delta-free part (sample, dag) -> state and its
    per-delta part (state, sample, dag) -> {method: TestResult}."""

    methods: tuple[str, ...]
    prepare: Callable
    finish: Callable


_FAMILIES = {
    # fit_sem is looked up when called, not when the table is built.
    "t2dag": _Family(
        ("t2dag_chi2", "t2dag_z"), lambda *args: fit_sem(*args), _t2dag_pair
    ),
    "hotelling": _Family(("hotelling",), _hotelling_factor, _hotelling_result),
    "bai_saranadasa": _Family(
        ("bai_saranadasa",), _bai_saranadasa_traces, _bai_saranadasa_result
    ),
    "chen_qin": _Family(("chen_qin",), _chen_qin_state, _chen_qin_result),
}

METHODS = tuple(method for entry in _FAMILIES.values() for method in entry.methods)


def _run(family: str, sample: GroupedSample, dag, states: dict) -> dict:
    """{method: result} of one family on one sample: the range check, the
    delta-free part unless ``states`` holds its outcome (stored there: a
    state, or the DagTestError it raised, which is raised again without its
    earlier traceback, so repeated raises do not pile up frames), then the
    per-delta part."""
    sample._check_range(dag)
    entry = _FAMILIES[family]
    if family not in states:
        try:
            states[family] = entry.prepare(sample, dag)
        except DagTestError as exc:
            states[family] = exc
    state = states[family]
    if isinstance(state, DagTestError):
        raise state.with_traceback(None)
    return entry.finish(state, sample, dag)


def method_families(methods: Sequence[str]) -> list[str]:
    """The families, in table order, that compute some of ``methods``.

    Raises:
        ValueError: some method is not one of ``METHODS``, or is named twice.
    """
    for method in methods:
        if method not in METHODS:
            choices = ", ".join(METHODS)
            raise ValueError(f"unknown method {method!r}; choose from {choices}")
        if methods.count(method) > 1:
            raise ValueError(f"method {method!r} is named twice")
    return [f for f, entry in _FAMILIES.items() if set(entry.methods) & set(methods)]


def finish_methods(
    states: dict, sample: GroupedSample, dag: PathwayDag, methods: Sequence[str]
) -> tuple[list[TestResult], list[str]]:
    """Each named method on one sample, as ``run_methods`` reports it.

    Each family goes through the runner of ``t2dag``, ``hotelling`` and
    ``baseline``, which fills ``states`` in place; an out-of-range sample
    stores nothing. A stored outcome may come from another in-range sample
    that differs from this one only by a shift of a group's mean: such a
    shift moves only the means that the per-delta part reads, and the
    centered rows behind the states in their last bits.
    """
    outcomes: dict = {}
    for family in method_families(methods):
        try:
            outcomes.update(_run(family, sample, dag, states))
        except DagTestError as exc:
            outcomes.update(dict.fromkeys(_FAMILIES[family].methods, exc))
    failed = [m for m in methods if isinstance(outcomes[m], DagTestError)]
    results = [outcomes[m] for m in methods if m not in failed]
    return results, [f"{m}: {outcomes[m]}" for m in failed]


def run_methods(
    sample: GroupedSample, dag: PathwayDag, methods: Sequence[str]
) -> tuple[list[TestResult], list[str]]:
    """Run each named method on one sample, tolerating per-method failures.

    This is ``finish_methods({}, sample, dag, methods)``: each method's
    delta-free part, then its per-delta part, on this one sample.
    ``t2dag_chi2`` and ``t2dag_z`` share one SEM fit. A method that raises a
    DagTestError yields the line ``"{method}: {message}"`` in the errors
    instead of a result.

    Returns:
        (results in the order of ``methods``, error lines).
    """
    return finish_methods({}, sample, dag, methods)


def map_in_order(fn: Callable, items: Iterable, threads: int) -> list:
    """[fn(item) for item in items], in item order.

    With ``threads == 1`` every call runs on the calling thread; otherwise the
    calls run on a pool of ``threads`` worker threads.
    """
    if threads == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
