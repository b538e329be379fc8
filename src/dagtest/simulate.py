"""Synthetic pathway generation and replicated rejection-rate experiments.

A single experiment draws, per replicate: a random DAG with a controlled
children count and parent-count distribution, a sign-random coefficient matrix
rescaled to a fixed spectral norm, noise from one of four error families, an
optional pair of latent confounders, and an optional graph mis-specification
applied to the DAG handed to the test. Each replicate's randomness comes from
counter-based streams keyed by (seed, replicate, substream), so results are
independent of scheduling and thread count.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.special import betaincinv

from .divergence import PopulationModel
from .errors import ConfigError, DagTestError, _is_int, _is_number
from .mean_tests import finish_methods, map_in_order, method_families
from .pathway import EdgePerturbation, PathwayDag, perturb_edges, round_half_up
from .sem import GroupedSample

ERROR_FAMILIES = ("gaussian", "uniform", "gamma", "lognormal")

# Substreams of one replicate's randomness (see stream_rng).
_ADJACENCY, _COEFFICIENTS, _ERRORS, _CONFOUNDERS, _PERTURBATION = range(5)
# numpy indexes an array's bytes by a signed machine integer, so no float
# array of a replicate may hold more values than this.
_MAX_VALUES = np.iinfo(np.intp).max // 8


def stream_rng(seed: int, replicate: int, stream: int) -> np.random.Generator:
    """Independent counter-based generator for one replicate substream.

    Keying a Philox generator by the full (seed, replicate, stream) triple
    makes every draw a pure function of those integers: replicates can run on
    any worker pool in any order and still produce identical numbers.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, replicate, stream)))
    )


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfounderConfig:
    """Latent-confounder settings for dataset generation.

    Each of the ``count`` confounders is N(0, σ_w²) with the fixed variance
    σ_w² = 0.2²/max_{ij}|Q_ij|, which no field changes. Each of the ``count``
    rows of the loading matrix C has round(c_density·p) nonzero entries
    drawn N(0, c_scale²); c_scale defaults to √0.2 ≈ 0.447, reading
    the loading spread as a standard deviation (exposed so the variance
    reading c_scale = 0.2 is one config edit away).
    """

    count: int = 2
    c_density: float = 0.2
    c_scale: float = math.sqrt(0.2)

    def __post_init__(self):
        if not (_is_int(self.count) and self.count >= 1):
            raise ConfigError("/confounders/count", "must be a positive integer")
        if not (_is_number(self.c_density) and 0.0 < self.c_density <= 1.0):
            raise ConfigError("/confounders/c_density", "must lie in (0, 1]")
        if not (_is_number(self.c_scale) and self.c_scale > 0.0):
            raise ConfigError("/confounders/c_scale", "must be positive")
        if not math.isfinite(self.c_scale):
            raise ConfigError("/confounders/c_scale", "must be finite")


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation experiment.

    Attributes:
        n1, n2: group sizes.
        p: number of genes.
        p0_fraction: fraction of nodes that receive parents.
        nb_failures, nb_success: parent-count distribution parameters
            (see gen_adjacency for the exact convention).
        kappa: spectral rescale factor; the coefficient matrix is scaled to
            ‖Q‖₂ = 1/kappa.
        r0: residual variance of every node.
        delta: group-2 mean shift applied to the first q coordinates.
        q_fraction: fraction of coordinates carrying the shift.
        error_family: one of gaussian/uniform/gamma/lognormal.
        confounders: optional latent-confounder settings.
        perturbation: graph mis-specification handed to the test.
        replicates, seed, alpha: experiment scope.
    """

    n1: int
    n2: int
    p: int
    p0_fraction: float = 0.6
    nb_failures: int = 3
    nb_success: float = 0.6
    kappa: float = 1.5
    r0: float = 0.2
    delta: float = 0.0
    q_fraction: float = 0.5
    error_family: str = "gaussian"
    confounders: ConfounderConfig | None = None
    perturbation: EdgePerturbation = EdgePerturbation()
    replicates: int = 100
    seed: int = 0
    alpha: float = 0.05

    def __post_init__(self):
        def need(cond: bool, path: str, reason: str):
            if not cond:
                raise ConfigError(path, reason)

        def integer(name: str, low: int):
            value = getattr(self, name)
            ok = _is_int(value) and _is_number(value) and value >= low
            need(ok, f"/{name}", f"integer >= {low} required")

        def number(name: str):
            value = getattr(self, name)
            need(_is_number(value), f"/{name}", "number required")
            return value

        integer("n1", 2)
        integer("n2", 2)
        integer("p", 2)
        # A replicate holds p × p coefficients, n × p values and, with
        # confounders, n × count and count × p arrays; each must be indexable.
        # Once p × p is, an n × p array too large means n > p, so the larger
        # group is named.
        n, p = self.n1 + self.n2, self.p
        too_large = "too large: a replicate's arrays could not be indexed"
        need(p * p <= _MAX_VALUES, "/p", too_large)
        need(n * p <= _MAX_VALUES, "/n1" if self.n1 >= self.n2 else "/n2", too_large)
        if self.confounders is not None:
            count = self.confounders.count
            need(count * max(n, p) <= _MAX_VALUES, "/confounders/count", too_large)
        need(0.0 <= number("p0_fraction") < 1.0, "/p0_fraction", "must lie in [0, 1)")
        if self.p0_fraction > 0.0:
            need(
                self.n_children >= 1,
                "/p0_fraction",
                "rounds to zero children; use 0 for an edgeless graph",
            )
        need(
            self.n_children <= self.p - 1,
            "/p0_fraction",
            "children cannot outnumber the non-root positions",
        )
        # The confounder variance 0.2²/max|Q| needs an edge.
        need(
            self.confounders is None or self.p0_fraction > 0.0,
            "/confounders",
            "need p0_fraction > 0: the confounder variance divides by max|Q|",
        )
        integer("nb_failures", 1)
        need(0.0 < number("nb_success") < 1.0, "/nb_success", "must lie in (0, 1)")
        need(number("kappa") > 0.0, "/kappa", "must be positive")
        need(math.isfinite(self.kappa), "/kappa", "must be finite")
        need(number("r0") > 0.0, "/r0", "must be positive")
        need(math.isfinite(self.r0), "/r0", "must be finite")
        need(math.isfinite(number("delta")), "/delta", "must be finite")
        need(0.0 <= number("q_fraction") <= 1.0, "/q_fraction", "must lie in [0, 1]")
        need(
            self.error_family in ERROR_FAMILIES,
            "/error_family",
            f"must be one of {', '.join(ERROR_FAMILIES)}",
        )
        integer("replicates", 1)
        need(
            _is_int(self.seed) and self.seed >= 0,
            "/seed",
            "nonnegative integer required",
        )
        need(0.0 < number("alpha") < 1.0, "/alpha", "must lie in (0, 1)")

    @property
    def n_children(self) -> int:
        return round_half_up(self.p0_fraction * self.p)

    @property
    def q(self) -> int:
        """Number of coordinates carrying the group-2 mean shift."""
        return round_half_up(self.q_fraction * self.p)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SimConfig":
        return _read_fields(cls, doc)


# The fields of SimConfig that are JSON objects of their own.
_SECTIONS = {"confounders": ConfounderConfig, "perturbation": EdgePerturbation}


def _read_fields(cls, doc, path: str = ""):
    """The config ``cls`` built from the JSON object ``doc`` at ``path``, whose
    keys are all fields of ``cls`` and hold every field without a default. A
    section is read the same way at its own path; a null section takes the
    field's default."""
    if not isinstance(doc, Mapping):
        raise ConfigError(path or "/", "must be a JSON object")
    known = {f.name for f in fields(cls)}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{path}/{key}", "unknown field")
    kwargs = dict(doc)
    for key, section in _SECTIONS.items():
        if kwargs.get(key) is None:
            kwargs.pop(key, None)
        else:
            kwargs[key] = _read_fields(section, kwargs[key], f"{path}/{key}")
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING:
            raise ConfigError(f"{path}/{f.name}", "missing required field")
    return cls(**kwargs)


def read_config_document(doc) -> tuple[SimConfig, list[float]]:
    """The config and the deltas of a parsed ``dagtest simulate`` document: a
    SimConfig object that may also hold ``delta_grid``, a nonempty array of
    finite numbers run in place of ``delta``."""
    if not isinstance(doc, Mapping):
        raise ConfigError("/", "must be a JSON object")
    doc = dict(doc)
    grid = doc.pop("delta_grid", None)
    if grid is None:
        cfg = SimConfig.from_dict(doc)
        return cfg, [cfg.delta]
    if not (
        isinstance(grid, list)
        and grid
        and all(_is_number(d) and math.isfinite(d) for d in grid)
    ):
        raise ConfigError("/delta_grid", "must be a nonempty array of finite numbers")
    if "delta" in doc:
        raise ConfigError("/delta", "must not be set together with delta_grid")
    return SimConfig.from_dict(doc), [float(d) for d in grid]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_adjacency(
    p: int,
    p0_fraction: float,
    nb_failures: int = 3,
    nb_success: float = 0.6,
    seed=None,
) -> PathwayDag:
    """Random DAG with a fixed child count and negative-binomial in-degrees.

    round(p0_fraction·p) child positions are chosen uniformly among
    topological positions 1..p−1; the child at position j receives
    |S_j| = min(1 + ζ, j) parents sampled uniformly without replacement from
    the positions before it.

    **Parent-count convention.** ζ is drawn from numpy's
    ``negative_binomial(nb_failures, nb_success)``: the number of *failures*
    observed before the ``nb_failures``-th success, with per-trial success
    probability ``nb_success`` — mean nb_failures·(1−nb_success)/nb_success
    (e.g. 2.0 at (3, 0.6), 0.75 at (3, 0.8)). Textbooks disagree on which
    outcome is counted; the opposite convention (successes before the 3rd
    failure, mean 4.5 / 12.0 at those settings) produces far denser graphs
    whose maximum in-degrees contradict the pathway shapes both published
    parameter settings are documented to produce, so this library fixes the
    counting-failures convention.

    Node indices coincide with topological positions in the returned dag.
    """
    if p < 2:
        raise ValueError("need p >= 2 to place any structure")
    rng = _as_generator(seed)
    n_children = round_half_up(p0_fraction * p)
    if n_children == 0:
        return PathwayDag.from_edges([], p)
    if n_children > p - 1:
        raise ValueError("cannot place more children than positions 1..p-1")
    children = np.sort(rng.choice(p - 1, size=n_children, replace=False) + 1)
    edges: list[tuple[int, int]] = []
    for child in children:
        child = int(child)
        zeta = int(rng.negative_binomial(nb_failures, nb_success))
        size = min(1 + zeta, child)
        parents = rng.choice(child, size=size, replace=False)
        edges.extend((int(parent), child) for parent in parents)
    return PathwayDag.from_edges(edges, p)


def gen_coefficients(dag: PathwayDag, kappa: float = 1.5, seed=None) -> np.ndarray:
    """Coefficient matrix with ±1 signs on the dag's support, rescaled so that
    ‖Q‖₂ = 1/kappa.

    One sign is drawn per edge, the edges taken in (parent, child) order.
    The spectral norm is the largest singular value (LAPACK) of the block of
    q0 whose rows have a child and whose columns have a parent: every other
    row and column of q0 is zero, so the block has the same nonzero singular
    values, at a fraction of the size.

    Returns the p×p strictly upper-triangular matrix in topological
    coordinates; an edgeless dag gives the zero matrix. A kappa so small
    that the rescaled entries overflow gives infinite entries, without a
    warning; a replicate drawn from them fails.
    """
    rng = _as_generator(seed)
    p = dag.p
    q0 = np.zeros((p, p))
    if not dag.n_edges:
        return q0
    parents, children = dag.support
    order = np.lexsort((children, parents))
    flips = rng.integers(0, 2, size=dag.n_edges)
    q0[parents[order], children[order]] = np.where(flips, -1.0, 1.0)
    block = q0[np.bincount(parents, minlength=p) > 0][:, dag.in_degrees > 0]
    norm = np.linalg.svd(block, compute_uv=False)[0]
    with np.errstate(over="ignore"):
        return q0 / (kappa * norm)


def gen_errors(family: str, r_values, n: int, seed=None) -> np.ndarray:
    """n×p noise matrix with independent entries, one column per variance.

    Families (each column j has mean 0; variance r_j unless noted):
      * gaussian:  N(0, r_j)
      * uniform:   Unif(−√(3·r_j), √(3·r_j))
      * gamma:     Gamma(shape 10, scale √(r_j/10)) − 10·√(r_j/10)
      * lognormal: LogNormal(0, 0.16 log-variance) − exp(0.08); its variance
        (e^0.16 − 1)·e^0.16 ≈ 0.202 does not depend on r_j by design.
    """
    rng = _as_generator(seed)
    r = np.asarray(r_values, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("r_values must be positive")
    p = r.shape[0]
    if family == "gaussian":
        # The bits of rng.normal(0.0, √r, (n, p)), which is 0 + √r·z on the
        # same stream, without its per-element broadcasting; the + 0.0 turns
        # −0.0 into 0.0 as that sum does.
        noise = rng.standard_normal((n, p))
        noise *= np.sqrt(r)
        noise += 0.0
        return noise
    if family == "uniform":
        # An overflow to inf is caught below: numpy refuses an infinite range
        # with OverflowError.
        with np.errstate(over="ignore"):
            half = np.sqrt(3.0 * r)
        if not np.isfinite(half).all():
            raise ValueError("uniform half-width sqrt(3*r) is not finite")
        return rng.uniform(-half, half, size=(n, p))
    if family == "gamma":
        scale = np.sqrt(r / 10.0)
        return rng.gamma(10.0, scale, size=(n, p)) - 10.0 * scale
    if family == "lognormal":
        return rng.lognormal(0.0, 0.4, size=(n, p)) - math.exp(0.08)
    raise ValueError(f"unknown error family {family!r}")


def _confounder_noise(
    conf: ConfounderConfig, Q: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw w (n × count) and loadings C (count × p); return w·C."""
    max_q = float(np.max(np.abs(Q)))
    if max_q == 0.0:
        raise ValueError(
            "confounder variance rule divides by max|Q|; "
            "generate at least one edge or disable confounders"
        )
    sigma_w = math.sqrt(0.2**2 / max_q)
    p = Q.shape[0]
    w = rng.normal(0.0, sigma_w, size=(n, conf.count))
    n_loaded = round_half_up(conf.c_density * p)
    loadings = np.zeros((conf.count, p))
    for row in range(conf.count):
        cols = rng.choice(p, size=n_loaded, replace=False)
        loadings[row, cols] = rng.normal(0.0, conf.c_scale, size=n_loaded)
    return w @ loadings


def _draw(
    cfg: SimConfig, replicate: int
) -> tuple[np.ndarray, PathwayDag, PathwayDag, np.ndarray, np.ndarray]:
    """The part of one replicate that does not depend on delta.

    Returns (X, true_dag, used_dag, Q, R), where X holds the n1 + n2 rows
    (I−Qᵀ)⁻¹(noise) before group 2 is shifted. Every draw comes from the
    replicate's (seed, replicate, substream) streams, so all configs that
    differ only in delta share it.
    """
    p = cfg.p
    n = cfg.n1 + cfg.n2
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
    # BLAS dtrsm rather than LAPACK trtrs (scipy's solve_triangular): OpenBLAS
    # hands every trtrs call to its worker threads, whatever its size, and on a
    # busy machine each handoff can wait a scheduler tick; dtrsm keeps small
    # solves on the calling thread.
    X = dtrsm(1.0, np.eye(p) - Q.T, noise.T, lower=1, diag=1).T
    used_dag = true_dag
    if cfg.perturbation.mode != "none":
        # A perturbation with a seed of its own draws from that seed.
        pert_rng = None
        if cfg.perturbation.seed is None:
            pert_rng = stream_rng(cfg.seed, replicate, _PERTURBATION)
        used_dag = perturb_edges(true_dag, cfg.perturbation, rng=pert_rng)
    return X, true_dag, used_dag, Q, R


def _shift(
    cfg: SimConfig, X: np.ndarray, delta: float
) -> tuple[GroupedSample, np.ndarray]:
    """The sample with group 2's rows of X shifted by μ2, and μ2 itself:
    delta on the first q coordinates, 0 elsewhere. X is left as it is."""
    mu2 = np.zeros(cfg.p)
    mu2[: cfg.q] = delta
    return GroupedSample.from_groups(X[: cfg.n1], X[cfg.n1 :] + mu2), mu2


def gen_dataset(
    cfg: SimConfig, replicate: int = 0
) -> tuple[GroupedSample, PathwayDag, PathwayDag, PopulationModel]:
    """One replicate's data: sample, true graph, test graph, population truth.

    Group means are μ1 = 0 and μ2 = delta on the first q coordinates; each
    row is μ + (I−Qᵀ)⁻¹(noise), computed by forward substitution on the unit
    lower-triangular system. The test graph equals the true graph unless a
    perturbation is configured; a perturbation without its own seed draws
    from this replicate's perturbation stream. Nothing drawn depends on
    delta: configs that differ only in delta get the same graphs,
    coefficients and noise.
    """
    X, true_dag, used_dag, Q, R = _draw(cfg, replicate)
    sample, mu2 = _shift(cfg, X, cfg.delta)
    model = PopulationModel(mu1=np.zeros(cfg.p), mu2=mu2, Q=Q, R=R)
    return sample, true_dag, used_dag, model


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSummary:
    """Rejection tally for one method over the successful replicates."""

    method: str
    n_reject: int
    n_total: int
    rate: float
    ci_low: float
    ci_high: float
    n_failed: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class ExperimentTable:
    """Per-method rejection rates with 95% binomial intervals."""

    config: SimConfig
    rows: tuple[MethodSummary, ...]
    failure_notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "results": [row.to_dict() for row in self.rows],
            "failure_notes": list(self.failure_notes),
        }


def _clopper_pearson(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Exact (conservative) binomial interval for k successes in n trials."""
    if n == 0:
        return 0.0, 1.0
    tail = (1.0 - level) / 2.0
    low = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, tail))
    high = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - tail))
    return low, high


def _replicate_outcomes(
    cfg: SimConfig, deltas: Sequence[float], replicate: int, methods: Sequence[str]
) -> list[tuple[dict, list[str]]]:
    """Per delta, decisions {method: True/False/None} for one replicate
    (None = failed) and its notes.

    The replicate is drawn once. A shift of group 2 moves only the group
    means, so each method's delta-free part (the SEM fit, Hotelling's
    factor, the Bai–Saranadasa traces) runs once, on the first delta's
    sample that is in range, and the per-delta part on every delta's
    sample. The states live in this call's own dict, so threads share none."""
    try:
        X, _true_dag, used_dag, _Q, _R = _draw(cfg, replicate)
    except (DagTestError, ValueError) as exc:
        note = f"replicate {replicate}: {exc}"
        return [(dict.fromkeys(methods), [note]) for _ in deltas]
    states: dict = {}
    outcomes = []
    for delta in deltas:
        sample, _mu2 = _shift(cfg, X, delta)
        results, errors = finish_methods(states, sample, used_dag, methods)
        decisions: dict = dict.fromkeys(methods)
        for result in results:
            decisions[result.method] = bool(result.p_value <= cfg.alpha)
        notes = [f"replicate {replicate}, {line}" for line in errors]
        outcomes.append((decisions, notes))
    return outcomes


def _fold_table(
    cfg: SimConfig,
    methods: tuple[str, ...],
    outcomes: Sequence[tuple[dict, list[str]]],
) -> ExperimentTable:
    """Fold per-replicate outcomes, in replicate order, into one table."""
    n_reject = dict.fromkeys(methods, 0)
    n_total = dict.fromkeys(methods, 0)
    n_failed = dict.fromkeys(methods, 0)
    notes: list[str] = []
    for decisions, rep_notes in outcomes:
        notes.extend(rep_notes)
        for method in methods:
            decision = decisions[method]
            if decision is None:
                n_failed[method] += 1
            else:
                n_total[method] += 1
                n_reject[method] += int(decision)
    rows = []
    for method in methods:
        k, n = n_reject[method], n_total[method]
        low, high = _clopper_pearson(k, n)
        rows.append(
            MethodSummary(
                method=method,
                n_reject=k,
                n_total=n,
                rate=k / n if n else 0.0,
                ci_low=low,
                ci_high=high,
                n_failed=n_failed[method],
            )
        )
    if len(notes) > 20:
        notes = notes[:20] + [f"... and {len(notes) - 20} more"]
    return ExperimentTable(config=cfg, rows=tuple(rows), failure_notes=tuple(notes))


def run_delta_grid(
    cfg: SimConfig, deltas: Sequence[float], methods: Sequence[str], threads: int = 1
) -> list[ExperimentTable]:
    """One table per delta, for the config ``replace(cfg, delta=d)``.

    Nothing a replicate draws depends on delta, so every delta sees the same
    graphs, coefficients and noise: each replicate is drawn once for the
    whole grid. Each method's delta-free part is fit once per replicate, on
    the first of its samples that is in range. That delta's table is the one
    ``gen_dataset`` and ``run_methods`` give; another delta's statistics may
    differ from a fresh fit of its own sample in the last bits (README).
    """
    configs = [replace(cfg, delta=d) for d in deltas]
    methods = tuple(methods)
    if not methods:
        raise ValueError("methods must be nonempty")
    method_families(methods)
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if not configs:
        raise ValueError("deltas must be nonempty")
    per_replicate = map_in_order(
        lambda r: _replicate_outcomes(cfg, deltas, r, methods),
        range(cfg.replicates),
        threads,
    )
    return [
        _fold_table(c, methods, outcomes)
        for c, outcomes in zip(configs, zip(*per_replicate))
    ]


def run_experiment(
    cfg: SimConfig, methods: Sequence[str], threads: int = 1
) -> ExperimentTable:
    """Rejection-rate table over cfg.replicates fresh datasets.

    Per-replicate failures (for example a singular covariance for Hotelling)
    are tallied per method and reported in the table, never fatal. The result
    is a pure function of (cfg, methods): replicates draw from counter-based
    streams and the tally is folded in replicate order, so any ``threads``
    setting produces the identical table.
    """
    return run_delta_grid(cfg, [cfg.delta], methods, threads)[0]
