"""DAG-constrained linear SEM estimation by per-node least squares.

The model for a column vector of expressions z is z = Qᵀz + ε with Q strictly
upper triangular in topological coordinates and Var(ε) = R = diag(r_1..r_p).
Each node is fit by OLS of its column on its parents' columns with a two-group
intercept design W = [1, g]; the projection onto W is applied implicitly by
centering each group at its own mean, which is algebraically identical and
costs O(np) instead of forming an n×n projector.

One kernel, ``_fit_columns``, does every node fit. ``fit_sem`` calls it once
per parent count, on the stack of all nodes with that count: no parents
leaves the centered column, one parent is a vectorized simple regression, and
two or more go through one stacked SVD. ``fit_node`` is the same kernel on a
single node. Errors are reported as a node-by-node sweep in topological order
would meet them first.

Everything in this module indexes nodes by *topological position*; `fit_sem`
translates from the original column order at entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dtrtri

from .errors import (
    InsufficientSamples,
    RankDeficientDesign,
    ValueOutOfRange,
    ZeroResidualVariance,
)
from .pathway import PathwayDag


@dataclass(frozen=True, eq=False)
class GroupedSample:
    """Expression matrix with a two-group label, group-1 rows first.

    Attributes:
        X: (n1+n2) × p matrix; rows are samples, columns genes.
        g: indicator vector, 1 for group-1 rows, 0 for group-2 rows.
        n1: number of group-1 samples (the leading rows).
        n2: number of group-2 samples.
    """

    X: np.ndarray
    g: np.ndarray
    n1: int
    n2: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        g = np.asarray(self.g, dtype=np.int8)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "g", g)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D matrix")
        n = self.n1 + self.n2
        if X.shape[0] != n or g.shape != (n,):
            raise ValueError("row count must equal n1 + n2 and match g")
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("each group needs at least 2 samples")
        # Compared as bytes: this check runs for every sample, including each
        # simulated replicate.
        if g.tobytes() != b"\x01" * self.n1 + b"\x00" * self.n2:
            raise ValueError("rows must be ordered group-1 first, matching g")

    @classmethod
    def from_groups(cls, X1, X2) -> "GroupedSample":
        """Stack two per-group matrices (same column meaning) into one sample."""
        X1 = np.atleast_2d(np.asarray(X1, dtype=float))
        X2 = np.atleast_2d(np.asarray(X2, dtype=float))
        if X1.shape[1] != X2.shape[1]:
            raise ValueError("both groups must have the same number of columns")
        n1, n2 = X1.shape[0], X2.shape[0]
        g = np.zeros(n1 + n2, np.int8)
        g[:n1] = 1
        return cls(X=np.concatenate([X1, X2]), g=g, n1=n1, n2=n2)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def effective_n(self) -> float:
        """N = n1·n2/(n1+n2), the scale of the two-sample quadratic form."""
        return self.n1 * self.n2 / (self.n1 + self.n2)

    @cached_property
    def means(self) -> np.ndarray:
        """2 × p array: row 0 the group-1 column means, row 1 group 2's.

        Each row is the column sum divided by the group size, the same
        arithmetic as ``ndarray.mean(axis=0)`` without its per-call overhead.
        Read-only, because it is shared by every fit on this sample.
        """
        out = np.empty((2, self.p))
        np.add.reduce(self.X[: self.n1], axis=0, out=out[0])
        np.add.reduce(self.X[self.n1 :], axis=0, out=out[1])
        out[0] /= self.n1
        out[1] /= self.n2
        out.flags.writeable = False
        return out

    @property
    def mean_diff(self) -> np.ndarray:
        """x̄⁽¹⁾ − x̄⁽²⁾ as a length-p vector."""
        return self.means[0] - self.means[1]

    @cached_property
    def centered(self) -> np.ndarray:
        """X with each group centered at its own column means: (I − P_W)X."""
        return self._fit_rows[: self.n]

    @cached_property
    def _fit_rows(self) -> np.ndarray:
        """(n+2) × p: ``centered``, then the two rows of ``means``.

        Node fits take their columns from here. The mean rows go through a
        fit's residual product with the data rows, which turns them into the
        parent-adjusted means x̄_j − x̄_S·q̂ that θ̂ is made of.
        """
        n1, n = self.n1, self.n
        out = np.empty((n + 2, self.p))
        np.subtract(self.X[:n1], self.means[0], out=out[:n1])
        np.subtract(self.X[n1:], self.means[1], out=out[n1:n])
        out[n:] = self.means
        return out

    @cached_property
    def gram(self) -> np.ndarray:
        """Pooled centered Gram matrix XcᵀXc (p × p), with Xc = ``centered``.

        Hotelling and Bai–Saranadasa read the data only through this matrix
        and the group means. Read-only, because it is shared.
        """
        centered = self.centered
        out = centered.T @ centered
        out.flags.writeable = False
        return out

    @property
    def _value_bound(self) -> float:
        """Largest |x| at which no statistic overflows.

        The largest intermediate any method forms is a fourth-order trace
        sum of Chen–Qin or Bai–Saranadasa, at most about 16·n²·p²·max|x|⁴,
        so max|x| must stay below (float max / (16·n²·p²))^(1/4).
        """
        return math.sqrt(math.sqrt(_FLOAT_MAX) / (4.0 * self.n * max(self.p, 1)))

    @cached_property
    def _out_of_range(self) -> int | None:
        """The first column holding NaN, ±inf or a value beyond
        ±``_value_bound``; None when every value is in range.

        Two scalar reductions decide, without a warning: NaN propagates
        through both and fails the comparison. Only a sample that fails is
        searched for its column.
        """
        X, bound = self.X, self._value_bound
        lo = float(np.minimum.reduce(X, axis=None, initial=0.0))
        hi = float(np.maximum.reduce(X, axis=None, initial=0.0))
        if -bound <= lo and hi <= bound:
            return None
        return int(np.flatnonzero(~(np.abs(X) <= bound).all(axis=0))[0])

    def _check_range(self, dag: PathwayDag | None = None) -> None:
        """Raise ValueOutOfRange unless every value is in range, naming the
        first offending gene by its dag label, or by column without a dag.

        Every statistic reads the data only through group means and Gram
        matrices, so this one check stands for all of them.
        """
        col = self._out_of_range
        if col is not None:
            name = f"gene {dag.label_of(col)}" if dag is not None else f"column {col}"
            raise ValueOutOfRange(
                f"{name} holds a value out of range: NaN, infinite or "
                f"|x| > {self._value_bound:.3g}"
            )

    def reorder_columns(self, order: Sequence[int]) -> "GroupedSample":
        return GroupedSample(
            X=self.X[:, list(order)], g=self.g, n1=self.n1, n2=self.n2
        )


@dataclass(frozen=True, eq=False)
class NodeFit:
    """Per-node OLS result.

    Attributes:
        j: topological position of the node.
        q_hat: parent coefficients, aligned with the parent set (length |S_j|).
        theta_hat: (θ̂₁, θ̂₂); θ̂₁ is the group-2 intercept of the parent-adjusted
            column and θ̂₂ the group-1 minus group-2 contrast.
        r_hat: residual variance with denominator n1+n2−|S_j|−4; this
            unusual denominator is what makes the *inverse* estimate unbiased,
            which is the quantity the test statistic consumes.
        dof: that denominator, kept for audit and serialization.
    """

    j: int
    q_hat: np.ndarray
    theta_hat: tuple[float, float]
    r_hat: float
    dof: int

    def __post_init__(self):
        object.__setattr__(self, "q_hat", np.asarray(self.q_hat, dtype=float))
        if self.r_hat < 0:
            raise ValueError("r_hat must be nonnegative")
        if self.dof < 1:
            raise ValueError("dof must be at least 1")


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_FLOAT_MAX = np.finfo(float).max
# Dot products along the last axis; numpy < 2.0 has no ``vecdot``.
_vecdot_stack = getattr(np, "vecdot", None) or (
    lambda a, b: np.einsum("...n,...n->...", a, b)
)


def _vecdot(a, b):
    # ndarray.dot costs half as much for a single pair.
    return a.dot(b) if a.ndim == 1 else _vecdot_stack(a, b)


def _any(mask) -> bool:
    # A 0-d mask is one Python bool; for a stack, a test of the mask's bytes
    # costs a tenth of ``mask.any()``.
    return bool(mask) if mask.ndim == 0 else b"\x01" in mask.tobytes()


def _fit_columns(y, A, nodes):
    """OLS fits of target columns, each on its own block of k parent columns.

    Every column holds n group-centered values followed by its two group
    means (the layout of ``GroupedSample._fit_rows``). The solve reads the
    first n rows only; the residual product covers all n + 2, so its last two
    entries are the parent-adjusted means x̄_j − x̄_S·q̂.

    Shapes broadcast over leading axes: ``fit_node`` passes one fit with no
    leading axis, ``fit_sem`` a stack of fits that share one parent count,
    and each step is one numpy call for the whole stack. With no parents the
    residual is the centered column; one parent is the simple regression
    q̂ = a·y / a·a; two or more parents, and a stack of one-parent fits with
    a zero or subnormal a·a, go through one stacked SVD. A block whose
    smallest singular value is at most eps · max(n, k) · (largest singular
    value), or at most the smallest normal float, is rank deficient, and its
    rank is the count of singular values above that threshold. The values
    are in range (see ``GroupedSample``), so the singular values behind the
    threshold are finite.

    Args:
        y: (…, n+2) target columns.
        A: (…, n+2, k) parent blocks.
        nodes: (…) topological positions, named in error messages.

    Returns:
        (q̂, adjusted, rss, failures): (…, k) coefficients; (…, 2)
        parent-adjusted means, group 1 then group 2; (…) residual sums of
        squares; and {flat index: RankDeficientDesign} for the fits that
        failed, whose entries are NaN.
    """
    n, k = A.shape[-2] - 2, A.shape[-1]
    if k == 0:
        # q̂ is empty: one row of the (…, n+2, 0) blocks.
        return A[..., 0, :], *_split(y, n), {}
    if k == 1:
        a = A[..., :n, 0]
        aa = _vecdot(a, a)
        # The SVD rule grants rank 1 to every nonzero column (eps·n < 1), so
        # only a stack holding a zero or subnormal a·a needs the SVD below.
        if not _any(aa <= _TINY):
            q = (_vecdot(a, y[..., :n]) / aa)[..., None]
            return q, *_split(y - A[..., 0] * q, n), {}
    U, s, Vt = np.linalg.svd(A[..., :n, :], full_matrices=False)
    # numpy's matrix_rank rule, from the largest singular value, which does
    # not underflow as squared column values do. The floor keeps every fit
    # from dividing by a subnormal singular value: it binds only for a block
    # whose largest singular value is below about 1e-292 / max(n, k), such as
    # a lone subnormal column.
    tol = np.maximum(_EPS * max(n, k) * s[..., 0], _TINY)
    # Singular values come in descending order, so the last one decides.
    deficient = s[..., -1] <= tol
    failures = {}
    if _any(deficient):
        ranks = np.count_nonzero(s > tol[..., None], axis=-1).reshape(-1)
        nodes = np.broadcast_to(nodes, deficient.shape).reshape(-1)
        for i in np.flatnonzero(deficient).tolist():
            failures[i] = RankDeficientDesign(
                f"parent block of node {nodes[i]} has rank {ranks[i]} < {k}"
            )
        # Dividing by NaN rather than a zero singular value makes the failed
        # fits read NaN without a warning.
        s[deficient] = np.nan
    c = _vecdot(np.swapaxes(U, -1, -2), y[..., None, :n]) / s
    q = _vecdot(np.swapaxes(Vt, -1, -2), c[..., None, :])
    return q, *_split(y - (A @ q[..., None])[..., 0], n), failures


def _split(resid, n):
    """(parent-adjusted means, residual sum of squares) of an (n+2)-row residual.

    Residuals are formed explicitly, so a group-constant column gives an
    exact r̂ = 0 and an exact fit the floating-point floor.
    """
    r = resid[..., :n]
    return resid[..., n:], _vecdot(r, r)


def _too_few_samples(n: int, k: int, j) -> InsufficientSamples:
    return InsufficientSamples(
        f"need n1+n2 >= |S_j|+5 for node {j}: n={n}, |S_j|={k}"
    )


def fit_node(sample: GroupedSample, j: int, parents: Sequence[int]) -> NodeFit:
    """OLS fit of column j on its parent columns under the two-group design.

    The coefficient solve uses the group-centered columns (equivalent to
    projecting out W = [1, g]). This is the one-node call of the kernel that
    ``fit_sem`` runs on whole parent-count groups, with the same routes: a
    single parent column is a simple regression unless a·a is zero or
    subnormal; that column, and any block of two or more parents, goes
    through a singular value decomposition, which detects rank deficiency
    with threshold eps · max(n, |S_j|) · (largest singular value), floored
    at the smallest normal float.
    Residuals are always formed explicitly, and θ̂ comes from the
    cached group means: θ̂₁ = x̄⁽²⁾_j − x̄⁽²⁾_S·q̂, θ̂₂ = x̄⁽¹⁾_j − x̄⁽¹⁾_S·q̂ − θ̂₁.

    Args:
        sample: the grouped expression matrix (columns in any fixed order).
        j: column index of the node.
        parents: column indices of its parents (may be empty).

    Returns:
        NodeFit; ``r_hat`` may be exactly 0 when the fit is exact — consumers
        that would divide by it are expected to reject that case.

    Raises:
        ValueOutOfRange: some value of the sample is out of range.
        InsufficientSamples: fewer than |S_j| + 5 samples in total.
        RankDeficientDesign: collinear parent columns after centering.
    """
    sample._check_range()
    n = sample.n
    k = len(parents)
    dof = n - k - 4
    if dof < 1:
        raise _too_few_samples(n, k, j)
    rows = sample._fit_rows
    if k <= 1:
        # A basic slice is a view, where a list index would copy.
        cols = slice(parents[0], parents[0] + 1) if k else slice(0)
    else:
        cols = list(parents)
    q, adjusted, rss, failures = _fit_columns(rows[:, j], rows[:, cols], j)
    if failures:
        raise failures[0]
    m1, m2 = adjusted.tolist()
    return NodeFit(
        j=j, q_hat=q, theta_hat=(m2, m1 - m2), r_hat=float(rss) / dof, dof=dof
    )


@dataclass(frozen=True, eq=False)
class SemEstimate:
    """Fitted SEM: coefficient matrix, residual variances, and the dag.

    ``Q_hat`` and ``R_hat`` live in topological coordinates: entry
    ``Q_hat[i, k]`` is the coefficient of the node in position i on its child
    in position k, nonzero only where the dag has an edge. ``theta_hat``
    (p × 2, rows (θ̂₁, θ̂₂)) and ``dof`` (length p) hold the rest of each node's
    fit when the estimate comes from ``fit_sem``, and are None otherwise.
    """

    Q_hat: np.ndarray
    R_hat: np.ndarray
    dag: PathwayDag
    theta_hat: np.ndarray | None = None
    dof: np.ndarray | None = None

    def __post_init__(self):
        Q = np.asarray(self.Q_hat, dtype=float)
        R = np.asarray(self.R_hat, dtype=float)
        object.__setattr__(self, "Q_hat", Q)
        object.__setattr__(self, "R_hat", R)
        p = self.dag.p
        if Q.shape != (p, p) or R.shape != (p,):
            raise ValueError("Q_hat must be p×p and R_hat length p")
        if (self.theta_hat is None) != (self.dof is None):
            raise ValueError("theta_hat and dof are given together or not at all")
        if self.dof is not None:
            theta = np.asarray(self.theta_hat, dtype=float)
            dof = np.asarray(self.dof, dtype=int)
            object.__setattr__(self, "theta_hat", theta)
            object.__setattr__(self, "dof", dof)
            if theta.shape != (p, 2) or dof.shape != (p,):
                raise ValueError("theta_hat must be p×2 and dof length p")
        parent_sets = self.dag.parent_sets
        sizes = np.fromiter(map(len, parent_sets), np.intp, p)
        inside = Q[
            np.fromiter(chain.from_iterable(parent_sets), np.intp, sizes.sum()),
            np.repeat(np.arange(p), sizes),
        ]
        # Nonzero (NaN included) entries off the parent sets; the lower
        # triangle lies entirely off them.
        if np.count_nonzero(Q != 0.0) != np.count_nonzero(inside != 0.0):
            if np.any(np.tril(Q) != 0.0):
                raise ValueError("Q_hat must be strictly upper triangular")
            raise ValueError("Q_hat has support outside the dag's parent sets")
        if np.any(R <= 0.0):
            bad = int(np.argmin(R))
            raise ZeroResidualVariance(
                f"residual variance at topological position {bad} is not positive"
            )

    @cached_property
    def node_fits(self) -> tuple[NodeFit, ...]:
        """One NodeFit per topological position, built on first access from
        the arrays; empty when the estimate holds no per-node fits."""
        if self.dof is None:
            return ()
        return tuple(
            NodeFit(
                j=pos,
                q_hat=self.Q_hat[list(parents), pos],
                theta_hat=(t1, t2),
                r_hat=r_hat,
                dof=dof,
            )
            for pos, (parents, (t1, t2), r_hat, dof) in enumerate(
                zip(
                    self.dag.parent_sets,
                    self.theta_hat.tolist(),
                    self.R_hat.tolist(),
                    self.dof.tolist(),
                )
            )
        )


def fit_sem(sample: GroupedSample, dag: PathwayDag) -> SemEstimate:
    """Fit every node of the dag and assemble the SEM estimate.

    Columns of ``sample.X`` are in original order; they are taken in the
    dag's topological order internally. The nodes are fit by parent count,
    one kernel call per count, yet a failure is reported as a node-by-node
    sweep in topological order would meet it first: the offending node's
    label is attached, and nodes after a node with too few samples are not
    fit at all.

    Raises:
        ValueOutOfRange: some value of the sample is out of range; checked
            before any node is fit.
        RankDeficientDesign, InsufficientSamples: from individual node fits.
        ZeroResidualVariance: a node fit was exact (r̂ = 0), making the
            precision matrix undefined.
    """
    if sample.p != dag.p:
        raise ValueError(f"sample has {sample.p} columns but dag has p={dag.p}")
    sample._check_range(dag)
    p, n = dag.p, sample.n
    order = list(dag.topo_order)
    # Row i holds the fit column of the node in position i.
    rows = sample._fit_rows.T[order]
    parent_sets = dag.parent_sets
    sizes = [len(parents) for parents in parent_sets]
    limit = next((pos for pos, k in enumerate(sizes) if n - k - 4 < 1), p)
    groups: dict[int, list[int]] = {}
    for pos in range(limit):
        groups.setdefault(sizes[pos], []).append(pos)
    Q = np.zeros((p, p))
    R = np.zeros(p)
    adjusted = np.zeros((p, 2))
    dof = np.array([n - k - 4 for k in sizes])
    failures: dict[int, RankDeficientDesign] = {}
    for k, nodes in groups.items():
        nodes = np.array(nodes)
        P = np.array([parent_sets[pos] for pos in nodes], dtype=np.intp)
        P = P.reshape(len(nodes), k)
        q, adjusted[nodes], rss, failed = _fit_columns(
            rows[nodes], rows[P].transpose(0, 2, 1), nodes
        )
        Q[P, nodes[:, None]] = q
        R[nodes] = rss / (n - k - 4)
        failures.update((int(nodes[i]), exc) for i, exc in failed.items())
    # A node-by-node sweep would stop at the first failure; failed fits hold
    # NaN, so they are not exact fits.
    exact = np.flatnonzero(R[:limit] == 0.0)[:1].tolist()
    first = min([*failures, *exact, limit])
    if first < p:
        label = dag.label_of(dag.topo_order[first])
        if first in failures:
            exc = failures[first]
        elif first < limit:
            raise ZeroResidualVariance(
                f"node {label}: exact fit, residual variance estimate is 0"
            )
        else:
            exc = _too_few_samples(n, sizes[first], first)
        raise type(exc)(f"node {label}: {exc}") from exc
    theta = np.column_stack((adjusted[:, 1], adjusted[:, 0] - adjusted[:, 1]))
    return SemEstimate(Q_hat=Q, R_hat=R, dag=dag, theta_hat=theta, dof=dof)


# ---------------------------------------------------------------------------
# Covariance / precision assembly
# ---------------------------------------------------------------------------

def sem_precision(Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """(I−Q)·diag(R)⁻¹·(I−Q)ᵀ for strictly upper Q and positive R."""
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    if np.any(R <= 0.0):
        raise ZeroResidualVariance("all residual variances must be positive")
    B = np.eye(Q.shape[0]) - Q
    return (B / R[np.newaxis, :]) @ B.T


def sem_covariance(Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """(I−Qᵀ)⁻¹·diag(R)·(I−Q)⁻¹, formed as L·diag(R)·Lᵀ with L = (I−Qᵀ)⁻¹.

    L is the inverse of the unit lower-triangular factor (I−Q)ᵀ, from one
    LAPACK ``dtrtri`` call; no general inverse or LU factorization is formed.
    """
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    if not (np.isfinite(Q).all() and np.isfinite(R).all()):
        raise ValueError("Q and R must not contain infs or NaNs")
    if np.any(R <= 0.0):
        raise ZeroResidualVariance("all residual variances must be positive")
    p = Q.shape[0]
    if p == 0:
        # dtrtri rejects a 0×0 matrix (info = -5) and prints an error line.
        return np.zeros((0, 0))
    L, _info = dtrtri(np.eye(p) - Q.T, lower=1, unitdiag=1)
    return (L * R) @ L.T


def dag_precision(est: SemEstimate) -> np.ndarray:
    """DAG-informed precision estimate, in topological coordinates."""
    return sem_precision(est.Q_hat, est.R_hat)


def dag_covariance(est: SemEstimate) -> np.ndarray:
    """DAG-informed covariance estimate, in topological coordinates."""
    return sem_covariance(est.Q_hat, est.R_hat)
