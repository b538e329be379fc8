"""DAG-constrained linear SEM estimation by per-node least squares.

The model for a column vector of expressions z is z = Qᵀz + ε with Q strictly
upper triangular in topological coordinates and Var(ε) = R = diag(r_1..r_p).
Each node is fit by OLS of its column on its parents' columns with a two-group
intercept design W = [1, g]; the projection onto W is applied implicitly by
centering each group at its own mean, which is algebraically identical and
costs O(np) instead of forming an n×n projector.

One kernel, ``_fit_columns``, does every node fit. ``fit_sem`` calls it once
per parent count, on the stack of all nodes with that count, as the dag's
``parent_groups`` (derived once per dag) lists them: no parents leaves the
centered column, one parent is a vectorized simple regression, and two or
more go through one stacked Householder QR of the blocks [parents | node].
When a bound from the R factors settles the rank rule for every block of
the stack, the stack is solved from them; otherwise the whole stack is
solved by one stacked SVD. ``fit_node`` is the same kernel on a single
node. Errors are reported as a node-by-node sweep in topological order
would meet them first.

``fit_sem`` and ``SemEstimate`` index nodes by *topological position*;
``fit_sem`` translates from the original column order at entry. ``fit_node``
takes column indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
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
        if X.shape[1] == 0:
            raise ValueError("X must have at least one column")
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
        """Pooled centered Gram matrix, formed on its smaller side: XcᵀXc
        (p × p) when p ≤ n, else XcXcᵀ (n × n), with Xc = ``centered``.

        Both sides share their trace and Frobenius norm, which is all that
        Bai–Saranadasa reads. Hotelling needs the p × p matrix and runs only
        when p < n − 1, where that is the smaller side. These two read the
        data only through this matrix and the group means. Read-only,
        because it is shared.
        """
        centered = self.centered
        out = centered @ centered.T if self.n < self.p else centered.T @ centered
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
        return replace(self, X=self.X[:, list(order)])


@dataclass(frozen=True, eq=False)
class NodeFit:
    """Per-node OLS result.

    Attributes:
        j: column index of the node, as passed to ``fit_node``.
        q_hat: parent coefficients, aligned with the parent set (length |S_j|).
        theta_hat: (θ̂₁, θ̂₂); θ̂₁ is the group-2 intercept of the parent-adjusted
            column and θ̂₂ the group-1 minus group-2 contrast.
        r_hat: residual variance with denominator n1+n2−|S_j|−4; this
            unusual denominator is what makes the *inverse* estimate unbiased,
            which is the quantity the test statistic consumes.
        dof: that denominator.
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


def _fit_columns(B, nodes):
    """OLS fits of target columns, each on its own block of k parent columns.

    Each fit is one augmented block [A | y]: k parent columns, then the
    target. Every column holds n group-centered values followed by its two
    group means (the layout of ``GroupedSample._fit_rows``). The solve reads
    the first n rows only; the residual product covers all n + 2, so its last
    two entries are the parent-adjusted means x̄_j − x̄_S·q̂.

    Shapes broadcast over leading axes: ``fit_node`` passes one fit with no
    leading axis, ``fit_sem`` a stack of fits that share one parent count,
    and each step is one numpy call for the whole stack. With no parents the
    residual is the centered column; one parent is the simple regression
    q̂ = a·y / a·a; two or more parents, and a stack of one-parent fits with
    a zero or subnormal a·a, go through ``_solve_qr``. It solves the whole
    stack from a QR factor when a bound settles the rank rule for every
    block, and the whole stack by SVD otherwise.

    Args:
        B: (…, n+2, k+1) augmented blocks, the target column last.
        nodes: (…) topological positions, named in error messages.

    Returns:
        (q̂, adjusted, rss, failures): (…, k) coefficients; (…, 2)
        parent-adjusted means, group 1 then group 2; (…) residual sums of
        squares; and {flat index: RankDeficientDesign} for the fits that
        failed, whose entries are NaN.
    """
    n, k = B.shape[-2] - 2, B.shape[-1] - 1
    y = B[..., k]
    if k == 0:
        # q̂ is empty: the (…, 0) parent part of one row of the blocks.
        return B[..., 0, :0], *_split(y, n), {}
    if k == 1:
        a = B[..., :n, 0]
        aa = _vecdot(a, a)
        # The rank rule grants rank 1 to every nonzero column (eps·n < 1), so
        # only a stack holding a zero or subnormal a·a needs the QR route.
        if not _any(aa <= _TINY):
            q = (_vecdot(a, y[..., :n]) / aa)[..., None]
            return q, *_split(y - B[..., 0] * q, n), {}
    q, failures = _solve_qr(B[..., :n, :], nodes)
    return q, *_split(y - (B[..., :k] @ q[..., None])[..., 0], n), failures


# The factor c by which a block's singular-value bounds must clear the rank
# rule for the QR alone to settle it. The room absorbs the rounding of the QR
# and of R⁻¹, so a block the bound certifies is one the SVD rule would also
# find of full rank. Fixed, not an option.
_CERTIFY_MARGIN = 2.0**10


@cache
def _lower(k: int) -> np.ndarray:
    """Read-only k × k lower-triangular mask of ones."""
    mask = np.tri(k)
    mask.flags.writeable = False
    return mask


def _solve_qr(B, nodes):
    """Least-squares coefficients of (…, n, k+1) blocks [A | y], by one
    stacked Householder QR.

    The QR of [A | y] gives R (k × k, upper triangular) and z = Qᵀy, so
    q̂ = R⁻¹z. The rank rule is ``_solve_svd``'s: a block is rank deficient
    when s_min ≤ max(eps · max(n, k) · s_max, tiny). The QR settles it from
    bounds. With M and W the largest entries of R and R⁻¹,
    s_max ≤ ‖R‖_F ≤ k·M and s_min ≥ 1/‖R⁻¹‖_F ≥ 1/(k·W), so a block with
    c · k·W · max(eps · max(n, k) · k·M, tiny) < 1, c = ``_CERTIFY_MARGIN``,
    passes the rule with a factor c to spare. The largest entries stand in
    for the Frobenius norms because they square nothing: squares underflow
    at small scales, which would understate s_max. When the bound certifies
    every block, the stack is solved from R; otherwise (an exact zero on a
    diagonal of R, a bound above the limit, an R⁻¹ that overflows) the whole
    stack goes through ``_solve_svd``, so every rank decision and message
    is the SVD rule's. Stacked ``np.linalg.qr`` needs numpy >= 1.22.

    Returns (q̂, failures) as ``_solve_svd`` does.
    """
    n, k = B.shape[-2], B.shape[-1] - 1
    # mode="raw" returns the factor transposed: Rᵀ in the lower triangle of
    # h's leading k × k block, Householder vectors above it, and z in row k.
    # Masking the vectors costs less than the triu of mode="r".
    h = np.linalg.qr(B, mode="raw")[0]
    R, z = np.swapaxes(h[..., :k, :k] * _lower(k), -1, -2), h[..., k, :k]
    try:
        Rinv = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        # R is upper triangular, so inv eliminates nothing and fails only on
        # an exact zero on its diagonal, which no bound certifies.
        return _solve_svd(B, nodes)
    # The test reads W < limit, so it forms no overflow: a W of inf or NaN
    # fails it.
    M = np.abs(R).max(axis=(-2, -1))
    W = np.abs(Rinv).max(axis=(-2, -1))
    scale = np.maximum(_EPS * max(n, k) * k * M, _TINY)
    if (W < 1.0 / (_CERTIFY_MARGIN * k * scale)).all():
        return _vecdot(Rinv, z[..., None, :]), {}
    return _solve_svd(B, nodes)


def _solve_svd(B, nodes):
    """Least-squares coefficients of (…, n, k+1) blocks [A | y], by one
    stacked SVD of the parent blocks A.

    A block whose smallest singular value is at most eps · max(n, k) ·
    (largest singular value), or at most the smallest normal float, is rank
    deficient, and its rank is the count of singular values above that
    threshold. The values are in range (see ``GroupedSample``), so the
    singular values behind the threshold are finite.

    Returns (q̂, failures): (…, k) coefficients, NaN for the failed fits,
    and {flat index: RankDeficientDesign} for those, each naming its entry
    of ``nodes`` (broadcast against the leading axes).
    """
    n, k = B.shape[-2], B.shape[-1] - 1
    U, s, Vt = np.linalg.svd(B[..., :k], full_matrices=False)
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
        ranks = np.count_nonzero(s > tol[..., None], axis=-1)
        nodes = np.broadcast_to(nodes, deficient.shape)
        for i in np.flatnonzero(deficient).tolist():
            failures[i] = RankDeficientDesign(
                f"parent block of node {nodes.flat[i]} has rank "
                f"{ranks.flat[i]} < {k}"
            )
        # Dividing by NaN rather than a zero singular value makes the failed
        # fits read NaN without a warning.
        s[deficient] = np.nan
    c = _vecdot(np.swapaxes(U, -1, -2), B[..., None, :, k]) / s
    return _vecdot(np.swapaxes(Vt, -1, -2), c[..., None, :]), failures


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
    through a Householder QR of [parents | j]. The block is rank deficient
    when its smallest singular value is at most eps · max(n, |S_j|) · (its
    largest), or at most the smallest normal float. A bound from the R
    factor settles that rule unless the block is within a safety factor of
    2¹⁰ of it; then a singular value decomposition solves the block, and
    its decision and message are the ones reported.
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
        ValueError: j or a parent is not a column index in 0..p−1, or j is
            among its own parents.
        InsufficientSamples: fewer than |S_j| + 5 samples in total.
        RankDeficientDesign: collinear parent columns after centering.
    """
    sample._check_range()
    p = sample.p
    if not 0 <= j < p:
        raise ValueError(f"node index {j} out of range for p={p}")
    for i in parents:
        if not 0 <= i < p:
            raise ValueError(f"parent index {i} out of range for p={p}")
    if j in parents:
        raise ValueError(f"node {j} is among its own parents")
    n = sample.n
    k = len(parents)
    dof = n - k - 4
    if dof < 1:
        raise _too_few_samples(n, k, j)
    # The columns [parents | j], as a basic slice when k ≤ 1: a view, where
    # a list index would copy. The checks above keep the slice's bounds and
    # step valid.
    if k == 0:
        cols = slice(j, j + 1)
    elif k == 1:
        step = j - parents[0]
        cols = slice(parents[0], j + step if j + step >= 0 else None, step)
    else:
        cols = [*parents, j]
    q, adjusted, rss, failures = _fit_columns(sample._fit_rows[:, cols], j)
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
        inside = Q[self.dag.support]
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


def fit_sem(sample: GroupedSample, dag: PathwayDag) -> SemEstimate:
    """Fit every node of the dag and assemble the SEM estimate.

    Columns of ``sample.X`` are in original order; they are taken in the
    dag's topological order internally. The nodes are fit by parent count,
    one kernel call per count, yet a failure is reported as a node-by-node
    sweep in topological order would meet it first: the offending node's
    label is attached, and no failure after a node with too few samples is
    reported.

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
    # Row i holds the fit column of the node in position i.
    rows = sample._fit_rows.T[list(dag.topo_order)]
    sizes = dag.in_degrees
    # The one sample-size rule: a node needs dof ≥ 1, and r̂ = rss / dof.
    dof = n - sizes - 4
    short = np.flatnonzero(dof < 1)
    limit = int(short[0]) if short.size else p
    Q = np.zeros((p, p))
    R = np.zeros(p)
    adjusted = np.zeros((p, 2))
    failures: dict[int, RankDeficientDesign] = {}
    for k, (nodes, columns) in dag.parent_groups.items():
        if dof[nodes[0]] < 1:
            # Every node of this group shares its parent count, so all are
            # short of samples.
            continue
        q, adjusted[nodes], rss, failed = _fit_columns(
            rows[columns].transpose(0, 2, 1), nodes
        )
        Q[columns[:, :k], nodes[:, None]] = q
        R[nodes] = rss / dof[nodes]
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
            exc = _too_few_samples(n, int(sizes[first]), first)
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


def _precision_form(v: np.ndarray, Q: np.ndarray, R: np.ndarray) -> float:
    """vᵀ(I−Q)·diag(R)⁻¹·(I−Q)ᵀv, evaluated as Σ_k ((v − Qᵀv)_k)²/r_k from
    one matrix-vector product: no precision matrix or inverse is formed."""
    y = v - Q.T @ v
    return float(np.sum(y * y / R))


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
