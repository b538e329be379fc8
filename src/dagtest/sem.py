"""DAG-constrained linear SEM estimation by per-node least squares.

The model for a column vector of expressions z is z = Qᵀz + ε with Q strictly
upper triangular in topological coordinates and Var(ε) = R = diag(r_1..r_p).
Each node is fit by OLS of its column on its parents' columns with a two-group
intercept design W = [1, g]; the projection onto W is applied implicitly by
centering each group at its own mean, which is algebraically identical and
costs O(np) instead of forming an n×n projector.

One kernel does every node fit, on stacks of nodes that share a parent
count, as the dag's ``parent_groups`` (derived once per dag) lists them: no
parents leaves the centered column, one parent is a vectorized simple
regression, and two or more go through two steps. The stacks of two or
more parents live in one zero-padded array, each block's factor in the
lower right corner of its slot, as the dag's ``padded_layout`` (derived
once per dag, with the rest of the fit plan) places them. ``_factor``
runs one stacked Householder QR per stack of the blocks [parents | node]
and writes the factors straight into the stack's slot. ``_finish`` then
runs once over the whole array: one back-substitution forms R⁻¹ of every
block, the rank rule is certified from a bound on the factors, q̂ = R⁻¹z,
the residual sum of squares is read from the factor, and any stack holding
a block the bound cannot certify goes whole through one stacked SVD.
``fit_sem`` gathers every block in one indexing step and scatters q̂ and r̂
once each; ``fit_node`` runs the same two steps on a single node, through
``_fit_columns``. Errors are reported as a node-by-node sweep in
topological order would meet them first; the search for the first one
runs only when a node is short of samples, failed or fit exactly.

``fit_sem`` and ``SemEstimate`` index nodes by *topological position*;
``fit_sem`` translates from the original column order at entry. ``fit_node``
takes column indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache
from operator import mul
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dtrtri

from .errors import (
    InsufficientSamples,
    RankDeficientDesign,
    ValueOutOfRange,
    ZeroResidualVariance,
)
from .pathway import PathwayDag, pad_layout


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
        """X with each group centered at its own column means: (I − P_W)X.

        Every node fit and Gram matrix reads the data through these rows and
        ``means``. Read-only, because it is shared.
        """
        n1 = self.n1
        out = np.empty_like(self.X)
        np.subtract(self.X[:n1], self.means[0], out=out[:n1])
        np.subtract(self.X[n1:], self.means[1], out=out[n1:])
        out.flags.writeable = False
        return out

    @cached_property
    def group_grams(self) -> tuple[np.ndarray, np.ndarray]:
        """(C₁ᵀC₁, C₂ᵀC₂), the p × p centered Gram of each group, with C_g
        group g's rows of ``centered``. Read-only, because it is shared."""
        n1, centered = self.n1, self.centered
        out = tuple(rows.T @ rows for rows in (centered[:n1], centered[n1:]))
        for gram in out:
            gram.flags.writeable = False
        return out

    @cached_property
    def gram(self) -> np.ndarray:
        """Pooled centered Gram CᵀC (p × p), the sum of ``group_grams``,
        which only Hotelling reads. Read-only, because it is shared."""
        out = np.add(*self.group_grams)
        out.flags.writeable = False
        return out

    @cached_property
    def gram_norms(self) -> tuple:
        """((diag G₁, diag G₂), (‖G₁‖²_F, ‖G₂‖²_F), ‖C₁C₂ᵀ‖²_F), with C_g
        group g's rows of ``centered`` and G_g = C_gC_gᵀ. The one place where
        a Gram's side is chosen: the blocks of CCᵀ (n × n) when n < p, else
        ``group_grams`` (p × p), which share the norms."""
        n1, centered = self.n1, self.centered
        groups = (centered[:n1], centered[n1:])
        if self.n < self.p:
            pooled = centered @ centered.T
            blocks = (pooled[:n1, :n1], pooled[n1:, n1:])
            cross = float(np.sum(np.square(pooled[:n1, n1:])))
        else:
            blocks = self.group_grams
            cross = float(np.sum(blocks[0] * blocks[1]))
        return (
            tuple(np.einsum("ij,ij->i", rows, rows) for rows in groups),
            tuple(float(np.sum(block * block)) for block in blocks),
            cross,
        )

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
        # ``take`` keeps C order (fancy indexing would give Fortran order),
        # so the copy's group means sum in the same order as the original's.
        return replace(self, X=self.X.take(order, axis=1))


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

    Each fit is one augmented block [A | y] of group-centered columns
    (``GroupedSample.centered``): k parent columns, then the target.

    Shapes broadcast over leading axes: ``fit_node`` passes one fit with no
    leading axis, ``fit_sem`` a stack of fits with no or one parent, and
    each step is one numpy call for the whole stack. With no parents the
    residual is the centered column; one parent is the simple regression
    q̂ = a·y / a·a, its residual formed. Two or more parents, and a stack of
    one-parent fits with a zero or subnormal a·a, take the QR route:
    ``_factor`` into the layout of this one stack, which has no padding,
    then ``_finish``, the two steps that ``fit_sem`` runs on all of a dag's
    stacks of two or more parents at once.

    Args:
        B: (…, n, k+1) augmented blocks, the target column last.
        nodes: (…) topological positions, named in error messages.

    Returns:
        (q̂, rss, failures): (…, k) coefficients; (…) residual sums of
        squares; and {flat index: RankDeficientDesign} for the fits that
        failed, whose entries are NaN. A group-constant target gives an
        exact rss = 0 on every route, and an exact fit the floating-point
        floor.
    """
    k = B.shape[-1] - 1
    y = B[..., k]
    if k == 0:
        # q̂ is empty, and a new array like every other route's.
        return np.empty((*B.shape[:-2], 0)), _vecdot(y, y), {}
    if k == 1:
        a = B[..., 0]
        aa = _vecdot(a, a)
        # The rank rule grants rank 1 to every nonzero column (eps·n < 1), so
        # only a stack holding a zero or subnormal a·a needs the QR route.
        if not _any(aa <= _TINY):
            q = (_vecdot(a, y) / aa)[..., None]
            r = y - a * q
            return q, _vecdot(r, r), {}
    shape = B.shape[:-2]
    layout = _one_stack(k, math.prod(shape))
    T = np.empty((k + 1, k + 1, layout[1].size))
    _factor(B, T)
    q, rss, failures = _finish(T, layout, [(nodes, B, layout[0][k])])
    return q.reshape(*shape, k), rss.reshape(shape), failures


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


@lru_cache(maxsize=64)
def _one_stack(k: int, m: int) -> tuple:
    """``pad_layout`` of one stack of m blocks of k parents: unpadded."""
    return pad_layout([(k, m)])


def _factor(B, T):
    """The per-stack step of the node-fit kernel: one stacked Householder QR
    of the (…, n, k+1) blocks [A | y], whose factors it writes into T.

    The QR of [A | y] is T, (k+1) × (k+1) upper triangular: R = T[:k, :k],
    z = Qᵀy = T[:k, k], and |T[k, k]| = ‖y − Aq̂‖ with q̂ = R⁻¹z, the
    residual norm that LAPACK's ``dgels`` reports the same way. A zero
    target column stays zero under every reflection, so its T[k, k] is an
    exact 0. Stacked ``np.linalg.qr`` needs numpy >= 1.22.

    T is (k+1, k+1, m), the block axis last: the stack's slot in the array
    of a ``pad_layout``, so the finish step reads every stack's factors
    from one array, with nothing copied.
    """
    k = B.shape[-1] - 1
    # mode="raw" returns Tᵀ in the lower triangle, Householder vectors above
    # it; masking them costs less than the triu of mode="r".
    h = np.linalg.qr(B, mode="raw")[0]
    np.multiply(h[..., : k + 1, : k + 1], _lower(k + 1), out=T.T)


def _inverse_r(T, kept, spans):
    """R⁻¹ of every block of the padded factors T (d+1, d+1, N), as
    (d, d, N): one back-substitution over all blocks at once, row by row
    from the bottom, each row one product over the rows below it, within
    the row's span of blocks (see ``pad_layout``).

    The padding rows of R are zero and, through ``kept``, so are the
    reciprocals of their diagonal, so R⁻¹ is zero-padded too. An exact
    zero on a block's diagonal, where every entry of an empty slot is
    zero, gives that block's R⁻¹ an inf or NaN, and so does an R⁻¹ that
    overflows; the bound in ``_finish`` certifies neither.
    """
    d, N = T.shape[0] - 1, T.shape[-1]
    X = np.zeros((d, d, N))
    # Views of the diagonals of X and of R, through the flat (d+1)² rows of
    # the contiguous T.
    diagonal = X.reshape(d * d, N)[:: d + 1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(
            1.0, T.reshape(-1, N)[: d * (d + 2) : d + 2], out=diagonal, where=kept.T
        )
        scale = -diagonal
        for i in range(d - 2, -1, -1):
            b = spans[i]
            below = np.einsum(
                "ln,ljn->jn", T[i, i + 1 : d, b], X[i + 1 :, i + 1 :, b]
            )
            np.multiply(below, scale[i, b], out=X[i, i + 1 :, b])
    return X


def _finish(T, layout, stacks):
    """The rest of the node-fit kernel, once over the padded arrays of one or
    more stacks (see ``pad_layout``): T holds every block's factor in the
    lower right corner of its slot, where the zeros change no largest entry
    and add nothing to R⁻¹z; ``layout`` is its ``pad_layout``. ``stacks``
    lists (nodes, B, slot) for the stacks whose slots ``_factor`` filled;
    a slot left empty, all zero, is never certified, and its results are
    not meant to be read.

    The rank rule is ``_solve_svd``'s: a block is rank deficient when
    s_min ≤ max(eps · max(n, k) · s_max, tiny). The factors settle it from
    bounds. With M and W the largest entries of R and R⁻¹,
    s_max ≤ ‖R‖_F ≤ k·M and s_min ≥ 1/‖R⁻¹‖_F ≥ 1/(k·W), so a block with
    c · k·W · max(eps · max(n, k) · k·M, tiny) < 1, c = ``_CERTIFY_MARGIN``,
    passes the rule with a factor c to spare. The largest entries stand in
    for the Frobenius norms because they square nothing: squares underflow
    at small scales, which would understate s_max. R⁻¹ comes from one
    back-substitution over all blocks (``_inverse_r``). A stack whose
    blocks the bound all certify is solved from its factor: q̂ = R⁻¹z and
    rss = T[k, k]², with no residual formed. A stack holding any block the
    bound cannot certify (an exact zero on a diagonal of R, a bound above
    the limit, an R⁻¹ that overflows) goes whole through ``_solve_svd``, so
    every rank decision and message is the SVD rule's; its full-rank blocks
    keep T[k, k]² and its failed ones read NaN.

    Returns (q̂, rss, failures) for the N blocks in order: their
    coefficients, block after block, each block's in parent order; (N,)
    residual sums of squares; and {block: RankDeficientDesign}.
    """
    _, k, kept, spans = layout
    d, n = T.shape[0] - 1, stacks[0][1].shape[-2]
    Rinv = _inverse_r(T, kept, spans)
    # eps · max(n, k) · k, formed in the rule's own order; a block that
    # ``_factor`` filled has n > k, since every fit needs n ≥ k + 5.
    a = _EPS * n * k
    # The test reads W < limit, so it forms no overflow: a W of inf or NaN
    # fails it. abs of the whole T, which is contiguous, costs less than abs
    # of its R view.
    M = np.abs(T)[:d, :d].max(axis=(0, 1))
    W = np.abs(Rinv).max(axis=(0, 1))
    uncertified = ~(W < 1.0 / (_CERTIFY_MARGIN * k * np.maximum(a * M, _TINY)))
    solve = _any(uncertified)
    if solve:
        # Their R⁻¹ may hold inf or NaN; the SVD replaces their q̂.
        Rinv = np.where(uncertified, 0.0, Rinv)
    q = np.einsum("ijn,jn->in", Rinv, T[:d, d])
    rss = np.square(T[d, d])
    # Once the squared residuals are subnormal, each rounds on its own, and
    # T[k, k]² no longer agrees with their sum to rounding; those blocks
    # form their residual and sum its squares.
    small = rss < _TINY
    failures = {}
    if solve or _any(small):
        for nodes, B, (corner, _, block) in stacks:
            m, k = block.stop - block.start, B.shape[-1] - 1
            if _any(uncertified[block]):
                q_svd, failed = _solve_svd(B, nodes)
                q[corner, block] = q_svd.reshape(m, k).T
                failures.update((block.start + i, exc) for i, exc in failed.items())
            i = np.flatnonzero(small[block])
            if i.size:
                A = B.reshape(m, n, k + 1)[i]
                fitted = A[..., :k] @ q[corner, block.start + i].T[..., None]
                r = A[..., k] - fitted[..., 0]
                rss[block.start + i] = _vecdot(r, r)
        rss[list(failures)] = np.nan
    return q.T[kept], rss, failures


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
    With no or one parent the residual is formed; through the QR, the
    residual sum of squares is read from the factor of [parents | j], which
    is exactly 0 for a group-constant column, and the residual is formed
    only where that square is subnormal. θ̂ is the group means through the
    fit: θ̂₁ = x̄⁽²⁾_j − x̄⁽²⁾_S·q̂, θ̂₂ = x̄⁽¹⁾_j − x̄⁽¹⁾_S·q̂ − θ̂₁.

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
    q, rss, failures = _fit_columns(sample.centered[:, cols], j)
    if failures:
        raise failures[0]
    # θ̂ from each group's means x of [parents | j]: x_j − x_S·q̂, where map
    # stops at the k parents; for a few parents a Python sum costs less than
    # numpy calls. ``take`` gathers a column list faster than a list index;
    # the centered block keeps the list index, whose column-major copy the
    # QR reads faster.
    M = sample.means[:, cols] if k < 2 else sample.means.take(cols, axis=1)
    qs = q.tolist()
    x1, x2 = M.tolist()
    m1 = x1[k] - sum(map(mul, x1, qs))
    m2 = x2[k] - sum(map(mul, x2, qs))
    return NodeFit(j, q, (m2, m1 - m2), float(rss) / dof, dof)


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
        if _any(R <= 0.0):
            bad = int(np.argmin(R))
            raise ZeroResidualVariance(
                f"residual variance at topological position {bad} is not positive"
            )


def _raise_first_failure(dag, n, dof, R, failed):
    """Raise the failure a node-by-node sweep in topological order would
    meet first: a failed fit, an exact one (r̂ = 0) or a node short of
    samples, after which no failure is reported; return when no node
    fails. ``failed`` lists (nodes, {index into nodes:
    RankDeficientDesign}) pairs."""
    short = np.flatnonzero(dof < 1)
    limit = int(short[0]) if short.size else dag.p
    failures = {int(nodes[i]): exc for nodes, f in failed for i, exc in f.items()}
    # Failed fits hold NaN, so they are not exact fits.
    exact = np.flatnonzero(R[:limit] == 0.0)[:1].tolist()
    first = min([*failures, *exact, limit])
    if first == dag.p:
        return
    label = dag.label_of(dag.topo_order[first])
    if first in failures:
        exc = failures[first]
    elif first < limit:
        raise ZeroResidualVariance(
            f"node {label}: exact fit, residual variance estimate is 0"
        )
    else:
        exc = _too_few_samples(n, int(dag.in_degrees[first]), first)
    raise type(exc)(f"node {label}: {exc}") from exc


def fit_sem(sample: GroupedSample, dag: PathwayDag) -> SemEstimate:
    """Fit every node of the dag and assemble the SEM estimate.

    Columns of ``sample.X`` are in original order; they are taken in the
    dag's topological order internally. The nodes are fit by parent count:
    the counts 0 and 1 one kernel call each, and the counts of two or more
    one QR factor step each, into the dag's padded layout, and one finish
    step together (see ``_finish``). Yet a failure is reported as a
    node-by-node sweep in topological order would meet it first: the
    offending node's label is attached, and no failure after a node with
    too few samples is reported. The dag's largest parent count and one
    test of R̂ tell whether there is a failure to look for.

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
    gather, multi, target = dag.group_index
    # One gather for every fit block: group k's blocks are k+1 rows each.
    # Indexing reads the transposed columns in place, where ``take`` would
    # first copy them to C order: a p × n temporary per fit, with which
    # simulate processes page-faulted several times as often.
    rows = sample.centered.T[gather]
    # The one sample-size rule: a node needs dof ≥ 1, and r̂ = rss / dof.
    dof = n - dag.in_degrees - 4
    enough = n - dag.max_in_degree - 4 >= 1
    Q = np.zeros((p, p))
    R = np.zeros(p)
    layout = dag.padded_layout
    slots, _, kept, _ = layout
    T = np.zeros((kept.shape[1] + 1, kept.shape[1] + 1, kept.shape[0]))
    failed = []
    stacks = []
    end = 0
    for k, (nodes, columns) in dag.parent_groups.items():
        start, end = end, end + columns.size
        if not enough and dof[nodes[0]] < 1:
            # Every node of this group shares its parent count, so all are
            # short of samples; a slot of theirs stays empty.
            continue
        B = rows[start:end].reshape(len(nodes), k + 1, n).transpose(0, 2, 1)
        if k >= 2:
            _factor(B, T[slots[k]])
            stacks.append((nodes, B, slots[k]))
            continue
        q, rss, failures = _fit_columns(B, nodes)
        if k:
            Q[columns[:, 0], nodes] = q[:, 0]
        R[nodes] = rss / dof[nodes]
        if failures:
            failed.append((nodes, failures))
    if stacks:
        q, rss, failures = _finish(T, layout, stacks)
        if enough:
            Q.put(target, q)
            R[multi] = rss / dof[multi]
        else:
            # A node short of samples fails the fit, so Q̂ is not returned;
            # the fitted groups still report their failures and exact fits.
            for nodes, _, (_, _, block) in stacks:
                R[nodes] = rss[block] / dof[nodes]
        if failures:
            failed.append((multi, failures))
    # A failed fit reads NaN and an exact one 0, so one test of R̂ finds
    # both.
    if not enough or b"\x00" in (R > 0.0).tobytes():
        _raise_first_failure(dag, n, dof, R, failed)
    # θ̂ is the group means through (I − Q̂), as t2dag forms its statistic
    # from the mean difference.
    M = sample.means.take(dag.topo_index, axis=1)
    m1, m2 = M - M @ Q
    theta = np.column_stack((m2, m1 - m2))
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
