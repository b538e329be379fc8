"""DAG-constrained linear SEM estimation by per-node least squares.

The model for a column vector of expressions z is z = Qᵀz + ε with Q strictly
upper triangular in topological coordinates and Var(ε) = R = diag(r_1..r_p).
Each node is fit by OLS of its column on its parents' columns with a two-group
intercept design W = [1, g]; the projection onto W is applied implicitly by
centering each group at its own mean, which is algebraically identical and
costs O(np) instead of forming an n×n projector.

Everything in this module indexes nodes by *topological position*; `fit_sem`
translates from the original column order at entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dtrtri

from .errors import (
    InsufficientSamples,
    RankDeficientDesign,
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

    def group_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh, writeable copies of the two rows of ``means``."""
        m1, m2 = self.means.copy()
        return m1, m2

    @property
    def mean_diff(self) -> np.ndarray:
        """x̄⁽¹⁾ − x̄⁽²⁾ as a length-p vector."""
        return self.means[0] - self.means[1]

    @cached_property
    def centered(self) -> np.ndarray:
        """X with each group centered at its own column means: (I − P_W)X."""
        out = self.X.copy()
        out[: self.n1] -= self.means[0]
        out[self.n1 :] -= self.means[1]
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

    def to_dict(self) -> dict:
        return {
            "j": self.j,
            "q_hat": self.q_hat.tolist(),
            "theta_hat": list(self.theta_hat),
            "r_hat": self.r_hat,
            "dof": self.dof,
        }


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _svd_coefficients(A: np.ndarray, y: np.ndarray, j: int) -> np.ndarray:
    """Least-squares q̂ from the SVD of A, rejecting numerically rank-deficient A."""
    n, k = A.shape
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    tol = _EPS * max(n, k) * np.linalg.norm(A, axis=0).max()
    rank = int(np.count_nonzero(s > tol))
    if rank < k:
        raise RankDeficientDesign(f"parent block of node {j} has rank {rank} < {k}")
    return Vt.T @ ((U.T @ y) / s)


def fit_node(sample: GroupedSample, j: int, parents: Sequence[int]) -> NodeFit:
    """OLS fit of column j on its parent columns under the two-group design.

    The coefficient solve uses the group-centered columns (equivalent to
    projecting out W = [1, g]). A single nonzero parent is a simple
    regression; any other parent block goes through a singular value
    decomposition, which detects rank deficiency with threshold
    eps · max(n, |S_j|) · (largest parent column norm). Residuals are always
    formed explicitly, and θ̂ comes from the cached group means:
    θ̂₁ = x̄⁽²⁾_j − x̄⁽²⁾_S·q̂, θ̂₂ = x̄⁽¹⁾_j − x̄⁽¹⁾_S·q̂ − θ̂₁.

    Args:
        sample: the grouped expression matrix (columns in any fixed order).
        j: column index of the node.
        parents: column indices of its parents (may be empty).

    Returns:
        NodeFit; ``r_hat`` may be exactly 0 when the fit is exact — consumers
        that would divide by it are expected to reject that case.

    Raises:
        InsufficientSamples: fewer than |S_j| + 5 samples in total.
        RankDeficientDesign: collinear parent columns after centering.
    """
    n = sample.n
    k = len(parents)
    dof = n - k - 4
    if dof < 1:
        raise InsufficientSamples(
            f"need n1+n2 >= |S_j|+5 for node {j}: n={n}, |S_j|={k}"
        )
    Xc, means = sample.centered, sample.means
    y_c = Xc[:, j]
    m1, m2 = means[:, j].tolist()
    if k == 0:
        q_hat = np.zeros(0)
        resid = y_c
    elif k == 1:
        s = parents[0]
        a = Xc[:, s]
        aa = float(a.dot(a))
        # The SVD rule grants rank 1 to every nonzero column (eps·n < 1), so
        # only a zero or non-finite column needs it.
        if _TINY < aa < math.inf:
            q = float(a.dot(y_c)) / aa
        else:
            q = float(_svd_coefficients(Xc[:, [s]], y_c, j)[0])
        q_hat = np.array([q])
        resid = y_c - q * a
        s1, s2 = means[:, s].tolist()
        m1 -= s1 * q
        m2 -= s2 * q
    else:
        A = Xc[:, list(parents)]
        q_hat = _svd_coefficients(A, y_c, j)
        resid = y_c - A @ q_hat
        s1, s2 = means.take(parents, axis=1) @ q_hat
        m1 -= float(s1)
        m2 -= float(s2)
    r_hat = float(resid.dot(resid)) / dof
    return NodeFit(j=j, q_hat=q_hat, theta_hat=(m2, m1 - m2), r_hat=r_hat, dof=dof)


@dataclass(frozen=True, eq=False)
class SemEstimate:
    """Fitted SEM: coefficient matrix, residual variances, and the dag.

    ``Q_hat`` and ``R_hat`` live in topological coordinates: entry
    ``Q_hat[i, k]`` is the coefficient of the node in position i on its child
    in position k, nonzero only where the dag has an edge.
    """

    Q_hat: np.ndarray
    R_hat: np.ndarray
    dag: PathwayDag
    node_fits: tuple[NodeFit, ...] = ()

    def __post_init__(self):
        Q = np.asarray(self.Q_hat, dtype=float)
        R = np.asarray(self.R_hat, dtype=float)
        object.__setattr__(self, "Q_hat", Q)
        object.__setattr__(self, "R_hat", R)
        p = self.dag.p
        if Q.shape != (p, p) or R.shape != (p,):
            raise ValueError("Q_hat must be p×p and R_hat length p")
        if np.any(np.tril(Q) != 0.0):
            raise ValueError("Q_hat must be strictly upper triangular")
        parent_sets = self.dag.parent_sets
        allowed = np.zeros((p, p), dtype=bool)
        allowed[
            [i for parents in parent_sets for i in parents],
            [k for k, parents in enumerate(parent_sets) for _ in parents],
        ] = True
        if np.any(Q[~allowed] != 0.0):
            raise ValueError("Q_hat has support outside the dag's parent sets")
        if np.any(R <= 0.0):
            bad = int(np.argmin(R))
            raise ZeroResidualVariance(
                f"residual variance at topological position {bad} is not positive"
            )

    def to_dict(self) -> dict:
        triples = [
            [int(i), int(k), float(self.Q_hat[i, k])]
            for i, k in zip(*np.nonzero(self.Q_hat))
        ]
        triples.sort(key=lambda t: (t[1], t[0]))
        return {
            "topo_order": list(self.dag.topo_order),
            "Q_triples": triples,
            "R_hat": self.R_hat.tolist(),
            "dof": [nf.dof for nf in self.node_fits] or None,
        }


def fit_sem(sample: GroupedSample, dag: PathwayDag) -> SemEstimate:
    """Fit every node of the dag and assemble the SEM estimate.

    Columns of ``sample.X`` are in original order; they are reordered to the
    dag's topological order internally. Node-level failures are re-raised with
    the offending node's label attached.

    Raises:
        RankDeficientDesign, InsufficientSamples: from individual node fits.
        ZeroResidualVariance: a node fit was exact (r̂ = 0), making the
            precision matrix undefined.
    """
    if sample.p != dag.p:
        raise ValueError(f"sample has {sample.p} columns but dag has p={dag.p}")
    topo_sample = sample.reorder_columns(dag.topo_order)
    p = dag.p
    Q = np.zeros((p, p))
    R = np.zeros(p)
    fits: list[NodeFit] = []
    for pos in range(p):
        label = dag.label_of(dag.topo_order[pos])
        try:
            nf = fit_node(topo_sample, pos, dag.parent_sets[pos])
        except (RankDeficientDesign, InsufficientSamples) as exc:
            raise type(exc)(f"node {label}: {exc}") from exc
        if nf.r_hat == 0.0:
            raise ZeroResidualVariance(
                f"node {label}: exact fit, residual variance estimate is 0"
            )
        fits.append(nf)
        if nf.q_hat.size:
            Q[list(dag.parent_sets[pos]), pos] = nf.q_hat
        R[pos] = nf.r_hat
    return SemEstimate(Q_hat=Q, R_hat=R, dag=dag, node_fits=tuple(fits))


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
