"""Population divergences between group means and the asymptotic power bound.

Both divergences measure the separation of two group mean vectors for a
population whose covariance is structured by a linear SEM. Everything here is
population-level (true Q and R), used to predict and sanity-check the power of
the sample tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import SingularSubmatrix, ZeroResidualVariance
from .pathway import PathwayDag
from .sem import sem_covariance

__all__ = [
    "PopulationModel",
    "kl_divergence",
    "dag_divergence",
    "power_lower_bound",
]


@dataclass(frozen=True, eq=False)
class PopulationModel:
    """True means and SEM parameters, in topological coordinates.

    Attributes:
        mu1, mu2: group mean vectors (length p).
        Q: true coefficient matrix, strictly upper triangular; entry (i, k) is
            the effect of node i on node k.
        R: positive residual variances (length p).

    The implied covariance ``Sigma`` is computed on first read.
    """

    mu1: np.ndarray
    mu2: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        mu1 = np.asarray(self.mu1, dtype=float)
        mu2 = np.asarray(self.mu2, dtype=float)
        Q = np.asarray(self.Q, dtype=float)
        R = np.asarray(self.R, dtype=float)
        p = mu1.shape[0]
        if mu2.shape != (p,) or Q.shape != (p, p) or R.shape != (p,):
            raise ValueError("mu1, mu2, Q, R have inconsistent dimensions")
        if np.any(np.tril(Q) != 0.0):
            raise ValueError("Q must be strictly upper triangular")
        if np.any(R <= 0.0):
            raise ZeroResidualVariance("R must be entrywise positive")
        if not (np.isfinite(Q).all() and np.isfinite(R).all()):
            raise ValueError("Q and R must not contain infs or NaNs")
        for name, value in (("mu1", mu1), ("mu2", mu2), ("Q", Q), ("R", R)):
            object.__setattr__(self, name, value)

    @cached_property
    def Sigma(self) -> np.ndarray:
        """Implied covariance (I−Qᵀ)⁻¹·diag(R)·(I−Q)⁻¹."""
        return sem_covariance(self.Q, self.R)

    @property
    def p(self) -> int:
        return self.mu1.shape[0]

    @property
    def mean_shift(self) -> np.ndarray:
        """δ_μ = μ1 − μ2."""
        return self.mu1 - self.mu2


def kl_divergence(model: PopulationModel) -> float:
    """δ_μᵀ (I−Q) R⁻¹ (I−Q)ᵀ δ_μ — the Gaussian KL separation of the groups.

    Evaluated through the triangular factor: with v = (I−Q)ᵀδ_μ the value is
    Σ_k v_k²/r_k, so no matrix inverse is formed.
    """
    delta = model.mean_shift
    v = delta - model.Q.T @ delta
    return float(np.sum(v * v / model.R))


def dag_divergence(model: PopulationModel, dag: PathwayDag) -> float:
    """Sum over child nodes of δ_{S}ᵀ {Σ_{S,S}}⁻¹ δ_{S} for parent sets S.

    ``model`` must be in the dag's topological coordinates (index k of the
    model corresponds to the node in topological position k).

    Raises:
        SingularSubmatrix: some principal submatrix Σ_{S,S} is singular.
    """
    if model.p != dag.p:
        raise ValueError("model and dag dimensions differ")
    delta = model.mean_shift
    total = 0.0
    for k, parents in enumerate(dag.parent_sets):
        if not parents:
            continue
        idx = list(parents)
        sub = model.Sigma[np.ix_(idx, idx)]
        d_sub = delta[idx]
        try:
            total += float(d_sub @ np.linalg.solve(sub, d_sub))
        except np.linalg.LinAlgError as exc:
            raise SingularSubmatrix(
                f"covariance submatrix for the child at position {k} "
                f"(parents {idx}) is singular"
            ) from exc
    return total


def power_lower_bound(
    model: PopulationModel, n1: int, n2: int, p: int, alpha: float
) -> float:
    """Asymptotic lower bound on the two-sided test's power.

    Returns P(|Z| ≤ −z_{α/2} + N·D_KL/√(2p)) for standard normal Z with
    N = n1·n2/(n1+n2), clamped to [0, 1]. Zero mean shift gives 0; the bound
    increases to 1 as the standardized separation grows.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    n_eff = n1 * n2 / (n1 + n2)
    margin = ndtri(alpha / 2.0) + n_eff * kl_divergence(model) / np.sqrt(2.0 * p)
    if margin <= 0.0:
        return 0.0
    return float(min(1.0, 1.0 - 2.0 * ndtr(-margin)))
