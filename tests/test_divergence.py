"""Population divergences and the asymptotic power bound."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

from dagtest.divergence import (
    PopulationModel,
    dag_divergence,
    kl_divergence,
    power_lower_bound,
)
from dagtest.errors import SingularSubmatrix, ZeroResidualVariance
from dagtest.pathway import PathwayDag
from dagtest.sem import sem_covariance, sem_precision


def random_model(rng, p, density=0.3, shift_scale=0.7):
    Q = np.zeros((p, p))
    for i in range(p):
        for k in range(i + 1, p):
            if rng.random() < density:
                Q[i, k] = rng.uniform(-0.8, 0.8)
    R = rng.uniform(0.3, 2.0, size=p)
    mu1 = rng.normal(scale=shift_scale, size=p)
    mu2 = rng.normal(scale=shift_scale, size=p)
    return PopulationModel(mu1=mu1, mu2=mu2, Q=Q, R=R)


# ---------------------------------------------------------------------------
# kl_divergence
# ---------------------------------------------------------------------------

def test_kl_frozen_two_node_example():
    # Single edge 0.5, unit noise, unit shift on both coordinates:
    # v = delta - Q^T delta = (1, 0.5) and the divergence is 1 + 0.25.
    model = PopulationModel(
        mu1=np.array([1.0, 1.0]),
        mu2=np.zeros(2),
        Q=np.array([[0.0, 0.5], [0.0, 0.0]]),
        R=np.array([1.0, 1.0]),
    )
    assert_allclose(kl_divergence(model), 1.25, rtol=1e-15)


def test_kl_matches_dense_precision_quadratic():
    rng = np.random.default_rng(61)
    for _ in range(30):
        p = int(rng.integers(2, 13))
        model = random_model(rng, p)
        delta = model.mean_shift
        dense = float(delta @ sem_precision(model.Q, model.R) @ delta)
        assert_allclose(kl_divergence(model), dense, rtol=1e-10)


def test_kl_zero_shift_is_zero():
    rng = np.random.default_rng(62)
    mu = rng.normal(size=6)
    model = PopulationModel(
        mu1=mu, mu2=mu.copy(), Q=np.zeros((6, 6)), R=np.ones(6)
    )
    assert kl_divergence(model) == 0.0


def test_kl_diagonal_model_is_weighted_norm():
    delta = np.array([1.0, -2.0, 0.5])
    R = np.array([0.5, 2.0, 1.0])
    model = PopulationModel(
        mu1=delta, mu2=np.zeros(3), Q=np.zeros((3, 3)), R=R
    )
    assert_allclose(kl_divergence(model), float(np.sum(delta ** 2 / R)), rtol=1e-15)


# ---------------------------------------------------------------------------
# dag_divergence
# ---------------------------------------------------------------------------

def test_dag_divergence_no_edges_is_zero():
    rng = np.random.default_rng(63)
    model = random_model(rng, 5, density=0.0)
    dag = PathwayDag.from_edges([], p=5)
    assert dag_divergence(model, dag) == 0.0


def test_dag_divergence_chain_scalar_submatrices():
    # On a chain every parent set is a singleton, so the divergence reduces
    # to delta_j^2 / Sigma_jj summed over the first p-1 positions.
    rng = np.random.default_rng(64)
    p = 4
    model = random_model(rng, p, density=0.0)
    Q = np.zeros((p, p))
    for j in range(p - 1):
        Q[j, j + 1] = 0.4
    model = PopulationModel(mu1=model.mu1, mu2=model.mu2, Q=Q, R=model.R)
    dag = PathwayDag.from_edges([(j, j + 1) for j in range(p - 1)], p=p)
    delta = model.mean_shift
    sigma = sem_covariance(Q, model.R)
    expected = sum(delta[j] ** 2 / sigma[j, j] for j in range(p - 1))
    assert_allclose(dag_divergence(model, dag), expected, rtol=1e-12)


def test_dag_divergence_matches_submatrix_solve_oracle():
    rng = np.random.default_rng(65)
    for _ in range(20):
        p = int(rng.integers(3, 10))
        order = [int(v) for v in rng.permutation(p)]
        edges = [
            (order[i], order[k])
            for i in range(p)
            for k in range(i + 1, p)
            if rng.random() < 0.4
        ]
        dag = PathwayDag.from_edges(edges, p=p)
        # Build the model in the dag's topological coordinates.
        Q = np.zeros((p, p))
        for pos, parents in enumerate(dag.parent_sets):
            for i in parents:
                Q[i, pos] = rng.uniform(-0.7, 0.7)
        model = PopulationModel(
            mu1=rng.normal(size=p),
            mu2=rng.normal(size=p),
            Q=Q,
            R=rng.uniform(0.4, 1.5, size=p),
        )
        delta = model.mean_shift
        sigma = sem_covariance(model.Q, model.R)
        expected = 0.0
        for parents in dag.parent_sets:
            if parents:
                idx = list(parents)
                sub = np.linalg.inv(sigma[np.ix_(idx, idx)])
                expected += float(delta[idx] @ sub @ delta[idx])
        assert_allclose(dag_divergence(model, dag), expected, rtol=1e-9)


def test_dag_divergence_refuses_a_dag_of_another_size():
    model = PopulationModel(
        mu1=np.ones(3), mu2=np.zeros(3), Q=np.zeros((3, 3)), R=np.ones(3)
    )
    with pytest.raises(ValueError, match="^model and dag dimensions differ$"):
        dag_divergence(model, PathwayDag.from_edges([(0, 1)], p=2))


def test_dag_divergence_singular_submatrix():
    # Hand the model a singular covariance directly.
    p = 3
    sigma = np.ones((p, p))  # rank one
    model = PopulationModel.__new__(PopulationModel)
    object.__setattr__(model, "mu1", np.array([1.0, 0.0, 0.0]))
    object.__setattr__(model, "mu2", np.zeros(p))
    object.__setattr__(model, "Q", np.zeros((p, p)))
    object.__setattr__(model, "R", np.ones(p))
    object.__setattr__(model, "Sigma", sigma)
    dag = PathwayDag.from_edges([(0, 2), (1, 2)], p=p)
    with pytest.raises(SingularSubmatrix):
        dag_divergence(model, dag)


def test_population_model_validation():
    with pytest.raises(ZeroResidualVariance):
        PopulationModel(
            mu1=np.zeros(2),
            mu2=np.zeros(2),
            Q=np.zeros((2, 2)),
            R=np.array([1.0, 0.0]),
        )
    with pytest.raises(ValueError):
        PopulationModel(
            mu1=np.zeros(2),
            mu2=np.zeros(2),
            Q=np.array([[0.0, 0.0], [0.5, 0.0]]),  # lower triangular entry
            R=np.ones(2),
        )
    for mu2, Q, R in (
        (np.zeros(3), np.zeros((2, 2)), np.ones(2)),
        (np.zeros(2), np.zeros((2, 3)), np.ones(2)),
        (np.zeros(2), np.zeros((2, 2)), np.ones(3)),
    ):
        with pytest.raises(ValueError, match="^mu1, mu2, Q, R have inconsistent"):
            PopulationModel(mu1=np.zeros(2), mu2=mu2, Q=Q, R=R)
    with pytest.raises(ValueError, match="infs or NaNs"):
        PopulationModel(
            mu1=np.zeros(2),
            mu2=np.zeros(2),
            Q=np.array([[0.0, np.nan], [0.0, 0.0]]),
            R=np.ones(2),
        )
    Q = np.array([[0.0, 0.5], [0.0, 0.0]])
    model = PopulationModel(
        mu1=np.array([2.0, 1.0]),
        mu2=np.array([0.5, 1.0]),
        Q=Q,
        R=np.ones(2),
    )
    assert_allclose(model.mean_shift, [1.5, 0.0])
    assert model.p == 2
    # Sigma is formed on first read only, then kept.
    assert "Sigma" not in vars(model)
    assert np.array_equal(model.Sigma, sem_covariance(Q, np.ones(2)))
    assert model.Sigma is model.Sigma


# ---------------------------------------------------------------------------
# power_lower_bound
# ---------------------------------------------------------------------------

def zero_q_model(kl, p):
    delta = np.full(p, np.sqrt(kl / p))
    return PopulationModel(
        mu1=delta, mu2=np.zeros(p), Q=np.zeros((p, p)), R=np.ones(p)
    )


def test_power_bound_zero_divergence():
    model = zero_q_model(0.0, 4)
    assert power_lower_bound(model, 30, 30, 4, alpha=0.05) == 0.0


def test_power_bound_frozen_095_point():
    # Separation placed exactly two critical values above zero makes the
    # margin z_{0.025}, so the bound equals 1 - 2*0.025 = 0.95.
    p = 8
    n1 = n2 = 20  # N = 10
    z = norm.isf(0.025)
    kl = 2.0 * z * np.sqrt(2.0 * p) / 10.0
    model = zero_q_model(kl, p)
    assert_allclose(power_lower_bound(model, n1, n2, p, 0.05), 0.95, atol=1e-10)


def test_power_bound_saturates_to_one():
    model = zero_q_model(500.0, 5)
    assert power_lower_bound(model, 40, 40, 5, alpha=0.05) == 1.0


def test_power_bound_monotone_in_divergence():
    p = 6
    values = [
        power_lower_bound(zero_q_model(kl, p), 25, 25, p, 0.05)
        for kl in np.linspace(0.0, 6.0, 25)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] == 0.0
    assert values[-1] > 0.9


def test_power_bound_alpha_validation():
    model = zero_q_model(1.0, 3)
    with pytest.raises(ValueError):
        power_lower_bound(model, 10, 10, 3, alpha=0.0)
    with pytest.raises(ValueError):
        power_lower_bound(model, 10, 10, 3, alpha=1.0)
