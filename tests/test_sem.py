"""SEM estimation layer: per-node OLS, assembly, precision/covariance."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular

from dagtest.errors import (
    InsufficientSamples,
    RankDeficientDesign,
    ValueOutOfRange,
    ZeroResidualVariance,
)
from dagtest import sem
from dagtest.mean_tests import METHODS, run_methods
from dagtest.pathway import PathwayDag
from dagtest.sem import (
    GroupedSample,
    SemEstimate,
    dag_covariance,
    dag_precision,
    fit_node,
    fit_sem,
    sem_covariance,
    sem_precision,
)


def pinv_oracle(sample, j, parents):
    """Joint OLS on the full design [1, 1{group 1}, X_S] via pseudo-inverse."""
    n = sample.n
    g1 = np.zeros(n)
    g1[: sample.n1] = 1.0
    D = np.column_stack(
        [np.ones(n), g1] + [sample.X[:, i] for i in parents]
    )
    y = sample.X[:, j]
    beta = np.linalg.pinv(D) @ y
    resid = y - D @ beta
    dof = n - len(parents) - 4
    return beta[0], beta[1], beta[2:], float(resid @ resid) / dof


def random_sample(rng, n1, n2, p):
    return GroupedSample.from_groups(
        rng.normal(size=(n1, p)), rng.normal(size=(n2, p)) + 0.3
    )


# ---------------------------------------------------------------------------
# fit_node
# ---------------------------------------------------------------------------

def test_fit_node_frozen_fixture():
    # Oracle values computed once by exact rational Gaussian elimination on
    # the normal equations of the full design [1, 1{group 1}, X_0, X_1].
    X = np.array(
        [
            [1.0, 2.0, 4.0],
            [2.0, 1.0, 3.5],
            [0.5, 3.0, 5.0],
            [1.5, 2.5, 4.5],
            [2.5, 0.5, 3.0],
            [3.0, 1.5, 5.5],
            [2.0, 2.0, 5.0],
            [3.5, 1.0, 4.0],
        ]
    )
    sample = GroupedSample.from_groups(X[:4], X[4:])
    nf = fit_node(sample, 2, parents=(0, 1))
    assert_allclose(nf.q_hat, [69 / 130, 17 / 13], atol=1e-10)
    assert_allclose(nf.theta_hat[0], 333 / 260, atol=1e-10)
    assert_allclose(nf.theta_hat[1], -123 / 260, atol=1e-10)
    assert_allclose(nf.r_hat, 249 / 520, atol=1e-10)
    assert nf.dof == 2


def test_fit_node_matches_pinv_oracle():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n1 = int(rng.integers(4, 12))
        n2 = int(rng.integers(4, 12))
        p = int(rng.integers(2, 6))
        k = int(rng.integers(0, min(p - 1, n1 + n2 - 5) + 1))
        sample = random_sample(rng, n1, n2, p)
        j = int(rng.integers(p))
        parents = tuple(
            int(i) for i in rng.choice([i for i in range(p) if i != j], k, replace=False)
        )
        nf = fit_node(sample, j, parents)
        t1, t2, q, r = pinv_oracle(sample, j, parents)
        assert_allclose(nf.q_hat, q, atol=1e-10)
        assert_allclose(nf.theta_hat, (t1, t2), atol=1e-10)
        assert_allclose(nf.r_hat, r, rtol=1e-12)


def test_fit_node_ill_conditioned_parents_match_pinv_oracle():
    # Nearly collinear parents (cond(A) far above 1e4) pass the rank rule, and
    # the fit must still agree with the full-design regression.
    rng = np.random.default_rng(102)
    x0 = rng.normal(size=30)
    X = np.column_stack(
        [x0, x0 + 1e-5 * rng.normal(size=30), rng.normal(size=30)]
    )
    X = np.column_stack([X, X @ [1.0, -2.0, 0.5] + 0.1 * rng.normal(size=30)])
    sample = GroupedSample.from_groups(X[:14], X[14:])
    assert np.linalg.cond(sample.centered[:, :2]) > 1e4
    nf = fit_node(sample, 3, parents=(0, 1, 2))
    t1, t2, q, r = pinv_oracle(sample, 3, (0, 1, 2))
    assert_allclose(nf.q_hat, q, rtol=1e-6)
    assert_allclose(nf.theta_hat, (t1, t2), atol=1e-8)
    assert_allclose(nf.r_hat, r, rtol=1e-10)


def test_fit_node_no_parents_closed_form():
    rng = np.random.default_rng(5)
    sample = random_sample(rng, 6, 8, 2)
    nf = fit_node(sample, 0, parents=())
    x1 = sample.X[:6, 0].mean()
    x2 = sample.X[6:, 0].mean()
    assert_allclose(nf.theta_hat, (x2, x1 - x2), atol=1e-12)
    ss = float(sample.centered[:, 0] @ sample.centered[:, 0])
    assert_allclose(nf.r_hat, ss / (14 - 4), rtol=1e-12)
    assert nf.q_hat.size == 0


def test_fit_node_exact_fit_recovery():
    # Noiseless child column: coefficients recovered, residual variance at
    # the floating-point floor (roundoff squared, not a statistical zero).
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=10)
    X = np.column_stack([x0, 2.0 * x0])
    sample = GroupedSample.from_groups(X[:5], X[5:])
    nf = fit_node(sample, 1, parents=(0,))
    assert nf.r_hat < 1e-25
    assert_allclose(nf.q_hat, [2.0], atol=1e-10)


def test_fit_node_constant_column_gives_exact_zero():
    # Within-group constant columns center to exactly zero, so the RSS—and
    # hence r_hat—is exactly 0.0, the degenerate case fit_sem must reject.
    X = np.column_stack([np.r_[np.ones(5), np.full(5, 2.0)], np.arange(10.0)])
    sample = GroupedSample.from_groups(X[:5], X[5:])
    nf = fit_node(sample, 0, parents=())
    assert nf.r_hat == 0.0
    assert nf.theta_hat == (2.0, -1.0)


def test_fit_node_rank_deficient():
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=12)
    X = np.column_stack([x0, x0.copy(), rng.normal(size=12)])
    sample = GroupedSample.from_groups(X[:6], X[6:])
    with pytest.raises(RankDeficientDesign):
        fit_node(sample, 2, parents=(0, 1))


@pytest.mark.parametrize(
    "parents, rank", [((1,), "rank 0 < 1"), ((1, 2), "rank 1 < 2")]
)
def test_subnormal_parent_column_is_rank_deficient(parents, rank):
    # Column 1 at scale 1e-312 is in range, but its B·B sums underflow to 0:
    # the rank threshold is floored at the smallest normal float, so its
    # subnormal singular value marks the block deficient instead of
    # overflowing the solve (a RuntimeWarning fails the suite).
    X = np.random.default_rng(3).normal(size=(20, 3))
    X[:, 1] *= 1e-312
    sample = GroupedSample.from_groups(X[:10], X[10:])
    with pytest.raises(RankDeficientDesign, match=rank):
        fit_node(sample, 0, parents)
    dag = PathwayDag.from_edges([(i, 0) for i in parents], p=3)
    results, errors = run_methods(sample, dag, METHODS)
    assert [r.method for r in results] == ["bai_saranadasa", "chen_qin"]
    assert [line.split(":")[0] for line in errors] == [
        "t2dag_chi2",
        "t2dag_z",
        "hotelling",
    ]


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e-170, 1e-200, 1e-300])
def test_collinear_parents_rank_deficient_at_every_scale(scale):
    # Two parent columns equal to within 1e-15 relative: the rank threshold
    # comes from the block's largest singular value, so the decision does
    # not depend on the scale, also where squared values underflow.
    X = np.random.default_rng(4).normal(size=(20, 3))
    X[:, 2] = X[:, 1] * (1.0 + 1e-15)
    X[:, 1:] *= scale
    sample = GroupedSample.from_groups(X[:10], X[10:])
    with pytest.raises(RankDeficientDesign, match="rank 1 < 2"):
        fit_node(sample, 0, (1, 2))


def test_fit_node_insufficient_samples():
    rng = np.random.default_rng(10)
    sample = random_sample(rng, 3, 3, 5)  # n = 6, |S_j| = 2 -> dof = 0
    with pytest.raises(InsufficientSamples):
        fit_node(sample, 4, parents=(0, 1))


@pytest.mark.parametrize(
    "j, parents, message",
    [
        (1, (5,), "parent index 5 out of range for p=4"),
        (1, (0, 4), "parent index 4 out of range for p=4"),
        (3, (0, -1), "parent index -1 out of range for p=4"),
        (-1, (0,), "node index -1 out of range for p=4"),
        (4, (), "node index 4 out of range for p=4"),
        (-4, (), "node index -4 out of range for p=4"),
        (2, (2,), "node 2 is among its own parents"),
        (3, (0, 3), "node 3 is among its own parents"),
    ],
    ids=[
        "parent-past-p",
        "second-parent-at-p",
        "negative-parent",
        "negative-node",
        "node-at-p",
        "node-at-minus-p",
        "own-parent",
        "own-second-parent",
    ],
)
def test_fit_node_refuses_bad_column_indices(j, parents, message):
    # Without the check, the one-parent slice view and the list gather turn
    # such indices into fits of other columns or into unrelated errors.
    sample = random_sample(np.random.default_rng(11), 6, 6, 4)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_node(sample, j, parents)


# ---------------------------------------------------------------------------
# fit_sem
# ---------------------------------------------------------------------------

def test_fit_sem_edgeless_pooled_variance():
    rng = np.random.default_rng(12)
    sample = random_sample(rng, 10, 10, 3)
    dag = PathwayDag.from_edges([], p=3)
    est = fit_sem(sample, dag)
    n = 20
    pooled = (sample.centered ** 2).sum(axis=0) / (n - 2)
    assert_allclose(est.R_hat, pooled * (n - 2) / (n - 4), rtol=1e-12)
    assert np.all(est.Q_hat == 0.0)


def test_fit_sem_group_shift_leaves_q_and_r():
    rng = np.random.default_rng(13)
    sample = random_sample(rng, 8, 9, 4)
    dag = PathwayDag.from_edges([(0, 1), (1, 2), (0, 3), (2, 3)], p=4)
    est = fit_sem(sample, dag)
    shifted = sample.X.copy()
    shifted[8:] += rng.normal(size=4)  # constant per column on group 2
    est2 = fit_sem(
        GroupedSample(X=shifted, g=sample.g, n1=8, n2=9), dag
    )
    assert_allclose(est2.Q_hat, est.Q_hat, atol=1e-9)
    assert_allclose(est2.R_hat, est.R_hat, rtol=1e-9)


def test_fit_sem_column_permutation_equivariant():
    rng = np.random.default_rng(14)
    sample = random_sample(rng, 12, 12, 5)
    edges = [(0, 2), (1, 2), (2, 4), (3, 4)]
    dag = PathwayDag.from_edges(edges, p=5)
    perm = [3, 0, 4, 1, 2]  # new column c holds old column perm[c]
    inv = {old: new for new, old in enumerate(perm)}
    X2 = sample.X[:, perm]
    dag2 = PathwayDag.from_edges([(inv[a], inv[b]) for a, b in edges], p=5)
    est1 = fit_sem(sample, dag)
    est2 = fit_sem(GroupedSample(X=X2, g=sample.g, n1=12, n2=12), dag2)
    P1 = dag_precision(est1)
    P2 = dag_precision(est2)
    # Map both back to node coordinates before comparing.
    node_P1 = np.empty((5, 5))
    node_P2 = np.empty((5, 5))
    for i in range(5):
        for j in range(5):
            node_P1[est1.dag.topo_order[i], est1.dag.topo_order[j]] = P1[i, j]
            a = perm[est2.dag.topo_order[i]]
            b = perm[est2.dag.topo_order[j]]
            node_P2[a, b] = P2[i, j]
    assert_allclose(node_P2, node_P1, atol=1e-10)


@pytest.mark.parametrize("factor", [np.nan, np.inf, -np.inf, 1.001, -1.001])
def test_out_of_range_value_fails_every_fit_up_front(factor):
    # Values within (float max / (16·n²·p²))^(1/4) fit; a NaN, an infinity
    # or a value beyond it fails before any node is fit, naming the gene
    # by its dag label, or by its column without a dag.
    n1 = n2 = 6
    bound = (np.finfo(float).max / (16.0 * (n1 + n2) ** 2 * 3**2)) ** 0.25
    X = np.random.default_rng(28).normal(size=(n1 + n2, 3))
    dag = PathwayDag.from_edges([(0, 1), (1, 2)], p=3, labels=("A", "B", "C"))
    X[3, 1] = 0.999 * bound
    fit_sem(GroupedSample.from_groups(X[:n1], X[n1:]), dag)
    X[3, 1] = factor * bound
    sample = GroupedSample.from_groups(X[:n1], X[n1:])
    with pytest.raises(ValueOutOfRange, match=r"^gene B holds a value out of range"):
        fit_sem(sample, dag)
    with pytest.raises(ValueOutOfRange, match=r"^column 1 holds a value out of range"):
        fit_node(sample, 2, [1])


def test_fit_sem_exact_fit_raises():
    rng = np.random.default_rng(15)
    X = np.column_stack(
        [rng.normal(size=12), np.r_[np.ones(6), np.full(6, 3.0)]]
    )
    sample = GroupedSample.from_groups(X[:6], X[6:])
    dag = PathwayDag.from_edges([], p=2, labels=("A", "B"))
    with pytest.raises(ZeroResidualVariance, match="node B"):
        fit_sem(sample, dag)


def test_fit_sem_error_names_offending_node():
    rng = np.random.default_rng(16)
    x0 = rng.normal(size=14)
    X = np.column_stack([x0, x0.copy(), rng.normal(size=14)])
    sample = GroupedSample.from_groups(X[:7], X[7:])
    dag = PathwayDag.from_edges(
        [(0, 2), (1, 2)], p=3, labels=("KRAS", "KRAS2", "MAPK1")
    )
    with pytest.raises(RankDeficientDesign, match="node MAPK1"):
        fit_sem(sample, dag)


def test_fit_sem_consistency_large_sample():
    """With n = 10^4 the estimates sit close to the generating model."""
    rng = np.random.default_rng(17)
    p = 10
    Q = np.zeros((p, p))
    for i, k in [(0, 3), (1, 3), (2, 5), (3, 6), (4, 7), (5, 8), (6, 9)]:
        Q[i, k] = rng.uniform(-0.8, 0.8)
    R = rng.uniform(0.5, 1.5, size=p)
    shift = rng.uniform(-0.5, 0.5, size=p)
    n1 = n2 = 5000

    def draw(n, mu):
        eps = rng.normal(scale=np.sqrt(R), size=(n, p))
        return mu + solve_triangular(
            np.eye(p) - Q.T, eps.T, lower=True, unit_diagonal=True
        ).T

    sample = GroupedSample.from_groups(draw(n1, shift), draw(n2, 0.0))
    dag = PathwayDag.from_edges(
        [(0, 3), (1, 3), (2, 5), (3, 6), (4, 7), (5, 8), (6, 9)], p=p
    )
    est = fit_sem(sample, dag)
    assert est.dag.topo_order == tuple(range(p))  # edges already forward
    assert np.max(np.abs(est.Q_hat - Q)) < 0.05
    assert np.max(np.abs(est.R_hat - R)) < 0.05
    theta2 = est.theta_hat[:, 1]
    # theta2 estimates the group contrast of the node-conditional means.
    expected = shift - Q.T @ shift
    assert np.max(np.abs(theta2 - expected)) < 0.05


def _oracle_estimate(sample, dag):
    """Q̂, R̂, θ̂ and dof of every node from the pinv full-design oracle.

    The oracle runs on columns scaled to a largest entry of 1, so that its
    cutoff does not drop a column of tiny values, and maps back (OLS is
    equivariant under column scaling).
    """
    p = dag.p
    scale = np.abs(sample.X).max(axis=0)
    unit = GroupedSample(X=sample.X / scale, g=sample.g, n1=sample.n1, n2=sample.n2)
    Q, R = np.zeros((p, p)), np.zeros(p)
    theta, dof = np.zeros((p, 2)), np.zeros(p, dtype=int)
    for pos, parents in enumerate(dag.parent_sets):
        j = dag.topo_order[pos]
        cols = [dag.topo_order[i] for i in parents]
        t1, t2, q, r = pinv_oracle(unit, j, cols)
        Q[list(parents), pos] = q * scale[j] / scale[cols]
        R[pos] = r * scale[j] ** 2
        theta[pos] = (t1 * scale[j], t2 * scale[j])
        dof[pos] = sample.n - len(parents) - 4
    return Q, R, theta, dof


def _mixed_dag(rng, p):
    """A random dag on p nodes, in shuffled order, whose parent counts mix
    0, 1, 2 and 3 or more."""
    order = rng.permutation(p)
    edges = []
    for pos in range(1, p):
        k = min(pos, int(rng.choice([0, 1, 1, 2, 2, 3, 4])))
        for i in rng.choice(pos, k, replace=False):
            edges.append((int(order[i]), int(order[pos])))
    return PathwayDag.from_edges(edges, p=p)


def test_fit_sem_matches_pinv_oracle_on_mixed_parent_counts():
    # Besides random blocks: a parent column so small that a·a falls below
    # the smallest normal number (its children take the per-matrix SVD rule
    # inside the one-parent group) and a nearly collinear pair of parents.
    rng = np.random.default_rng(24)
    for trial in range(30):
        p = int(rng.integers(8, 30))
        n1, n2 = int(rng.integers(8, 20)), int(rng.integers(8, 20))
        dag = _mixed_dag(rng, p)
        X = rng.normal(size=(n1 + n2, p))
        if trial % 3 == 0:
            # A parentless node with tiny values, parent of one node only.
            tiny, child = int(dag.topo_order[0]), int(dag.topo_order[-1])
            edges = {e for e in dag.edges if e[0] != tiny and e[1] != child}
            dag = PathwayDag.from_edges(edges | {(tiny, child)}, p=p)
            X[:, tiny] *= 1e-155
            assert float(X[:, tiny] @ X[:, tiny]) < np.finfo(float).tiny
        if trial % 3 == 1:
            # Two nearly collinear parents of the last node in the order.
            a, b, child = (int(dag.topo_order[i]) for i in (0, 1, -1))
            X[:, b] = X[:, a] + 1e-4 * rng.normal(size=n1 + n2)
            dag = PathwayDag.from_edges(dag.edges | {(a, child), (b, child)}, p=p)
        sample = GroupedSample.from_groups(X[:n1], X[n1:])
        est = fit_sem(sample, dag)
        Q, R, theta, dof = _oracle_estimate(sample, dag)
        assert_allclose(est.Q_hat, Q, rtol=1e-10, atol=1e-10, err_msg=str(trial))
        assert_allclose(est.R_hat, R, rtol=1e-10, err_msg=str(trial))
        assert_allclose(est.theta_hat, theta, rtol=1e-10, atol=1e-10)
        assert est.dof.tolist() == dof.tolist()


def test_fit_sem_on_one_dag_matches_a_fresh_dag_per_sample():
    # A dag derives its fit plan once; fitting it on sample after sample,
    # one of them too small for its 4-parent nodes (which cuts the plan
    # short), gives the bits and errors of a freshly built equal dag.
    rng = np.random.default_rng(27)
    labels = [f"G{i}" for i in range(24)]
    dag = PathwayDag.from_edges(_mixed_dag(rng, 24).edges, p=24, labels=labels)
    assert dag.max_in_degree == 4
    for n1, n2 in ((12, 12), (4, 4), (9, 7), (4, 4), (20, 15)):
        X = rng.normal(size=(n1 + n2, 24))
        sample = GroupedSample.from_groups(X[:n1], X[n1:])
        fresh = PathwayDag.from_edges(dag.edges, p=24, labels=labels)
        if n1 + n2 == 8:
            messages = []
            for d in (dag, fresh):
                with pytest.raises(InsufficientSamples) as err:
                    fit_sem(sample, d)
                messages.append(str(err.value))
            assert messages[0] == messages[1]
            assert messages[0] == _sequential_failure(sample, dag)[1]
            continue
        got, want = fit_sem(sample, dag), fit_sem(sample, fresh)
        for name in ("Q_hat", "R_hat", "theta_hat", "dof"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


# ---------------------------------------------------------------------------
# The node-fit kernel: one stacked QR, the SVD only where the bound fails
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _conditioned_blocks(rng, n1, n2, k, conds, scale):
    """Fit blocks of a sample of len(conds) blocks, each k parent columns
    and one child.

    Block i's group-centered parent columns have singular values spaced
    evenly in log scale from 1 down to 1/conds[i]; its child is a random
    combination of them plus group-centered noise. Each column also gets
    group means. Each block carries its own factor in [1e-6, 1], and the
    sample is scaled so that its largest value is ``scale``, or half the
    range bound when that is smaller (``scale`` = inf asks for the bound).

    Returns B (G, n+2, k+1): each block's fit columns from the sample,
    parents then child, as ``fit_sem`` gathers them.
    """
    n = n1 + n2
    groups = np.r_[np.zeros(n1, int), np.ones(n2, int)]

    def centered(size):
        a = rng.normal(size=(n, size))
        for g in (0, 1):
            a[groups == g] -= a[groups == g].mean(axis=0)
        return a

    columns = []
    for cond in conds:
        U = np.linalg.qr(centered(k))[0]
        V = np.linalg.qr(rng.normal(size=(k, k)))[0]
        C = (U * np.logspace(0, -np.log10(cond), k)) @ V.T
        y = C @ rng.normal(size=k) + 0.1 * centered(1)[:, 0]
        block = np.column_stack([C, y]) + rng.normal(size=(2, k + 1))[groups]
        columns.append(block * 10.0 ** -rng.uniform(0, 6))
    X = np.concatenate(columns, axis=1)
    X /= np.abs(X).max()
    p = X.shape[1]
    bound = np.sqrt(np.sqrt(np.finfo(float).max) / (4.0 * n * p))
    X *= min(scale, 0.5 * bound)
    sample = GroupedSample.from_groups(X[:n1], X[n1:])
    gather = np.arange(p).reshape(len(conds), k + 1)
    return sample._fit_rows[:, gather].transpose(1, 0, 2)


def _check_kernel_against_svd_rule_and_pinv(B, nodes):
    """Run the kernel on the stack B and check every block: its rank
    decision and message against the SVD rule computed directly, and q̂,
    the parent-adjusted means and the RSS against the pinv oracle, within
    the least-squares perturbation bounds for the block's conditioning.
    Returns the number of blocks found rank deficient."""
    q, adjusted, rss, failures = sem._fit_columns(B, nodes)
    n, k = B.shape[1] - 2, B.shape[2] - 1
    deficient = 0
    for i in range(B.shape[0]):
        A, y = B[i, :, :k], B[i, :, k]
        s = np.linalg.svd(A[:n], compute_uv=False)
        tol = max(_EPS * max(n, k) * s[0], _TINY)
        if s[-1] <= tol:
            rank = int(np.count_nonzero(s > tol))
            message = f"parent block of node {nodes[i]} has rank {rank} < {k}"
            assert str(failures[i]) == message
            assert np.isnan(q[i]).all() and np.isnan(adjusted[i]).all()
            assert np.isnan(rss[i])
            deficient += 1
            continue
        assert i not in failures
        # pinv on the block scaled to s_max = 1, so its cutoff keeps every
        # singular value at any scale.
        q_or = np.linalg.pinv(A[:n] / s[0]) @ (y[:n] / s[0])
        resid = y - A @ q_or
        r = float(np.sqrt(resid[:n] @ resid[:n]))
        kappa, qn = s[0] / s[-1], float(np.linalg.norm(q_or))
        dq = 1e3 * _EPS * kappa * (qn + kappa * r / s[0])
        dr = 1e3 * _EPS * (s[0] * qn + kappa * r)
        means = np.abs(A[n:]).max()
        assert np.abs(q[i] - q_or).max() <= dq
        assert abs(rss[i] - r * r) <= 2 * r * dr + dr * dr
        scale_adj = np.abs(y[n:]).max() + means * qn
        assert np.abs(adjusted[i] - resid[n:]).max() <= means * dq + dr + 1e3 * _EPS * scale_adj
    assert sorted(failures) == sorted(
        i for i in range(B.shape[0]) if np.isnan(rss[i])
    )
    return deficient


@settings(max_examples=80, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    blocks=st.integers(1, 8),
    scale=st.sampled_from([1e-300, 1e-200, 1e-155, 1e-100, 1.0, 1e50, np.inf]),
)
def test_fit_kernel_decides_as_the_svd_rule_and_fits_as_pinv(seed, k, blocks, scale):
    # Conditioning from 1 to 1e17 and scales from 1e-300 to the range bound:
    # the rank decisions and messages are the SVD rule's, whichever blocks
    # the QR bound certified, and every fit that passes matches the oracle.
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(k + 3, 20)), int(rng.integers(3, 20))
    conds = 10.0 ** rng.uniform(0, 17, size=blocks)
    B = _conditioned_blocks(rng, n1, n2, k, conds, scale)
    _check_kernel_against_svd_rule_and_pinv(B, np.arange(blocks) + 7)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("scale", [1e-300, 1.0, np.inf])
def test_fit_kernel_runs_the_svd_on_the_uncertified_blocks_only(monkeypatch, k, scale):
    # A stack takes one route. One that mixes blocks the bound certifies
    # with blocks it cannot (nearly collinear ones, a group-constant parent,
    # i.e. an exact zero on R's diagonal, a well-conditioned block whose
    # singular values lie at or below the smallest normal float, where R⁻¹
    # is still finite, and, for one parent, columns whose a·a is subnormal
    # or zero) goes through the SVD whole, in one call. A stack the bound
    # certifies block by block never reaches the SVD.
    rng = np.random.default_rng(31 + k)
    conds = [1.0, 1e17, 10.0, 1e16, 1e3, 1e15, 1e2]
    B = _conditioned_blocks(rng, 12, 10, k, conds, scale).copy()
    B[0] *= 5e-309 / np.abs(B[0]).max()
    B[3, :-2, 0] = 0.0  # a group-constant parent
    if k == 1:
        # One-parent stacks take the QR route only when some a·a is tiny.
        B[5] *= 1e-160
    calls = []
    real = sem._solve_svd

    def spy(B, nodes):
        calls.append(np.broadcast_to(nodes, B.shape[:-2]).ravel().tolist())
        return real(B, nodes)

    monkeypatch.setattr(sem, "_solve_svd", spy)
    nodes = np.arange(len(conds)) + 40
    deficient = _check_kernel_against_svd_rule_and_pinv(B, nodes)
    assert calls == [nodes.tolist()]
    assert deficient >= 2

    # Every block at the stack's largest value, so that at 1e-300 too the
    # bound certifies each one; one-parent blocks at scale 1 take the simple
    # regression and never reach the QR.
    C = _conditioned_blocks(rng, 12, 10, k, [1.0, 10.0, 1e2, 3.0], scale)
    C = C * (np.abs(C).max() / np.abs(C).max(axis=(1, 2), keepdims=True))
    calls.clear()
    assert _check_kernel_against_svd_rule_and_pinv(C, np.arange(4) + 60) == 0
    assert calls == []


def test_fit_sem_agrees_with_a_node_by_node_fit_node_sweep():
    # fit_sem fits each parent count as one stack, fit_node one block at a
    # time; both run the same kernel, so they agree to rounding, also for
    # nearly collinear parents and for tiny values, where every one-parent
    # fit takes the QR route.
    rng = np.random.default_rng(30)
    for trial in range(30):
        p = int(rng.integers(8, 40))
        n1, n2 = int(rng.integers(8, 25)), int(rng.integers(8, 25))
        dag = _mixed_dag(rng, p)
        X = rng.normal(size=(n1 + n2, p))
        a, b, child = (int(dag.topo_order[i]) for i in (0, 1, -1))
        if trial % 3 == 1:
            X[:, b] = X[:, a] + 1e-5 * rng.normal(size=n1 + n2)
        if trial % 3 == 2:
            X *= 1e-160  # every a·a is subnormal
        dag = PathwayDag.from_edges(dag.edges | {(a, child), (b, child)}, p=p)
        sample = GroupedSample.from_groups(X[:n1], X[n1:])
        est = fit_sem(sample, dag)
        topo = sample.reorder_columns(dag.topo_order)
        Q, R, theta = np.zeros((p, p)), np.zeros(p), np.zeros((p, 2))
        for pos, parents in enumerate(dag.parent_sets):
            nf = fit_node(topo, pos, parents)
            Q[list(parents), pos], R[pos], theta[pos] = nf.q_hat, nf.r_hat, nf.theta_hat
        tol = 1e-13 if trial % 3 != 1 else 1e-8
        assert_allclose(est.Q_hat, Q, rtol=tol, atol=tol * np.abs(Q).max())
        assert_allclose(est.R_hat, R, rtol=tol)
        assert_allclose(est.theta_hat, theta, rtol=tol, atol=tol * np.abs(theta).max())


def test_fitting_leaves_dag_equality_hash_and_repr_alone():
    rng = np.random.default_rng(28)
    a, b = (
        PathwayDag.from_edges([(0, 2), (1, 2), (2, 3)], p=4, labels="ABCD")
        for _ in range(2)
    )
    before = (hash(a), repr(a))
    sample = random_sample(rng, 6, 6, 4)
    fit_sem(sample, a)
    assert a == b and (hash(a), repr(a)) == (hash(b), repr(b)) == before
    fit_sem(sample, b)
    assert a == b and (hash(a), repr(a)) == (hash(b), repr(b)) == before
    assert len({a, b}) == 1


def _sequential_failure(sample, dag):
    """(exception type, message) of the first failure of a node-by-node
    sweep in topological order, or None."""
    topo = sample.reorder_columns(dag.topo_order)
    for pos, parents in enumerate(dag.parent_sets):
        label = dag.label_of(dag.topo_order[pos])
        try:
            nf = fit_node(topo, pos, parents)
        except (RankDeficientDesign, InsufficientSamples) as exc:
            return type(exc), f"node {label}: {exc}"
        if nf.r_hat == 0.0:
            return (
                ZeroResidualVariance,
                f"node {label}: exact fit, residual variance estimate is 0",
            )
    return None


def _failing_case(rng, kinds):
    """A chain of clean nodes with failing nodes appended in ``kinds`` order.

    n1 = n2 = 5, so six parents leave no degrees of freedom. Kinds:
    "rank" (two identical parents), "samples" (six parents), "exact" (a
    group-constant leaf), "nan" (a column holding one NaN, parent of a node
    with three parents).
    """
    n1 = n2 = 5
    base = 7
    columns = [rng.normal(size=n1 + n2) for _ in range(base)]
    edges = [(i, i + 1) for i in range(base - 1)] + [(0, 2), (1, 3), (0, 3)]
    for kind in kinds:
        node = len(columns)
        if kind == "rank":
            columns.append(columns[4].copy())
            edges += [(0, node)]
            columns.append(rng.normal(size=n1 + n2))
            edges += [(4, node + 1), (node, node + 1)]
        elif kind == "samples":
            columns.append(rng.normal(size=n1 + n2))
            edges += [(i, node) for i in range(6)]
        elif kind == "exact":
            columns.append(np.r_[np.full(n1, 1.5), np.full(n2, -2.0)])
            edges += [(0, node)]
        elif kind == "nan":
            bad = rng.normal(size=n1 + n2)
            bad[3] = np.nan
            columns += [bad, rng.normal(size=n1 + n2)]
            edges += [(0, node + 1), (1, node + 1), (node, node + 1)]
    X = np.column_stack(columns)
    labels = [f"G{i}" for i in range(X.shape[1])]
    dag = PathwayDag.from_edges(edges, p=X.shape[1], labels=labels)
    return GroupedSample.from_groups(X[:n1], X[n1:]), dag


@pytest.mark.parametrize(
    "kinds",
    [
        ("rank", "samples", "exact", "nan"),
        ("rank", "nan", "exact", "samples"),
        ("exact", "rank", "nan"),
        ("nan", "rank", "samples"),
        ("samples", "nan", "rank"),
        ("rank",),
        ("nan",),
    ],
)
def test_fit_sem_raises_the_first_failure_in_topological_order(kinds):
    if "nan" in kinds:
        # A NaN fails the sample up front, whatever fails before its node in
        # topological order; the other kinds are then checked without it.
        sample, dag = _failing_case(np.random.default_rng(25), kinds)
        col = int(np.flatnonzero(np.isnan(sample.X).any(axis=0))[0])
        with pytest.raises(ValueOutOfRange) as err:
            fit_sem(sample, dag)
        assert str(err.value).startswith(f"gene G{col} holds a value out of range")
        kinds = tuple(kind for kind in kinds if kind != "nan")
    sample, dag = _failing_case(np.random.default_rng(25), kinds)
    expected = _sequential_failure(sample, dag)
    if not kinds:
        assert expected is None
        fit_sem(sample, dag)
        return
    with pytest.raises(expected[0]) as err:
        fit_sem(sample, dag)
    assert str(err.value) == expected[1]


def test_sem_estimate_validation():
    dag = PathwayDag.from_edges([(0, 1)], p=2)
    with pytest.raises(ValueError, match="triangular"):
        SemEstimate(
            Q_hat=np.array([[0.0, 0.0], [0.3, 0.0]]),
            R_hat=np.ones(2),
            dag=dag,
        )
    dag3 = PathwayDag.from_edges([(0, 1)], p=3)
    Q3 = np.zeros((3, 3))
    Q3[0, 2] = 0.4  # upper triangular but not an edge of the dag
    with pytest.raises(ValueError, match="support"):
        SemEstimate(Q_hat=Q3, R_hat=np.ones(3), dag=dag3)
    with pytest.raises(ZeroResidualVariance):
        SemEstimate(
            Q_hat=np.array([[0.0, 0.5], [0.0, 0.0]]),
            R_hat=np.array([1.0, 0.0]),
            dag=dag,
        )
    with pytest.raises(ValueError, match="together"):
        SemEstimate(Q_hat=np.zeros((2, 2)), R_hat=np.ones(2), dag=dag, dof=[5, 4])
    with pytest.raises(ValueError, match="p×2"):
        SemEstimate(
            Q_hat=np.zeros((2, 2)),
            R_hat=np.ones(2),
            dag=dag,
            theta_hat=np.zeros((2, 3)),
            dof=[5, 4],
        )


def _support_error_reference(Q, dag):
    """The support check written as loops over the dag's parent sets."""
    if np.any(np.tril(Q) != 0.0):
        return "Q_hat must be strictly upper triangular"
    allowed = np.zeros(Q.shape, dtype=bool)
    for k, parents in enumerate(dag.parent_sets):
        for i in parents:
            allowed[i, k] = True
    if np.any(Q[~allowed] != 0.0):
        return "Q_hat has support outside the dag's parent sets"
    return None


def test_sem_estimate_support_check_matches_loop_reference():
    rng = np.random.default_rng(5)
    for trial in range(200):
        p = int(rng.integers(1, 9))
        edges = [
            (i, k) for k in range(p) for i in range(k) if rng.random() < 0.4
        ]
        dag = PathwayDag.from_edges(edges, p=p)
        Q = np.zeros((p, p))
        for k, parents in enumerate(dag.parent_sets):
            for i in parents:
                Q[i, k] = rng.choice([0.0, 0.7, -1.2, np.nan])
        for _ in range(int(rng.integers(0, 3))):
            i, k = rng.integers(0, p, size=2)
            Q[i, k] = rng.choice([0.4, np.nan, np.inf])
        expected = _support_error_reference(Q, dag)
        if expected is None:
            SemEstimate(Q_hat=Q, R_hat=np.ones(p), dag=dag)
        else:
            with pytest.raises(ValueError) as err:
                SemEstimate(Q_hat=Q, R_hat=np.ones(p), dag=dag)
            assert str(err.value) == expected, trial


# ---------------------------------------------------------------------------
# precision / covariance
# ---------------------------------------------------------------------------

def test_sem_precision_frozen_two_node():
    # Single edge with coefficient 0.5 and unit residual variances:
    # (I-Q) R^{-1} (I-Q)^T expands to [[1.25, -0.5], [-0.5, 1]] and its
    # inverse to [[1, 0.5], [0.5, 1.25]].
    Q = np.array([[0.0, 0.5], [0.0, 0.0]])
    R = np.array([1.0, 1.0])
    assert_allclose(
        sem_precision(Q, R), [[1.25, -0.5], [-0.5, 1.0]], atol=1e-14
    )
    assert_allclose(
        sem_covariance(Q, R), [[1.0, 0.5], [0.5, 1.25]], atol=1e-14
    )
    with pytest.raises(ValueError, match="NaN"):
        sem_covariance(np.array([[0.0, np.nan], [0.0, 0.0]]), R)


def test_sem_precision_diagonal_case():
    R = np.array([2.0, 0.5, 4.0])
    assert_allclose(sem_precision(np.zeros((3, 3)), R), np.diag(1.0 / R), atol=1e-15)
    assert_allclose(sem_covariance(np.zeros((3, 3)), R), np.diag(R), atol=1e-15)


def test_sem_covariance_dense_oracle_and_empty():
    rng = np.random.default_rng(23)
    for p in (1, 31, 32, 33, 100):
        Q = np.triu(rng.uniform(-0.5, 0.5, (p, p)) * (rng.random((p, p)) < 3 / p), 1)
        R = rng.uniform(0.2, 3.0, size=p)
        B = np.eye(p) - Q
        dense = np.linalg.inv(B @ np.diag(1.0 / R) @ B.T)
        S = sem_covariance(Q, R)
        assert_allclose(S, dense, rtol=0, atol=1e-12 * np.abs(dense).max())
    with pytest.raises(ZeroResidualVariance, match="must be positive"):
        sem_covariance(np.zeros((2, 2)), np.array([1.0, 0.0]))
    # LAPACK refuses a 0×0 matrix and prints an error line from native code,
    # which only a separate process sees; p = 0 must not reach it.
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import numpy as np; from dagtest.sem import sem_covariance; "
            "S = sem_covariance(np.zeros((0, 0)), np.zeros(0)); "
            "assert S.shape == (0, 0) and S.dtype == float",
        ],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def random_estimate(rng, p):
    order = [int(v) for v in rng.permutation(p)]
    edges = []
    for i in range(p):
        for k in range(i + 1, p):
            if rng.random() < 0.3:
                edges.append((order[i], order[k]))
    dag = PathwayDag.from_edges(edges, p=p)
    Q = np.zeros((p, p))
    for pos, parents in enumerate(dag.parent_sets):
        for i in parents:
            Q[i, pos] = rng.uniform(-0.9, 0.9)
    R = rng.uniform(0.2, 3.0, size=p)
    return SemEstimate(Q_hat=Q, R_hat=R, dag=dag)


def test_precision_covariance_inverse_pair():
    rng = np.random.default_rng(19)
    for _ in range(40):
        p = int(rng.integers(2, 16))
        est = random_estimate(rng, p)
        P = dag_precision(est)
        S = dag_covariance(est)
        assert_allclose(P @ S, np.eye(p), atol=1e-10)


def test_precision_matches_dense_oracle():
    rng = np.random.default_rng(20)
    for _ in range(20):
        p = 6
        est = random_estimate(rng, p)
        B = np.eye(p) - est.Q_hat
        dense_P = B @ np.diag(1.0 / est.R_hat) @ B.T
        dense_S = np.linalg.inv(dense_P)
        assert_allclose(dag_precision(est), dense_P, atol=1e-9)
        assert_allclose(dag_covariance(est), dense_S, atol=1e-9)


def test_precision_symmetric_positive_definite():
    rng = np.random.default_rng(21)
    for _ in range(10):
        est = random_estimate(rng, 12)
        P = dag_precision(est)
        S = dag_covariance(est)
        assert np.max(np.abs(P - P.T)) < 1e-12
        assert np.max(np.abs(S - S.T)) < 1e-12
        assert np.linalg.eigvalsh(P).min() > 0
        assert np.linalg.eigvalsh(S).min() > 0


# ---------------------------------------------------------------------------
# GroupedSample
# ---------------------------------------------------------------------------

def test_grouped_sample_validation():
    X = np.zeros((5, 2))
    g = np.array([1, 1, 0, 0, 0])
    s = GroupedSample(X=X, g=g, n1=2, n2=3)
    assert s.n == 5 and s.p == 2
    assert_allclose(s.effective_n, 6 / 5)
    with pytest.raises(ValueError):
        GroupedSample(X=X, g=g, n1=3, n2=2)
    with pytest.raises(ValueError):
        GroupedSample(X=X[:4], g=g, n1=2, n2=3)
    with pytest.raises(ValueError):
        GroupedSample.from_groups(np.zeros((1, 2)), np.zeros((4, 2)))


def test_grouped_sample_refuses_a_sample_without_genes():
    # Every statistic divides by p somewhere; a sample with no columns is
    # refused with the other shape errors, before any method runs.
    with pytest.raises(ValueError, match="at least one column"):
        GroupedSample.from_groups(np.zeros((3, 0)), np.zeros((4, 0)))


def test_grouped_sample_centering_and_mean_diff():
    rng = np.random.default_rng(22)
    s = random_sample(rng, 5, 7, 3)
    c = s.centered
    assert_allclose(c[:5].mean(axis=0), 0.0, atol=1e-12)
    assert_allclose(c[5:].mean(axis=0), 0.0, atol=1e-12)
    assert_allclose(
        s.mean_diff, s.X[:5].mean(axis=0) - s.X[5:].mean(axis=0), atol=1e-12
    )
