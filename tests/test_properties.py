"""Property tests: invariances of the statistics and round trips of the parsers.

Data are drawn from numpy generators keyed by a hypothesis-chosen seed, so a
failing example is reproduced by its seed and dimensions alone.
"""

import string
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dagtest.divergence import PopulationModel, kl_divergence
from dagtest.mean_tests import METHODS, run_methods, t2dag
from dagtest.pathway import PathwayDag, acyclic_reduction, parse_edge_document
from dagtest.sem import GroupedSample, fit_sem

PROPERTY = settings(max_examples=60, deadline=None, database=None)


def random_dag(rng, p: int, density: float) -> PathwayDag:
    """Edges that point forward in a random order of the p nodes."""
    rank = rng.permutation(p)
    edges = [
        (j, k)
        for j in range(p)
        for k in range(p)
        if rank[j] < rank[k] and rng.random() < density
    ]
    return PathwayDag.from_edges(edges, p)


designs = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n1": st.integers(8, 20),
        "n2": st.integers(8, 20),
        "p": st.integers(1, 6),
        "density": st.floats(0.0, 0.8),
    }
)


@PROPERTY
@given(designs)
def test_swapping_groups_keeps_chi2(design):
    rng = np.random.default_rng(design["seed"])
    p = design["p"]
    dag = random_dag(rng, p, design["density"])
    X1 = rng.normal(size=(design["n1"], p))
    X2 = rng.normal(size=(design["n2"], p)) + 0.3
    chi2, _ = t2dag(GroupedSample.from_groups(X1, X2), dag)
    swapped, _ = t2dag(GroupedSample.from_groups(X2, X1), dag)
    # The groups' rows enter the fit in the other order, so sums round
    # differently.
    assert_allclose(swapped.statistic, chi2.statistic, rtol=1e-10)


@PROPERTY
@given(designs)
def test_chi2_is_n_times_the_kl_divergence_of_the_fitted_model(design):
    # chi2 is N times the Gaussian KL separation of the plug-in model
    # (x̄⁽¹⁾, x̄⁽²⁾, Q̂, R̂), computed by the same arithmetic: equal bit for bit.
    rng = np.random.default_rng(design["seed"])
    p = design["p"]
    dag = random_dag(rng, p, design["density"])
    sample = GroupedSample.from_groups(
        rng.normal(size=(design["n1"], p)) + 0.3, rng.normal(size=(design["n2"], p))
    )
    est = fit_sem(sample, dag)
    topo = list(dag.topo_order)
    model = PopulationModel(
        mu1=sample.means[0][topo], mu2=sample.means[1][topo], Q=est.Q_hat, R=est.R_hat
    )
    chi2, _ = t2dag(sample, dag)
    assert chi2.statistic == sample.effective_n * kl_divergence(model)


@PROPERTY
@given(designs)
def test_relabeling_columns_with_the_dag_keeps_statistics(design):
    rng = np.random.default_rng(design["seed"])
    p = design["p"]
    dag = random_dag(rng, p, design["density"])
    sample = GroupedSample.from_groups(
        rng.normal(size=(design["n1"], p)), rng.normal(size=(design["n2"], p))
    )
    old_of_new = rng.permutation(p).tolist()
    new_of_old = {old: new for new, old in enumerate(old_of_new)}
    relabeled_dag = PathwayDag.from_edges(
        [(new_of_old[j], new_of_old[k]) for j, k in dag.edges], p
    )
    relabeled = sample.reorder_columns(old_of_new)
    results, errors = run_methods(sample, dag, METHODS)
    again, again_errors = run_methods(relabeled, relabeled_dag, METHODS)
    assert [r.method for r in again] == [r.method for r in results]
    assert again_errors == errors
    assert_allclose(
        [r.statistic for r in again],
        [r.statistic for r in results],
        rtol=1e-9,
        atol=1e-9,
    )


@PROPERTY
@given(
    st.integers(1, 8).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.sets(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))),
        )
    )
)
def test_acyclic_reduction_is_idempotent(graph):
    p, edges = graph
    dag, removed = acyclic_reduction(edges, p)
    assert dag.edges | set(removed) == edges
    again, removed_again = acyclic_reduction(dag.edges, p)
    assert removed_again == []
    assert again.edges == dag.edges
    assert again.topo_order == dag.topo_order
    assert again.parent_sets == dag.parent_sets


labels = st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=6)
signs = st.one_of(st.none(), st.sampled_from(["+", "-", "activation", "inhibition"]))


@PROPERTY
@given(
    st.lists(labels, min_size=1, max_size=8, unique=True).flatmap(
        lambda names: st.tuples(
            st.just(names),
            st.dictionaries(
                st.tuples(
                    st.integers(0, len(names) - 1), st.integers(0, len(names) - 1)
                ),
                signs,
            ),
        )
    )
)
def test_parse_edge_document_round_trips(document):
    names, annotated = document
    lines = ["nodes: " + ",".join(names)]
    for (j, k), sign in annotated.items():
        fields = [names[j], names[k]] + ([sign] if sign is not None else [])
        lines.append("\t".join(fields))
    parsed_labels, edges, parsed_signs = parse_edge_document("\n".join(lines))
    assert parsed_labels == names
    assert edges == list(annotated)
    assert parsed_signs == {e: s for e, s in annotated.items() if s is not None}


@PROPERTY
@given(designs, st.floats(-3.0, 3.0))
def test_scaling_both_groups_keeps_statistics(design, log10_c):
    rng = np.random.default_rng(design["seed"])
    p = design["p"]
    dag = random_dag(rng, p, design["density"])
    X1 = rng.normal(size=(design["n1"], p))
    X2 = rng.normal(size=(design["n2"], p)) + 0.3
    c = 10.0**log10_c
    results, errors = run_methods(GroupedSample.from_groups(X1, X2), dag, METHODS)
    scaled, scaled_errors = run_methods(
        GroupedSample.from_groups(c * X1, c * X2), dag, METHODS
    )
    assert [r.method for r in scaled] == [r.method for r in results]
    assert scaled_errors == errors
    # Sums round differently at another scale: relative changes reached
    # 2e-12, on statistics below 1e-3. The z-type statistics can sit at
    # zero, where only an absolute floor is meaningful.
    assert_allclose(
        [r.statistic for r in scaled],
        [r.statistic for r in results],
        rtol=1e-9,
        atol=1e-9,
    )


@settings(max_examples=200, deadline=None, database=None)
@given(designs, st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2))
def test_any_scale_gives_a_p_value_or_an_error_line(design, bad_cells):
    # Column scales log-uniform over [1e-100, 1e300], some columns beyond
    # the range every statistic can hold, plus NaN and ±inf cells.
    rng = np.random.default_rng(design["seed"])
    p, n1, n2 = design["p"], design["n1"], design["n2"]
    dag = random_dag(rng, p, design["density"])
    X = rng.normal(size=(n1 + n2, p)) * 10.0 ** rng.uniform(-100, 300, size=p)
    for value in bad_cells:
        X[rng.integers(n1 + n2), rng.integers(p)] = value
    sample = GroupedSample.from_groups(X[:n1], X[n1:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results, errors = run_methods(sample, dag, METHODS)
    assert all(0.0 <= r.p_value <= 1.0 for r in results)
    failed = [line.split(": ", 1)[0] for line in errors]
    assert sorted([r.method for r in results] + failed) == sorted(METHODS)
    if bad_cells:
        assert results == []
        assert all("out of range" in line for line in errors)
