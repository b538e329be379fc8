"""The package namespace: lazy loading of the public names."""

import importlib
import subprocess
import sys

import pytest

import dagtest

# The public names as the package exported them when it imported every
# submodule eagerly, grouped by the submodule that defines them, plus the
# names added since (run_delta_grid), each appended to its group, less the
# names removed since (parse_edge_list).
FROZEN_EXPORTS = {
    "data_io": [
        "align_pathway",
        "load_expression",
        "load_labels",
        "log2_shift_transform",
    ],
    "divergence": [
        "PopulationModel",
        "dag_divergence",
        "kl_divergence",
        "power_lower_bound",
    ],
    "mean_tests": [
        "METHODS",
        "BonferroniResult",
        "TestResult",
        "baseline",
        "bonferroni_adjust",
        "hotelling",
        "reference_p_value",
        "run_methods",
        "t2dag",
    ],
    "pathway": [
        "EdgePerturbation",
        "PathwayDag",
        "acyclic_reduction",
        "parse_edge_document",
        "perturb_edges",
        "topological_order",
    ],
    "sem": [
        "GroupedSample",
        "NodeFit",
        "SemEstimate",
        "dag_covariance",
        "dag_precision",
        "fit_node",
        "fit_sem",
        "sem_covariance",
        "sem_precision",
    ],
    "simulate": [
        "ERROR_FAMILIES",
        "ConfounderConfig",
        "ExperimentTable",
        "MethodSummary",
        "SimConfig",
        "gen_adjacency",
        "gen_coefficients",
        "gen_dataset",
        "gen_errors",
        "run_experiment",
        "stream_rng",
        "run_delta_grid",
    ],
}
FROZEN_ALL = [
    "errors",
    *(name for names in FROZEN_EXPORTS.values() for name in names),
    "__version__",
]
SUBMODULES = ["errors", *FROZEN_EXPORTS]


def run_fresh(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_neither_numpy_nor_scipy():
    out = run_fresh(
        "import sys, dagtest; "
        "print([m for m in ('numpy', 'scipy') if m in sys.modules])"
    )
    assert out == "[]"


def test_all_is_unchanged_and_names_are_the_submodule_objects():
    assert dagtest.__all__ == FROZEN_ALL
    for module_name, names in FROZEN_EXPORTS.items():
        module = importlib.import_module(f"dagtest.{module_name}")
        for name in names:
            assert getattr(dagtest, name) is getattr(module, name), name
    assert dagtest.errors is importlib.import_module("dagtest.errors")
    assert dagtest.__version__ == "0.1.0"


def test_resolved_names_are_kept_in_the_namespace():
    dagtest.t2dag
    assert vars(dagtest)["t2dag"] is dagtest.t2dag


def test_dir_and_star_import_cover_all():
    assert set(dagtest.__all__) <= set(dir(dagtest))
    namespace = {}
    exec("from dagtest import *", namespace)
    assert set(dagtest.__all__) <= set(namespace)


def test_submodules_resolve_after_a_bare_import():
    # bench/replay.py reads both of these through the package.
    out = run_fresh(
        "import dagtest; "
        f"print([getattr(dagtest, m).__name__ for m in {SUBMODULES!r}]); "
        "print(dagtest.data_io.dump_json.__module__, "
        "dagtest.errors.DagTestError.__module__)"
    )
    assert out.splitlines() == [
        str([f"dagtest.{m}" for m in SUBMODULES]),
        "dagtest.data_io dagtest.errors",
    ]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dagtest.no_such_name
