"""DAG-informed two-sample mean tests for gene pathways.

The package fits a linear structural equation model on a known pathway graph,
inverts it analytically into a precision matrix, and uses that precision in a
quadratic-form test of equal group means. Classical and high-dimensional
baselines, population divergences with a power bound, a synthetic data
generator, and CSV/JSON I/O round out the toolkit.

``import dagtest`` loads no submodule, and so neither numpy nor scipy: each
public name is imported from its submodule on first access (PEP 562) and then
kept in this module's namespace. The command line relies on this to choose
its BLAS thread count before numpy starts (see ``dagtest.cli``).
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it, in the order of ``__all__``.
_EXPORTS = {
    "data_io": (
        "align_pathway",
        "load_expression",
        "load_labels",
        "log2_shift_transform",
    ),
    "divergence": (
        "PopulationModel",
        "dag_divergence",
        "kl_divergence",
        "power_lower_bound",
    ),
    "mean_tests": (
        "METHODS",
        "BonferroniResult",
        "TestResult",
        "baseline",
        "bonferroni_adjust",
        "hotelling",
        "reference_p_value",
        "run_methods",
        "t2dag",
    ),
    "pathway": (
        "EdgePerturbation",
        "PathwayDag",
        "acyclic_reduction",
        "parse_edge_document",
        "perturb_edges",
        "topological_order",
    ),
    "sem": (
        "GroupedSample",
        "NodeFit",
        "SemEstimate",
        "dag_covariance",
        "dag_precision",
        "fit_node",
        "fit_sem",
        "sem_covariance",
        "sem_precision",
    ),
    "simulate": (
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
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules reachable as attributes of the package, as if imported eagerly.
# ``cli`` is not one: importing it sets the CLI's BLAS thread policy.
_SUBMODULES = frozenset(_EXPORTS) | {"errors"}

__all__ = ["errors", *_HOME, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        module = importlib.import_module(f"{__name__}.{_HOME[name]}")
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
