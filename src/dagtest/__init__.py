"""DAG-informed two-sample mean tests for gene pathways.

The package fits a linear structural equation model on a known pathway graph,
inverts it analytically into a precision matrix, and uses that precision in a
quadratic-form test of equal group means. Classical and high-dimensional
baselines, population divergences with a power bound, a synthetic data
generator, and CSV/JSON I/O round out the toolkit.
"""

from . import errors
from .data_io import (
    align_pathway,
    load_expression,
    load_labels,
    log2_shift_transform,
)
from .divergence import (
    PopulationModel,
    dag_divergence,
    kl_divergence,
    power_lower_bound,
)
from .mean_tests import (
    METHODS,
    BonferroniResult,
    TestResult,
    baseline,
    bonferroni_adjust,
    hotelling,
    reference_p_value,
    run_methods,
    t2dag,
)
from .pathway import (
    EdgePerturbation,
    PathwayDag,
    acyclic_reduction,
    parse_edge_document,
    parse_edge_list,
    perturb_edges,
    topological_order,
)
from .sem import (
    GroupedSample,
    NodeFit,
    SemEstimate,
    dag_covariance,
    dag_precision,
    fit_node,
    fit_sem,
    sem_covariance,
    sem_precision,
)
from .simulate import (
    ERROR_FAMILIES,
    ConfounderConfig,
    ExperimentTable,
    MethodSummary,
    SimConfig,
    gen_adjacency,
    gen_coefficients,
    gen_dataset,
    gen_errors,
    run_experiment,
    stream_rng,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "align_pathway",
    "load_expression",
    "load_labels",
    "log2_shift_transform",
    "PopulationModel",
    "dag_divergence",
    "kl_divergence",
    "power_lower_bound",
    "METHODS",
    "BonferroniResult",
    "TestResult",
    "baseline",
    "bonferroni_adjust",
    "hotelling",
    "reference_p_value",
    "run_methods",
    "t2dag",
    "EdgePerturbation",
    "PathwayDag",
    "acyclic_reduction",
    "parse_edge_document",
    "parse_edge_list",
    "perturb_edges",
    "topological_order",
    "GroupedSample",
    "NodeFit",
    "SemEstimate",
    "dag_covariance",
    "dag_precision",
    "fit_node",
    "fit_sem",
    "sem_covariance",
    "sem_precision",
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
    "__version__",
]
