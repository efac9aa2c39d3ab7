"""Causal-fairness-guided sample reweighting for tabular data.

Given a causal DAG over the columns of a dataset, the library fits one
sub-network per descendant of the sensitive variable that the outcome depends
on, clamps the sensitive variable to build interventional forward passes over
them, and plays an adversarial game between a gradient-penalty critic and a
constrained weight solve so that the reweighted data satisfies a chosen
causal fairness notion (total, path-specific, or counterfactual) while staying
close to the original distribution.
"""

from .graph import (
    CausalGraph,
    GraphError,
    NodeSpec,
    PathSet,
    counterfactual_path_set,
    direct_path_set,
    graph_fingerprint,
    indirect_path_set,
    intervention_surgery,
    parse_graph,
    total_path_set,
)
from .data import (
    ColumnarDataset,
    Column,
    DataError,
    Encoder,
    SplitPlan,
    export_weights,
    load_csv,
    split,
)
from .model import ModelError, StructuredModel, condition_mask
from .reweighter import (
    FeasibilityReport,
    SolverError,
    WeightVector,
    check_feasibility,
    project_scaled_simplex,
    solve_weights,
)
from .trainer import TrainConfig, TrainingError, repeat_protocol, train
from .effects import (
    EffectReport,
    MetricSummary,
    discriminator_gap,
    downstream_accuracy,
    estimate_effect,
    statistical_parity,
    wasserstein_distance,
    wasserstein_estimate,
)
from .synth import SyntheticSCM, benchmark_scm, generate, oracle_effect, parse_scm

__version__ = "0.1.0"
