"""icut: invariance-aware cut-statistics data curation.

Select likely-clean subsets of noisily labeled data by scoring each
sample's weighted disagreement with its nearest neighbors in a
group-invariant representation space, train a small MLP on the result,
and check the supporting theory numerically.
"""

from .core import (LabeledDataset, Metrics, SelectionResult, balanced_error,
                   rank_select, round_half_up, subset_accuracy, summarize_runs)
from .cutstats import CutstatsConfig, class_priors, cutstats_scores
from .datagen import (NoiseSpec, SyntheticSpec, generate_synthetic, generating_function,
                      inject_label_noise)
from .experiment import (ExperimentConfig, StageError, run_ablation, run_bounds,
                         run_experiment, run_seed)
from .knn import (NeighborTable, build_neighbor_table, estimate_class_accuracies,
                  knn_predict)
from .mlp import (MlpConfig, TrainedClassifier, entropy_scores, evaluate,
                  forgetting_counts, load_classifier, save_classifier, train_mlp)
from .baselines import herding_select, random_scores
from .representation import (RepresentedDataset, compute_representation,
                             load_external_representation, perturb_representation)
from .theory import (FeasibilityReport, WindowParams, check_corollary,
                     check_sorted_density, feasibility_window, subset_error_rates,
                     unit_ball_log_volume, validate_prop1_monte_carlo)

__version__ = "0.1.0"

__all__ = [
    "LabeledDataset", "Metrics", "SelectionResult", "balanced_error",
    "rank_select", "round_half_up", "subset_accuracy", "summarize_runs",
    "CutstatsConfig", "class_priors", "cutstats_scores",
    "NoiseSpec", "SyntheticSpec", "generate_synthetic", "generating_function",
    "inject_label_noise",
    "ExperimentConfig", "StageError", "run_ablation", "run_bounds",
    "run_experiment", "run_seed",
    "NeighborTable", "build_neighbor_table", "estimate_class_accuracies",
    "knn_predict",
    "MlpConfig", "TrainedClassifier", "entropy_scores", "evaluate",
    "forgetting_counts", "load_classifier", "save_classifier", "train_mlp",
    "herding_select", "random_scores",
    "RepresentedDataset", "compute_representation",
    "load_external_representation", "perturb_representation",
    "FeasibilityReport", "WindowParams", "check_corollary",
    "check_sorted_density", "feasibility_window", "subset_error_rates",
    "unit_ball_log_volume", "validate_prop1_monte_carlo",
    "__version__",
]
