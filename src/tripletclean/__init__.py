"""Detection and correction of noisy predicate labels in triplet datasets."""

from tripletclean.core import Dataset, DatasetError, load_dataset, save_dataset
from tripletclean.correction import CorrectionConfig, Pool, correct, knn_vote
from tripletclean.density import (
    DensityConfig,
    cutoff_distance,
    detect_noisy_positives,
    distance_matrix,
    local_density,
)
from tripletclean.negatives import (
    MinerConfig,
    adjust_probs,
    detect_noisy_negatives,
    loss_and_gradients,
    train,
)
from tripletclean.pipeline import PipelineConfig, PipelineError, RunResult, run, write_outputs
from tripletclean.synthetic import SynthConfig, generate, score

__version__ = "0.1.0"

__all__ = [
    "CorrectionConfig",
    "Dataset",
    "DatasetError",
    "DensityConfig",
    "MinerConfig",
    "PipelineConfig",
    "PipelineError",
    "Pool",
    "RunResult",
    "SynthConfig",
    "adjust_probs",
    "correct",
    "cutoff_distance",
    "detect_noisy_negatives",
    "detect_noisy_positives",
    "distance_matrix",
    "generate",
    "knn_vote",
    "load_dataset",
    "local_density",
    "loss_and_gradients",
    "run",
    "save_dataset",
    "score",
    "train",
    "write_outputs",
    "__version__",
]
