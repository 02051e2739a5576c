"""Latent-subspace test-time ensembles with self-distillation and counting."""

from .analysis import (
    bias_variance_sweep,
    covariance_spectrum_experiment,
    std_error_correlation,
    structured_noise_removal,
)
from .data import Dataset, OutputKind
from .distill import PseudoLabelSet, distill, generate_pseudolabels
from .segcount import (
    CountResult,
    StructuringElement,
    count,
    erode,
    evaluate_counting,
    label_components,
    make_training_targets,
)
from .synthdata import (
    BlobImagesSpec,
    BlobsSpec,
    FrameSequenceSpec,
    TabularSpec,
    gen_blob_images,
    gen_blobs,
    gen_circle_pattern,
    gen_frame_sequence,
    gen_tabular,
)
from .ensemble import (
    DEFAULT_SIGMA_GRID,
    EnsembleResult,
    SigmaSearchConfig,
    run_gtta,
    select_sigma,
    uncertainty_weights,
)
from .errors import (
    DataError,
    DegenerateWeightError,
    FormatError,
    GttaError,
    IoError,
    ParamError,
    PredictorError,
    ShapeError,
    TrainingDivergedError,
    UnsupportedTaskError,
)
from .perturb import (
    NoiseSchedule,
    latent_sample_covariance,
    make_candidates,
    per_component_sigma,
)
from .predictor import (
    MlpModel,
    SubprocessPredictor,
    WeightedBatch,
    gradient_check,
    mlp_train,
    weighted_cross_entropy,
    weighted_squared_error,
)
from .rng import RngStream
from .subspace import Subspace, fit, load_subspace, project, reconstruct, save_subspace
from .tensorio import load_tensor, save_tensor

__all__ = [
    "BlobImagesSpec",
    "BlobsSpec",
    "CountResult",
    "DEFAULT_SIGMA_GRID",
    "DataError",
    "Dataset",
    "DegenerateWeightError",
    "EnsembleResult",
    "FormatError",
    "FrameSequenceSpec",
    "GttaError",
    "IoError",
    "MlpModel",
    "NoiseSchedule",
    "OutputKind",
    "ParamError",
    "PredictorError",
    "PseudoLabelSet",
    "RngStream",
    "ShapeError",
    "SigmaSearchConfig",
    "StructuringElement",
    "SubprocessPredictor",
    "Subspace",
    "TabularSpec",
    "TrainingDivergedError",
    "UnsupportedTaskError",
    "WeightedBatch",
    "bias_variance_sweep",
    "count",
    "covariance_spectrum_experiment",
    "distill",
    "erode",
    "evaluate_counting",
    "fit",
    "gen_blob_images",
    "gen_blobs",
    "gen_circle_pattern",
    "gen_frame_sequence",
    "gen_tabular",
    "generate_pseudolabels",
    "gradient_check",
    "label_components",
    "latent_sample_covariance",
    "load_subspace",
    "load_tensor",
    "make_candidates",
    "make_training_targets",
    "mlp_train",
    "per_component_sigma",
    "project",
    "reconstruct",
    "run_gtta",
    "save_subspace",
    "save_tensor",
    "select_sigma",
    "std_error_correlation",
    "structured_noise_removal",
    "uncertainty_weights",
    "weighted_cross_entropy",
    "weighted_squared_error",
]

__version__ = "0.1.0"
