"""Distilling the perturbation ensemble into the single base model.

The ensemble plays teacher on unlabeled inputs: its mean prediction becomes
the soft target and its consensus (1 - std) the per-element loss weight.
The student then trains on a mix of the original supervised loss and the
weighted pseudo-label loss, so a single forward pass at test time inherits
the ensemble's behavior.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .ensemble import run_gtta, uncertainty_weights
from .errors import ParamError
from .perturb import NoiseSchedule
from .predictor import MlpModel, WeightedBatch, batch_from_dataset, mlp_train
from .rng import RngStream
from .subspace import Subspace


def generate_pseudolabels(model, s: Subspace, sched: NoiseSchedule,
                          X: np.ndarray, rng: RngStream) -> WeightedBatch:
    """Teacher outputs for the unlabeled rows ``X``: the ensemble mean as the
    targets and its consensus 1 - std as the weights.

    Row i uses stream ``rng.derive(i)``.
    """
    result = run_gtta(model, s, sched, X, rng.rows(len(X)))
    return WeightedBatch(X, result.mean_prediction, uncertainty_weights(result, model.output_kind))


def distill(student: MlpModel, labeled: Dataset, pseudo: WeightedBatch, *,
            mixing: float, epochs: int, lr: float, rng: RngStream,
            batch_size: int = 32) -> tuple[MlpModel, dict]:
    """Fine-tune the student on mixing * supervised + (1 - mixing) * pseudo loss.

    ``mixing`` = 1 reproduces continued supervised training exactly. A pseudo
    set whose weights are all zero carries no usable labels, so training
    degenerates to the supervised loss at full weight. The two terms go to
    :func:`mlp_train` without momentum: the supervised one shuffles with
    ``rng.derive(1)`` and the pseudo-label one with ``rng.derive(2)``, so
    they never perturb each other's order.
    """
    if not 0 <= mixing <= 1:
        raise ParamError(f"mixing must lie in [0, 1], got {mixing}")
    if not np.any(pseudo.weights):
        mixing = 1.0
    model = student.copy()
    terms = [(mixing, batch_from_dataset(labeled)), (1 - mixing, pseudo)]
    curve = mlp_train(model, terms, epochs=epochs, lr=lr, rng=rng, batch_size=batch_size)
    history = [{"epoch": epoch, "train_loss": loss} for epoch, loss in enumerate(curve)]
    report = {"mixing": mixing, "epochs": epochs, "lr": lr, "history": history}
    return model, report
