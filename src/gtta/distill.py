"""Distilling the perturbation ensemble into the single base model.

The ensemble plays teacher on unlabeled inputs: its mean prediction becomes
the soft target and its consensus (1 - std) the per-element loss weight.
The student then trains on a mix of the original supervised loss and the
weighted pseudo-label loss, so a single forward pass at test time inherits
the ensemble's behavior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .ensemble import run_gtta, uncertainty_weights
from .errors import ParamError, TrainingDivergedError
from .perturb import NoiseSchedule
from .predictor import (
    MlpModel,
    WeightedBatch,
    batch_from_dataset,
    epoch_batches,
)
from .rng import RngStream
from .subspace import Subspace


@dataclass(frozen=True)
class PseudoLabelSet:
    """Teacher outputs for unlabeled inputs."""

    inputs: np.ndarray           # [m, d]
    teacher_targets: np.ndarray  # ensemble mean predictions
    weights: np.ndarray          # 1 - ensemble std, in [0, 1]

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def generate_pseudolabels(model, s: Subspace, sched: NoiseSchedule,
                          unlabeled: Dataset, rng: RngStream) -> PseudoLabelSet:
    """Run the ensemble on every unlabeled row; input i uses stream ``rng.derive(i)``."""
    result = run_gtta(model, s, sched, unlabeled.inputs, rng.rows(unlabeled.n))
    return PseudoLabelSet(
        inputs=unlabeled.inputs.copy(),
        teacher_targets=result.mean_prediction,
        weights=uncertainty_weights(result, model.output_kind),
    )


def distill(student: MlpModel, labeled: Dataset, pseudo: PseudoLabelSet, *,
            mixing: float, epochs: int, lr: float, rng: RngStream,
            batch_size: int = 32) -> tuple[MlpModel, dict]:
    """Fine-tune the student on mixing * supervised + (1 - mixing) * pseudo loss.

    ``mixing`` = 1 reproduces continued supervised training exactly. A pseudo
    set whose weights are all zero carries no usable labels, so its term is
    dropped and training degenerates to the supervised loss at full weight.
    The supervised half shuffles with ``rng.derive(1)`` and the pseudo half
    with ``rng.derive(2)``, so the two halves never perturb each other's
    order.
    """
    if not 0 <= mixing <= 1:
        raise ParamError(f"mixing must lie in [0, 1], got {mixing}")
    if epochs < 0:
        raise ParamError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ParamError(f"batch size must be >= 1, got {batch_size}")
    if not 0 <= lr < np.inf:  # a NaN fails too
        raise ParamError(f"lr must be finite and nonnegative, got {lr}")
    if not np.any(pseudo.weights):
        mixing = 1.0
    model = student.copy()
    sup = batch_from_dataset(labeled)
    pseudo_batch = WeightedBatch(pseudo.inputs, pseudo.teacher_targets, pseudo.weights)

    sup_root = rng.derive(1)
    pseudo_root = rng.derive(2)
    history = []
    step = 0
    for epoch in range(epochs):
        sup_batches = epoch_batches(sup.n, batch_size, sup_root.derive(epoch))
        pseudo_batches = _cycled_batches(
            pseudo_batch.n, batch_size, pseudo_root.derive(epoch), len(sup_batches)
        )
        losses = []
        for idx_sup, idx_pseudo in zip(sup_batches, pseudo_batches):
            loss_s, grads_s = model.loss_and_gradients(sup.take(idx_sup))
            loss_p, grads_p = model.loss_and_gradients(pseudo_batch.take(idx_pseudo))
            loss = mixing * loss_s + (1 - mixing) * loss_p
            if not np.isfinite(loss):
                raise TrainingDivergedError(step)
            for i, ((gws, gbs), (gwp, gbp)) in enumerate(zip(grads_s, grads_p)):
                model.weights[i] -= lr * (mixing * gws + (1 - mixing) * gwp)
                model.biases[i] -= lr * (mixing * gbs + (1 - mixing) * gbp)
            losses.append(loss)
            step += 1
        history.append({"epoch": epoch, "train_loss": float(np.mean(losses))})
    report = {"mixing": mixing, "epochs": epochs, "lr": lr, "history": history}
    return model, report


def _cycled_batches(n, batch_size, stream, count):
    """`count` minibatch index arrays, reshuffling whenever the set is exhausted."""
    batches = []
    round_ = 0
    while len(batches) < count:
        batches.extend(epoch_batches(n, batch_size, stream.derive(round_)))
        round_ += 1
    return batches[:count]
