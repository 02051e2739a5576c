"""Models the ensemble wraps: a trainable MLP plus a subprocess escape hatch.

Any object with a ``predict(batch) -> array`` method and an ``output_kind``
attribute can be used as a predictor. ``predict`` must be deterministic and
follow the output conventions of :class:`gtta.data.OutputKind`.

The training loss is a weighted cross entropy normalized by the total
weight, L = -(1/sum w) * sum w * y * log p, with a two-term variant for
binary per-pixel targets and a weighted squared error for regression.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass

import numpy as np

from .data import PER_PIXEL, PROBABILITIES, REAL_VALUES, Dataset, OutputKind
from .errors import (
    DataError,
    DegenerateWeightError,
    ParamError,
    PredictorError,
    ShapeError,
    TrainingDivergedError,
)
from .rng import RngStream
from .tensorio import dumps_tensor, load_container, loads_tensor, save_container, save_json

PROB_EPS = 1e-12


# --------------------------------------------------------------------------
# losses


def _broadcast_weights(w, y):
    # Trailing axes are appended so per-sample weights spread over classes
    # and per-pixel weights stay per pixel.
    w = np.asarray(w, dtype=np.float64)
    while w.ndim < y.ndim:
        w = w[..., None]
    try:
        return np.broadcast_to(w, y.shape)
    except ValueError as exc:
        raise ShapeError(f"weights {np.asarray(w).shape} do not broadcast to targets {y.shape}") from exc


def weighted_cross_entropy(p, y, w, *, binary: bool = False) -> float:
    """Weight-normalized cross entropy, -(1/sum w) * sum w * y * log p.

    ``w`` broadcasts to the target shape; every broadcast element counts in
    the normalizer, so scaling all weights by a constant leaves the value
    unchanged. With ``binary`` the two-term form over y and 1-y is used.
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ShapeError(f"predictions {p.shape} vs targets {y.shape}")
    wb = _broadcast_weights(w, y)
    wsum = wb.sum()
    if wsum <= 0:
        raise DegenerateWeightError("all weights are zero")
    if binary:
        terms = y * np.log(np.clip(p, PROB_EPS, None)) + (1 - y) * np.log(
            np.clip(1 - p, PROB_EPS, None)
        )
    else:
        terms = y * np.log(np.clip(p, PROB_EPS, None))
    return float(-(wb * terms).sum() / wsum)


def weighted_squared_error(pred, y, w) -> float:
    """Weight-normalized squared error, sum w * (pred - y)^2 / sum w."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape:
        raise ShapeError(f"predictions {pred.shape} vs targets {y.shape}")
    wb = _broadcast_weights(w, y)
    wsum = wb.sum()
    if wsum <= 0:
        raise DegenerateWeightError("all weights are zero")
    return float((wb * (pred - y) ** 2).sum() / wsum)


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels.astype(int)] = 1.0
    return out


# --------------------------------------------------------------------------
# batches


@dataclass(frozen=True)
class WeightedBatch:
    """Inputs, targets, and per-element loss weights in [0, 1].

    Weights are per sample for classification/regression and per pixel for
    segmentation; they must broadcast to the target shape.
    """

    inputs: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise DataError("inputs and targets disagree on batch size")
        w = self.weights
        if w.shape[0] != self.inputs.shape[0]:
            raise DataError("weights and inputs disagree on batch size")
        if w.min() < 0 or w.max() > 1:
            raise DataError("weights must lie in [0, 1]")

    def take(self, index) -> "WeightedBatch":
        return WeightedBatch(self.inputs[index], self.targets[index], self.weights[index])

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def batch_from_dataset(ds: Dataset, weights: np.ndarray | None = None) -> WeightedBatch:
    """Unit-weight training batch; classification targets become one-hot."""
    if ds.targets is None:
        raise DataError("dataset has no targets")
    if ds.output_kind.kind == PROBABILITIES:
        targets = one_hot(ds.targets, ds.output_kind.num_classes)
    else:
        targets = np.asarray(ds.targets, dtype=np.float64)
    if weights is None:
        weights = np.ones(targets.shape[0]) if targets.ndim == 1 else np.ones_like(targets)
    return WeightedBatch(ds.inputs, targets, weights)


# --------------------------------------------------------------------------
# the MLP


def _relu(z):
    return np.maximum(z, 0.0)


def _softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _sigmoid(z):
    # tanh saturates where exp(-z) would overflow, so no branch on the sign of z.
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class MlpModel:
    """Fully connected ReLU network with a task-specific output head."""

    def __init__(self, layer_sizes, output_kind: OutputKind, rng: RngStream):
        if len(layer_sizes) < 2:
            raise ParamError("need at least input and output sizes")
        expected_out = output_kind.head_width
        if expected_out is not None and layer_sizes[-1] != expected_out:
            raise ParamError(
                f"output layer size {layer_sizes[-1]} does not match {output_kind.kind}"
            )
        self.layer_sizes = list(layer_sizes)
        self.output_kind = output_kind
        self.weights = []
        self.biases = []
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            gen = rng.derive(i).generator()
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(scale * gen.standard_normal((fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    # -- inference ---------------------------------------------------------

    def _forward(self, batch):
        """Hidden activations plus pre-head output; batch is [b, d]."""
        acts = [np.asarray(batch, dtype=np.float64)]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            acts.append(_relu(z) if i < len(self.weights) - 1 else z)
        return acts

    def _head(self, z):
        kind = self.output_kind.kind
        if kind == PROBABILITIES:
            return _softmax(z)
        if kind == PER_PIXEL:
            return _sigmoid(z)
        return z

    def predict(self, batch) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.layer_sizes[0]:
            raise ShapeError(
                f"expected [b, {self.layer_sizes[0]}] batch, got shape {batch.shape}"
            )
        out = self._head(self._forward(batch)[-1])
        kind = self.output_kind.kind
        if kind == PER_PIXEL:
            out = out.reshape(batch.shape[0], *self.output_kind.image_shape)
        elif kind == REAL_VALUES and out.shape[1] == 1:
            out = out[:, 0]
        self.output_kind.check_outputs(out, batch.shape[0])
        return out

    # -- training ----------------------------------------------------------

    def _prepare_targets(self, batch: WeightedBatch):
        """Flatten targets/weights to the training layout [b, out]."""
        y = np.asarray(batch.targets, dtype=np.float64)
        w = np.asarray(batch.weights, dtype=np.float64)
        kind = self.output_kind.kind
        out_size = self.layer_sizes[-1]
        if kind == PER_PIXEL:
            y = y.reshape(y.shape[0], -1)
            if w.ndim > 1:
                w = w.reshape(w.shape[0], -1)
        elif kind == REAL_VALUES and y.ndim == 1:
            y = y[:, None]
        if y.shape[1] != out_size:
            raise ShapeError(f"targets with {y.shape[1]} values per row, model emits {out_size}")
        return y, _broadcast_weights(w, y)

    def loss_and_gradients(self, batch: WeightedBatch):
        """Loss value plus gradients for every weight matrix and bias.

        A batch whose weights sum to zero contributes zero loss and exactly
        zero gradient.
        """
        y, w = self._prepare_targets(batch)
        acts = self._forward(batch.inputs)
        z = acts[-1]
        wsum = w.sum()
        if wsum <= 0:
            zero = [(np.zeros_like(wm), np.zeros_like(bm))
                    for wm, bm in zip(self.weights, self.biases)]
            return 0.0, zero

        kind = self.output_kind.kind
        if kind == PROBABILITIES:
            p = _softmax(z)
            loss = -(w * y * np.log(np.clip(p, PROB_EPS, None))).sum() / wsum
            wy = w * y
            delta = (p * wy.sum(axis=1, keepdims=True) - wy) / wsum
        elif kind == PER_PIXEL:
            p = _sigmoid(z)
            terms = y * np.log(np.clip(p, PROB_EPS, None)) + (1 - y) * np.log(
                np.clip(1 - p, PROB_EPS, None)
            )
            loss = -(w * terms).sum() / wsum
            delta = w * (p - y) / wsum
        else:
            loss = (w * (z - y) ** 2).sum() / wsum
            delta = 2.0 * w * (z - y) / wsum

        grads = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
            if i > 0:
                delta = (delta @ self.weights[i].T) * (acts[i] > 0)
        return float(loss), grads

    def parameters(self):
        for i in range(len(self.weights)):
            yield self.weights[i]
            yield self.biases[i]

    @classmethod
    def from_parameters(cls, layer_sizes, output_kind, weights, biases) -> "MlpModel":
        model = cls.__new__(cls)
        model.layer_sizes = list(layer_sizes)
        model.output_kind = output_kind
        model.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        model.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        return model

    def copy(self) -> "MlpModel":
        return MlpModel.from_parameters(
            self.layer_sizes,
            self.output_kind,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def epoch_batches(n: int, batch_size: int, stream: RngStream):
    """Deterministic shuffled minibatch index lists for one epoch."""
    order = stream.generator().permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def mlp_train(model: MlpModel, data: WeightedBatch, *, epochs: int, lr: float,
              rng: RngStream, batch_size: int = 32, momentum: float = 0.0) -> list[float]:
    """Mini-batch gradient descent on the weighted loss; returns per-epoch mean loss.

    Deterministic under a fixed stream: epoch e shuffles with
    ``rng.derive(1).derive(e)``.
    """
    if lr < 0:
        raise ParamError(f"lr must be nonnegative, got {lr}")
    if data.n < 1:
        raise DataError("empty training data")
    velocity = [(np.zeros_like(w), np.zeros_like(b))
                for w, b in zip(model.weights, model.biases)]
    curve = []
    step = 0
    shuffle_root = rng.derive(1)
    for epoch in range(epochs):
        losses = []
        for idx in epoch_batches(data.n, batch_size, shuffle_root.derive(epoch)):
            loss, grads = model.loss_and_gradients(data.take(idx))
            if not np.isfinite(loss):
                raise TrainingDivergedError(step)
            _apply_update(model, grads, velocity, lr, momentum)
            losses.append(loss)
            step += 1
        curve.append(float(np.mean(losses)))
    return curve


def _apply_update(model, grads, velocity, lr, momentum):
    for i, (gw, gb) in enumerate(grads):
        vw, vb = velocity[i]
        if momentum > 0:
            vw *= momentum
            vw += gw
            vb *= momentum
            vb += gb
        else:
            vw, vb = gw, gb
        model.weights[i] -= lr * vw
        model.biases[i] -= lr * vb


def gradient_check(model: MlpModel, batch: WeightedBatch, *, samples: int = 60,
                   rng: RngStream | None = None, h: float = 1e-5) -> float:
    """Max relative disagreement between analytic and central-difference gradients.

    Checks a random subset of parameters; intended for small models.
    """
    _, grads = model.loss_and_gradients(batch)
    flat_analytic = np.concatenate([np.r_[gw.ravel(), gb.ravel()] for gw, gb in grads])
    arrays = []
    for w, b in zip(model.weights, model.biases):
        arrays.extend([w, b])
    total = flat_analytic.size
    gen = (rng or RngStream(0)).generator()
    picks = gen.choice(total, size=min(samples, total), replace=False)

    worst = 0.0
    for flat_index in picks:
        arr, offset = _locate(arrays, int(flat_index))
        orig = arr.flat[offset]
        arr.flat[offset] = orig + h
        up, _ = model.loss_and_gradients(batch)
        arr.flat[offset] = orig - h
        down, _ = model.loss_and_gradients(batch)
        arr.flat[offset] = orig
        fd = (up - down) / (2 * h)
        a = flat_analytic[flat_index]
        err = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
        worst = max(worst, err)
    return worst


def _locate(arrays, flat_index):
    for arr in arrays:
        if flat_index < arr.size:
            return arr, flat_index
        flat_index -= arr.size
    raise IndexError(flat_index)


# --------------------------------------------------------------------------
# persistence


def save_model(model: MlpModel, path) -> None:
    sections = {}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        sections[f"w{i}"] = w
        sections[f"b{i}"] = b
    save_container(sections, path)
    kind = model.output_kind
    meta = {
        "layer_sizes": model.layer_sizes,
        "kind": kind.kind,
        "num_classes": kind.num_classes,
        "image_shape": list(kind.image_shape) if kind.image_shape else None,
    }
    save_json(meta, str(path) + ".json")


def load_model(path) -> MlpModel:
    sections = load_container(path)
    with open(str(path) + ".json") as fh:
        meta = json.load(fh)
    kind = OutputKind(
        meta["kind"],
        num_classes=meta["num_classes"],
        image_shape=tuple(meta["image_shape"]) if meta["image_shape"] else None,
    )
    n_layers = len(meta["layer_sizes"]) - 1
    weights = [sections[f"w{i}"] for i in range(n_layers)]
    biases = [sections[f"b{i}"].reshape(-1) for i in range(n_layers)]
    return MlpModel.from_parameters(meta["layer_sizes"], kind, weights, biases)


# --------------------------------------------------------------------------
# external models


class SubprocessPredictor:
    """Runs an external command per batch: tensor on stdin, tensor on stdout.

    The child receives one binary tensor of shape [b, d] and must write one
    binary tensor of ``b`` outputs that follow ``output_kind``, and nothing
    after it. A nonzero exit status or any other output raises
    :class:`PredictorError`, with the child's stderr attached on failure.
    """

    def __init__(self, argv: list[str], output_kind: OutputKind):
        if not argv:
            raise ParamError("empty command")
        self.argv = list(argv)
        self.output_kind = output_kind

    def predict(self, batch) -> np.ndarray:
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        blob = dumps_tensor(batch)
        try:
            proc = subprocess.run(
                self.argv, input=blob, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, check=False,
            )
        except OSError as exc:
            raise PredictorError(f"cannot spawn {self.argv[0]}: {exc}") from exc
        if proc.returncode != 0:
            raise PredictorError(
                f"{self.argv[0]} exited {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace').strip()}"
            )
        out, end = loads_tensor(proc.stdout)
        if end != len(proc.stdout):
            raise PredictorError(
                f"{self.argv[0]} wrote {len(proc.stdout) - end} bytes after its tensor"
            )
        if self.output_kind.kind == REAL_VALUES and out.ndim == 2 and out.shape[1] == 1:
            out = out[:, 0]
        self.output_kind.check_outputs(out, batch.shape[0])
        return out
