"""Models the ensemble wraps: a trainable MLP plus a subprocess escape hatch.

Any object with a ``predict(batch) -> array`` method and an ``output_kind``
attribute can be used as a predictor. ``predict`` must be deterministic and
follow the output conventions of :class:`gtta.data.OutputKind`.

The training loss is a weighted cross entropy normalized by the total
weight, L = -(1/sum w) * sum w * y * log p, with a two-term variant for
binary per-pixel targets and a weighted squared error for regression.
"""

from __future__ import annotations

import itertools
import os
import selectors
import signal
import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import PER_PIXEL, PROBABILITIES, Dataset, OutputKind
from .errors import (
    DataError,
    DegenerateWeightError,
    FormatError,
    GttaError,
    ParamError,
    PredictorError,
    ShapeError,
    TrainingDivergedError,
    refuse_unindexable,
)
from .rng import RngStream
from .tensorio import (
    dumps_tensor, load_container, load_json, read_tensor, save_container, save_json,
)

PROB_EPS = 1e-12

# Seconds an external model may take to answer one request, or to exit once
# its stdin is closed, before it is killed.
REQUEST_TIMEOUT_S = 120.0

# Largest single read from or write to an external model's pipes.
_IO_CHUNK = 1 << 16

# Bytes of an external model's stderr quoted in an error.
_STDERR_TAIL = 2000


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


def _loss_terms(pred, y, w):
    """Predictions and targets as float64, the weights broadcast to them, and the weights' sum."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape:
        raise ShapeError(f"predictions {pred.shape} vs targets {y.shape}")
    wb = _broadcast_weights(w, y)
    wsum = wb.sum()
    if wsum <= 0:
        raise DegenerateWeightError("all weights are zero")
    return pred, y, wb, wsum


def weighted_cross_entropy(p, y, w, *, binary: bool = False) -> float:
    """Weight-normalized cross entropy, -(1/sum w) * sum w * y * log p.

    ``w`` broadcasts to the target shape; every broadcast element counts in
    the normalizer, so scaling all weights by a constant leaves the value
    unchanged. With ``binary`` the two-term form over y and 1-y is used.
    """
    p, y, wb, wsum = _loss_terms(p, y, w)
    if binary:
        terms = y * np.log(np.clip(p, PROB_EPS, None)) + (1 - y) * np.log(
            np.clip(1 - p, PROB_EPS, None)
        )
        return float(-(wb * terms).sum() / wsum)
    return float(-(wb * y * np.log(np.clip(p, PROB_EPS, None))).sum() / wsum)


def weighted_squared_error(pred, y, w) -> float:
    """Weight-normalized squared error, sum w * (pred - y)^2 / sum w."""
    pred, y, wb, wsum = _loss_terms(pred, y, w)
    return float((wb * (pred - y) ** 2).sum() / wsum)


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


def batch_from_dataset(ds: Dataset) -> WeightedBatch:
    """Unit-weight training batch of the dataset's target rows."""
    return WeightedBatch(ds.inputs, ds.output_kind.target_rows(ds.targets), np.ones(ds.n))


# --------------------------------------------------------------------------
# the MLP


def _softmax(z):
    """Softmax over the rows of ``z``, computed in place."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _sigmoid(z):
    """0.5 (1 + tanh(z / 2)), computed in place."""
    # tanh saturates where exp(-z) would overflow, so no branch on the sign of z.
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


class MlpModel:
    """Fully connected ReLU network with a task-specific output head."""

    def __init__(self, layer_sizes, output_kind: OutputKind, rng: RngStream):
        if len(layer_sizes) < 2:
            raise ParamError("need at least input and output sizes")
        if min(layer_sizes) < 1:
            raise ParamError(f"every layer needs at least one unit, got sizes {list(layer_sizes)}")
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
            refuse_unindexable((fan_in, fan_out), f"a layer of {fan_in}x{fan_out} weights")
            gen = rng.derive(i).generator()
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(scale * gen.standard_normal((fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    # -- inference ---------------------------------------------------------

    def _forward(self, batch):
        """Hidden activations plus pre-head output; batch is [b, d]."""
        acts = [np.asarray(batch, dtype=np.float64)]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w
            z += b
            if i < len(self.weights) - 1:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
        return acts

    def _head(self, z):
        """The output head over the pre-head output ``z``, computed in place."""
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
        z = self._forward(batch)[-1]
        out = self._head(z if self.weights else z.copy())  # never the caller's batch
        if self.output_kind.kind == PER_PIXEL:
            out = out.reshape(batch.shape[0], *self.output_kind.image_shape)
        return self.output_kind.check_outputs(out, batch.shape[0])

    # -- training ----------------------------------------------------------

    def _prepare_targets(self, batch: WeightedBatch):
        """Targets and weights in the training layout [b, out]: each row's values in order."""
        y = np.asarray(batch.targets, dtype=np.float64).reshape(batch.n, -1)
        w = np.asarray(batch.weights, dtype=np.float64).reshape(batch.n, -1)
        out_size = self.layer_sizes[-1]
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
        wsum = w.sum()
        if wsum <= 0:
            zero = [(np.zeros_like(wm), np.zeros_like(bm))
                    for wm, bm in zip(self.weights, self.biases)]
            return 0.0, zero

        out = self._head(acts[-1])
        kind = self.output_kind.kind
        if kind == PROBABILITIES:
            loss = weighted_cross_entropy(out, y, w)
            wy = w * y
            delta = (out * wy.sum(axis=1, keepdims=True) - wy) / wsum
        elif kind == PER_PIXEL:
            loss = weighted_cross_entropy(out, y, w, binary=True)
            delta = w * (out - y) / wsum
        else:
            loss = weighted_squared_error(out, y, w)
            delta = 2.0 * w * (out - y) / wsum

        grads = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
            if i > 0:
                delta = (delta @ self.weights[i].T) * (acts[i] > 0)
        return loss, grads

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


def mlp_train(model: MlpModel, data: WeightedBatch | list, *, epochs: int, lr: float,
              rng: RngStream, batch_size: int = 32, momentum: float = 0.0) -> list[float]:
    """Mini-batch gradient descent on the weighted loss; returns per-epoch mean loss.

    ``data`` is one :class:`WeightedBatch`, or a list of ``(share, batch)``
    terms. Each step's loss and gradients are the share-weighted sum, in term
    order, over one minibatch from each term. The first term's minibatches
    make one epoch; later terms cycle through theirs. Deterministic under a
    fixed stream: term t shuffles epoch e with ``rng.derive(t + 1).derive(e)``.
    Every term is checked against the model before the first epoch.
    """
    terms = [(1.0, data)] if isinstance(data, WeightedBatch) else list(data)
    if epochs < 0:
        raise ParamError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ParamError(f"batch size must be >= 1, got {batch_size}")
    if not 0 <= lr < np.inf:  # a NaN fails too
        raise ParamError(f"lr must be finite and nonnegative, got {lr}")
    if not 0 <= momentum < 1:  # a NaN fails too
        raise ParamError(f"momentum must lie in [0, 1), got {momentum}")
    for _, batch in terms:
        if batch.n < 1:
            raise DataError("empty training data")
        if batch.inputs.ndim != 2 or batch.inputs.shape[1] != model.layer_sizes[0]:
            raise ShapeError(f"training rows of shape {batch.inputs.shape}, "
                             f"model takes [b, {model.layer_sizes[0]}]")
        model._prepare_targets(batch)
    velocity = [(np.zeros_like(w), np.zeros_like(b))
                for w, b in zip(model.weights, model.biases)]
    curve = []
    step = 0
    # A diverging run ends in TrainingDivergedError, not in numpy warnings. Its
    # loss can stay finite while its weights overflow, so an overflow or an
    # invalid operation anywhere in a step counts as divergence too.
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(epochs):
                first = epoch_batches(terms[0][1].n, batch_size, rng.derive(1).derive(epoch))
                order = [first] + [
                    _cycled_batches(batch.n, batch_size, rng.derive(t + 1).derive(epoch),
                                    len(first))
                    for t, (_, batch) in enumerate(terms[1:], start=1)]
                losses = []
                for idxs in zip(*order):
                    loss, grads = -0.0, None  # -0.0 + x is x for every x, so one term stays exact
                    for (share, batch), idx in zip(terms, idxs):
                        term_loss, term_grads = model.loss_and_gradients(batch.take(idx))
                        loss += share * term_loss
                        # Scaling by 1 changes no bit, and would cost an allocation a step.
                        scaled = term_grads if share == 1 else [
                            (share * gw, share * gb) for gw, gb in term_grads]
                        grads = scaled if grads is None else [
                            (gw + sw, gb + sb) for (gw, gb), (sw, sb) in zip(grads, scaled)]
                    if not np.isfinite(loss):
                        raise TrainingDivergedError(step)
                    _apply_update(model, grads, velocity, lr, momentum)
                    losses.append(loss)
                    step += 1
                curve.append(float(np.mean(losses)))
    except FloatingPointError:
        raise TrainingDivergedError(step) from None
    return curve


def _cycled_batches(n, batch_size, stream, count):
    """`count` minibatch index arrays, reshuffling whenever the set is exhausted."""
    rounds = (epoch_batches(n, batch_size, stream.derive(r)) for r in itertools.count())
    return list(itertools.islice(itertools.chain.from_iterable(rounds), count))


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


# --------------------------------------------------------------------------
# persistence


def save_model(model: MlpModel, path) -> None:
    sections = {}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        sections[f"w{i}"] = w
        sections[f"b{i}"] = b
    save_container(sections, path)
    save_json({"layer_sizes": model.layer_sizes, **asdict(model.output_kind)}, str(path) + ".json")


def load_model(path) -> MlpModel:
    """Read a checkpoint; the layer sizes come from its ``w{i}``/``b{i}`` tensors,
    and the sidecar's sizes and output kind must agree with them."""
    sections = load_container(path)
    meta = load_json(str(path) + ".json")
    n_layers = len(sections) // 2
    if n_layers < 1 or set(sections) != {f"{p}{i}" for i in range(n_layers) for p in "wb"}:
        raise FormatError(f"model {path} needs sections w0, b0, ..., got {list(sections)}")
    weights = [sections[f"w{i}"] for i in range(n_layers)]
    biases = [sections[f"b{i}"].reshape(-1) for i in range(n_layers)]
    sizes = [weights[0].shape[0]] + [w.shape[-1] for w in weights]
    if any(w.shape != (a, b) or bias.shape != (b,)
           for w, bias, a, b in zip(weights, biases, sizes, sizes[1:])):
        raise FormatError(f"model {path}: weights {[w.shape for w in weights]} and biases "
                          f"{[b.shape for b in biases]} do not chain into layers")
    try:
        shape = meta.get("image_shape")
        kind = OutputKind(meta.get("kind"), num_classes=meta.get("num_classes"),
                          image_shape=tuple(shape) if shape else None)
    except (ParamError, TypeError) as exc:
        raise FormatError(f"model sidecar {path}.json: {exc}") from None
    if meta.get("layer_sizes") != sizes or (kind.head_width or sizes[-1]) != sizes[-1]:
        raise FormatError(f"model sidecar {path}.json gives layer sizes {meta.get('layer_sizes')} "
                          f"and {kind}, but the tensors give layer sizes {sizes}")
    return MlpModel.from_parameters(sizes, kind, weights, biases)


# --------------------------------------------------------------------------
# external models


class SubprocessPredictor:
    """Runs an external command as one child process: tensors in, tensors out.

    The child starts on the first :meth:`predict`. Each call writes one
    binary tensor of shape [b, d] to the child's stdin and reads exactly one
    binary tensor of ``b`` outputs that follow ``output_kind`` back from its
    stdout, so the child must answer each tensor as it arrives and read until
    EOF. :meth:`close` closes stdin and requires EOF on stdout with nothing
    left and exit status 0. A reply that is malformed, late by more than
    ``REQUEST_TIMEOUT_S`` seconds, or followed by stray bytes kills the child
    and raises :class:`PredictorError`, quoting the tail of its stderr.

    Used as a context manager, the child is closed when the block ends, or
    killed if the block raises.
    """

    def __init__(self, argv: list[str], output_kind: OutputKind):
        if not argv:
            raise ParamError("empty command")
        self.argv = list(argv)
        self.output_kind = output_kind
        self._proc = None
        self._request = memoryview(b"")
        self._deadline = 0.0

    def __enter__(self) -> "SubprocessPredictor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._kill()

    def predict(self, batch) -> np.ndarray:
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        request = dumps_tensor(batch)
        if self._proc is None:
            self._start()
        self._deadline = time.monotonic() + REQUEST_TIMEOUT_S
        try:
            if self._selector.select(0):  # the child must have nothing more to say
                self._refuse_stray_output()
            self._request = memoryview(request)
            self._selector.register(self._proc.stdin, selectors.EVENT_WRITE)
            out = read_tensor(self._read)
            while self._request:  # the child answered before it read all of the request
                if self._pump():
                    self._refuse_stray_output()
            return self.output_kind.check_outputs(out, batch.shape[0])
        except GttaError as exc:
            raise self._fail(str(exc)) from None

    def close(self) -> None:
        """End the child: close its stdin, then require EOF, no stray bytes and exit 0."""
        if self._proc is None:
            return
        self._deadline = time.monotonic() + REQUEST_TIMEOUT_S
        try:
            self._proc.stdin.close()
            stray = 0
            while chunk := self._read_some(_IO_CHUNK):
                stray += len(chunk)
            if stray:
                raise PredictorError(f"wrote {stray} bytes after its last reply")
            code = self._proc.wait(max(self._deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            raise self._fail(f"did not exit within {REQUEST_TIMEOUT_S:g} s of EOF") from None
        except PredictorError as exc:
            raise self._fail(str(exc)) from None
        if code != 0:
            raise self._fail("failed at EOF")
        self._release()

    # -- the child ---------------------------------------------------------

    def _start(self) -> None:
        stderr = tempfile.TemporaryFile()
        try:
            proc = subprocess.Popen(self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    stderr=stderr, bufsize=0)
        except OSError as exc:
            stderr.close()
            raise PredictorError(f"cannot spawn {self.argv[0]}: {exc}") from exc
        # Writes take what the pipe holds and return; see _pump.
        os.set_blocking(proc.stdin.fileno(), False)
        self._proc, self._stderr = proc, stderr
        self._selector = selectors.DefaultSelector()
        self._selector.register(proc.stdout, selectors.EVENT_READ)

    def _refuse_stray_output(self) -> None:
        """The child's stdout is readable between replies, which is always an error."""
        if os.read(self._proc.stdout.fileno(), 1):
            raise PredictorError("wrote bytes after its reply")
        raise PredictorError("closed its stdout between requests")

    def _read(self, n: int) -> bytes:
        """Exactly ``n`` bytes of the reply, taken as they arrive."""
        chunks, got = [], 0
        while got < n:
            chunk = self._read_some(min(n - got, _IO_CHUNK))
            if not chunk:
                raise PredictorError(f"closed its stdout {got} bytes into a {n}-byte read")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def _read_some(self, n: int) -> bytes:
        """Up to ``n`` bytes from the child's stdout, b"" at EOF."""
        while not self._pump():
            pass
        return os.read(self._proc.stdout.fileno(), n)

    def _pump(self) -> bool:
        """Wait for the child once, writing what its stdin takes; True if stdout is readable.

        Writing only what the pipe takes, between reads, means a child that
        answers before it has read the whole request cannot deadlock with us.
        """
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise PredictorError(f"no answer within {REQUEST_TIMEOUT_S:g} s")
        readable = False
        for key, _ in self._selector.select(left):
            if key.fileobj is self._proc.stdin:
                self._write_some()
            else:
                readable = True
        return readable

    def _write_some(self) -> None:
        try:
            sent = os.write(self._proc.stdin.fileno(), self._request[:_IO_CHUNK])
        except BrokenPipeError:
            raise PredictorError("closed its stdin mid-request") from None
        self._request = self._request[sent:]
        if not self._request:
            self._selector.unregister(self._proc.stdin)

    def _fail(self, message: str) -> PredictorError:
        """Kill the child and describe the failure, with the tail of its stderr."""
        code, tail = self._kill()
        if code is not None and code != -signal.SIGKILL:
            message += f" (it exited {code})"
        return PredictorError(f"{self.argv[0]}: {message}" + (f"; stderr: {tail}" if tail else ""))

    def _kill(self) -> tuple[int | None, str]:
        """Kill and reap the child; return its exit status and the tail of its stderr."""
        if self._proc is None:
            return None, ""
        self._proc.kill()
        code = self._proc.wait()
        size = self._stderr.seek(0, os.SEEK_END)
        self._stderr.seek(max(size - _STDERR_TAIL, 0))
        tail = self._stderr.read().decode(errors="replace").strip()
        self._release()
        return code, tail

    def _release(self) -> None:
        self._selector.close()
        for f in (self._proc.stdin, self._proc.stdout, self._stderr):
            f.close()
        self._proc = None
