import math
import select
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtta import ensemble
from gtta.data import OutputKind, one_hot
from gtta.errors import (
    ParamError,
    PredictorError,
    ShapeError,
    TrainingDivergedError,
)
from gtta.predictor import (
    MlpModel,
    SubprocessPredictor,
    WeightedBatch,
    batch_from_dataset,
    epoch_batches,
    load_model,
    mlp_train,
    save_model,
)
from gtta.rng import RngStream
from gtta.subspace import fit
from gtta.synthdata import BlobsSpec, gen_blobs


# --------------------------------------------------------------------------
# loss values


def identity_model(kind: OutputKind, width: int) -> MlpModel:
    """One layer that passes its input to the head: logits in, ``kind``'s outputs out."""
    return MlpModel.from_parameters([width, width], kind, [np.eye(width)], [np.zeros(width)])


def loss_of(model: MlpModel, x, y, w) -> float:
    return model.loss_and_gradients(WeightedBatch(np.asarray(x, dtype=np.float64),
                                                  np.asarray(y, dtype=np.float64),
                                                  np.asarray(w, dtype=np.float64)))[0]


def test_single_pixel_log_two():
    # A zero weight and a zero bias put the sigmoid at exactly 0.5.
    model = MlpModel.from_parameters([1, 1], OutputKind.per_pixel(1, 1), [np.zeros((1, 1))],
                                     [np.zeros(1)])
    loss = loss_of(model, [[3.0]], [[[1.0]]], [1.0])
    assert loss == pytest.approx(-np.log(0.5), abs=1e-12)
    assert loss == pytest.approx(math.log(2), abs=1e-12)


def test_uniform_weights_match_unweighted():
    gen = RngStream(0).generator()
    p = gen.random((6, 4)) * 0.98 + 0.01
    p /= p.sum(axis=1, keepdims=True)
    y = one_hot(gen.integers(0, 4, size=6), 4)
    model = identity_model(OutputKind.probabilities(4), 4)
    base = loss_of(model, np.log(p), y, np.ones(6))
    # Each row's weight counts once per class in the normalizer.
    assert base == pytest.approx(-(y * np.log(p)).sum() / y.size, abs=1e-12)
    for c in (0.3, 0.875, 1e-3):
        assert loss_of(model, np.log(p), y, np.full(6, c)) == pytest.approx(base, abs=1e-12)


def test_zero_weight_masks_elements():
    # Two pixels at p = 0.5 and 0.25; the zero weight leaves only the first.
    p = np.array([0.5, 0.25])
    model = identity_model(OutputKind.per_pixel(1, 2), 2)
    loss = loss_of(model, [np.log(p / (1 - p))], [[[1.0, 1.0]]], [[[1.0, 0.0]]])
    assert loss == pytest.approx(-np.log(p[0]), abs=1e-12)


def test_squared_error_values():
    model = identity_model(OutputKind.real_values(), 1)
    assert loss_of(model, [[1.0], [2.0]], [1.0, 2.0], [1.0, 1.0]) == 0.0
    assert loss_of(model, [[3.0]], [1.0], [1.0]) == pytest.approx(4.0)
    gen = RngStream(1).generator()
    pred, y = gen.random(8), gen.random(8)
    assert loss_of(model, pred[:, None], y, np.full(8, 0.7)) == pytest.approx(
        np.mean((pred - y) ** 2), abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(1e-3, 1.0), seed=st.integers(0, 10_000))
def test_loss_invariant_under_weight_rescaling(scale, seed):
    # Weights lie in [0, 1], so the rescaled ones are the base ones times at most 1.
    gen = RngStream(seed).generator()
    p = gen.random((4, 3)) * 0.9 + 0.05
    p /= p.sum(axis=1, keepdims=True)
    y = gen.random((4, 3))
    w = gen.random(4) * 0.9 + 0.1
    model = identity_model(OutputKind.probabilities(3), 3)
    a = loss_of(model, np.log(p), y, w)
    b = loss_of(model, np.log(p), y, w * scale)
    assert a == pytest.approx(-(w[:, None] * y * np.log(p)).sum() / (3 * w.sum()), rel=1e-9)
    assert a == pytest.approx(b, rel=1e-9)


def test_shape_mismatch_rejected():
    model = identity_model(OutputKind.probabilities(3), 3)
    with pytest.raises(ShapeError, match="targets with 2 values per row, model emits 3"):
        loss_of(model, np.zeros((2, 3)), np.ones((2, 2)), np.ones(2))
    with pytest.raises(ShapeError, match=r"weights \(2, 2\) do not broadcast to targets \(2, 3\)"):
        loss_of(model, np.zeros((2, 3)), np.ones((2, 3)), np.ones((2, 2)))


# --------------------------------------------------------------------------
# gradients


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


def _random_batch(kind, rng, b=6, d=5):
    gen = rng.generator()
    x = gen.standard_normal((b, d))
    if kind.kind == "probabilities":
        y = one_hot(gen.integers(0, kind.num_classes, size=b), kind.num_classes)
        w = gen.random(b) * 0.8 + 0.2
    elif kind.kind == "per_pixel_probabilities":
        h, wd = kind.image_shape
        y = (gen.random((b, h, wd)) > 0.5).astype(float)
        w = gen.random((b, h, wd)) * 0.8 + 0.2
    else:
        y = gen.standard_normal(b)
        w = gen.random(b) * 0.8 + 0.2
    return WeightedBatch(x, y, w)


@pytest.mark.parametrize(
    "kind,sizes",
    [
        (OutputKind.probabilities(3), [5, 8, 3]),
        (OutputKind.real_values(), [5, 8, 1]),
        (OutputKind.per_pixel(2, 3), [5, 8, 6]),
    ],
)
def test_gradients_match_finite_differences(kind, sizes):
    model = MlpModel(sizes, kind, RngStream(2))
    batch = _random_batch(kind, RngStream(3))
    assert gradient_check(model, batch, rng=RngStream(4)) < 1e-4


def test_zero_weight_batch_has_zero_gradient():
    kind = OutputKind.probabilities(3)
    model = MlpModel([4, 6, 3], kind, RngStream(5))
    batch = _random_batch(kind, RngStream(6), b=4, d=4)
    zeroed = WeightedBatch(batch.inputs, batch.targets, np.zeros_like(batch.weights))
    loss, grads = model.loss_and_gradients(zeroed)
    assert loss == 0.0
    for gw, gb in grads:
        assert not gw.any()
        assert not gb.any()
    assert gradient_check(model, zeroed, rng=RngStream(7)) == 0.0


def test_linear_regression_matches_closed_form():
    gen = RngStream(8).generator()
    X = gen.standard_normal((10, 4))
    y = gen.standard_normal(10)
    w = gen.random(10) * 0.9 + 0.1
    model = MlpModel([4, 1], OutputKind.real_values(), RngStream(9))
    _, grads = model.loss_and_gradients(WeightedBatch(X, y, w))
    resid = (X @ model.weights[0][:, 0] + model.biases[0][0]) - y
    scale = 2.0 / w.sum()
    expected_w = scale * X.T @ (w * resid)
    expected_b = scale * np.sum(w * resid)
    assert np.abs(grads[0][0][:, 0] - expected_w).max() < 1e-10
    assert abs(grads[0][1][0] - expected_b) < 1e-10


# --------------------------------------------------------------------------
# training


def test_training_reaches_separable_accuracy():
    blobs = gen_blobs(BlobsSpec(n=200, dim=2, class_sep=6.0, cluster_std=1.0, seed=11))
    model = MlpModel([2, 16, 2], OutputKind.probabilities(2), RngStream(12))
    mlp_train(model, batch_from_dataset(blobs.data), epochs=200, lr=0.1, rng=RngStream(13))
    preds = model.predict(blobs.data.inputs).argmax(axis=1)
    assert np.mean(preds == blobs.data.targets) >= 0.99


def test_zero_lr_leaves_parameters_unchanged():
    kind = OutputKind.probabilities(2)
    model = MlpModel([3, 4, 2], kind, RngStream(14))
    before = [w.copy() for w in model.weights]
    batch = _random_batch(kind, RngStream(15), b=8, d=3)
    curve = mlp_train(model, batch, epochs=3, lr=0.0, rng=RngStream(16))
    for w, b in zip(model.weights, before):
        assert np.array_equal(w, b)
    assert len(set(np.round(curve, 15))) == 1


def test_zero_weights_leave_parameters_unchanged():
    kind = OutputKind.probabilities(2)
    model = MlpModel([3, 4, 2], kind, RngStream(17))
    before = [w.copy() for w in model.weights]
    batch = _random_batch(kind, RngStream(18), b=8, d=3)
    zeroed = WeightedBatch(batch.inputs, batch.targets, np.zeros_like(batch.weights))
    mlp_train(model, zeroed, epochs=3, lr=0.5, rng=RngStream(19))
    for w, b in zip(model.weights, before):
        assert np.array_equal(w, b)


def test_divergence_reports_step():
    # The loop raises no floating-point warning on the way; the suite fails on one.
    gen = RngStream(20).generator()
    batch = WeightedBatch(gen.standard_normal((16, 3)) * 10, gen.standard_normal(16), np.ones(16))
    model = MlpModel([3, 8, 1], OutputKind.real_values(), RngStream(21))
    with pytest.raises(TrainingDivergedError) as info:
        mlp_train(model, batch, epochs=50, lr=1e12, rng=RngStream(22))
    assert info.value.step >= 0


def test_one_term_of_full_share_is_the_plain_batch():
    kind = OutputKind.probabilities(2)
    batch = _random_batch(kind, RngStream(30), b=20, d=3)
    models = [MlpModel([3, 6, 2], kind, RngStream(31)) for _ in range(2)]
    curves = [mlp_train(m, data, epochs=3, lr=0.3, rng=RngStream(32), batch_size=8,
                        momentum=0.5) for m, data in zip(models, [batch, [(1.0, batch)]])]
    assert curves[0] == curves[1]
    for a, b in zip(models[0].weights + models[0].biases, models[1].weights + models[1].biases):
        assert np.array_equal(a, b)


def test_later_terms_cycle_and_shuffle_on_their_own_streams():
    # The second term's 5 rows make 3 batches of 2 per round; the first term's
    # 12 rows make 6 batches an epoch, so the second cycles twice per epoch.
    kind = OutputKind.real_values()
    first = _random_batch(kind, RngStream(33), b=12, d=3)
    second = _random_batch(kind, RngStream(34), b=5, d=3)
    seen = []
    model = MlpModel([3, 4, 1], kind, RngStream(35))
    original = model.loss_and_gradients

    def noted(batch):
        seen.append(batch.inputs)
        return original(batch)

    model.loss_and_gradients = noted
    mlp_train(model, [(0.5, first), (0.5, second)], epochs=2, lr=0.0, rng=RngStream(36),
              batch_size=2)
    assert len(seen) == 2 * 12
    for epoch in range(2):
        steps = seen[12 * epoch : 12 * (epoch + 1)]
        first_order = epoch_batches(12, 2, RngStream(36).derive(1).derive(epoch))
        cycled = RngStream(36).derive(2).derive(epoch)
        second_order = [idx for r in range(2) for idx in epoch_batches(5, 2, cycled.derive(r))]
        for got, idx in zip(steps[0::2], first_order):
            assert np.array_equal(got, first.inputs[idx])
        for got, idx in zip(steps[1::2], second_order[:6]):
            assert np.array_equal(got, second.inputs[idx])


@pytest.mark.parametrize("epochs", [0, 2])
@pytest.mark.parametrize("inputs, targets", [((8, 5), (8,)), ((8, 3), (8, 2))],
                         ids=["rows", "targets"])
def test_every_term_must_fit_the_model(epochs, inputs, targets):
    kind = OutputKind.real_values()
    model = MlpModel([3, 4, 1], kind, RngStream(37))
    before = [w.copy() for w in model.weights]
    good = _random_batch(kind, RngStream(38), b=8, d=3)
    gen = RngStream(39).generator()
    bad = WeightedBatch(gen.standard_normal(inputs), gen.standard_normal(targets), np.ones(8))
    with pytest.raises(ShapeError):
        mlp_train(model, [(0.5, good), (0.5, bad)], epochs=epochs, lr=0.1, rng=RngStream(40))
    for w, b in zip(model.weights, before):
        assert np.array_equal(w, b)


def test_training_is_seed_deterministic():
    kind = OutputKind.probabilities(2)
    batch = _random_batch(kind, RngStream(23), b=20, d=3)
    params = []
    for _ in range(2):
        model = MlpModel([3, 6, 2], kind, RngStream(24))
        mlp_train(model, batch, epochs=5, lr=0.1, rng=RngStream(25), batch_size=8)
        params.append([w.copy() for w in model.weights])
    for a, b in zip(*params):
        assert np.array_equal(a, b)


# --------------------------------------------------------------------------
# predict contracts


def test_probability_outputs_are_normalized():
    model = MlpModel([4, 8, 3], OutputKind.probabilities(3), RngStream(26))
    out = model.predict(RngStream(27).generator().standard_normal((9, 4)))
    assert out.shape == (9, 3)
    assert np.all(out >= 0) and np.all(out <= 1)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)


def test_per_pixel_outputs_shape_and_range():
    model = MlpModel([4, 8, 6], OutputKind.per_pixel(2, 3), RngStream(28))
    out = model.predict(RngStream(29).generator().standard_normal((5, 4)))
    assert out.shape == (5, 2, 3)
    assert np.all((out >= 0) & (out <= 1))


def test_regression_output_is_flat():
    model = MlpModel([4, 8, 1], OutputKind.real_values(), RngStream(30))
    out = model.predict(RngStream(31).generator().standard_normal((7, 4)))
    assert out.shape == (7,)


def test_head_size_must_match_kind():
    with pytest.raises(ParamError):
        MlpModel([4, 8, 5], OutputKind.probabilities(3), RngStream(32))


def test_unknown_output_kind_rejected():
    with pytest.raises(ParamError):
        OutputKind("logits")


def test_mlp_output_is_checked_against_its_kind():
    model = MlpModel([4, 8, 3], OutputKind.probabilities(3), RngStream(32))
    model._head = lambda z: z + 5.0  # rows that are no probabilities
    with pytest.raises(PredictorError):
        model.predict(np.ones((2, 4)))


HEADS = {"probabilities": (OutputKind.probabilities(3), 3),
         "per-pixel": (OutputKind.per_pixel(2, 2), 4),
         "real": (OutputKind.real_values(), 1)}


@pytest.mark.parametrize("head", sorted(HEADS))
@pytest.mark.parametrize("hidden", [[], [5], [5, 4]])
def test_predict_never_writes_into_its_argument(head, hidden):
    # The layers and the head work in place on arrays predict made itself. A
    # model without weights, such as the tail ensemble._fold builds for a
    # [d, C] model, gets the caller's batch as its pre-head output.
    kind, width = HEADS[head]
    model = MlpModel([6, *hidden, width], kind, RngStream(34))
    batch = RngStream(35).generator().standard_normal((7, 6))
    models = [(model, batch)]
    if not hidden:
        tail = ensemble._fold(model, fit(batch, "all"))[1]
        assert tail.weights == []
        models.append((tail, batch @ model.weights[0]))
    for m, x in models:
        before = x.copy()
        out = m.predict(x)
        assert np.array_equal(x, before)
        assert not np.shares_memory(out, x)


@pytest.mark.parametrize("head", ["probabilities", "per-pixel"])
def test_output_range_check_refuses_nan_and_takes_an_empty_batch(head):
    kind, width = HEADS[head]
    shape = (width,) if head == "probabilities" else kind.image_shape
    kind.check_outputs(np.zeros((0, *shape)), 0)
    out = np.full((2, *shape), 1.0 / width)
    kind.check_outputs(out, 2)
    out[1].flat[0] = np.nan
    with pytest.raises(PredictorError):
        kind.check_outputs(out, 2)


def test_checkpoint_round_trip(tmp_path):
    model = MlpModel([4, 6, 3], OutputKind.probabilities(3), RngStream(33))
    path = tmp_path / "model.gtt"
    save_model(model, path)
    back = load_model(path)
    assert back.layer_sizes == model.layer_sizes
    assert back.output_kind == model.output_kind
    x = RngStream(34).generator().standard_normal((5, 4))
    assert np.array_equal(back.predict(x), model.predict(x))


# --------------------------------------------------------------------------
# subprocess predictor


def test_subprocess_echo_round_trip(model_child):
    with SubprocessPredictor(model_child().argv, OutputKind.real_values()) as pred:
        batch = RngStream(35).generator().standard_normal((3, 4))
        out = pred.predict(batch)
        assert np.array_equal(out, batch)


def test_subprocess_reply_is_writable(model_child):
    # A quiet grid point's outputs are the reply itself, and the engine writes into them.
    with SubprocessPredictor(model_child().argv, OutputKind.real_values()) as pred:
        out = pred.predict(np.ones((2, 3)))
    assert out.flags.writeable


def test_subprocess_failure_raises():
    pred = SubprocessPredictor(
        [sys.executable, "-c", "import sys; sys.exit(3)"], OutputKind.real_values()
    )
    with pytest.raises(PredictorError):
        pred.predict(np.ones((2, 2)))


def test_subprocess_garbage_output_raises():
    pred = SubprocessPredictor(
        [sys.executable, "-c", "print('hello')"], OutputKind.real_values()
    )
    with pytest.raises(Exception):
        pred.predict(np.ones((2, 2)))


def test_subprocess_child_serves_every_request_until_close(model_child):
    child = model_child()
    pred = SubprocessPredictor(child.argv, OutputKind.real_values())
    gen = RngStream(36).generator()
    for b in (1, 5, 2, 7):
        batch = gen.standard_normal((b, 3))
        assert np.array_equal(pred.predict(batch), batch)
    pred.close()
    pred.close()
    assert child.started() == child.requests()[:1] and len(child.requests()) == 4
    assert not Path(f"/proc/{child.started()[0]}").exists()


# Reads only the header of its request, writes a reply larger than a pipe
# holds, and only then reads the payload: both sides must write at once.
EARLY_REPLY = """import struct, sys
import numpy as np
stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
head = stdin.read(6)
b, d = struct.unpack("<2Q", stdin.read(16))
out = np.full((b, 20000), 0.5)
stdout.write(b"GTT1" + struct.pack("<BB2Q", 0, 2, *out.shape) + out.tobytes())
stdout.flush()
stdin.read(8 * b * d)
sys.exit(stdin.read() != b"")
"""


def test_subprocess_child_may_answer_before_it_reads_the_request():
    pred = SubprocessPredictor([sys.executable, "-c", EARLY_REPLY], OutputKind.real_values())
    replies = []
    # A deadlock blocks in a system call, so watch it from a thread with a timeout.
    worker = threading.Thread(target=lambda: replies.append(pred.predict(np.ones((4, 20000)))),
                              daemon=True)
    worker.start()
    worker.join(60)
    assert not worker.is_alive()
    pred.close()
    assert replies[0].shape == (4, 20000) and np.all(replies[0] == 0.5)


@pytest.mark.parametrize("reply, after_reply, message", [
    ("dumps_tensor(x)[:-8] + bytes(6) + bytes([0xF8, 0x7F])", "pass", "NaN"),
    ("b'GTT1' + bytes([0, 1]) + (1 << 60).to_bytes(8, 'little')", "sys.exit(0)",
     "closed its stdout"),
    ("dumps_tensor(x) + b'!'", "pass", "wrote bytes after its reply"),
    ("dumps_tensor(x)", "os.close(1)", "closed its stdout between requests"),
], ids=["non-finite", "claims-2**60-values", "stray-byte", "hangs-up-and-stays"])
def test_subprocess_bad_reply_kills_the_child(model_child, reply, after_reply, message):
    child = model_child(reply, after_reply=after_reply)
    pred = SubprocessPredictor(child.argv, OutputKind.real_values())
    with pytest.raises(PredictorError, match=message):
        pred.predict(np.ones((2, 3)))
        # The next request starts once the child has written past its reply or hung up.
        select.select([pred._proc.stdout], [], [], 60)
        pred.predict(np.ones((2, 3)))
    assert not Path(f"/proc/{child.started()[0]}").exists()
    pred.close()  # nothing left to close


# Children that log their pid to the file named by their first argument and
# then break off a request larger than a pipe holds, and the refusal each
# ends in: one closes its stdin unread and waits with its stdout open; one
# answers after the header and writes one byte more before it drains the rest.
BREAKS_OFF = {
    "closes-stdin": ("""import os, signal, sys
with open(sys.argv[1], "w") as fh:
    fh.write(str(os.getpid()))
os.close(0)
signal.pause()
""", "closed its stdin mid-request"),
    "stray-byte-mid-request": ("""import os, struct, sys
with open(sys.argv[1], "w") as fh:
    fh.write(str(os.getpid()))
stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
head = stdin.read(6)
b, d = struct.unpack("<2Q", stdin.read(16))
stdout.write(b"GTT1" + struct.pack("<BB2Q", 0, 2, b, 1) + bytes(8 * b) + b"!")
stdout.flush()
stdin.read()
""", "wrote bytes after its reply"),
}


@pytest.mark.parametrize("script, message", BREAKS_OFF.values(), ids=BREAKS_OFF)
def test_subprocess_child_that_breaks_off_a_request_is_killed(tmp_path, script, message):
    pid = tmp_path / "pid"
    pred = SubprocessPredictor([sys.executable, "-c", script, str(pid)], OutputKind.real_values())
    with pytest.raises(PredictorError, match=message):
        pred.predict(np.ones((64, 8192)))
    assert not Path(f"/proc/{pid.read_text()}").exists()
    pred.close()  # nothing left to close
