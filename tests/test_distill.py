import numpy as np
import pytest

from gtta import distill as distill_module
from gtta.cli import main
from gtta.data import Dataset, OutputKind
from gtta.distill import distill, generate_pseudolabels
from gtta.errors import ParamError, UnsupportedTaskError
from gtta.perturb import NoiseSchedule
from gtta.predictor import (
    MlpModel,
    WeightedBatch,
    batch_from_dataset,
    mlp_train,
    save_model,
)
from gtta.rng import RngStream
from gtta.subspace import fit, save_subspace
from gtta.synthdata import BlobsSpec, gen_blobs
from gtta.tensorio import load_container, save_tensor


def make_setup(seed=0, n=24, d=6):
    gen = RngStream(seed).generator()
    X = gen.standard_normal((n, d))
    s = fit(X, "all")
    model = MlpModel([d, 8, 2], OutputKind.probabilities(2), RngStream(seed, 1))
    return model, s, X[: n // 2]


def test_zero_noise_teacher_equals_base_model():
    model, s, unlabeled = make_setup()
    sched = NoiseSchedule("constant", 0.0, 6)
    pseudo = generate_pseudolabels(model, s, sched, unlabeled, RngStream(2))
    base = np.stack([
        model.predict(unlabeled[i : i + 1])[0] for i in range(len(unlabeled))
    ])
    assert np.array_equal(pseudo.targets, base)
    assert np.array_equal(pseudo.weights, np.ones_like(base))


def test_known_two_candidate_teacher():
    model, s, unlabeled = make_setup(seed=3)

    class TwoOutputs:
        output_kind = OutputKind.probabilities(2)

        def predict(self, batch):
            rows = np.array([[0.8, 0.2], [0.6, 0.4]])
            return rows[: np.atleast_2d(batch).shape[0]].copy()

    sched = NoiseSchedule("constant", 0.2, 2)
    pseudo = generate_pseudolabels(TwoOutputs(), s, sched, unlabeled[:1], RngStream(4))
    assert np.allclose(pseudo.targets[0], [0.7, 0.3], atol=1e-12)
    assert np.allclose(pseudo.weights[0], [0.9, 0.9], atol=1e-12)



def test_teacher_weights_are_the_consensus_of_its_outputs():
    _, s, unlabeled = make_setup(seed=22)

    class TwoMaps:
        output_kind = OutputKind.per_pixel(1, 2)

        def predict(self, batch):
            maps = np.array([[[0.0, 0.6]], [[1.0, 0.8]]])
            return maps[: np.atleast_2d(batch).shape[0]].copy()

    pseudo = generate_pseudolabels(TwoMaps(), s, NoiseSchedule("constant", 0.2, 2),
                                   unlabeled[:1], RngStream(23))
    w = pseudo.weights[0]
    assert w[0, 0] == pytest.approx(0.5)   # maximal binary spread
    assert w[0, 1] == pytest.approx(0.9)   # std 0.1


def test_teacher_weights_of_a_quiet_ensemble_are_one():
    model, s, unlabeled = make_setup(seed=24)
    pseudo = generate_pseudolabels(model, s, NoiseSchedule("constant", 0.0, 3), unlabeled[:1],
                                   RngStream(26))
    assert np.array_equal(pseudo.weights[0], np.ones(2))


def test_teacher_weights_need_probabilities(monkeypatch):
    _, s, unlabeled = make_setup(seed=27)
    model = MlpModel([6, 4, 1], OutputKind.real_values(), RngStream(28))
    monkeypatch.setattr(distill_module, "run_gtta", None)  # refused before the ensemble runs
    with pytest.raises(UnsupportedTaskError, match="uncertainty weights need probability outputs"):
        generate_pseudolabels(model, s, NoiseSchedule("constant", 0.1, 3), unlabeled[:1],
                              RngStream(29))

def test_regeneration_is_bit_identical():
    model, s, unlabeled = make_setup(seed=5)
    sched = NoiseSchedule("incremental", 0.3, 5)
    rng = RngStream(11, 4)
    first = generate_pseudolabels(model, s, sched, unlabeled, rng)
    again = generate_pseudolabels(model, s, NoiseSchedule("incremental", 0.3, 5), unlabeled,
                                  RngStream(11, 4))
    assert np.array_equal(first.targets, again.targets)
    assert np.array_equal(first.weights, again.weights)


def test_pseudolabel_persistence(tmp_path):
    # distill writes the teacher's output, bit for bit, and nothing beside it.
    model, s, unlabeled = make_setup(seed=6)
    save_model(model, tmp_path / "m.gtt")
    save_subspace(s, tmp_path / "s.gtt")
    save_tensor(unlabeled, tmp_path / "x.gtt")
    save_tensor(np.zeros(len(unlabeled)), tmp_path / "y.gtt")
    out = tmp_path / "out"
    assert main(["distill", "--student", str(tmp_path / "m.gtt"), "--subspace", str(tmp_path / "s.gtt"),
                 "--labeled", str(tmp_path / "x.gtt"), "--labeled-targets", str(tmp_path / "y.gtt"),
                 "--unlabeled", str(tmp_path / "x.gtt"), "--sigma", "0.1", "--n", "4",
                 "--seed", "7", "--epochs", "1", "--out", str(out)]) == 0
    # distill draws the teacher's noise from stream 7 of --seed
    pseudo = generate_pseudolabels(model, s, NoiseSchedule("constant", 0.1, 4),
                                   unlabeled, RngStream(7, 7))
    back = load_container(out / "pseudolabels.gtt")
    assert list(back) == ["inputs", "teacher_targets", "weights"]
    assert np.array_equal(back["inputs"], pseudo.inputs)
    assert np.array_equal(back["teacher_targets"], pseudo.targets)
    assert np.array_equal(back["weights"], pseudo.weights)
    assert sorted(p.name for p in out.iterdir()) == [
        "distilled.gtt", "distilled.gtt.json", "provenance.json", "pseudolabels.gtt", "report.json"]


def _labeled_and_pseudo(seed):
    blobs = gen_blobs(BlobsSpec(n=40, dim=6, class_sep=3.0, seed=seed))
    model = MlpModel([6, 8, 2], OutputKind.probabilities(2), RngStream(seed, 2))
    mlp_train(model, batch_from_dataset(blobs.data), epochs=10, lr=0.1,
              rng=RngStream(seed, 3))
    s = fit(blobs.data.inputs, "all")
    pseudo = generate_pseudolabels(model, s, NoiseSchedule("constant", 0.05, 5),
                                   blobs.data.inputs[:16], RngStream(seed, 4))
    return model, blobs.data, pseudo


def test_full_mixing_equals_supervised_training():
    model, labeled, pseudo = _labeled_and_pseudo(seed=8)
    rng = RngStream(9)
    distilled, _ = distill(model, labeled, pseudo, mixing=1.0, epochs=4, lr=0.1, rng=rng)
    plain = model.copy()
    mlp_train(plain, batch_from_dataset(labeled), epochs=4, lr=0.1, rng=rng)
    for a, b in zip(distilled.weights, plain.weights):
        assert np.array_equal(a, b)
    for a, b in zip(distilled.biases, plain.biases):
        assert np.array_equal(a, b)


def test_zero_weight_pseudo_matches_full_mixing():
    model, labeled, pseudo = _labeled_and_pseudo(seed=10)
    dead = WeightedBatch(pseudo.inputs, pseudo.targets, np.zeros_like(pseudo.weights))
    rng = RngStream(11)
    a, _ = distill(model, labeled, dead, mixing=0.5, epochs=4, lr=0.1, rng=rng)
    b, _ = distill(model, labeled, pseudo, mixing=1.0, epochs=4, lr=0.1, rng=rng)
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(wa, wb)


def test_mixing_bounds():
    model, labeled, pseudo = _labeled_and_pseudo(seed=12)
    with pytest.raises(ParamError):
        distill(model, labeled, pseudo, mixing=1.5, epochs=1, lr=0.1, rng=RngStream(0))


def test_self_training_initial_loss_matches_independent_pass():
    model, s, unlabeled = make_setup(seed=13)
    sched = NoiseSchedule("constant", 0.0, 3)
    pseudo = generate_pseudolabels(model, s, sched, unlabeled, RngStream(14))
    labeled = Dataset(
        unlabeled,
        np.zeros(len(unlabeled)),
        OutputKind.probabilities(2),
    )
    _, report = distill(model, labeled, pseudo, mixing=0.0, epochs=1, lr=0.0,
                        rng=RngStream(15), batch_size=len(unlabeled))
    base = model.predict(unlabeled)
    # Zero noise weights every pseudo-label 1, so the loss is the summed -p log p over its size.
    expected = -(base * np.log(base)).sum() / base.size
    assert report["history"][0]["train_loss"] == pytest.approx(expected, abs=1e-12)


def test_distilled_student_runs_single_pass():
    model, labeled, pseudo = _labeled_and_pseudo(seed=20)
    distilled, _ = distill(model, labeled, pseudo, mixing=0.5, epochs=2, lr=0.1,
                           rng=RngStream(21))
    calls = []
    original = distilled.predict

    def counted(batch):
        calls.append(np.atleast_2d(batch).shape[0])
        return original(batch)

    distilled.predict = counted
    distilled.predict(labeled.inputs)
    assert calls == [labeled.n]


def test_pseudolabels_carry_no_ground_truth():
    # A pseudo-label set is the teacher's soft outputs and its weights, nothing more.
    _, _, pseudo = _labeled_and_pseudo(seed=22)
    assert isinstance(pseudo, WeightedBatch)
    assert set(vars(pseudo)) == {"inputs", "targets", "weights"}
    assert not np.isin(pseudo.targets, (0.0, 1.0)).all()
