import dataclasses

import numpy as np
import pytest
import run_spectrum
import run_std_error
import run_structured_noise

from gtta import perturb
from gtta.analysis import (
    bias_variance_sweep,
    covariance_spectrum_experiment,
    std_error_correlation,
    structured_noise_removal,
)
from gtta.data import Dataset, OutputKind
from gtta.errors import ParamError
from gtta.perturb import NoiseSchedule
from gtta.predictor import MlpModel
from gtta.rng import RngStream
from gtta.subspace import Subspace, fit


class NoisyOracle:
    """Emits target + Gaussian noise; the input's first coordinate names the target."""

    def __init__(self, targets, noise_std, seed):
        self.targets = np.asarray(targets, dtype=np.float64)
        self.noise_std = noise_std
        self.gen = RngStream(seed).generator()
        self.output_kind = OutputKind.real_values()

    def predict(self, batch):
        batch = np.atleast_2d(batch)
        y = self.targets[batch[:, 0].astype(int)]
        return y + self.noise_std * self.gen.standard_normal(batch.shape[0])


def test_unbiased_oracle_decomposition():
    n_inputs, N, M, v = 6, 10, 200, 0.2
    gen = RngStream(0).generator()
    X = gen.standard_normal((n_inputs, 4))
    X[:, 0] = np.arange(n_inputs)
    y = gen.standard_normal(n_inputs)
    # Axis-aligned components; the first has zero range, so it gets no noise
    # and every candidate keeps its input's index for the oracle.
    s = Subspace(mean=np.zeros(4), components=np.eye(4),
                 variance_ratios=np.full(4, 0.25), ranges=np.array([0.0, 1.0, 1.0, 1.0]))
    data = Dataset(X, y, OutputKind.real_values())
    model = NoisyOracle(y, v, seed=1)
    report = bias_variance_sweep(model, s, [NoiseSchedule("constant", 0.1, N)], data, M,
                                 RngStream(2))
    row = report.rows[0]
    expected_var = v**2 / N
    assert abs(row["variance"] - expected_var) < 0.35 * expected_var
    assert row["bias2"] < 5 * v**2 / (M * N) * 3
    assert row["error"] == pytest.approx(row["bias2"] + row["variance"], abs=1e-9)


def test_zero_noise_deterministic_model():
    gen = RngStream(3).generator()
    X = gen.standard_normal((12, 5))
    y = gen.integers(0, 2, size=12).astype(np.float64)
    data = Dataset(X, y, OutputKind.probabilities(2))
    s = fit(X, "all")
    model = MlpModel([5, 6, 2], OutputKind.probabilities(2), RngStream(4))
    report = bias_variance_sweep(model, s, [NoiseSchedule("constant", 0.0, 5)], data, 4,
                                 RngStream(5))
    row = report.rows[0]
    assert row["variance"] == 0.0
    assert row["error"] == pytest.approx(row["bias2"], abs=1e-15)


def test_identity_holds_on_every_row():
    gen = RngStream(6).generator()
    X = gen.standard_normal((8, 4))
    y = gen.integers(0, 2, size=8).astype(np.float64)
    data = Dataset(X, y, OutputKind.probabilities(2))
    s = fit(X, "all")
    model = MlpModel([4, 6, 2], OutputKind.probabilities(2), RngStream(7))
    scheds = [NoiseSchedule("incremental", sigma, 6) for sigma in (0.0, 0.05, 0.2)]
    report = bias_variance_sweep(model, s, scheds, data, 5, RngStream(8))
    for row in report.rows:
        assert row["error"] == pytest.approx(row["bias2"] + row["variance"], abs=1e-9)


@pytest.mark.parametrize("strategy", ["constant", "incremental"])
def test_sweep_draws_once_and_keeps_each_schedules_rows(strategy, monkeypatch):
    # 9 inputs x 3 repeats span four engine blocks. The grid projects each
    # row and draws its normals once, not once per noisy schedule, and each
    # schedule's row is the one a sweep of that schedule alone gives.
    gen = RngStream(12).generator()
    X = gen.standard_normal((9, 5))
    data = Dataset(X, gen.integers(0, 2, size=9).astype(np.float64), OutputKind.probabilities(2))
    s = fit(X, 4)
    model = MlpModel([5, 6, 2], OutputKind.probabilities(2), RngStream(13))
    scheds = [NoiseSchedule(strategy, sigma, 5) for sigma in (0.0, 0.1, 0.3)]
    noisy = 5 if strategy == "constant" else 4
    pairs = []
    standard_normal = perturb.standard_normal

    def counted(streams, keys, size):
        pairs.extend((stream, int(key)) for stream in streams for key in keys)
        return standard_normal(streams, keys, size)

    monkeypatch.setattr(perturb, "standard_normal", counted)
    report = bias_variance_sweep(model, s, scheds, data, 3, RngStream(14))
    assert len(set(pairs)) == len(pairs) == 9 * 3 * noisy
    monkeypatch.undo()
    for sched, row in zip(scheds, report.rows):
        assert bias_variance_sweep(model, s, [sched], data, 3, RngStream(14)).rows == [row]


def test_sweep_needs_repeats():
    X = RngStream(9).generator().standard_normal((6, 3))
    data = Dataset(X, np.zeros(6), OutputKind.real_values())
    model = NoisyOracle(np.zeros(6), 0.1, seed=10)
    with pytest.raises(ParamError):
        bias_variance_sweep(model, fit(X, "all"), [NoiseSchedule("constant", 0.1, 3)], data, 1,
                            RngStream(11))


# --------------------------------------------------------------------------
# spectra


def test_zero_noise_spectrum_is_zero():
    s, data = run_spectrum.frame_setup(901, 3)
    sched = NoiseSchedule("constant", 0.0, 20)
    report = covariance_spectrum_experiment(s, sched, data, RngStream(12))
    assert np.array_equal(report.eigenvalues, np.zeros(3))


def test_spectrum_converges_to_noise_variance():
    s, data = run_spectrum.frame_setup(901, 3)
    sched = NoiseSchedule("constant", 0.1, 100)
    small = covariance_spectrum_experiment(s, sched, data, RngStream(13), equal_sigma=0.25)
    big = covariance_spectrum_experiment(s, dataclasses.replace(sched, ensemble_size=10_000),
                                         data, RngStream(13), equal_sigma=0.25)
    target = 0.25**2
    assert np.abs(big.eigenvalues - target).max() < np.abs(small.eigenvalues - target).max()
    assert np.abs(big.eigenvalues - target).max() < 0.01 * target * 5


def test_schedule_driven_spectrum_uses_component_noise():
    s, data = run_spectrum.frame_setup(901, 3)
    sched = NoiseSchedule("constant", 0.05, 2000)
    report = covariance_spectrum_experiment(s, sched, data, RngStream(14))
    from gtta.perturb import per_component_sigma

    target = np.sort(per_component_sigma(sched, s)[0] ** 2)[::-1]
    assert np.all(np.abs(report.eigenvalues - target) / target < 0.1)


# --------------------------------------------------------------------------
# spread vs error


def test_degenerate_when_model_deterministic():
    gen = RngStream(15).generator()
    X = gen.standard_normal((10, 4))
    y = gen.integers(0, 2, size=10).astype(np.float64)
    data = Dataset(X, y, OutputKind.probabilities(2))
    s = fit(X, "all")
    model = MlpModel([4, 5, 2], OutputKind.probabilities(2), RngStream(16))
    report = std_error_correlation(model, s, NoiseSchedule("constant", 0.0, 4),
                                   data, RngStream(17))
    assert report.degenerate
    assert report.pearson is None
    assert report.bin_counts.sum() == report.n_elements


def test_boundary_noise_task_correlates():
    report = run_std_error.spread_report(n_images=60, epochs=120)
    assert report.pearson is not None and report.pearson > 0.3
    assert report.bin_counts.sum() == report.n_elements
    mae = [m for m, c in zip(report.bin_mae, report.bin_counts) if c > 0]
    rising = sum(1 for a, b in zip(mae, mae[1:]) if b >= a)
    assert rising / (len(mae) - 1) >= 0.8


# --------------------------------------------------------------------------
# structured distractor removal


def test_zero_pattern_zero_correlation():
    gen = RngStream(18).generator()
    carrier = gen.standard_normal((30, 8))
    report = structured_noise_removal(
        carrier, np.zeros(8), NoiseSchedule("constant", 0.1, 6), RngStream(19)
    )
    assert report.correlation == 0.0
    assert report.baseline_correlation == 0.0


def test_orthogonal_pattern_annihilated():
    gen = RngStream(20).generator()
    rows = np.zeros((40, 10))
    rows[:, :6] = gen.standard_normal((40, 6))  # data spans axes 0..5 only
    carrier = rows
    pattern = np.zeros(10)
    pattern[8] = 1.0
    report = structured_noise_removal(
        carrier, pattern, NoiseSchedule("constant", 0.1, 8), RngStream(21),
        inject_fraction=0.0, retain=6,
    )
    assert report.correlation < 1e-8


def test_latent_noise_beats_jitter_at_scrubbing():
    report = run_structured_noise.seed_report(0, 0.1, 15, 0.8)
    assert report.correlation < report.baseline_correlation


def test_pattern_shape_validated():
    carrier = np.ones((10, 4))
    with pytest.raises(ParamError):
        structured_noise_removal(carrier, np.ones(3),
                                 NoiseSchedule("constant", 0.1, 4), RngStream(22))
