"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion alongside the measured margins.
"""

import json
import math
import time

import numpy as np

import run_bias_variance
import run_distill_experiment
import run_spectrum
import run_std_error
import run_structured_noise
from gtta.analysis import bias_variance_sweep
from gtta.cli import main as cli_main
from gtta.data import OutputKind, one_hot
from gtta.ensemble import run_gtta
from gtta.perturb import (
    NoiseSchedule,
    draw_latents,
    latent_candidates,
    latent_sample_covariance,
    per_component_sigma,
    make_candidates,
)
from gtta.predictor import MlpModel, WeightedBatch
from gtta.rng import RngStream
from gtta.segcount import count, erode, evaluate_counting, label_components
from gtta.subspace import fit, project, reconstruct
from gtta.synthdata import BlobImagesSpec, gen_blob_images
from gtta.tensorio import content_hash, load_tensor, save_tensor
from test_predictor import gradient_check, identity_model, loss_of


def _verdict(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------


def test_c01_subspace_matches_bruteforce_eigendecomposition():
    start = time.time()
    worst_eig, worst_roundtrip = 0.0, 0.0
    for k in range(50):
        gen = RngStream(4000 + k).generator()
        n, d = int(gen.integers(3, 33)), int(gen.integers(2, 33))
        X = gen.standard_normal((n, d))
        s = fit(X, "all")
        Xc = X - X.mean(axis=0)
        evals, evecs = np.linalg.eigh(Xc.T @ Xc / (n - 1))
        order = np.argsort(evals)[::-1]
        evals, evecs = evals[order], evecs[:, order].T
        total = evals.sum()
        worst_eig = max(
            worst_eig,
            float(np.abs(s.variance_ratios * total - evals[: s.n_u]).max()),
        )
        for i in range(s.n_u):
            if evals[i] < 1e-9:
                continue
            gap = min(
                abs(ev - evals[i]) for j, ev in enumerate(evals) if j != i
            )
            if gap < 1e-6:
                continue  # eigenvector direction ill-conditioned at ties
            worst_eig = max(
                worst_eig, 1.0 - abs(float(np.dot(s.components[i], evecs[i])))
            )
        if s.n_u == d:
            x = gen.standard_normal(d)
            worst_roundtrip = max(
                worst_roundtrip,
                float(np.abs(reconstruct(s, project(s, x)) - x).max()),
            )
    elapsed = time.time() - start
    ok = worst_eig < 1e-8 and worst_roundtrip < 1e-8 and elapsed < 5
    _verdict(1, ok, f"eig dev {worst_eig:.2e}, round trip {worst_roundtrip:.2e}, {elapsed:.1f}s")


def test_c02_latent_decorrelation():
    start = time.time()
    N = 10_000
    worst_z, worst_diag = 0.0, 0.0
    for k in range(10):
        gen = RngStream(900 + k).generator()
        X = gen.standard_normal((25, 5))
        s = fit(X, "all")
        sched = NoiseSchedule("constant", 0.05, N)
        target = per_component_sigma(sched, s)
        draws = draw_latents(target, s, X[0][None], [RngStream(1900 + k)])
        latents = latent_candidates(target, draws)[0]
        cov, _ = latent_sample_covariance(latents)
        target = target[0]
        for i in range(s.n_u):
            for j in range(i + 1, s.n_u):
                se = target[i] * target[j] / np.sqrt(N - 1)
                worst_z = max(worst_z, abs(cov[i, j]) / se)
        worst_diag = max(
            worst_diag,
            float((np.abs(np.diag(cov) - target**2) / target**2).max()),
        )
    elapsed = time.time() - start
    ok = worst_z < 3.0 and worst_diag < 0.05 and elapsed < 30
    _verdict(2, ok, f"max off-diag {worst_z:.2f} se, max diag dev {worst_diag * 100:.1f}%, {elapsed:.1f}s")


def test_c03_ensemble_variance_decay():
    start = time.time()
    gen = RngStream(5000).generator()
    X = gen.standard_normal((40, 8))
    s = fit(X, "all")
    model = MlpModel([8, 16, 3], OutputKind.probabilities(3), RngStream(5001))
    x = X[0]
    M = 200
    sizes = [1, 2, 4, 8, 16, 32, 64]

    const_var = []
    for N in sizes:
        sig = per_component_sigma(NoiseSchedule("constant", 0.05, N), s)
        draws = draw_latents(sig, s, np.tile(x, (M, 1)),
                             [RngStream(5002).derive(N).derive(m) for m in range(M)])
        cands = make_candidates(sig, s, draws)
        cands = cands.reshape(M * N, -1)
        preds = model.predict(cands).reshape(M, N, 3)
        const_var.append(float(preds.mean(axis=1).var(axis=0, ddof=1).mean()))
    slope = np.polyfit(np.log(sizes), np.log(const_var), 1)[0]

    inc_ok = True
    detail_margin = np.inf
    for N in sizes:
        sig = per_component_sigma(NoiseSchedule("incremental", 0.05, N), s)
        draws = draw_latents(sig, s, np.tile(x, (M, 1)),
                             [RngStream(5003).derive(N).derive(m) for m in range(M)])
        cands = make_candidates(sig, s, draws)
        cands = cands.reshape(M * N, -1)
        preds = model.predict(cands).reshape(M, N, 3)
        means = preds.mean(axis=1)
        v_mean = float(means.var(axis=0, ddof=1).mean())
        # per-level candidate variance across the M repeats, maxed over levels
        c = float(preds.var(axis=0, ddof=1).mean(axis=1).max())
        if c < 1e-20:
            # the N = 1 schedule has zero noise; both sides vanish
            inc_ok = inc_ok and v_mean < 1e-20
            continue
        inc_ok = inc_ok and v_mean <= c / N
        detail_margin = min(detail_margin, (c / N) / v_mean if v_mean else np.inf)

    elapsed = time.time() - start
    ok = abs(slope + 1.0) < 0.1 and inc_ok and elapsed < 120
    _verdict(3, ok, f"slope {slope:.3f}, incremental bound margin x{detail_margin:.2f}, {elapsed:.1f}s")


def test_c04_weighted_loss_contract():
    gen = RngStream(6000).generator()
    p = gen.random((6, 4)) * 0.98 + 0.01
    p /= p.sum(axis=1, keepdims=True)
    y = one_hot(gen.integers(0, 4, size=6), 4)
    # Weights lie in [0, 1], so the base is 0.4 and its rescalings 0.1, 0.2 and 0.8.
    identity = identity_model(OutputKind.probabilities(4), 4)
    uniform_dev = max(
        abs(loss_of(identity, np.log(p), y, np.full(6, 0.4 * c))
            - loss_of(identity, np.log(p), y, np.full(6, 0.4)))
        for c in (0.25, 0.5, 2.0)
    )
    # A zero weight and a zero bias put the one pixel's sigmoid at exactly 0.5.
    half = MlpModel.from_parameters([1, 1], OutputKind.per_pixel(1, 1), [np.zeros((1, 1))],
                                    [np.zeros(1)])
    log2_dev = abs(loss_of(half, [[0.0]], [[[1.0]]], [1.0]) - math.log(2))

    kind = OutputKind.probabilities(3)
    model = MlpModel([5, 8, 3], kind, RngStream(6001))
    x = gen.standard_normal((6, 5))
    targets = one_hot(gen.integers(0, 3, size=6), 3)
    w = gen.random(6) * 0.8 + 0.2
    w[2] = 0.0
    batch = WeightedBatch(x, targets, w)
    _, grads = model.loss_and_gradients(batch)
    perturbed = WeightedBatch(
        np.where(np.arange(6)[:, None] == 2, x + 100.0, x), targets, w
    )
    _, grads_perturbed = model.loss_and_gradients(perturbed)
    zero_elem_dev = max(
        float(np.abs(a - b).max())
        for (a, _), (b, _) in zip(grads, grads_perturbed)
    )

    fd = max(
        gradient_check(
            MlpModel(sizes, k, RngStream(6002)),
            _random_batch_for(k, RngStream(6003)),
            rng=RngStream(6004),
        )
        for k, sizes in (
            (OutputKind.probabilities(3), [5, 8, 3]),
            (OutputKind.real_values(), [5, 8, 1]),
            (OutputKind.per_pixel(2, 3), [5, 8, 6]),
        )
    )
    ok = (
        uniform_dev < 1e-12
        and log2_dev < 1e-12
        and zero_elem_dev == 0.0
        and fd < 1e-4
    )
    _verdict(4, ok, f"uniform dev {uniform_dev:.1e}, ln2 dev {log2_dev:.1e}, "
                    f"zero-weight grad dev {zero_elem_dev:.1e}, fd err {fd:.1e}")


def _random_batch_for(kind, rng, b=6, d=5):
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


def test_c05_zero_noise_bit_exact():
    gen = RngStream(7000).generator()
    X = gen.standard_normal((30, 6))
    s = fit(X, "all")
    x = gen.standard_normal(6)
    exact = True
    for kind, sizes in (
        (OutputKind.probabilities(3), [6, 8, 3]),
        (OutputKind.real_values(), [6, 8, 1]),
        (OutputKind.per_pixel(2, 2), [6, 8, 4]),
    ):
        model = MlpModel(sizes, kind, RngStream(7001))
        result = run_gtta(model, s, NoiseSchedule("constant", 0.0, 7), x[None], [RngStream(7002)])
        base = model.predict(x[None])[0]
        exact = exact and np.array_equal(result.mean_prediction[0], base)
        exact = exact and not result.std_map.any()
    _verdict(5, exact, "zero-noise full-rank ensembles equal the bare model bitwise")


def test_c06_spectrum_flat_vs_lowrank_jitter():
    start = time.time()
    report = run_spectrum.spectrum_report(seed=901, stream=57, components=3, n=100,
                                          equal_sigma=0.3)
    e = report.eigenvalues
    spread = float(e.max() / e.min())
    ratio = float(report.baseline_eigenvalues[2] / report.baseline_eigenvalues[0])
    elapsed = time.time() - start
    ok = spread <= 1.05 and ratio < 0.05 and elapsed < 60
    _verdict(6, ok, f"eig spread x{spread:.4f}, jitter l3/l1 {ratio:.1e}, {elapsed:.1f}s")


def test_c07_spread_tracks_error():
    start = time.time()
    report = run_std_error.spread_report(n_images=80, epochs=150)
    mae = [m for m, c in zip(report.bin_mae, report.bin_counts) if c > 0]
    rising = sum(1 for a, b in zip(mae, mae[1:]) if b >= a) / (len(mae) - 1)
    elapsed = time.time() - start
    ok = report.pearson is not None and report.pearson > 0.3 and rising >= 0.8 and elapsed < 120
    _verdict(7, ok, f"pearson {report.pearson:.3f}, monotone bins {rising * 100:.0f}%, {elapsed:.1f}s")


def test_c08_pattern_scrubbing_beats_jitter():
    wins = 0
    margins = []
    for seed in range(20):
        report = run_structured_noise.seed_report(seed, sigma=0.1, n=15, amplitude=0.8)
        wins += report.correlation < report.baseline_correlation
        margins.append(report.baseline_correlation - report.correlation)
    ok = wins >= 18
    _verdict(8, ok, f"latent noise beat jitter in {wins}/20 seeds, "
                    f"median margin {np.median(margins):.3f}")


def test_c09_noise_reduces_bias():
    grid = (0.0, 0.002, 0.005, 0.01, 0.02, 0.05)
    wins = 0
    identity_dev = 0.0
    for seed in range(20):
        model, s, eval_ds = run_bias_variance.setup(seed)
        report = bias_variance_sweep(
            model, s, [NoiseSchedule("constant", sigma, 10) for sigma in grid], eval_ds, 8,
            RngStream(seed, 52),
        )
        bias = [row["bias2"] for row in report.rows]
        identity_dev = max(
            identity_dev,
            max(abs(row["error"] - row["bias2"] - row["variance"])
                for row in report.rows),
        )
        wins += min(bias[1:]) < bias[0]
    ok = wins >= 16 and identity_dev < 1e-9
    _verdict(9, ok, f"bias dropped under noise in {wins}/20 seeds, "
                    f"decomposition dev {identity_dev:.1e}")


def test_c10_weighted_distillation():
    weighted_scores, unweighted_scores = [], []
    for seed in range(20):
        row, model_w, holdout = run_distill_experiment.run_seed(seed, sigma=0.01, mixing=0.2)
        weighted_scores.append(row["weighted"])
        unweighted_scores.append(row["unweighted"])

    # the distilled student must cost one forward pass per input
    calls = []
    final = model_w
    original = final.predict

    def counted(batch):
        calls.append(np.atleast_2d(batch).shape[0])
        return original(batch)

    final.predict = counted
    final.predict(holdout.inputs)
    single_pass = calls == [holdout.n]

    mean_w, mean_u = np.mean(weighted_scores), np.mean(unweighted_scores)
    ok = mean_w >= mean_u and single_pass
    _verdict(10, ok, f"weighted F {mean_w:.4f} vs unweighted {mean_u:.4f} "
                     f"(paired, 20 seeds), single-pass {single_pass}")


def test_c11_segcount():
    # exact counts on 100 non-overlapping blob images
    bundle = gen_blob_images(BlobImagesSpec(
        n_images=100, height=24, width=24, blobs_min=1, blobs_max=3,
        radius_min=3.0, radius_max=4.5, gap=2.0, input_noise=0.0, seed=55,
    ))
    predicted = [
        count(bundle.clean_targets[i], 0.5, 3, 1, min_area=4).count
        for i in range(100)
    ]
    mae = evaluate_counting(predicted, bundle.counts)

    # bridge fixtures: two blobs joined by a one-pixel line, every geometry
    bridges_ok = True
    for off in range(5):
        prob = np.zeros((13 + off, 26 + off))
        prob[1 + off : 10 + off, 1:10] = 0.9
        prob[2 : 11, 15 + off : 24 + off] = 0.9
        row = 5 + off // 2
        prob[row, 9 : 16 + off] = 0.9
        result = count(prob, 0.5, 3, 1, min_area=1)
        bridges_ok = bridges_ok and result.count == 2

    # oracles on 200 random masks up to 64x64
    from test_segcount import erosion_oracle, flood_fill_oracle

    oracle_ok = True
    for k in range(200):
        gen = RngStream(8000 + k).generator()
        h, w = int(gen.integers(4, 65)), int(gen.integers(4, 65))
        mask = gen.random((h, w)) > 0.6
        if not np.array_equal(erode(mask, 3, 1), erosion_oracle(mask, 3, 1)):
            oracle_ok = False
            break
        conn = 4 if k % 2 else 8
        if label_components(mask, connectivity=conn)[1] != flood_fill_oracle(mask, conn):
            oracle_ok = False
            break

    ok = mae == 0.0 and bridges_ok and oracle_ok
    _verdict(11, ok, f"counting mae {mae}, bridges separated {bridges_ok}, "
                     f"oracle agreement {oracle_ok}")


def test_c12_cli_determinism(tmp_path):
    root = tmp_path
    spec = root / "images.json"
    spec.write_text(json.dumps({
        "n_images": 20, "height": 12, "width": 12, "blobs_min": 1, "blobs_max": 2,
        "radius_min": 3.0, "radius_max": 4.0, "input_noise": 0.05, "seed": 5,
    }))
    assert cli_main(["synth", "images", "--spec", str(spec), "--out", str(root / "data")]) == 0
    inputs = load_tensor(root / "data" / "inputs.gtt")
    targets = load_tensor(root / "data" / "targets.gtt")
    save_tensor(inputs[:14], root / "train_x.gtt")
    save_tensor(targets[:14], root / "train_y.gtt")
    save_tensor(inputs[14:], root / "test_x.gtt")
    assert cli_main(["fit", "--data", str(root / "train_x.gtt"), "--retain", "0.99",
                     "--out", str(root / "s.gtt")]) == 0
    assert cli_main(["train", "--data", str(root / "train_x.gtt"),
                     "--targets", str(root / "train_y.gtt"),
                     "--task", "segmentation",
                     "--hidden", "24", "--epochs", "25", "--lr", "0.5",
                     "--seed", "3", "--out", str(root / "m.gtt")]) == 0
    assert cli_main(["predict", "--model", str(root / "m.gtt"),
                     "--subspace", str(root / "s.gtt"),
                     "--input", str(root / "test_x.gtt"),
                     "--sigma", "0.05", "--n", "6", "--seed", "9",
                     "--out", str(root / "p1")]) == 0

    hashes = {}
    for label, threads in (("p2", "1"), ("p3", "4")):
        assert cli_main(["predict", "--config", str(root / "p1" / "provenance.json"),
                         "--threads", threads, "--out", str(root / label)]) == 0
        hashes[label] = [
            content_hash(root / label / name)
            for name in ("mean.gtt", "std.gtt", "results.json")
        ]
    base = [content_hash(root / "p1" / name)
            for name in ("mean.gtt", "std.gtt", "results.json")]
    ok = hashes["p2"] == base and hashes["p3"] == base
    _verdict(12, ok, "provenance reruns byte-identical across --threads 1/4")
