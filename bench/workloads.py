"""The four workloads: fixture specs, the command each runs, and its output checks.

Every fixture is built from a spec by ``gtta synth``, ``gtta fit`` and
``gtta train``; the benchmark seed is the fixture seed and the ``--seed`` of
every command. The program sees only the generated files. See README.md for
why each workload was chosen.
"""

from __future__ import annotations

import json
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gtt
import reference

HERE = Path(__file__).resolve().parent

# 600 blob images of 32x32 (d = 1024): rows 0-399 fit the subspace and train
# the model, the last 200 are the held-out inputs.
IMAGE_SPEC = {"n_images": 600, "height": 32, "width": 32}
TRAIN_ROWS = 400
EXTERNAL_ROWS = 16
TRAIN_ARGS = ["--task", "segmentation", "--hidden", "64", "--epochs", "30",
              "--lr", "1.0", "--momentum", "0.9", "--batch-size", "32"]
# 256x256 maps with 30-50 blobs that may overlap and whose boundaries are
# noisy; the smallest blobs erode to specks, so both erosion and the min-area
# filter remove something.
MAP_SPEC = {"n_images": 12, "height": 256, "width": 256, "blobs_min": 30,
            "blobs_max": 50, "radius_min": 2.0, "radius_max": 8.0, "gap": 1.0,
            "overlap": 0.4, "boundary_noise": 0.2}
ENSEMBLE_SIZE = 15
SIGMA = 0.1
SIGMA_GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5)  # the CLI default
SEGMENTATION_CUTOFF = 0.8                          # the CLI default, constant strategy
CHECKED_ROWS = 3                                   # rows compared with the reference

ENSEMBLE_SPANS = (
    "tensorio.load", "tensorio.save", "tensorio.hash", "subspace.load",
    "subspace.project", "rng.generator", "perturb.make_candidates",
    "perturb.latent_candidates", "perturb.per_component_sigma", "ensemble.run_gtta",
)


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int                  # inputs per command: image rows, or maps for count
    trains_model: bool
    outputs: tuple             # files compared byte for byte between runs
    spans: tuple               # spans that must fire in the traced command
    setup_spans: tuple         # spans that must fire while the fixture is built
    threads2_rerun: bool = False

    def command(self, seed: int, out: str, threads: int = 1) -> list[str]:
        common = ["--threads", str(threads), "--seed", str(seed), "--out", out]
        if self.name == "count":
            return ["count", "--input", "fixture/synth/targets.gtt",
                    "--truth", "fixture/synth/counts.gtt"] + common
        ensemble = ["--subspace", "fixture/subspace.gtt", "--n", str(ENSEMBLE_SIZE)] + common
        if self.name == "predict":
            return ["predict", "--model", "fixture/model.gtt", "--input", "fixture/test_x.gtt",
                    "--sigma", str(SIGMA)] + ensemble
        if self.name == "auto_sigma":
            return ["auto-sigma", "--model", "fixture/model.gtt", "--input", "fixture/test_x.gtt",
                    "--grid", ",".join(map(str, SIGMA_GRID))] + ensemble
        child = shlex.join([sys.executable, str(HERE / "model_child.py"), "32x32"])
        return ["predict", "--model-cmd", child, "--output-kind", "per-pixel:32x32",
                "--input", "fixture/test_x.gtt", "--sigma", str(SIGMA)] + ensemble


ENSEMBLE_OUTPUTS = ("mean.gtt", "std.gtt", "results.json")

WORKLOADS = {
    w.name: w for w in (
        Workload("predict", 200, True, ENSEMBLE_OUTPUTS,
                 ENSEMBLE_SPANS + ("predictor.predict",),
                 ("subspace.fit", "predictor.train", "predictor.train_step"),
                 threads2_rerun=True),
        Workload("auto_sigma", 200, True, ENSEMBLE_OUTPUTS,
                 ENSEMBLE_SPANS + ("predictor.predict", "ensemble.select_sigma",
                                   "subspace.reconstruct"),
                 ("subspace.fit", "predictor.train", "predictor.train_step")),
        Workload("external_model", EXTERNAL_ROWS, False, ENSEMBLE_OUTPUTS,
                 ENSEMBLE_SPANS + ("predictor.subprocess",), ("subspace.fit",)),
        Workload("count", MAP_SPEC["n_images"], False, ("counts.json",),
                 ("tensorio.load", "tensorio.hash", "segcount.count", "segcount.erode",
                  "segcount.label"), ()),
    )
}


# --------------------------------------------------------------------------
# fixtures


def build_fixture(w: Workload, seed: int, directory: Path, gtta) -> None:
    """Generate the workload's input files in ``directory``.

    ``gtta(args)`` runs one command of the program with the working directory
    as its current directory and raises on failure.
    """
    directory.mkdir(parents=True)
    d = directory.name
    spec = MAP_SPEC if w.name == "count" else IMAGE_SPEC
    (directory / "spec.json").write_text(json.dumps(spec))
    gtta(["synth", "images", "--spec", f"{d}/spec.json", "--out", f"{d}/synth", "--seed", str(seed)])
    if w.name == "count":
        return
    targets = gtt.load(directory / "synth" / "targets.gtt")
    inputs = gtt.load(directory / "synth" / "inputs.gtt")
    test = slice(TRAIN_ROWS, TRAIN_ROWS + w.rows)
    gtt.save(inputs[:TRAIN_ROWS], directory / "train_x.gtt")
    gtt.save(inputs[test], directory / "test_x.gtt")
    gtt.save(targets[test], directory / "test_y.gtt")
    gtta(["fit", "--data", f"{d}/train_x.gtt", "--retain", "0.99", "--out", f"{d}/subspace.gtt",
          "--seed", str(seed)])
    if w.trains_model:
        gtt.save(targets[:TRAIN_ROWS], directory / "train_y.gtt")
        gtta(["train", "--data", f"{d}/train_x.gtt", "--targets", f"{d}/train_y.gtt"] + TRAIN_ARGS
             + ["--out", f"{d}/model.gtt", "--seed", str(seed)])


FIXTURE_FILES = ("synth/targets.gtt", "synth/counts.gtt", "test_x.gtt", "test_y.gtt", "subspace.gtt", "model.gtt")


def fixture_digest(directory: Path) -> dict:
    """Bytes of every generated fixture file, to check that set-up is deterministic."""
    return {name: (directory / name).read_bytes()
            for name in FIXTURE_FILES if (directory / name).exists()}


# --------------------------------------------------------------------------
# checks


def check_outputs(w: Workload, seed: int, fixture: Path, out: Path) -> tuple[list[str], dict]:
    """Check one command's outputs; return (problems, quality figures)."""
    if w.name == "count":
        return _check_counts(fixture, out)
    return _check_ensemble(w, seed, fixture, out)


def _check_ensemble(w: Workload, seed: int, fixture: Path, out: Path):
    problems = []
    mean, std = gtt.load(out / "mean.gtt"), gtt.load(out / "std.gtt")
    records = json.loads((out / "results.json").read_text())
    shape = (w.rows, 32, 32)
    if mean.shape != shape or std.shape != shape:
        return [f"mean {mean.shape} / std {std.shape}, expected {shape}"], {}
    if not (np.all(mean >= 0) and np.all(mean <= 1) and np.all(std >= 0) and np.all(std <= 0.5)):
        problems.append("mean outside [0, 1] or std outside [0, 0.5]")
    if [r.get("row") for r in records] != list(range(w.rows)):
        return problems + ["results.json rows are not 0..n-1"], {}
    grid = SIGMA_GRID if w.name == "auto_sigma" else (SIGMA,)
    for i, r in enumerate(records):
        summary = (float(std[i].min()), float(std[i].mean()), float(std[i].max()))
        if (r["std_min"], r["std_mean"], r["std_max"]) != summary:
            problems.append(f"row {i}: std summary disagrees with std.gtt")
        if r["ensemble_size"] != ENSEMBLE_SIZE or r["strategy"] != "constant":
            problems.append(f"row {i}: ensemble size or strategy is wrong")
        if r["chosen_sigma"] not in grid:
            problems.append(f"row {i}: chosen sigma {r['chosen_sigma']} not in {grid}")

    s = reference.Subspace(fixture / "subspace.gtt")
    if w.trains_model:
        predict = reference.mlp(fixture / "model.gtt")
    else:
        from model_child import probabilities

        def predict(batch):
            return probabilities(batch, 32, 32).reshape(len(batch), -1)

    inputs = gtt.load(fixture / "test_x.gtt")
    for i in sorted({round(k * (w.rows - 1) / (CHECKED_ROWS - 1)) for k in range(CHECKED_ROWS)}):
        if w.name == "auto_sigma":
            sigma, ref_mean, ref_std = reference.select_sigma(
                predict, s, inputs[i], seed, i, SIGMA_GRID, ENSEMBLE_SIZE, SEGMENTATION_CUTOFF)
            if records[i]["chosen_sigma"] != sigma:
                problems.append(f"row {i}: chose sigma {records[i]['chosen_sigma']}, reference {sigma}")
        else:
            ref_mean, ref_std = reference.ensemble(predict, s, inputs[i], seed, i, SIGMA, ENSEMBLE_SIZE)
        err = max(np.abs(mean[i].ravel() - ref_mean).max(), np.abs(std[i].ravel() - ref_std).max())
        if not err <= reference.ENSEMBLE_TOL:
            problems.append(f"row {i}: ensemble differs from the reference by {err:.3g}")

    targets = gtt.load(fixture / "test_y.gtt")
    pixel_acc = float(np.mean((mean > 0.5) == (targets > 0.5)))
    return problems, {"pixel_acc": pixel_acc, "accuracy": pixel_acc}


def _check_counts(fixture: Path, out: Path):
    problems = []
    report = json.loads((out / "counts.json").read_text())
    maps = gtt.load(fixture / "synth" / "targets.gtt")
    truth = gtt.load(fixture / "synth" / "counts.gtt").reshape(-1)
    counts = [r["count"] for r in report["counts"]]
    if [r["row"] for r in report["counts"]] != list(range(len(maps))):
        return ["counts.json rows are not 0..n-1"], {}
    for i, r in enumerate(report["counts"]):
        ref_count, ref_areas = reference.count(maps[i])
        if (r["count"], r["areas"]) != (ref_count, ref_areas):
            problems.append(f"map {i}: counted {r['count']}, reference {ref_count} (or areas differ)")
    mae = float(np.mean(np.abs(np.asarray(counts, dtype=np.float64) - truth)))
    if report.get("mae") != mae:
        problems.append(f"reported mae {report.get('mae')} != {mae}")
    return problems, {"count_mae": mae, "accuracy": 1.0 - mae / float(truth.mean())}
