import argparse
import ast
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gtta
from gtta import predictor
from gtta.cli import _build_parser, main
from gtta.ensemble import BLOCK_ROWS
from gtta.errors import ShapeError
from gtta.segcount import count as count_components, erode, label_components
from gtta.synthdata import BlobImagesSpec, BlobsSpec, TabularSpec
from gtta.tensorio import (
    content_hash, dumps_tensor, load_container, load_tensor, save_container, save_tensor,
)

SRC = Path(gtta.__file__).resolve().parents[1]


def run(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# Commands on the pipeline's files, with {root} its directory and {tmp} the
# test's, which holds a copy of the model.
PREDICT = ["predict", "--model", "{tmp}/model.gtt", "--subspace", "{root}/subspace.gtt",
           "--input", "{root}/test_x.gtt"]
DISTILL = ["distill", "--student", "{tmp}/model.gtt", "--subspace", "{root}/subspace.gtt",
           "--labeled", "{root}/train_x.gtt", "--labeled-targets", "{root}/train_y.gtt",
           "--unlabeled", "{root}/unlabeled_x.gtt", "--epochs", "1"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> fit -> train -> predict -> distill -> count, all through the CLI."""
    root = tmp_path_factory.mktemp("pipeline")
    spec = root / "images.json"
    spec.write_text(json.dumps({
        "n_images": 40, "height": 12, "width": 12, "blobs_min": 1, "blobs_max": 2,
        "radius_min": 3.0, "radius_max": 4.0, "boundary_noise": 0.2,
        "input_noise": 0.05, "seed": 5,
    }))
    data_dir = root / "data"
    assert run("synth", "images", "--spec", str(spec), "--out", str(data_dir)) == 0

    # split tensors for the later stages
    inputs = load_tensor(data_dir / "inputs.gtt")
    targets = load_tensor(data_dir / "targets.gtt")
    save_tensor(inputs[:24], root / "train_x.gtt")
    save_tensor(targets[:24], root / "train_y.gtt")
    save_tensor(inputs[24:32], root / "unlabeled_x.gtt")
    save_tensor(inputs[32:], root / "test_x.gtt")
    save_tensor(targets[32:], root / "test_y.gtt")

    sub = root / "subspace.gtt"
    assert run("fit", "--data", str(root / "train_x.gtt"), "--retain", "0.99",
               "--out", str(sub)) == 0

    model = root / "model.gtt"
    assert run("train", "--data", str(root / "train_x.gtt"),
               "--targets", str(root / "train_y.gtt"),
               "--task", "segmentation",
               "--hidden", "32", "--epochs", "40", "--lr", "0.5",
               "--seed", "3", "--out", str(model)) == 0
    # A regression model of the blob counts, for the commands on real-valued targets.
    assert run("train", "--data", str(data_dir / "inputs.gtt"),
               "--targets", str(data_dir / "counts.gtt"), "--task", "regression",
               "--hidden", "4", "--epochs", "1", "--seed", "3",
               "--out", str(root / "regression.gtt")) == 0

    pred_dir = root / "pred"
    assert run("predict", "--model", str(model), "--subspace", str(sub),
               "--input", str(root / "test_x.gtt"), "--strategy", "constant",
               "--sigma", "0.05", "--n", "8", "--seed", "9",
               "--out", str(pred_dir)) == 0

    distill_dir = root / "distilled"
    assert run("distill", "--student", str(model), "--subspace", str(sub),
               "--labeled", str(root / "train_x.gtt"),
               "--labeled-targets", str(root / "train_y.gtt"),
               "--unlabeled", str(root / "unlabeled_x.gtt"),
               "--strategy", "constant", "--sigma", "0.05", "--n", "8",
               "--lambda", "0.5", "--epochs", "10", "--lr", "0.3",
               "--seed", "4", "--out", str(distill_dir)) == 0

    count_dir = root / "counts"
    assert run("count", "--input", str(pred_dir / "mean.gtt"),
               "--threshold", "0.5", "--elem", "3", "--min-area", "2",
               "--out", str(count_dir)) == 0
    return root


def test_pipeline_artifacts_exist(pipeline):
    assert (pipeline / "pred" / "mean.gtt").exists()
    assert (pipeline / "pred" / "std.gtt").exists()
    assert (pipeline / "pred" / "results.json").exists()
    assert (pipeline / "distilled" / "distilled.gtt").exists()
    report = read_json(pipeline / "counts" / "counts.json")
    assert len(report["counts"]) == 8


def test_provenance_hash_chain(pipeline):
    pred_prov = read_json(pipeline / "pred" / "provenance.json")
    count_prov = read_json(pipeline / "counts" / "provenance.json")
    # the counting stage consumed exactly the mean map the predict stage wrote
    mean_path = str(pipeline / "pred" / "mean.gtt")
    assert pred_prov["outputs"][mean_path] == count_prov["inputs"][mean_path]
    # and the predict stage consumed the subspace the fit stage wrote
    fit_prov = read_json(pipeline / "subspace.gtt.provenance.json")
    sub_path = str(pipeline / "subspace.gtt")
    assert fit_prov["outputs"][sub_path] == pred_prov["inputs"][sub_path]
    # which was fitted to the rows the distill stage took as labeled
    train_x = str(pipeline / "train_x.gtt")
    assert fit_prov["inputs"] == {train_x: content_hash(train_x)}
    # the distill stage consumed the model the train stage wrote
    train_prov = read_json(pipeline / "model.gtt.provenance.json")
    distill_prov = read_json(pipeline / "distilled" / "provenance.json")
    model_path = str(pipeline / "model.gtt")
    assert train_prov["outputs"][model_path] == distill_prov["inputs"][model_path]
    assert distill_prov["inputs"][train_x] == fit_prov["inputs"][train_x]


def test_provenance_lists_every_file_read_and_written(pipeline):
    pred = read_json(pipeline / "pred" / "provenance.json")
    assert set(pred["inputs"]) == {str(pipeline / name) for name in (
        "test_x.gtt", "subspace.gtt", "model.gtt", "model.gtt.json")}
    for stage in ("pred", "distilled", "counts"):
        prov = read_json(pipeline / stage / "provenance.json")
        written = {str(p) for p in (pipeline / stage).iterdir() if p.name != "provenance.json"}
        assert set(prov["outputs"]) == written, stage


def test_predict_record_fields(pipeline):
    records = read_json(pipeline / "pred" / "results.json")
    rec = records[0]
    assert {"mean_prediction", "std_min", "std_mean", "std_max",
            "chosen_sigma", "ensemble_size", "strategy"} <= set(rec)
    assert rec["strategy"] == "constant"
    assert rec["ensemble_size"] == 8


def test_rerun_from_provenance_is_byte_identical(pipeline, tmp_path):
    prov = pipeline / "pred" / "provenance.json"
    out2 = tmp_path / "pred2"
    assert run("predict", "--config", str(prov), "--out", str(out2)) == 0
    for name in ("mean.gtt", "std.gtt", "results.json"):
        a = content_hash(pipeline / "pred" / name)
        b = content_hash(out2 / name)
        assert a == b, name


def test_threads_do_not_change_bytes(pipeline, tmp_path):
    prov = pipeline / "pred" / "provenance.json"
    outs = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}"
        assert run("predict", "--config", str(prov), "--threads", threads,
                   "--out", str(out)) == 0
        outs.append(out)
    for name in ("mean.gtt", "std.gtt"):
        assert content_hash(outs[0] / name) == content_hash(outs[1] / name)


def test_zero_sigma_single_candidate_matches_model(tmp_path):
    # Full-rank subspace (n > d), where the zero-noise ensemble must
    # reproduce the plain model output bit for bit.
    from gtta.data import OutputKind
    from gtta.predictor import MlpModel, save_model
    from gtta.rng import RngStream
    from gtta.subspace import fit, save_subspace

    gen = RngStream(0).generator()
    X = gen.standard_normal((40, 12))
    save_tensor(X[:6], tmp_path / "x.gtt")
    save_subspace(fit(X, "all"), tmp_path / "s.gtt")
    model = MlpModel([12, 8, 2], OutputKind.probabilities(2), RngStream(1))
    save_model(model, tmp_path / "m.gtt")
    out = tmp_path / "base"
    assert run("predict", "--model", str(tmp_path / "m.gtt"),
               "--subspace", str(tmp_path / "s.gtt"),
               "--input", str(tmp_path / "x.gtt"),
               "--sigma", "0", "--n", "1", "--seed", "0",
               "--out", str(out)) == 0
    mean = load_tensor(out / "mean.gtt")
    for i in range(6):
        assert np.array_equal(mean[i], model.predict(X[i : i + 1])[0])
    assert not load_tensor(out / "std.gtt").any()


def test_predict_through_rank_one_gram_fit_stays_at_data_scale(tmp_path, model_child):
    # Six rank-1 rows with d = 40 > 4n, a wide fit: "all" keeps four dead
    # components, whose rows must not blow the reconstruction up.
    X = np.ones((6, 40))
    X[:3] += np.arange(40)
    x = np.random.default_rng(0).standard_normal((4, 40))
    save_tensor(X, tmp_path / "fit.gtt")
    save_tensor(x, tmp_path / "x.gtt")
    assert run("fit", "--data", str(tmp_path / "fit.gtt"), "--retain", "all",
               "--out", str(tmp_path / "s.gtt")) == 0
    assert run("predict", "--model-cmd", model_child().cmd, "--output-kind", "real",
               "--subspace", str(tmp_path / "s.gtt"), "--input", str(tmp_path / "x.gtt"),
               "--sigma", "0", "--n", "1", "--out", str(tmp_path / "o")) == 0
    center = X.mean(axis=0)
    mean = load_tensor(tmp_path / "o" / "mean.gtt")  # the echo model returns each candidate
    assert np.all(np.linalg.norm(mean - center, axis=1) <= np.linalg.norm(x - center, axis=1))


def test_gram_fit_of_tiny_ratios_loads(tmp_path):
    # 8 rows of rank 3 plus 1e-5 noise with d = 100 > 4n, a wide fit: "all"
    # keeps four components of ratio about 5e-12, whose rows must still be
    # orthonormal for the subspace to load.
    from gtta.data import OutputKind
    from gtta.predictor import MlpModel, save_model
    from gtta.rng import RngStream

    gen = np.random.default_rng(0)
    X = gen.standard_normal((8, 3)) @ gen.standard_normal((3, 100))
    save_tensor(X + 1e-5 * gen.standard_normal((8, 100)), tmp_path / "x.gtt")
    save_model(MlpModel([100, 4, 1], OutputKind.real_values(), RngStream(1)), tmp_path / "m.gtt")
    assert run("fit", "--data", str(tmp_path / "x.gtt"), "--retain", "all",
               "--out", str(tmp_path / "s.gtt")) == 0
    assert run("predict", "--model", str(tmp_path / "m.gtt"), "--subspace", str(tmp_path / "s.gtt"),
               "--input", str(tmp_path / "x.gtt"), "--n", "2", "--out", str(tmp_path / "o")) == 0


def test_auto_sigma_runs(pipeline, tmp_path):
    out = tmp_path / "auto"
    assert run("auto-sigma", "--model", str(pipeline / "model.gtt"),
               "--subspace", str(pipeline / "subspace.gtt"),
               "--input", str(pipeline / "test_x.gtt"),
               "--strategy", "constant", "--grid", "0,0.05,0.1",
               "--n", "6", "--seed", "2", "--out", str(out)) == 0
    records = read_json(out / "results.json")
    grid = {0.0, 0.05, 0.1}
    assert all(rec["chosen_sigma"] in grid for rec in records)


def test_analyze_spectrum_cli(pipeline, tmp_path):
    out = tmp_path / "spec"
    assert run("analyze", "spectrum", "--subspace", str(pipeline / "subspace.gtt"),
               "--data", str(pipeline / "test_x.gtt"), "--sigma", "0.1",
               "--n", "50", "--equal-sigma", "0.2", "--baseline", "global_jitter",
               "--seed", "1", "--out", str(out)) == 0
    report = read_json(out / "report.json")
    assert len(report["eigenvalues"]) > 0


def test_analyze_reports_are_rerun_identical(pipeline, tmp_path):
    args = ["analyze", "spectrum", "--subspace", str(pipeline / "subspace.gtt"),
            "--data", str(pipeline / "test_x.gtt"), "--sigma", "0.1",
            "--n", "40", "--seed", "6"]
    outs = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert run(*args, "--out", str(out)) == 0
        outs.append(out)
    assert content_hash(outs[0] / "report.json") == content_hash(outs[1] / "report.json")


def test_commands_do_not_mutate_inputs(pipeline, tmp_path):
    model = pipeline / "model.gtt"
    sub = pipeline / "subspace.gtt"
    inp = pipeline / "test_x.gtt"
    before = {p: content_hash(p) for p in (model, sub, inp)}
    assert run("predict", "--model", str(model), "--subspace", str(sub),
               "--input", str(inp), "--sigma", "0.1", "--n", "4",
               "--out", str(tmp_path / "o")) == 0
    assert {p: content_hash(p) for p in before} == before


@pytest.mark.parametrize("width, shape", [(1, (8,)), (2, (8, 2))])
def test_real_valued_model_cmd_replies_keep_their_layout(pipeline, tmp_path, model_child, width,
                                                        shape):
    # One value per row is laid out as [B], wider replies as [B, k].
    out = tmp_path / "o"
    assert run("predict", "--model-cmd", model_child(f"dumps_tensor(x[:, :{width}])").cmd,
               "--output-kind", "real", "--subspace", str(pipeline / "subspace.gtt"),
               "--input", str(pipeline / "test_x.gtt"), "--n", "2", "--out", str(out)) == 0
    assert load_tensor(out / "mean.gtt").shape == shape
    assert load_tensor(out / "std.gtt").shape == shape


def test_subprocess_predictor_through_cli(pipeline, tmp_path, model_child):
    echo = model_child().cmd
    out = tmp_path / "echo"
    assert run("predict", "--model-cmd", echo, "--output-kind", "real",
               "--subspace", str(pipeline / "subspace.gtt"),
               "--input", str(pipeline / "test_x.gtt"),
               "--sigma", "0.02", "--n", "4", "--seed", "1",
               "--out", str(out)) == 0
    mean = load_tensor(out / "mean.gtt")
    rows = load_tensor(pipeline / "test_x.gtt")
    assert mean.shape == rows.shape  # identity predictor averages candidates


def test_count_with_truth_reports_mae(pipeline, tmp_path):
    truth = tmp_path / "truth.gtt"
    report = read_json(pipeline / "counts" / "counts.json")
    counts = np.array([r["count"] for r in report["counts"]], dtype=np.float64)
    save_tensor(counts[:, None], truth)
    out = tmp_path / "mae"
    assert run("count", "--input", str(pipeline / "pred" / "mean.gtt"),
               "--threshold", "0.5", "--min-area", "2", "--truth", str(truth),
               "--out", str(out)) == 0
    assert read_json(out / "counts.json")["mae"] == 0.0


# Small maps with many blobs that overlap and have noisy boundaries: erosion
# splits and removes blobs, and the min-area filter drops the specks it leaves.
GOLDEN_MAP_SPEC = {"n_images": 6, "height": 40, "width": 48, "blobs_min": 8, "blobs_max": 14,
                   "radius_min": 1.5, "radius_max": 5.0, "gap": 1.0, "overlap": 0.4,
                   "boundary_noise": 0.25, "seed": 7}
GOLDEN_COUNTS_SHA256 = {
    8: "3b55551d2f7534c0216808341f1d443001684c164efc334ff09849c29d1592da",
    4: "347d1d5276574388861b66bd14960a5a664b9f54d94fe145b7f872cfc9124a2a",
}


@pytest.fixture(scope="module")
def golden_maps(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    (root / "golden.json").write_text(json.dumps(GOLDEN_MAP_SPEC))  # synth writes its own spec.json
    assert run("synth", "images", "--spec", str(root / "golden.json"), "--out", str(root)) == 0
    return root


def test_golden_maps_exercise_erosion_and_min_area(golden_maps):
    vanished = dropped = 0
    for prob in load_tensor(golden_maps / "targets.gtt"):
        blobs, k, _ = label_components(prob > 0.5)
        eroded = erode(prob > 0.5, 3, 1)
        vanished += k - np.unique(blobs[eroded]).size  # blobs with no pixel left
        dropped += label_components(eroded)[1] - count_components(prob, 0.5, 3, 1).count
    assert vanished > 0 and dropped > 0


@pytest.mark.parametrize("connectivity", [8, 4])
def test_count_output_is_pinned(golden_maps, tmp_path, connectivity):
    # The areas are listed in label order, so this pins the component numbering too.
    out = tmp_path / "c"
    assert run("count", "--input", str(golden_maps / "targets.gtt"),
               "--truth", str(golden_maps / "counts.gtt"),
               "--connectivity", str(connectivity), "--out", str(out)) == 0
    digest = hashlib.sha256((out / "counts.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_COUNTS_SHA256[connectivity]


# Blobs as large as the image allows (min(H, W) == 2 * radius_max + 3) that
# may overlap almost entirely.
EDGE_MAP_SPEC = {"n_images": 8, "height": 13, "width": 17, "blobs_min": 1, "blobs_max": 4,
                 "radius_min": 3.0, "radius_max": 5.0, "overlap": 0.9, "boundary_noise": 0.3,
                 "seed": 2}
# SHA-256 of the arrays `synth images` writes for the golden maps and for
# EDGE_MAP_SPEC. A change to the generator that claims to move no fixture
# byte must leave them as they are.
GOLDEN_SYNTH_SHA256 = {
    "golden": {
        "inputs.gtt": "3971a80ff80258031d7c267744bebcfcf514a6d93bd5ece511c67d42b61309c8",
        "targets.gtt": "eebfb31113bc7cf6f4a5ba1ca130fee0fe35a23c8d12d84633f8115450fd1b09",
        "instances.gtt": "6dd70ed7b30d13779b429c2760566babedcd2c66fe70c7f4bd8c1464818cd4e2",
        "counts.gtt": "28e6151e0a7370f604ae3de5c56a480875ec2e3aa167977ad41ed7d261ed1282",
    },
    "edge": {
        "inputs.gtt": "40c81b6fddd5d7dac6e7d100741881427731eb8b4a24f7701137c8ac599a80a2",
        "targets.gtt": "46f6586c0c311e35e36679bc9bd16b8dfd9d1783e330d039e88b4dc0ef0e6b9e",
        "instances.gtt": "84f3c0773e90eb6712e2dfcbf74d05669e98db6e8c0019182605def4be62c60a",
        "counts.gtt": "bc967bf676eccad46ff212d90389e38dc6113aad6348312800b96e19f0b3689f",
    },
}


def test_synth_images_output_is_pinned(golden_maps, tmp_path):
    (tmp_path / "edge.json").write_text(json.dumps(EDGE_MAP_SPEC))
    assert run("synth", "images", "--spec", str(tmp_path / "edge.json"),
               "--out", str(tmp_path / "edge")) == 0
    for name, directory in (("golden", golden_maps), ("edge", tmp_path / "edge")):
        pinned = GOLDEN_SYNTH_SHA256[name]
        assert _digests(directory, *pinned) == pinned, name


# SHA-256 of mean.gtt, std.gtt and results.json per ensemble command on the
# golden ensemble fixture. A change that claims to move no output byte must
# leave them as they are. They hold for one numpy and BLAS build (numpy 2.4,
# OpenBLAS 0.3.31, x86-64); another build may round the GEMMs differently.
GOLDEN_ENSEMBLE_SHA256 = {
    "predict": {
        "mean.gtt": "41897cd2e4f6c9b78c3b2c33239e7ad55eca402717b1328410206fc20b229d67",
        "std.gtt": "1dee3fdb839cee7448fbe61d296ffe738729ee462044a5d20da5021c4a31e303",
        "results.json": "b518dd5b66a86e82f3d1b29200ba3754bdeabaf044f50086250dbdb16a78c0ee",
    },
    "auto-sigma": {
        "mean.gtt": "2642a827e8f87c7475abcbd1397a59cf342ec507f4078683a43445b8916d9917",
        "std.gtt": "5e961ed591837160d849ee6f6c2a3e86fd470d56d4b3d14f313bd210090ad38f",
        "results.json": "69c3cc3d11e9b8fe0d0cf21fcab933e76fdd04bc233e10dbf933b06e8cb93db6",
    },
    "auto-sigma-clamp": {
        "mean.gtt": "3bed09eefce2f093d07a68008999e6aa5c865e38064a7a6b1a81dbe2563dc9e0",
        "std.gtt": "8d7fb903b347428e39e7cb5acf0ecc1aa60fc7055c3827cb94bd464371601d3f",
        "results.json": "1784847c3ab70c09fc6482c770974586cb950dc560e988c1863923fb5769ab46",
    },
    "predict-quiet": {
        "mean.gtt": "352385a48c517724a61eecdc6383d057a60315c3077e7fc06ff8fe800fa32732",
        "std.gtt": "7ecf624d4451b3e8fce369fe63b6735a5f31144b06f25afbe6a7be960a96e631",
        "results.json": "e6758f3b33bd6ea44b8211a428e8c4305bac8ff76abaf7d72871349cdb8020d2",
    },
    "predict-incremental": {
        "mean.gtt": "98ff466a4a55edf2027e4066b7bd24650c327681ad09ad6a6565ba5d2be8a3e3",
        "std.gtt": "232cec4e2b397867cee95605bb0bd6025ec0a3a2ad30cc2a0cae313a21aabd23",
        "results.json": "0b8360903423e5dc04cec90d7f6491dff2db995f3f778c6c8ea3f36a6805d2a3",
    },
    "predict-clamp": {
        "mean.gtt": "7688a96997dc228d70b703ed58cd99dd9cb6f765deb699d05970a2193948d3f9",
        "std.gtt": "3b395bf09a18e4234b8a4d55118cfcc87f0ffea861eb319725bee6e884cefed4",
        "results.json": "f59a81fed2a834be013f765e90fef854ce31ab49fd1b3158d9a4ecb9abc3baea",
    },
    "auto-sigma-incremental-cap": {
        "mean.gtt": "de2272e37ef46394a066cf2381cfce8e0fcfd60d74a586c5f35532de9849d707",
        "std.gtt": "84779b5763bb91c96db28ff8b162db53835ede0ad9bb290b4a5f51456eba933a",
        "results.json": "2f2913a9a31c0c2ee836f0fa107c1c9490ff21c132a0fe6a1bf873cd6c4d497c",
    },
}
GOLDEN_ENSEMBLE_COMMANDS = {
    "predict": ["predict", "--sigma", "0.1"],
    "auto-sigma": ["auto-sigma"],
    "auto-sigma-clamp": ["auto-sigma", "--clamp", "0,1"],
    # The subspace projects, so the rows' one reconstruction each goes to the
    # model in one call per block.
    "predict-quiet": ["predict", "--sigma", "0"],
    # Candidate 1 gets no noise and still goes through the folded layer.
    "predict-incremental": ["predict", "--sigma", "0.1", "--strategy", "incremental"],
    # One schedule in input space.
    "predict-clamp": ["predict", "--sigma", "0.1", "--clamp", "0,1"],
    "auto-sigma-incremental-cap": ["auto-sigma", "--strategy", "incremental",
                                   "--sigma-cap", "0.5"],
}


@pytest.fixture(scope="module")
def golden_ensemble(tmp_path_factory):
    """A small segmentation model and subspace, and the rows the ensembles run on."""
    root = tmp_path_factory.mktemp("golden_ensemble")
    (root / "spec.json").write_text(json.dumps({
        "n_images": 48, "height": 12, "width": 12, "blobs_min": 1, "blobs_max": 3,
        "radius_min": 2.0, "radius_max": 4.0, "boundary_noise": 0.2, "input_noise": 0.05,
        "seed": 11,
    }))
    assert run("synth", "images", "--spec", str(root / "spec.json"), "--out", str(root / "synth")) == 0
    inputs = load_tensor(root / "synth" / "inputs.gtt")
    save_tensor(inputs[:36], root / "train_x.gtt")
    save_tensor(load_tensor(root / "synth" / "targets.gtt")[:36], root / "train_y.gtt")
    save_tensor(inputs[36:], root / "test_x.gtt")
    assert run("fit", "--data", str(root / "train_x.gtt"), "--retain", "0.99",
               "--out", str(root / "subspace.gtt")) == 0
    assert run("train", "--data", str(root / "train_x.gtt"), "--targets", str(root / "train_y.gtt"),
               "--task", "segmentation", "--hidden", "16", "--epochs", "10", "--lr", "0.5",
               "--seed", "12", "--out", str(root / "model.gtt")) == 0
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN_ENSEMBLE_COMMANDS))
def test_ensemble_output_is_pinned(golden_ensemble, tmp_path, name):
    # 12 rows span two engine blocks. The default grid starts at a quiet
    # point, which wins some rows under --clamp; --clamp also takes the
    # input-space path instead of the folded layer.
    out = tmp_path / name
    assert run(*GOLDEN_ENSEMBLE_COMMANDS[name], "--model", str(golden_ensemble / "model.gtt"),
               "--subspace", str(golden_ensemble / "subspace.gtt"),
               "--input", str(golden_ensemble / "test_x.gtt"), "--n", "6", "--seed", "13",
               "--out", str(out)) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in ("mean.gtt", "std.gtt", "results.json")}
    assert digests == GOLDEN_ENSEMBLE_SHA256[name]


# SHA-256 of the subspace file `fit` writes, for the golden ensemble's 36x144
# rows (d = 4n) and for 30 tall rows of rank 3 whose seven trailing components
# are dead. Same build caveat as above.
GOLDEN_FIT_SHA256 = {
    "golden-0.99": "09007f35e965e17f931ce0bdfe5759268392792e2853e85670d5d8d2de6426fc",
    "golden-all": "72d33bf6aade6fd449c64890d993f93668b020022a66f147ecdbcff14a872b54",
    "rank3-all": "f3d69545d2bf6d0b75197fa0fa0d325ff214b2a11db375a61d4c1a895abb2359",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FIT_SHA256))
def test_fit_output_is_pinned(golden_ensemble, tmp_path, name):
    data, retain = name.rsplit("-", 1)
    if data == "golden":
        rows = golden_ensemble / "train_x.gtt"
    else:
        gen = np.random.default_rng(0)
        rows = tmp_path / "x.gtt"
        save_tensor(gen.standard_normal((30, 3)) @ gen.standard_normal((3, 10)), rows)
    assert run("fit", "--data", str(rows), "--retain", retain, "--out", str(tmp_path / "s.gtt")) == 0
    assert hashlib.sha256((tmp_path / "s.gtt").read_bytes()).hexdigest() == GOLDEN_FIT_SHA256[name]


def _digests(directory: Path, *names) -> dict:
    return {f: hashlib.sha256((directory / f).read_bytes()).hexdigest() for f in names}


# SHA-256 of the model and loss curve `train` writes for each task, and of
# what `distill` writes from the golden ensemble's model. A change to the
# training loop that claims to move no output byte must leave them as they
# are. Same build caveat as above.
GOLDEN_TRAIN_SHA256 = {
    "segmentation": {
        "model.gtt": "1f99513ebbda21e585c74fd26682c1b6dc86be9b4f25b6dc7649ba47d0f0f33d",
        "model.gtt.losses.json": "74b15d3d517d9b59a749749aaff1d029f125b8de3c39ab40028d8317549203ec",
    },
    "classification": {
        "model.gtt": "6854bea0548be5e9814a1a4d464a6b016caf41da1b520a730ddd80ec49b9d159",
        "model.gtt.losses.json": "eeba0263cd06850e06ce75bad7111c953c43ac25c9cb970ecb8e23234458d132",
    },
    "regression": {
        "model.gtt": "e66c2183322cacb278fd7d5453b4ce4dc96dc8e4374e7a54eb1306a861fe4997",
        "model.gtt.losses.json": "d5595d12ad863578f75acaa9fb3087d6f5a88e57f9bb0b82cdfb0cb5453b0432",
    },
    "distill": {
        "distilled.gtt": "f8727b90d894cfda48cd47d9041a137f2f47331c18ea118ba585e1dc7f12b90f",
        "pseudolabels.gtt": "be1a2095e6563fd9d49a87b0a8dfe8fdf7ba46b6fb68f4f44d2d563986835657",
        "report.json": "234d41d1c7c7d107e44083e62e71621745f74009b8db1c9197114bb630f26a89",
    },
}
GOLDEN_TRAIN_ARGS = {
    # The golden ensemble's rows, trained with momentum as the benchmark trains.
    "segmentation": ["--task", "segmentation", "--hidden", "16", "--epochs", "10", "--lr", "1",
                     "--momentum", "0.9"],
    "classification": ["--task", "classification", "--classes", "2", "--hidden", "8",
                       "--epochs", "5", "--lr", "0.1", "--batch-size", "16"],
    "regression": ["--task", "regression", "--hidden", "8", "--epochs", "5", "--lr", "0.01",
                   "--batch-size", "16"],
}


@pytest.mark.parametrize("task", sorted(GOLDEN_TRAIN_ARGS))
def test_train_output_is_pinned(golden_ensemble, tmp_path, task):
    if task == "segmentation":
        data, targets = golden_ensemble / "train_x.gtt", golden_ensemble / "train_y.gtt"
    else:
        kind, split = ("blobs", "") if task == "classification" else ("tabular", "train_")
        (tmp_path / "spec.json").write_text(json.dumps({"n": 60, "seed": 3}))
        assert run("synth", kind, "--spec", str(tmp_path / "spec.json"),
                   "--out", str(tmp_path / "synth")) == 0
        data, targets = (tmp_path / "synth" / f"{split}{f}.gtt" for f in ("inputs", "targets"))
    assert run("train", "--data", str(data), "--targets", str(targets), *GOLDEN_TRAIN_ARGS[task],
               "--seed", "14", "--out", str(tmp_path / "model.gtt")) == 0
    assert (_digests(tmp_path, "model.gtt", "model.gtt.losses.json")
            == GOLDEN_TRAIN_SHA256[task])


def test_distill_output_is_pinned(golden_ensemble, tmp_path):
    # 36 labeled rows make two minibatches an epoch; the 12 unlabeled rows
    # make one, so the pseudo-label term reshuffles within every epoch.
    out = tmp_path / "d"
    assert run("distill", "--student", str(golden_ensemble / "model.gtt"),
               "--subspace", str(golden_ensemble / "subspace.gtt"),
               "--labeled", str(golden_ensemble / "train_x.gtt"),
               "--labeled-targets", str(golden_ensemble / "train_y.gtt"),
               "--unlabeled", str(golden_ensemble / "test_x.gtt"), "--n", "6",
               "--epochs", "3", "--lr", "0.3", "--seed", "13", "--out", str(out)) == 0
    assert (_digests(out, "distilled.gtt", "pseudolabels.gtt", "report.json")
            == GOLDEN_TRAIN_SHA256["distill"])


@pytest.fixture(scope="module")
def confident_model(tmp_path_factory):
    """A segmentation model trained with momentum: confident at sigma 0, lost under large noise."""
    root = tmp_path_factory.mktemp("confident_model")
    (root / "spec.json").write_text(json.dumps({"n_images": 80, "height": 12, "width": 12,
                                                "seed": 3}))
    assert run("synth", "images", "--spec", str(root / "spec.json"),
               "--out", str(root / "synth")) == 0
    inputs = load_tensor(root / "synth" / "inputs.gtt")
    save_tensor(inputs[:53], root / "train_x.gtt")
    save_tensor(load_tensor(root / "synth" / "targets.gtt")[:53], root / "train_y.gtt")
    save_tensor(inputs[53:], root / "test_x.gtt")
    assert run("fit", "--data", str(root / "train_x.gtt"), "--retain", "0.99",
               "--out", str(root / "subspace.gtt")) == 0
    assert run("train", "--data", str(root / "train_x.gtt"),
               "--targets", str(root / "train_y.gtt"),
               "--task", "segmentation", "--hidden", "32", "--epochs", "40", "--lr", "1.0",
               "--momentum", "0.9", "--batch-size", "32", "--seed", "3",
               "--out", str(root / "model.gtt")) == 0
    return root


def test_auto_sigma_stops_hopeless_points_without_moving_a_byte(confident_model, tmp_path,
                                                                 monkeypatch):
    # Some rows pick the small noisy sigma, and in some blocks the first half
    # of a large sigma's candidates already shows that it cannot win a row.
    # Each row's result is still the unpruned one: the argmax of its scores
    # over grid_means, then the plain ensemble at the chosen sigma.
    from gtta.ensemble import grid_means, run_gtta
    from gtta.perturb import NoiseSchedule
    from gtta.predictor import MlpModel, load_model
    from gtta.rng import RngStream
    from gtta.subspace import load_subspace

    root, grid, n = confident_model, (0.0, 0.005, 0.5, 1.0, 2.0), 8
    X = load_tensor(root / "test_x.gtt")
    model_rows = []
    predict = MlpModel.predict
    monkeypatch.setattr(MlpModel, "predict",
                        lambda self, batch: model_rows.append(len(batch)) or predict(self, batch))
    out = tmp_path / "a"
    assert run("auto-sigma", "--model", str(root / "model.gtt"),
               "--subspace", str(root / "subspace.gtt"),
               "--input", str(root / "test_x.gtt"), "--grid", ",".join(map(str, grid)),
               "--n", str(n), "--seed", "13", "--out", str(out)) == 0
    monkeypatch.setattr(MlpModel, "predict", predict)
    noisy = (len(grid) - 1) * len(X)
    assert len(X) + noisy * n // 2 < sum(model_rows) < len(X) + noisy * n

    model, s = load_model(root / "model.gtt"), load_subspace(root / "subspace.gtt")
    scheds = [NoiseSchedule("constant", sigma, n) for sigma in grid]
    streams = RngStream(13, 0).rows(len(X))
    scores = [np.count_nonzero((m > 0.8) | (m < 0.2), axis=(1, 2))  # the default cutoff, 0.8
              for m in grid_means(model, s, scheds, X, streams)]
    pick = np.argmax(scores, axis=0)  # the first best, so ties go to the smaller sigma
    assert 0 < np.count_nonzero(pick) < len(X)
    plain = [run_gtta(model, s, sched, X, streams) for sched in scheds]
    rows = np.arange(len(X))
    mean = np.stack([plain[g].mean_prediction[i] for i, g in zip(rows, pick)])
    std = np.stack([plain[g].std_map[i] for i, g in zip(rows, pick)])
    assert (out / "mean.gtt").read_bytes() == dumps_tensor(mean)
    assert (out / "std.gtt").read_bytes() == dumps_tensor(std)
    assert [r["chosen_sigma"] for r in read_json(out / "results.json")] == [grid[g] for g in pick]


@pytest.mark.parametrize("argv", [
    ["auto-sigma", "--threshold", "nan"], ["auto-sigma", "--threshold", "2"],
    ["auto-sigma", "--threshold", "-1"], ["auto-sigma", "--threshold", "0.3"],
    ["auto-sigma", "--threshold", "0.5"], ["auto-sigma", "--threshold", "1"],
    ["predict", "--sigma", "nan"], ["predict", "--sigma", "inf"],
    ["auto-sigma", "--grid", "nan"], ["auto-sigma", "--grid", "0,inf"],
    ["auto-sigma", "--sigma-cap", "nan"], ["predict", "--sigma-cap", "inf"],
    ["predict", "--clamp", "0.9,0.1"], ["predict", "--clamp", "nan,1"],
    ["predict", "--clamp", "0,inf"],
], ids=" ".join)
def test_values_without_meaning_are_param_errors(pipeline, tmp_path, capsys, argv):
    # A threshold outside (0.5, 1) or a reversed --clamp once exited 0 with
    # meaningless outputs; a non-finite sigma, cap or clamp bound ended in an
    # error that blamed the model's outputs.
    out = tmp_path / "o"
    assert run(*argv, "--model", str(pipeline / "model.gtt"), "--subspace",
               str(pipeline / "subspace.gtt"), "--input", str(pipeline / "test_x.gtt"),
               "--n", "2", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParamError") and err.count("\n") == 1
    assert not out.exists()


TRAIN = ["train", "--data", "{root}/train_x.gtt", "--targets", "{root}/train_y.gtt",
         "--task", "segmentation", "--hidden", "4", "--epochs", "1"]
SPECTRUM = ["analyze", "spectrum", "--subspace", "{root}/subspace.gtt", "--data", "{root}/test_x.gtt"]


@pytest.mark.parametrize("argv", [
    [*TRAIN, "--batch-size", "0"], [*TRAIN, "--batch-size", "-4"], [*TRAIN, "--epochs", "-1"],
    [*TRAIN, "--momentum", "-2"], [*TRAIN, "--momentum", "1"], [*TRAIN, "--lr", "nan"],
    [*TRAIN, "--hidden", "x"], [*TRAIN, "--hidden", "0"], [*TRAIN, "--hidden", "-3"],
    [*DISTILL, "--batch-size", "0"], [*DISTILL, "--batch-size", "-4"],
    [*DISTILL, "--epochs", "-1"], [*DISTILL, "--lr", "nan"],
    [*TRAIN, "--batch-size", "0", "--epochs", "0"], [*DISTILL, "--batch-size", "0", "--epochs", "0"],
    [*SPECTRUM, "--equal-sigma", "nan"], [*SPECTRUM, "--equal-sigma", "-1"],
], ids=lambda argv: " ".join([argv[0], *argv[-2:]]))
def test_training_values_without_meaning_are_param_errors(pipeline, tmp_path, capsys, argv):
    # These once ended in a numpy traceback, blamed a diverged run, or exited
    # 0 having trained nothing, or on a NaN loss curve.
    (tmp_path / "model.gtt").write_bytes((pipeline / "model.gtt").read_bytes())
    (tmp_path / "model.gtt.json").write_bytes((pipeline / "model.gtt.json").read_bytes())
    out = tmp_path / "o"
    assert run(*[a.format(root=pipeline, tmp=tmp_path) for a in argv], "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParamError") and err.count("\n") == 1
    assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("epochs", ["1", "0"])
@pytest.mark.parametrize("option, shape", [("--labeled", (24, 100)),
                                           ("--labeled-targets", (24, 6, 6))],
                         ids=["rows", "targets"])
def test_distill_refuses_labeled_data_that_does_not_fit_the_student(pipeline, tmp_path, capsys,
                                                                    option, shape, epochs):
    # Rows too wide once ended in a numpy traceback; at --epochs 0 both
    # exited 0 with every artifact written.
    (tmp_path / "model.gtt").write_bytes((pipeline / "model.gtt").read_bytes())
    (tmp_path / "model.gtt.json").write_bytes((pipeline / "model.gtt.json").read_bytes())
    save_tensor(np.zeros(shape), tmp_path / "bad.gtt")
    argv = [a.format(root=pipeline, tmp=tmp_path) for a in DISTILL]
    argv[argv.index(option) + 1] = str(tmp_path / "bad.gtt")
    out = tmp_path / "o"
    assert run(*argv, "--epochs", epochs, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ShapeError") and err.count("\n") == 1
    assert not out.exists()


# Values for each training option: small valid ones, 0, negatives, NaN,
# infinities, huge values and non-numbers. A huge --epochs or --hidden is
# spelled as a float, which they refuse; as an integer it would run or
# allocate without bound.
_NOT_MEANINGFUL = ["0", "-1", "-2.5", "nan", "inf", "-inf", "x", ""]
FUZZED_VALUES = {
    "--epochs": ["1", "3", "1e9", *_NOT_MEANINGFUL],
    "--lr": ["0.05", "0.5", "1e6", "1e308", *_NOT_MEANINGFUL],
    "--batch-size": ["1", "5", str(10 ** 12), *_NOT_MEANINGFUL],
    "--momentum": ["0.5", "0.9", "1e308", *_NOT_MEANINGFUL],
    "--lambda": ["0.25", "1", "1e308", *_NOT_MEANINGFUL],
    "--hidden": ["3", "4,2", "1e9", *_NOT_MEANINGFUL],
}
FUZZED_COMMANDS = {
    "train": (TRAIN, ["--epochs", "--lr", "--batch-size", "--momentum", "--hidden"]),
    "distill": (DISTILL, ["--epochs", "--lr", "--batch-size", "--lambda"]),
}


@st.composite
def _training_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZED_COMMANDS)))
    options = draw(st.lists(st.sampled_from(FUZZED_COMMANDS[command][1]), unique=True))
    return command, [(flag, draw(st.sampled_from(FUZZED_VALUES[flag]))) for flag in options]


@settings(max_examples=60, deadline=None)
@given(drawn=_training_argv())
@example(drawn=("train", [("--lr", "1e308"), ("--batch-size", "5"), ("--hidden", "4,2"),
                          ("--epochs", "3")]))
@example(drawn=("distill", [("--lr", "1e308"), ("--epochs", "3")]))
def test_training_commands_end_in_one_error_line_or_succeed(pipeline, drawn):
    # A diverging run once printed numpy's overflow warnings, one line each,
    # before its error line.
    command, options = drawn
    base, _ = FUZZED_COMMANDS[command]
    argv = [a.format(root=pipeline, tmp=pipeline) for a in base]
    argv += [a for option in options for a in option]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = Path(tmp) / "o"
        try:
            code = run(*argv, "--out", str(out))
        except SystemExit as exc:  # argparse
            code = exc.code
        wrote = sorted(p.name for p in Path(tmp).iterdir())
    message = err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2), message
    if code == 1:
        assert message.startswith("error: ") and message.count("\n") == 1, message
    if code:
        assert not wrote, wrote


def test_training_whose_weights_overflow_has_diverged(tmp_path, capsys):
    # The loss stayed finite while the weights reached 1e307, so this run once
    # exited 0 and wrote a model that overflowed when it predicted.
    (tmp_path / "spec.json").write_text(json.dumps({"n_images": 24, "height": 12, "width": 12}))
    assert run("synth", "images", "--spec", str(tmp_path / "spec.json"), "--seed", "5",
               "--out", str(tmp_path / "d")) == 0
    capsys.readouterr()
    out = tmp_path / "m" / "model.gtt"
    assert run("train", "--data", str(tmp_path / "d" / "inputs.gtt"),
               "--targets", str(tmp_path / "d" / "targets.gtt"), "--task", "segmentation",
               "--hidden", "3", "--epochs", "3", "--lr", "1e308", "--batch-size", "1",
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: TrainingDivergedError") and err.count("\n") == 1, err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("shape", [(5,), (2, 3, 4, 4)], ids=["1-D", "4-D"])
def test_count_rejects_input_that_is_not_maps(tmp_path, capsys, shape):
    save_tensor(np.zeros(shape), tmp_path / "x.gtt")
    assert run("count", "--input", str(tmp_path / "x.gtt"), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DataError") and err.count("\n") == 1
    assert "[H,W] or [n,H,W]" in err
    assert not (tmp_path / "o").exists()


def test_count_of_one_hw_map_is_that_of_its_one_map_stack(golden_maps, tmp_path):
    maps = load_tensor(golden_maps / "targets.gtt")
    save_tensor(maps[0], tmp_path / "hw.gtt")
    save_tensor(maps[:1], tmp_path / "stack.gtt")
    for name in ("hw", "stack"):
        assert run("count", "--input", str(tmp_path / f"{name}.gtt"), "--elem", "3",
                   "--min-area", "4", "--out", str(tmp_path / name)) == 0
    counts = (tmp_path / "hw" / "counts.json").read_bytes()
    assert counts == (tmp_path / "stack" / "counts.json").read_bytes()
    assert json.loads(counts)["counts"][0]["count"] > 0


def _without_ranges(pipeline, tmp, child):
    sections = dict(load_container(pipeline / "subspace.gtt"))
    del sections["ranges"]
    save_container(sections, tmp / "subspace.gtt")
    return ["predict", "--model", "{root}/model.gtt", "--subspace", "{tmp}/subspace.gtt",
            "--input", "{root}/test_x.gtt"]


def _unchained_model(pipeline, tmp, child):
    sections = dict(load_container(pipeline / "model.gtt"))
    sections["w1"] = np.ones((sections["w1"].shape[0] + 1, sections["w1"].shape[1]))
    save_container(sections, tmp / "model.gtt")
    (tmp / "model.gtt.json").write_bytes((pipeline / "model.gtt.json").read_bytes())
    return PREDICT


def _header_only(head):
    def write(pipeline, tmp, child):
        (tmp / "x.gtt").write_bytes(head)
        return ["count", "--input", "{tmp}/x.gtt"]
    return write


def _model_cmd(reply, kind):
    def write(pipeline, tmp, child):
        return ["predict", "--model-cmd", child(reply).cmd, "--output-kind", kind,
                "--subspace", "{root}/subspace.gtt", "--input", "{root}/test_x.gtt", "--n", "2"]
    return write


# Inputs that each fail at one check no other test reaches, and the error and
# message that check ends in.
FAILED_CHECKS = {
    "rows that do not sum to 1": (
        _model_cmd("dumps_tensor(np.full((len(x), 3), 0.5))", "probabilities:3"),
        "PredictorError", "class probabilities do not sum to 1"),
    "a real-valued reply of rank 3": (
        _model_cmd("dumps_tensor(x[:, :, None])", "real"),
        "PredictorError", "real values, got shape"),
    "weights that do not chain": (_unchained_model, "FormatError", "do not chain into layers"),
    "a subspace without ranges": (_without_ranges, "FormatError", "missing sections: ['ranges']"),
    "a header of rank 0": (_header_only(b"GTT1\x00\x00" + bytes(8)), "FormatError",
                           "rank 0 is not allowed"),
    "a zero dimension": (_header_only(b"GTT1\x00\x02" + struct.pack("<2Q", 3, 0)),
                         "FormatError", "zero-element dimension in shape (3, 0)"),
}


@pytest.mark.parametrize("case", FAILED_CHECKS)
def test_each_failed_check_ends_in_one_error_line(pipeline, tmp_path, model_child, case):
    write, error, message = FAILED_CHECKS[case]
    argv = [a.format(root=pipeline, tmp=tmp_path) for a in write(pipeline, tmp_path, model_child)]
    code, err, caught = _one_run([*argv, "--out", str(tmp_path / "o")])
    assert code == 1 and not caught, caught
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1, err
    assert message in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("option, value", [("--elem", "2"), ("--elem", "-3"), ("--elem", "0"),
                                           ("--min-area", "-3")])
def test_count_rejects_bad_parameters(pipeline, tmp_path, capsys, option, value):
    assert run("count", "--input", str(pipeline / "pred" / "mean.gtt"), option, value,
               "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParamError") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_count_accepts_zero_min_area(pipeline, tmp_path):
    assert run("count", "--input", str(pipeline / "pred" / "mean.gtt"), "--min-area", "0",
               "--out", str(tmp_path / "o")) == 0
    relaxed = read_json(tmp_path / "o" / "counts.json")["counts"]
    strict = read_json(pipeline / "counts" / "counts.json")["counts"]  # --min-area 2
    assert [[x for x in r["areas"] if x >= 2] for r in relaxed] == [r["areas"] for r in strict]


def test_count_huge_iteration_count_ends(golden_maps, tmp_path):
    # Erosion stops at its fixed point, at most max(H, W) + 1 = 49 passes here.
    common = ["count", "--input", str(golden_maps / "targets.gtt"), "--elem", "3"]
    assert run(*common, "--iters", "49", "--out", str(tmp_path / "a")) == 0
    start = time.perf_counter()
    assert run(*common, "--iters", "1000000000", "--out", str(tmp_path / "b")) == 0
    assert time.perf_counter() - start < 10.0
    assert content_hash(tmp_path / "a" / "counts.json") == content_hash(tmp_path / "b" / "counts.json")


@pytest.mark.parametrize("value", [7.0, -3.0])
def test_count_rejects_values_outside_unit_range(tmp_path, capsys, value):
    maps = np.zeros((2, 20, 20))
    maps[1, 5:15, 5:15] = value
    save_tensor(maps, tmp_path / "x.gtt")
    assert run("count", "--input", str(tmp_path / "x.gtt"), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DataError") and err.count("\n") == 1
    assert "[0, 1]" in err
    assert not (tmp_path / "o").exists()


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        run("predict", "--bogus-flag", "x")
    assert info.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv", [
    [*DISTILL, "--clamp", "nonsense"],
    ["analyze", "spectrum", "--subspace", "{root}/subspace.gtt", "--data", "{root}/test_x.gtt",
     "--clamp", "0,1"],
], ids=["distill", "analyze"])
def test_clamp_is_a_usage_error_where_nothing_reads_it(pipeline, tmp_path, capsys, argv):
    (tmp_path / "model.gtt").write_bytes((pipeline / "model.gtt").read_bytes())
    (tmp_path / "model.gtt.json").write_bytes((pipeline / "model.gtt.json").read_bytes())
    with pytest.raises(SystemExit) as info:
        run(*[a.format(root=pipeline, tmp=tmp_path) for a in argv], "--out", str(tmp_path / "o"))
    assert info.value.code == 2
    assert "unrecognized arguments: --clamp" in capsys.readouterr().err


# Every option of every subcommand, in declaration order: a new knob is a visible diff here.
OPTIONS = {
    "synth": "spec out config threads seed",
    "fit": "data retain header target_col out config threads seed",
    "train": "data targets target_col header task classes hidden epochs lr batch_size momentum "
             "out config threads seed",
    "predict": "model model_cmd output_kind subspace input strategy n sigma_cap sigma clamp "
               "out config threads seed",
    "auto-sigma": "model model_cmd output_kind subspace input strategy n sigma_cap grid threshold "
                  "clamp out config threads seed",
    "distill": "student subspace labeled labeled_targets unlabeled strategy n sigma_cap sigma "
               "lambda epochs lr batch_size out config threads seed",
    "count": "input threshold elem iters min_area connectivity truth out config threads seed",
    "analyze bias-variance": "model model_cmd output_kind subspace data targets strategy n "
                             "sigma_cap grid repeats out config threads seed",
    "analyze spectrum": "subspace data strategy n sigma_cap sigma baseline equal_sigma out config "
                        "threads seed",
    "analyze std-error": "model model_cmd output_kind subspace data targets strategy n sigma_cap "
                         "sigma out config threads seed",
    "analyze structured-noise": "data pattern strategy n sigma_cap sigma inject_fraction retain "
                                "out config threads seed",
}


def _subcommands(parser, prefix=""):
    """(name, parser) of every leaf subcommand, a nested one named after its parents."""
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in subs.choices.items():
        if any(isinstance(a, argparse._SubParsersAction) for a in p._actions):
            yield from _subcommands(p, f"{prefix}{name} ")
        else:
            yield prefix + name, p


def test_option_surface_is_pinned():
    assert {name: " ".join(a.dest for a in p._actions if a.option_strings and a.dest != "help")
            for name, p in _subcommands(_build_parser({}))} == OPTIONS


# One option that another experiment reads, given to each experiment.
FOREIGN = {
    "bias-variance": ["--model", "{root}/model.gtt", "--subspace", "{root}/subspace.gtt",
                      "--data", "{root}/test_x.gtt", "--targets", "{root}/test_y.gtt",
                      "--equal-sigma", "0.1"],
    "spectrum": ["--subspace", "{root}/subspace.gtt", "--data", "{root}/test_x.gtt",
                 "--inject-fraction", "9"],
    "std-error": ["--model", "{root}/model.gtt", "--subspace", "{root}/subspace.gtt",
                  "--data", "{root}/test_x.gtt", "--targets", "{root}/test_y.gtt",
                  "--repeats", "3"],
    "structured-noise": ["--data", "{root}/train_x.gtt", "--pattern", "{root}/test_x.gtt",
                         "--subspace", "{root}/subspace.gtt"],
}


@pytest.mark.parametrize("experiment", sorted(FOREIGN))
def test_analyze_experiment_refuses_options_it_does_not_read(pipeline, tmp_path, capsys,
                                                             experiment):
    argv = [a.format(root=pipeline) for a in FOREIGN[experiment]]
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as info:
        run("analyze", experiment, *argv, "--out", str(out))
    assert info.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    ([*PREDICT, "--var-floor", "1e-6"], "--var-floor"),
    (["fit", "--data", "{root}/train_x.gtt", "--range-data", "x"], "--range-data"),
    ([*DISTILL, "--hard-labels"], "--hard-labels"),
    ([*DISTILL, "--restart"], "--restart"),
    (["analyze", "std-error", "--model", "{tmp}/model.gtt", "--subspace", "{root}/subspace.gtt",
      "--data", "{root}/test_x.gtt", "--targets", "{root}/test_y.gtt", "--bins", "10"], "--bins"),
], ids=["var-floor", "range-data", "hard-labels", "restart", "bins"])
def test_retired_options_are_usage_errors(pipeline, tmp_path, capsys, argv, flag):
    (tmp_path / "model.gtt").write_bytes((pipeline / "model.gtt").read_bytes())
    (tmp_path / "model.gtt.json").write_bytes((pipeline / "model.gtt.json").read_bytes())
    with pytest.raises(SystemExit) as info:
        run(*[a.format(root=pipeline, tmp=tmp_path) for a in argv], "--out", str(tmp_path / "o"))
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("var_floor", 0.01), ("range_data", "x.gtt"), ("hard_labels", True), ("restart", True),
    ("bins", 5),
])
def test_config_setting_a_retired_option_is_refused(pipeline, tmp_path, capsys, key, value):
    prov = read_json(pipeline / "pred" / "provenance.json")
    prov["config"][key] = value
    (tmp_path / "old.json").write_text(json.dumps(prov))
    out = tmp_path / "o"
    assert run("predict", "--config", str(tmp_path / "old.json"), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParamError:") and err.count("\n") == 1
    assert not out.exists()


def test_config_with_a_retired_option_at_its_fixed_value_replays(pipeline, tmp_path):
    prov = read_json(pipeline / "pred" / "provenance.json")
    prov["config"]["var_floor"] = 1e-6
    (tmp_path / "old.json").write_text(json.dumps(prov))
    assert run("predict", "--config", str(tmp_path / "old.json"), "--out", str(tmp_path / "o")) == 0
    for name in ("mean.gtt", "std.gtt", "results.json"):
        assert content_hash(pipeline / "pred" / name) == content_hash(tmp_path / "o" / name), name


def _record(pipeline, tmp_path, command) -> dict:
    """A provenance record of ``command`` made on the pipeline's files."""
    if command == "analyze":
        assert run("analyze", "spectrum", "--subspace", str(pipeline / "subspace.gtt"),
                   "--data", str(pipeline / "test_x.gtt"), "--n", "4",
                   "--out", str(tmp_path / "spectrum")) == 0
        return read_json(tmp_path / "spectrum" / "provenance.json")
    if command == "auto-sigma":
        assert run("auto-sigma", "--model", str(pipeline / "model.gtt"),
                   "--subspace", str(pipeline / "subspace.gtt"),
                   "--input", str(pipeline / "test_x.gtt"), "--grid", "0,0.05", "--n", "4",
                   "--out", str(tmp_path / "auto")) == 0
        return read_json(tmp_path / "auto" / "provenance.json")
    return read_json(pipeline / {"predict": "pred", "distill": "distilled"}[command]
                     / "provenance.json")


@pytest.mark.parametrize("command, engine", [
    ("predict", None), ("predict", 1), ("predict", 2), ("auto-sigma", 2), ("distill", None),
    ("distill", 2), ("analyze", None), ("analyze", 2),
])
def test_config_of_another_engine_is_refused(pipeline, tmp_path, capsys, command, engine):
    prov = _record(pipeline, tmp_path, command)
    assert prov["engine"] == 3
    del prov["engine"]
    if engine is not None:
        prov["engine"] = engine
    (tmp_path / "old.json").write_text(json.dumps(prov))
    out = tmp_path / "o"
    argv = [command] + ([prov["config"]["experiment"]] if command == "analyze" else [])
    assert run(*argv, "--config", str(tmp_path / "old.json"), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParamError:") and err.count("\n") == 1
    assert f"engine {engine or 1}" in err and "engine 3" in err
    assert not out.exists()


@pytest.mark.parametrize("command, record, outputs", [
    ("fit", "subspace.gtt.provenance.json", ["subspace.gtt"]),
    ("count", "counts/provenance.json", ["counts/counts.json"]),
])
def test_config_of_a_command_the_engine_never_touched_replays(pipeline, tmp_path, command,
                                                              record, outputs):
    # fit and count never run the engine, so their records need no engine.
    prov = read_json(pipeline / record)
    del prov["engine"]
    (tmp_path / "old.json").write_text(json.dumps(prov))
    out = tmp_path / outputs[0].split("/")[0]
    assert run(command, "--config", str(tmp_path / "old.json"), "--out", str(out)) == 0
    for name in outputs:
        assert content_hash(pipeline / name) == content_hash(tmp_path / name), name


def test_hand_written_config_names_no_engine_and_replays(pipeline, tmp_path):
    config = read_json(pipeline / "pred" / "provenance.json")["config"]
    (tmp_path / "hand.json").write_text(json.dumps(config))
    assert run("predict", "--config", str(tmp_path / "hand.json"), "--out", str(tmp_path / "o")) == 0
    for name in ("mean.gtt", "std.gtt", "results.json"):
        assert content_hash(pipeline / "pred" / name) == content_hash(tmp_path / "o" / name), name


@pytest.mark.parametrize("argv", [
    ["analyze", "structured-noise", "--data", "{root}/train_x.gtt", "--pattern", "{tmp}/p.gtt",
     "--n", "0"],
    ["analyze", "spectrum", "--subspace", "{root}/subspace.gtt", "--data", "{root}/test_x.gtt",
     "--n", "1"],
    ["analyze", "spectrum", "--subspace", "{root}/subspace.gtt", "--data", "{root}/test_x.gtt",
     "--n", "0"],
], ids=["structured-noise-0", "spectrum-1", "spectrum-0"])
def test_ensemble_size_is_never_rewritten(pipeline, tmp_path, capsys, argv):
    save_tensor(np.ones(144), tmp_path / "p.gtt")
    out = tmp_path / "o"
    assert run(*[a.format(root=pipeline, tmp=tmp_path) for a in argv], "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParamError:") and err.count("\n") == 1


def test_bias_variance_honours_sigma_cap(pipeline, tmp_path):
    argv = ["analyze", "bias-variance", "--model", str(pipeline / "model.gtt"),
            "--subspace", str(pipeline / "subspace.gtt"), "--data", str(pipeline / "test_x.gtt"),
            "--targets", str(pipeline / "test_y.gtt"), "--grid", "0,0.1", "--n", "4",
            "--repeats", "2"]
    assert run(*argv, "--out", str(tmp_path / "free")) == 0
    assert run(*argv, "--sigma-cap", "1e-9", "--out", str(tmp_path / "capped")) == 0
    free, capped = (read_json(tmp_path / d / "report.json")["rows"] for d in ("free", "capped"))
    assert free[0] == capped[0]  # sigma 0 draws no noise either way
    assert capped[1]["variance"] < 1e-6 * free[1]["variance"]


def test_missing_model_is_runtime_error(pipeline, tmp_path, capsys):
    code = run("predict", "--model", str(tmp_path / "nope.gtt"),
               "--subspace", str(pipeline / "subspace.gtt"),
               "--input", str(pipeline / "test_x.gtt"),
               "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_synth_tabular_cli(tmp_path):
    spec = tmp_path / "tab.json"
    spec.write_text(json.dumps({"n": 50, "noise": 0.1, "seed": 2}))
    out = tmp_path / "tab"
    assert run("synth", "tabular", "--spec", str(spec), "--out", str(out)) == 0
    assert load_tensor(out / "train_inputs.gtt").shape == (30, 36)
    assert load_tensor(out / "test_targets.gtt").shape[0] == 10


def test_synth_blobs_cli(tmp_path):
    spec = tmp_path / "blobs.json"
    spec.write_text(json.dumps({"n": 30, "distractor_amplitude": 1.0, "seed": 4}))
    out = tmp_path / "blobs"
    assert run("synth", "blobs", "--spec", str(spec), "--out", str(out)) == 0
    assert load_tensor(out / "inputs.gtt").shape == (30, 16)
    assert (out / "pattern.gtt").exists()


@pytest.mark.parametrize("kind, spec", [
    ("tabular", {"dim": 0}), ("tabular", {"splits": [0.5]}), ("tabular", {"noise": -1}),
    ("blobs", {"dim": 0}), ("blobs", {"distractor_fractions": [0.5]}), ("blobs", {"n": 1.5}),
    ("blobs", {"n": True}), ("blobs", {"cluster_std": -1}),
    ("images", {"height": "x"}), ("images", {"seed": "abc"}), ("images", {"input_noise": -1}),
    ("images", {"boundary_noise": 2}),
    ("tabular", {"splits": [0.5, 0.5, 0], "n": 10}), ("tabular", {"splits": [0.7, 0.5, 0.2], "n": 10}),
    ("tabular", {"splits": [0, 0.5, 0.5], "n": 10}), ("tabular", {"splits": [0.6, 0.2, 0.2], "n": 3}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_synth_spec_field_out_of_type_or_range_is_param_error(tmp_path, capsys, kind, spec):
    # These once ended in a traceback, or exited 0 with a negative noise scale
    # or a flip probability of 2; splits that left a split empty ended in an
    # error about an empty tensor.
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "o"
    assert run("synth", kind, "--spec", str(tmp_path / "spec.json"), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParamError") and err.count("\n") == 1
    assert next(iter(spec)) in err
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    {"n_images": 2, "height": 24, "width": 24, "blobs_max": 10**12},
    {"n_images": 2, "height": 24, "width": 24, "overlap": 1.0},
], ids=["blobs_max", "overlap"])
def test_synth_spec_it_cannot_finish_is_refused_before_any_draw(tmp_path, capsys, spec):
    # The first once ran until it was killed: every blob that cannot be placed
    # costs its 200 attempts against every blob placed before it.
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "o"
    start = time.monotonic()
    assert run("synth", "images", "--spec", str(tmp_path / "spec.json"), "--out", str(out)) == 1
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParamError") and err.count("\n") == 1, err
    assert list(spec)[-1] in err
    assert not out.exists()


def test_fit_csv_with_header(tmp_path):
    csv = tmp_path / "d.csv"
    rows = ["a,b,c"] + [f"{i}.0,{i + 1}.0,{2 * i}.5" for i in range(8)]
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "s.gtt"
    assert run("fit", "--data", str(csv), "--header", "--retain", "all",
               "--out", str(out)) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "s.gtt", "s.gtt.provenance.json"]


def test_fit_drops_target_column(tmp_path):
    from gtta.subspace import load_subspace

    csv = tmp_path / "d.csv"
    csv.write_text("\n".join(f"{i}.0,{i + 1}.5,{9 * i}.0" for i in range(8)) + "\n")
    out = tmp_path / "s.gtt"
    assert run("fit", "--data", str(csv), "--target-col", "last",
               "--retain", "all", "--out", str(out)) == 0
    assert load_subspace(out).d == 2


@pytest.mark.parametrize("command, data", [("fit", "row.gtt"), ("fit", "one_column.csv"),
                                           ("train", "one_column.csv")])
def test_target_col_last_on_a_row_or_one_column_is_one_data_error(tmp_path, capsys,
                                                                   command, data):
    # fit once ended in an IndexError traceback on a 1-D tensor, which is one
    # row, and in numpy's "argmax of an empty sequence" one on a one-column table.
    save_tensor(np.arange(1.0, 7.0), tmp_path / "row.gtt")
    (tmp_path / "one_column.csv").write_text("".join(f"{i}.5\n" for i in range(6)))
    options = {"fit": [], "train": ["--task", "regression", "--hidden", "4", "--epochs", "1"]}
    out = tmp_path / "out.gtt"
    assert run(command, "--data", str(tmp_path / data), "--target-col", "last",
               *options[command], "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DataError") and err.count("\n") == 1, err
    assert not list(tmp_path.glob("out.gtt*"))


@pytest.mark.parametrize("command", ["predict", "auto-sigma"])
def test_input_rows_of_three_dimensions_are_one_data_error(pipeline, tmp_path, capsys, command):
    # A 3-D --input once reached the engine, which refused it as a ShapeError.
    save_tensor(load_tensor(pipeline / "test_x.gtt").reshape(8, 12, 12), tmp_path / "maps.gtt")
    out = tmp_path / "o"
    assert run(command, "--model", str(pipeline / "model.gtt"), "--subspace",
               str(pipeline / "subspace.gtt"), "--input", str(tmp_path / "maps.gtt"),
               "--n", "2", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DataError") and err.count("\n") == 1, err
    assert "(8, 12, 12)" in err
    assert not out.exists()


def test_distill_rerun_from_provenance_is_byte_identical(pipeline, tmp_path):
    out = tmp_path / "distill2"
    assert run("distill", "--config", str(pipeline / "distilled" / "provenance.json"),
               "--out", str(out)) == 0
    for name in ("pseudolabels.gtt", "distilled.gtt", "report.json"):
        assert content_hash(pipeline / "distilled" / name) == content_hash(out / name), name


def test_analyze_std_error_reads_kind_from_model(pipeline, tmp_path):
    out = tmp_path / "se"
    assert run("analyze", "std-error", "--model", str(pipeline / "model.gtt"),
               "--subspace", str(pipeline / "subspace.gtt"),
               "--data", str(pipeline / "test_x.gtt"),
               "--targets", str(pipeline / "test_y.gtt"),
               "--sigma", "0.05", "--n", "4", "--seed", "2", "--out", str(out)) == 0
    # every pixel of every [12, 12] map is one (std, error) pair
    assert read_json(out / "report.json")["n_elements"] == 8 * 12 * 12


@pytest.mark.parametrize("experiment, targets", [
    ("std-error", "counts"), ("std-error", (8, 144)), ("std-error", (8, 6, 12)),
    ("bias-variance", "counts"),
], ids=["std-error-counts", "std-error-flat", "std-error-6x12", "bias-variance-counts"])
def test_evaluation_targets_must_fit_the_model(pipeline, tmp_path, capsys, experiment, targets):
    # Each once ended in a numpy ValueError traceback; flat [n, H*W] maps are
    # the [n, H, W] maps laid out differently, so they give the same report.
    path = tmp_path / "y.gtt"
    if targets == "counts":
        save_tensor(load_tensor(pipeline / "data" / "counts.gtt")[32:], path)
    elif targets == (8, 144):
        save_tensor(load_tensor(pipeline / "test_y.gtt").reshape(targets), path)
    else:
        save_tensor(np.zeros(targets), path)
    noise = ["--grid", "0,0.1", "--repeats", "2"] if experiment == "bias-variance" else [
        "--sigma", "0.05"]
    argv = ["analyze", experiment, "--model", str(pipeline / "model.gtt"),
            "--subspace", str(pipeline / "subspace.gtt"), "--data", str(pipeline / "test_x.gtt"),
            "--n", "4", "--seed", "2", *noise]
    code = run(*argv, "--targets", str(path), "--out", str(tmp_path / "o"))
    if targets == (8, 144):
        assert code == 0
        assert run(*argv, "--targets", str(pipeline / "test_y.gtt"), "--out",
                   str(tmp_path / "maps")) == 0
        assert (tmp_path / "o" / "report.json").read_bytes() == (
            tmp_path / "maps" / "report.json").read_bytes()
        return
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ShapeError") and err.count("\n") == 1, err
    assert "(8, 12, 12)" in err
    assert not (tmp_path / "o").exists()


def _one_run(argv) -> tuple[int, str, list]:
    """Exit code, stderr and the warnings of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(*argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


# Commands that read a target file, on the pipeline's files, and the option
# that names the file. None of them writes the model, so {tmp} may be {root}.
STD_ERROR = ["analyze", "std-error", "--model", "{root}/model.gtt", "--subspace",
             "{root}/subspace.gtt", "--data", "{root}/test_x.gtt", "--targets",
             "{root}/test_y.gtt", "--sigma", "0.05", "--n", "2"]
BIAS_VARIANCE = ["analyze", "bias-variance", "--model", "{root}/model.gtt", "--subspace",
                 "{root}/subspace.gtt", "--data", "{root}/test_x.gtt", "--targets",
                 "{root}/test_y.gtt", "--grid", "0,0.1", "--repeats", "2", "--n", "2"]
TARGET_READERS = {
    "train": (TRAIN, "--targets"),
    "train-classes": (["train", "--data", "{root}/data/inputs.gtt", "--targets",
                       "{root}/data/counts.gtt", "--task", "classification", "--classes", "3",
                       "--hidden", "4", "--epochs", "1"], "--targets"),
    "distill": (DISTILL, "--labeled-targets"),
    "std-error": (STD_ERROR, "--targets"),
    "bias-variance": (BIAS_VARIANCE, "--targets"),
    "bias-variance-real": (["analyze", "bias-variance", "--model", "{root}/regression.gtt",
                            "--subspace", "{root}/subspace.gtt", "--data", "{root}/data/inputs.gtt",
                            "--targets", "{root}/data/counts.gtt", "--grid", "0,0.1",
                            "--repeats", "2", "--n", "2"], "--targets"),
}


def _with_targets(pipeline, command, targets) -> list:
    """The argv of a TARGET_READERS command whose target file is ``targets``."""
    argv, option = TARGET_READERS[command]
    argv = [a.format(root=pipeline, tmp=pipeline) for a in argv]
    argv[argv.index(option) + 1] = str(targets)
    return argv


@pytest.mark.parametrize("value", [1e200, -0.5])
@pytest.mark.parametrize("command", ["train", "distill", "std-error", "bias-variance"])
def test_per_pixel_targets_outside_the_unit_range_are_refused(pipeline, tmp_path, command,
                                                              value):
    # Each once exited 0: training on the pixel, or reporting an infinite
    # error after numpy's overflow warnings.
    argv, option = TARGET_READERS[command]
    targets = load_tensor(Path(argv[argv.index(option) + 1].format(root=pipeline))).copy()
    targets[0, 5, 7] = value
    save_tensor(targets, tmp_path / "y.gtt")
    code, err, caught = _one_run([*_with_targets(pipeline, command, tmp_path / "y.gtt"),
                                  "--out", str(tmp_path / "o")])
    assert code == 1 and not caught, caught
    assert err.startswith("error: DataError: per-pixel targets must lie in [0, 1]"), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["per-pixel", "probabilities"])
@pytest.mark.parametrize("experiment", ["std-error", "bias-variance"])
def test_targets_that_do_not_fit_are_refused_before_the_model_runs(pipeline, tmp_path, monkeypatch,
                                                                   experiment, kind):
    # They were once refused only after the whole sweep.
    from gtta.data import one_hot
    from gtta.predictor import MlpModel

    counts = load_tensor(pipeline / "data" / "counts.gtt")
    argv = _with_targets(pipeline, experiment, tmp_path / "y.gtt")
    if kind == "per-pixel":
        save_tensor(counts[32:], tmp_path / "y.gtt")
    else:  # one-hot rows where a classifier's targets are class indices
        model = tmp_path / "classes.gtt"
        assert run(*_with_targets(pipeline, "train-classes", pipeline / "data" / "counts.gtt"),
                   "--out", str(model)) == 0
        argv[argv.index("--model") + 1] = str(model)
        save_tensor(one_hot(counts[32:, 0], 3), tmp_path / "y.gtt")
    calls = []
    predict = MlpModel.predict
    monkeypatch.setattr(MlpModel, "predict",
                        lambda self, batch: calls.append(len(batch)) or predict(self, batch))
    repeats = ["--repeats", "8"] if experiment == "bias-variance" else []
    code, err, caught = _one_run([*argv, *repeats, "--out", str(tmp_path / "o")])
    assert code == 1 and not caught, caught
    assert err.startswith("error: ShapeError") and err.count("\n") == 1, err
    assert calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_training_targets_with_two_values_a_row_name_their_shape(pipeline, tmp_path, capsys,
                                                                 task):
    # Two values a row were once flattened to twice the rows, and refused
    # as "targets first dimension 48 != n 24".
    save_tensor(np.eye(2)[np.arange(24) % 2], tmp_path / "y.gtt")
    classes = ["--classes", "2"] if task == "classification" else []
    assert run("train", "--data", str(pipeline / "train_x.gtt"), "--targets",
               str(tmp_path / "y.gtt"), "--task", task, *classes, "--hidden", "4",
               "--epochs", "1", "--out", str(tmp_path / "m.gtt")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ShapeError") and err.count("\n") == 1, err
    assert "(24, 2)" in err and "(24,)" in err
    assert not list(tmp_path.glob("m.gtt*"))


def test_train_takes_one_target_source(tmp_path, monkeypatch, capsys):
    # With --target-col last, --targets was once never read, whatever it held.
    from gtta import cli

    (tmp_path / "d.csv").write_text("".join(f"{i},{i + 1},{i % 2}\n" for i in range(4)))
    save_tensor(np.arange(12.0), tmp_path / "y.gtt")
    read = []
    monkeypatch.setattr(cli, "load_tensor",
                        lambda path, **kw: read.append(path) or load_tensor(path, **kw))
    assert run("train", "--data", str(tmp_path / "d.csv"), "--target-col", "last",
               "--targets", str(tmp_path / "y.gtt"), "--task", "regression", "--hidden", "4",
               "--epochs", "1", "--out", str(tmp_path / "m.gtt")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParamError") and err.count("\n") == 1, err
    assert "--targets" in err and "--target-col last" in err
    assert read == []
    assert not list(tmp_path.glob("m.gtt*"))


def test_bias_variance_whose_sums_would_overflow_reports_its_finite_error(pipeline, tmp_path):
    # A count target of -1e154 has a finite squared gap and a finite mean of
    # them, about 2.5e306, but their float64 sum overflowed, and the sweep was
    # refused as a DataError.
    targets = load_tensor(pipeline / "data" / "counts.gtt").copy()
    targets[0] = -1e154
    save_tensor(targets, tmp_path / "y.gtt")
    code, err, caught = _one_run([*_with_targets(pipeline, "bias-variance-real", tmp_path / "y.gtt"),
                                  "--out", str(tmp_path / "o")])
    assert code == 0 and err == "" and not caught, (err, caught)
    for row in read_json(tmp_path / "o" / "report.json")["rows"]:
        assert 2e306 < row["error"] < 3e306 and 2e306 < row["bias2"] < 3e306, row


def test_bias_variance_that_overflows_float64_is_one_error_line(tmp_path):
    # It once exited 0 after numpy's overflow warnings, reporting an
    # infinite bias2 and error.
    (tmp_path / "spec.json").write_text(json.dumps({"n": 60, "seed": 3}))
    assert run("synth", "tabular", "--spec", str(tmp_path / "spec.json"),
               "--out", str(tmp_path / "t")) == 0
    t = tmp_path / "t"
    targets = load_tensor(t / "test_targets.gtt").copy()
    targets[0] = 1e200
    save_tensor(targets, tmp_path / "y.gtt")
    assert run("fit", "--data", str(t / "train_inputs.gtt"), "--retain", "all",
               "--out", str(tmp_path / "s.gtt")) == 0
    assert run("train", "--data", str(t / "train_inputs.gtt"), "--targets",
               str(t / "train_targets.gtt"), "--task", "regression", "--hidden", "4",
               "--epochs", "5", "--lr", "0.01", "--out", str(tmp_path / "m.gtt")) == 0
    code, err, caught = _one_run([
        "analyze", "bias-variance", "--model", str(tmp_path / "m.gtt"), "--subspace",
        str(tmp_path / "s.gtt"), "--data", str(t / "test_inputs.gtt"), "--targets",
        str(tmp_path / "y.gtt"), "--grid", "0,0.1", "--repeats", "2", "--n", "3",
        "--out", str(tmp_path / "o")])
    assert code == 1 and not caught, caught
    assert err.startswith("error: DataError") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()
    # Training on the same targets has diverged, as it did before.
    code, err, caught = _one_run([
        "train", "--data", str(t / "test_inputs.gtt"), "--targets", str(tmp_path / "y.gtt"),
        "--task", "regression", "--hidden", "4", "--epochs", "1",
        "--out", str(tmp_path / "m2.gtt")])
    assert code == 1 and not caught, caught
    assert err.startswith("error: TrainingDivergedError") and err.count("\n") == 1, err
    assert not list(tmp_path.glob("m2.gtt*"))


@pytest.mark.parametrize("command", ["train", "train-classes", "std-error", "bias-variance"])
def test_commands_that_compare_with_targets_need_them(pipeline, tmp_path, capsys, command):
    # Training once failed on "dataset has no targets" after loading the
    # rows, or on a segmentation shape of None.
    argv, option = TARGET_READERS[command]
    at = argv.index(option)
    argv = [a.format(root=pipeline, tmp=pipeline) for a in argv[:at] + argv[at + 2:]]
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParamError: {argv[0]} needs --targets") and err.count("\n") == 1
    assert not list(tmp_path.glob("o*"))


# Command lines with a value that means nothing, and the start of the error
# line each ends in.
BAD_VALUES = [
    (["predict", "--model-cmd", "cat", "--output-kind", "per-pixel:abc"], "ParamError"),
    (["predict", "--model-cmd", "cat", "--output-kind", "probabilities:x"], "ParamError"),
    (["predict", "--model-cmd", "cat", "--output-kind", "probabilities:1"], "ParamError"),
    (["predict", "--model-cmd", "cat", "--output-kind", "per-pixel:0x4"], "ParamError"),
    (["predict", "--model", "{root}/model.gtt", "--clamp", "1"], "ParamError"),
    (["predict", "--model", "{root}/model.gtt", "--clamp", "a,b"], "ParamError"),
    (["auto-sigma", "--model", "{root}/model.gtt", "--grid", "a,b"], "ParamError"),
    (["fit", "--data", "{root}/train_x.gtt", "--retain", "abc"], "ParamError"),
    (["predict", "--config", "{tmp}/missing.json"], "IoError"),
    (["train", "--data", "{root}/train_x.gtt", "--targets", "{root}/train_y.gtt",
      "--task", "classification"], "ParamError"),
    (["train", "--data", "{root}/train_x.gtt", "--targets", "{tmp}/flat_y.gtt",
      "--task", "segmentation"], "ParamError"),
    (["synth", "images", "--spec", "{tmp}/tiny.json"], "ParamError"),
    (["predict", "--model-cmd", "'unterminated", "--output-kind", "real"], "ParamError"),
    (["predict", "--config", "{tmp}/unsplittable.json"], "ParamError"),
    (["predict", "--model-cmd", "   ", "--output-kind", "real"],
     "ParamError: --model-cmd '   ' names no command\n"),
    (["predict", "--config", "{tmp}/blank.json"],
     "ParamError: --model-cmd '   ' names no command\n"),
]


def _bad_value_argv(pipeline, tmp_path, argv) -> list:
    """``argv`` on the pipeline's files, with the files it names in ``tmp_path`` written."""
    save_tensor(np.zeros(24), tmp_path / "flat_y.gtt")
    (tmp_path / "tiny.json").write_text(json.dumps({"height": 8, "width": 8}))
    (tmp_path / "unsplittable.json").write_text(json.dumps({"model_cmd": "'unterminated",
                                                            "output_kind": "real"}))
    (tmp_path / "blank.json").write_text(json.dumps({"model_cmd": "   ", "output_kind": "real"}))
    if argv[0] in ("predict", "auto-sigma"):
        argv = argv + ["--subspace", "{root}/subspace.gtt", "--input", "{root}/test_x.gtt"]
    return [a.format(root=pipeline, tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "o")]


@pytest.mark.parametrize("argv, error", BAD_VALUES,
                         ids=[f"argv{i}" for i in range(len(BAD_VALUES))])
def test_bad_values_end_in_error_line(pipeline, tmp_path, argv, error):
    code, err, caught = _one_run(_bad_value_argv(pipeline, tmp_path, argv))
    assert code == 1 and not caught, caught
    assert err.startswith(f"error: {error}") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


def test_the_cli_module_runs_as_a_program(pipeline, tmp_path):
    # The one bad value run in a fresh interpreter, through cli.py's __main__ guard.
    argv = _bad_value_argv(pipeline, tmp_path, BAD_VALUES[1][0])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "gtta.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ParamError: cannot parse output kind 'probabilities:x'")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_subspace_shape_mismatch_is_format_error(pipeline, tmp_path, capsys):
    from gtta.subspace import load_subspace, save_subspace

    s = load_subspace(pipeline / "subspace.gtt")
    bad = tmp_path / "narrow.gtt"
    save_subspace(dataclasses.replace(s, components=s.components[:, :-4]), bad)
    assert run("predict", "--model", str(pipeline / "model.gtt"), "--subspace", str(bad),
               "--input", str(pipeline / "test_x.gtt"), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err.startswith("error: FormatError:")


def _predict_on(pipeline, sub, out) -> tuple[int, str]:
    """Exit code and stderr of a small ``predict`` through the subspace ``sub``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run("predict", "--model", str(pipeline / "model.gtt"), "--subspace", str(sub),
                   "--input", str(pipeline / "test_x.gtt"), "--n", "2", "--out", str(out))
    return code, err.getvalue()


@pytest.mark.parametrize("edit", [
    lambda t: {"variance_ratios": np.r_[7.0, t["variance_ratios"][1:]]},
    lambda t: {"components": 3 * t["components"]},
    lambda t: {"ranges": -t["ranges"]},
    lambda t: {"variance_ratios": t["variance_ratios"][::-1].copy()},
    lambda t: {"components": np.r_[np.zeros((1, t["components"].shape[1])), t["components"][1:]]},
    lambda t: {"components": np.r_[[np.r_[1e200, t["components"][0, 1:]]], t["components"][1:]]},
], ids=["ratio-7", "components-x3", "ranges-negated", "ratios-increase", "live-row-zero",
        "component-1e200"])
def test_subspace_breaking_its_invariants_is_format_error(pipeline, tmp_path, edit):
    # A component of 1e200 once printed numpy's overflow warning before the error line.
    sections = load_container(pipeline / "subspace.gtt")
    save_container(sections | edit(sections), tmp_path / "s.gtt")
    code, err = _predict_on(pipeline, tmp_path / "s.gtt", tmp_path / "o")
    assert code == 1
    assert err.startswith("error: FormatError:") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_stale_subspace_sidecar_is_ignored(pipeline, tmp_path):
    # Older versions wrote <subspace>.json beside the subspace; it is neither read nor recorded.
    sub = tmp_path / "subspace.gtt"
    sub.write_bytes((pipeline / "subspace.gtt").read_bytes())
    (tmp_path / "subspace.gtt.json").write_text('{"d": 7, "n_u": 1, "fit_fingerprint": [1]}')
    assert run("predict", "--config", str(pipeline / "pred" / "provenance.json"),
               "--subspace", str(sub), "--out", str(tmp_path / "o")) == 0
    assert set(read_json(tmp_path / "o" / "provenance.json")["inputs"]) == {
        str(sub), *(str(pipeline / name) for name in ("test_x.gtt", "model.gtt", "model.gtt.json"))}
    for name in ("mean.gtt", "std.gtt", "results.json"):
        assert content_hash(tmp_path / "o" / name) == content_hash(pipeline / "pred" / name), name


# Edits of a fitted subspace file that keep (True) or break (False) one invariant each.
SUBSPACE_EDITS = {
    "ratios": {True: [None, ("first", 1 + 1e-12), ("last", 0.0)],
               False: [("first", 7.0), ("first", 1 + 1e-6), ("last", -1e-9), ("reverse", None)]},
    "ranges": {True: [None, 0.0, 5.0], False: [-1e-12, -1.0]},
    "scale": {True: [1.0, 1 + 1e-8], False: [1 + 1e-5, 0.5, 3.0, 0.0]},  # of every component row
    "shear": {True: [0.0, 1e-8], False: [1e-3]},  # share of row 0 added to row 1
}


@settings(max_examples=50, deadline=5000)
@given(data=st.data())
def test_predict_accepts_exactly_the_subspaces_that_keep_the_invariants(pipeline, data):
    broken = data.draw(st.sets(st.sampled_from(sorted(SUBSPACE_EDITS))), label="broken")
    edit = {name: data.draw(st.sampled_from(choices[name not in broken]), label=name)
            for name, choices in SUBSPACE_EDITS.items()}
    t = load_container(pipeline / "subspace.gtt")
    ratios, ranges, comps = t["variance_ratios"].copy(), t["ranges"].copy(), t["components"].copy()
    if edit["ratios"] is not None:
        where, value = edit["ratios"]
        if where == "reverse":
            ratios = ratios[::-1].copy()
        else:
            ratios[0 if where == "first" else -1] = value
    if edit["ranges"] is not None:
        ranges[data.draw(st.integers(0, len(ranges) - 1), label="range_at")] = edit["ranges"]
    comps[1] += edit["shear"] * comps[0]
    comps *= edit["scale"]
    with tempfile.TemporaryDirectory() as tmp:
        save_container(t | {"variance_ratios": ratios, "ranges": ranges, "components": comps},
                       Path(tmp) / "s.gtt")
        code, err = _predict_on(pipeline, Path(tmp) / "s.gtt", Path(tmp) / "o")
    if broken:
        assert code == 1 and err.startswith("error: FormatError:") and err.count("\n") == 1, err
    else:
        assert code == 0, err


# The files a predict reads, and the byte offset of components[0, 0] in the
# pipeline's subspace.gtt: after the container header and the 144-wide mean section.
CORRUPTED_FILES = ["model.gtt", "model.gtt.json", "subspace.gtt", "test_x.gtt"]
_COMPONENT_00 = 8 + (2 + 4 + 6 + 8 + 8 * 144) + (2 + 10 + 6 + 16)
_OFFSETS = st.one_of(st.integers(0, 64), st.integers(0, 1 << 20))  # headers often
# A file cut at an offset, or up to three of its bytes overwritten.
_DAMAGE = st.one_of(
    st.tuples(st.just("cut"), _OFFSETS),
    st.tuples(st.just("flip"), st.lists(st.tuples(_OFFSETS, st.integers(0, 255)),
                                        min_size=1, max_size=3)))


def _damage(path: Path, kind: str, how) -> None:
    """Cut the file at ``path`` or overwrite some of its bytes, as ``_DAMAGE`` draws."""
    blob = bytearray(path.read_bytes())
    if kind == "cut":
        blob = blob[: how % len(blob)]
    for pos, byte in how if kind == "flip" else ():
        blob[pos % len(blob)] = byte
    path.write_bytes(bytes(blob))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(CORRUPTED_FILES), damage=_DAMAGE)
@example(name="subspace.gtt",  # a component near 1e200, whose Gram overflows
         damage=("flip", [(_COMPONENT_00 + 7, 0x69), (_COMPONENT_00 + 6, 0x74)]))
@example(name="test_x.gtt",  # rank 231: payload floats read as dimensions name 10**4300 bytes
         damage=("flip", [(5, 231)]))
def test_predict_on_corrupted_files_ends_in_one_error_line_or_succeeds(pipeline, name, damage):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for file in CORRUPTED_FILES:
            (tmp / file).write_bytes((pipeline / file).read_bytes())
        _damage(tmp / name, *damage)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("predict", "--model", str(tmp / "model.gtt"), "--subspace",
                       str(tmp / "subspace.gtt"), "--input", str(tmp / "test_x.gtt"),
                       "--n", "2", "--out", str(tmp / "o"))
        wrote = (tmp / "o").exists()
    message = err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1), message
    if code:
        assert message.startswith("error: ") and message.count("\n") == 1, message
        assert not wrote


# How a target file is made hostile: values out of range or not integers
# at one element, or the values of the file in a shape that does not fit.
# ±1e154 squares to just below float64's largest value; 1e200 and 1e308
# square past it.
_HOSTILE_VALUES = [-1e200, -1e154, -1.0, -0.5, 0.5, 1.5, 2.0, 3.0, 1e154, 1e200, 1e308]
_RESHAPED = {
    "drop-row": lambda t: t[:-1],
    "extra-value": lambda t: np.concatenate([t.reshape(len(t), -1), t.reshape(len(t), -1)[:, :1]],
                                            axis=1),
    "flat": lambda t: t.reshape(-1),
    "leading-axis": lambda t: t[None],
    "first-value-twice": lambda t: np.repeat(t.reshape(len(t), -1)[:, :1], 2, axis=1),
}


@settings(max_examples=100, deadline=10000)
@given(command=st.sampled_from(sorted(TARGET_READERS)),
       damage=st.one_of(
           _DAMAGE,
           st.tuples(st.just("value"), st.tuples(st.integers(0, 1 << 20),
                                                 st.sampled_from(_HOSTILE_VALUES))),
           st.tuples(st.just("shape"), st.sampled_from(sorted(_RESHAPED)))))
@example(command="std-error", damage=("value", (0, 1e200)))
@example(command="train-classes", damage=("value", (3, 1.5)))
@example(command="bias-variance", damage=("shape", "first-value-twice"))
@example(command="bias-variance-real", damage=("value", (0, 1e200)))
@example(command="bias-variance-real", damage=("value", (5, -1e154)))
def test_commands_on_hostile_targets_end_in_one_error_line_or_succeed(pipeline, command, damage):
    argv, option = TARGET_READERS[command]
    source = Path(argv[argv.index(option) + 1].format(root=pipeline))
    kind, how = damage
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if kind in ("cut", "flip"):
            (tmp / "y.gtt").write_bytes(source.read_bytes())
            _damage(tmp / "y.gtt", kind, how)
        else:
            targets = load_tensor(source).copy()
            if kind == "value":
                at, value = how
                targets.flat[at % targets.size] = value
            else:
                targets = _RESHAPED[how](targets)
            save_tensor(targets, tmp / "y.gtt")
        code, message, caught = _one_run([*_with_targets(pipeline, command, tmp / "y.gtt"),
                                          "--out", str(tmp / "o")])
        wrote = (tmp / "o").exists() or (tmp / "o.losses.json").exists()
    assert not caught, caught
    assert code in (0, 1), message
    if code:
        assert message.startswith("error: ") and message.count("\n") == 1, message
        assert not wrote


@pytest.mark.parametrize("prefix", ["", "./"])
def test_command_may_not_overwrite_a_file_it_read(pipeline, tmp_path, monkeypatch, capsys, prefix):
    monkeypatch.chdir(tmp_path)
    loop = tmp_path / "loop"
    loop.mkdir()
    (loop / "mean.gtt").write_bytes((pipeline / "test_x.gtt").read_bytes())
    assert run("predict", "--model", str(pipeline / "model.gtt"),
               "--subspace", str(pipeline / "subspace.gtt"), "--input", f"{prefix}loop/mean.gtt",
               "--n", "2", "--out", "loop") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParamError: loop/mean.gtt was read") and err.count("\n") == 1
    assert sorted(p.name for p in loop.iterdir()) == ["mean.gtt"]
    assert (loop / "mean.gtt").read_bytes() == (pipeline / "test_x.gtt").read_bytes()


@pytest.mark.parametrize("name, content, argv", [
    ("model.gtt.json", "{bad", PREDICT),
    ("model.gtt.json", "{}", PREDICT),
    ("model.gtt.json", {"image_shape": [10, 10]}, PREDICT),        # the head is 144 wide
    ("model.gtt.json", {"kind": "probabilities", "num_classes": 3}, PREDICT),
    ("model.gtt.json", {"layer_sizes": [144, 32, 144, 2]}, PREDICT),  # names a third layer
    ("model.gtt.json", {"layer_sizes": [144, 9, 144]}, DISTILL),      # weights are 144x32
    ("spec.json", "{bad", ["synth", "images", "--spec", "{tmp}/spec.json"]),
    ("spec.json", "[1]", ["synth", "images", "--spec", "{tmp}/spec.json"]),
    ("config.json", "[1]", PREDICT + ["--config", "{tmp}/config.json"]),
], ids=["model-not-json", "model-empty", "model-image-shape", "model-num-classes",
        "model-third-layer", "model-hidden-width", "spec-not-json", "spec-list", "config-list"])
def test_bad_json_files_end_in_one_error_line(pipeline, tmp_path, capsys, name, content, argv):
    (tmp_path / "model.gtt").write_bytes((pipeline / "model.gtt").read_bytes())
    (tmp_path / "model.gtt.json").write_bytes((pipeline / "model.gtt.json").read_bytes())
    if isinstance(content, dict):
        content = json.dumps(read_json(pipeline / "model.gtt.json") | content)
    (tmp_path / name).write_text(content)
    out = tmp_path / "o"
    assert run(*[a.format(root=pipeline, tmp=tmp_path) for a in argv], "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError:") and err.count("\n") == 1
    assert not out.exists()


def test_container_with_a_non_utf8_name_is_format_error(pipeline, tmp_path, capsys):
    blob = bytearray((pipeline / "model.gtt").read_bytes())
    blob[10] = 0xFF  # first byte of the first section name, after magic, count and length
    model = tmp_path / "model.gtt"
    model.write_bytes(bytes(blob))
    (tmp_path / "model.gtt.json").write_bytes((pipeline / "model.gtt.json").read_bytes())
    assert run("predict", "--model", str(model), "--subspace", str(pipeline / "subspace.gtt"),
               "--input", str(pipeline / "test_x.gtt"), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err.startswith("error: FormatError:")


def test_config_from_another_command_is_rejected(pipeline, tmp_path, capsys):
    assert run("count", "--config", str(pipeline / "pred" / "provenance.json"),
               "--input", str(pipeline / "pred" / "mean.gtt"),
               "--out", str(tmp_path / "c")) == 1
    assert capsys.readouterr().err.startswith("error: ParamError:")
    assert not (tmp_path / "c").exists()


def test_config_from_another_experiment_is_rejected(pipeline, tmp_path, capsys):
    prov = _record(pipeline, tmp_path, "analyze")
    assert run("analyze", "std-error", "--config", str(tmp_path / "spectrum" / "provenance.json"),
               "--model", str(pipeline / "model.gtt"), "--targets", str(pipeline / "test_y.gtt"),
               "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParamError:") and "analyze spectrum run, not analyze std-error" in err
    assert prov["command"] == "analyze spectrum" and not (tmp_path / "o").exists()


BENCH = SRC.parent / "bench"


@pytest.fixture
def bench_tracer(monkeypatch):
    """The benchmark's tracer, installed on the package until the test ends.

    ``spans.install`` wraps each call site with a plain ``setattr``; routing
    those through ``monkeypatch`` undoes every one at teardown. A call site
    that no longer exists makes ``install`` raise ``LookupError``.
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing into bench/
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    monkeypatch.setattr(spans, "setattr", monkeypatch.setattr, raising=False)
    tracer = spans.Tracer()
    spans.install(tracer)
    return tracer, spans, workloads


def test_bench_trace_sites_fire(pipeline, tmp_path, bench_tracer):
    # The benchmark traces layers by wrapping named call sites; a renamed or
    # inlined site must fail here, not only in a traced benchmark run. Its
    # fixture build, fit and train, must fire each workload's set-up spans.
    tracer, spans, workloads = bench_tracer

    def traced(argv):
        del tracer.spans[:]
        assert run(*argv) == 0, argv[0]
        return spans.summarize(tracer.spans)

    setup = traced(["fit", "--data", str(pipeline / "train_x.gtt"), "--out", str(tmp_path / "s.gtt")])
    setup.update(traced(["train", "--data", str(pipeline / "train_x.gtt"),
                         "--targets", str(pipeline / "train_y.gtt"), "--task", "segmentation",
                         "--hidden", "4", "--epochs", "1", "--out", str(tmp_path / "m.gtt")]))
    common = ["--subspace", str(pipeline / "subspace.gtt"), "--input", str(pipeline / "test_x.gtt"),
              "--n", "4", "--seed", "1"]
    child = f"{sys.executable} -B {BENCH / 'model_child.py'} 12x12"
    commands = [
        ("predict", ["predict", "--model", str(pipeline / "model.gtt"), "--sigma", "0.1",
                     *common, "--out", str(tmp_path / "p")]),
        ("auto_sigma", ["auto-sigma", "--model", str(pipeline / "model.gtt"), "--grid", "0,0.1",
                        *common, "--out", str(tmp_path / "a")]),
        ("external_model", ["predict", "--model-cmd", child, "--output-kind", "per-pixel:12x12",
                            "--sigma", "0.1", *common, "--out", str(tmp_path / "e")]),
        ("count", ["count", "--input", str(pipeline / "pred" / "mean.gtt"),
                   "--out", str(tmp_path / "c")]),
    ]
    for name, argv in commands:
        w = workloads.WORKLOADS[name]
        assert spans.missing_spans(traced(argv), w.spans) == [], name
        assert spans.missing_spans(setup, w.setup_spans) == [], name


def test_auto_sigma_agrees_with_the_bench_reference(golden_ensemble, tmp_path, monkeypatch):
    # The benchmark checks auto-sigma rows against bench/reference.py; an
    # engine change that moves a row's chosen sigma or leaves ENSEMBLE_TOL must
    # fail here too, not only in a benchmark run. On the golden ensemble's
    # projecting subspace this grid has quiet winners, whose reconstructions
    # go to the model in one call per block, and noisy ones.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing into bench/
    monkeypatch.syspath_prepend(str(BENCH))
    import reference

    root, grid, out = golden_ensemble, (0.0, 0.002, 0.01), tmp_path / "a"
    assert run("auto-sigma", "--model", str(root / "model.gtt"),
               "--subspace", str(root / "subspace.gtt"), "--input", str(root / "test_x.gtt"),
               "--grid", ",".join(map(str, grid)), "--n", "6", "--seed", "13",
               "--out", str(out)) == 0
    s, predict = reference.Subspace(root / "subspace.gtt"), reference.mlp(root / "model.gtt")
    assert s.components.shape[0] < s.components.shape[1]
    chosen = [r["chosen_sigma"] for r in read_json(out / "results.json")]
    assert 0.0 in chosen and len(set(chosen)) > 1
    mean, std = load_tensor(out / "mean.gtt"), load_tensor(out / "std.gtt")
    for i, x in enumerate(load_tensor(root / "test_x.gtt")):
        sigma, ref_mean, ref_std = reference.select_sigma(predict, s, x, 13, i, grid, 6, 0.8)
        assert chosen[i] == sigma, i
        assert np.abs(mean[i].ravel() - ref_mean).max() <= reference.ENSEMBLE_TOL, i
        assert np.abs(std[i].ravel() - ref_std).max() <= reference.ENSEMBLE_TOL, i


@pytest.mark.parametrize("iters", [1, 2, 3])
@pytest.mark.parametrize("elem", [1, 3, 5])
def test_count_agrees_with_the_bench_reference(golden_maps, tmp_path, monkeypatch, elem, iters):
    # The benchmark checks counts against bench/reference.py, which erodes one
    # square at a time and labels by pointer jumping; a change to either half
    # of counting that moves a count or an area must fail here too.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing into bench/
    monkeypatch.syspath_prepend(str(BENCH))
    import reference

    maps, out = golden_maps / "targets.gtt", tmp_path / "c"
    assert run("count", "--input", str(maps), "--elem", str(elem), "--iters", str(iters),
               "--min-area", "4", "--connectivity", "8", "--out", str(out)) == 0
    got = [(r["count"], r["areas"]) for r in read_json(out / "counts.json")["counts"]]
    want = [reference.count(prob, 0.5, elem, iters, 4) for prob in load_tensor(maps)]
    assert got == want


@pytest.mark.parametrize("reply", [
    "dumps_tensor(np.clip(x, 0, 1))",                                 # [b, H*W], not [b, H, W]
    "dumps_tensor(3 * x.reshape(-1, 12, 12) - 1)",                    # outside [0, 1]
    "dumps_tensor(np.clip(x, 0, 1).reshape(-1, 12, 12)) + b'extra'",  # bytes after the tensor
])
def test_model_cmd_output_is_checked_against_output_kind(pipeline, tmp_path, capsys, reply,
                                                         model_child):
    code = run("predict", "--model-cmd", model_child(reply).cmd,
               "--output-kind", "per-pixel:12x12",
               "--subspace", str(pipeline / "subspace.gtt"),
               "--input", str(pipeline / "test_x.gtt"),
               "--sigma", "0.05", "--n", "2", "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error: PredictorError" in capsys.readouterr().err
    assert not (tmp_path / "o" / "std.gtt").exists()


def test_model_cmd_reply_naming_an_impossible_payload_is_one_error_line(pipeline, tmp_path,
                                                                        capsys, model_child):
    # 255 dimensions of 2**63 name about 10**4800 bytes; the child's short
    # reply once ended in a ValueError, from a message too long for str().
    header = 'b"GTT1" + bytes([0, 255]) + (1 << 63).to_bytes(8, "little") * 255'
    code = run("predict", "--model-cmd", model_child(header, after_reply="sys.exit(0)").cmd,
               "--output-kind", "per-pixel:12x12", "--subspace", str(pipeline / "subspace.gtt"),
               "--input", str(pipeline / "test_x.gtt"), "--n", "2", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: PredictorError") and err.count("\n") == 1, err
    assert "over 2**64" in err


# A per-pixel model for the 12x12 pipeline: a steep logistic threshold at 0.5.
LOGISTIC = "dumps_tensor((0.5 + 0.5 * np.tanh(5 * (x - 0.5))).reshape(-1, 12, 12))"


# A per-pixel model whose confidence can rise with noise, so both grid points win rows.
WAVY = "dumps_tensor((0.5 + 0.5 * np.sin(6 * x)).reshape(-1, 12, 12))"


def _alive(pid: int) -> bool:
    return Path(f"/proc/{pid}").exists()


def test_model_cmd_auto_sigma_runs_one_child(pipeline, tmp_path, model_child):
    # The subspace projects, so the zero-noise point makes one request per
    # block, and the noisy grid point makes two, one per half of its
    # candidates: in both blocks some row can still beat sigma 0 after the
    # first half. Every request goes to one child.
    rows = load_tensor(pipeline / "train_x.gtt")[:13]
    save_tensor(rows, tmp_path / "x.gtt")
    child = model_child(WAVY)
    common = ["--model-cmd", child.cmd, "--output-kind", "per-pixel:12x12",
              "--subspace", str(pipeline / "subspace.gtt"), "--input", str(tmp_path / "x.gtt"),
              "--n", "4", "--seed", "3"]
    assert run("auto-sigma", *common, "--grid", "0,0.1", "--out", str(tmp_path / "a")) == 0
    pids = child.requests()
    assert child.started() == pids[:1] and set(pids) == set(pids[:1])
    assert len(pids) == 3 * -(-len(rows) // BLOCK_ROWS)
    assert not _alive(pids[0])

    # One process per model call gave each row its plain ensemble at the
    # chosen sigma; the bytes must not depend on how the child is run.
    chosen = [r["chosen_sigma"] for r in read_json(tmp_path / "a" / "results.json")]
    plain = {}
    for sigma in (0.0, 0.1):
        out = tmp_path / f"plain{sigma}"
        assert run("predict", *common, "--sigma", str(sigma), "--out", str(out)) == 0
        plain[sigma] = load_tensor(out / "mean.gtt")
    assert set(chosen) == {0.0, 0.1}
    expected = np.stack([plain[sigma][i] for i, sigma in enumerate(chosen)])
    assert (tmp_path / "a" / "mean.gtt").read_bytes() == dumps_tensor(expected)


@pytest.mark.parametrize("hooks, message", [
    ({"on_request": "time.sleep(600) if k == 2 else None"}, "no answer within"),
    ({"after_reply": "sys.exit('child quits after one reply') if k == 1 else None"},
     "child quits after one reply"),
    ({"reply": f"(b'GTTX' if k == 2 else b'GTT1') + {LOGISTIC}[4:]"}, "bad magic"),
    ({"at_eof": "sys.exit(3)"}, "exited 3"),
], ids=["hangs", "quits-early", "bad-header", "exit-status"])
def test_model_cmd_failure_kills_the_child(pipeline, tmp_path, capsys, monkeypatch, model_child,
                                           hooks, message):
    # A cold child imports numpy within its first request's 5 s; later requests get 1 s.
    monkeypatch.setattr(predictor, "REQUEST_TIMEOUT_S", 5.0)
    predict = predictor.SubprocessPredictor.predict

    def predict_then_shorten(self, batch):
        reply = predict(self, batch)
        monkeypatch.setattr(predictor, "REQUEST_TIMEOUT_S", 1.0)
        return reply

    monkeypatch.setattr(predictor.SubprocessPredictor, "predict", predict_then_shorten)
    child = model_child(**({"reply": LOGISTIC} | hooks))
    out = tmp_path / "o"
    start = time.monotonic()
    code = run("auto-sigma", "--model-cmd", child.cmd, "--output-kind", "per-pixel:12x12",
               "--subspace", str(pipeline / "subspace.gtt"),
               "--input", str(pipeline / "test_x.gtt"),
               "--grid", "0,0.1", "--n", "4", "--out", str(out))
    assert time.monotonic() - start < 30
    assert code == 1
    err = capsys.readouterr().err
    assert "error: PredictorError" in err and message in err
    assert not (out / "std.gtt").exists()
    assert child.started() and not any(_alive(pid) for pid in child.started())


@pytest.mark.parametrize("at_eof, message", [
    ("time.sleep(600)", "did not exit within 1 s of EOF"),
    ("os.close(1); time.sleep(600)", "did not exit within 1 s of EOF"),
    ("stdout.write(b'xyz'); stdout.flush()", "wrote 3 bytes after its last reply"),
    (None, "cannot spawn"),
], ids=["lingers", "closes-stdout-and-lingers", "writes-after-eof", "missing-program"])
def test_model_cmd_failure_at_eof_or_at_spawn_kills_the_child(pipeline, tmp_path, capsys,
                                                              monkeypatch, model_child, at_eof,
                                                              message):
    # Requests keep their time limit; only the wait for the child to end is short.
    close = predictor.SubprocessPredictor.close

    def close_soon(self):
        monkeypatch.setattr(predictor, "REQUEST_TIMEOUT_S", 1.0)
        close(self)

    monkeypatch.setattr(predictor.SubprocessPredictor, "close", close_soon)
    child = model_child(LOGISTIC, at_eof=at_eof or "pass")
    out = tmp_path / "o"
    code = run("predict", "--model-cmd", child.cmd if at_eof else str(tmp_path / "missing"),
               "--output-kind", "per-pixel:12x12", "--subspace", str(pipeline / "subspace.gtt"),
               "--input", str(pipeline / "test_x.gtt"), "--n", "2", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: PredictorError") and err.count("\n") == 1, err
    assert message in err
    assert not out.exists()
    assert len(child.started()) == (1 if at_eof else 0)
    assert not any(_alive(pid) for pid in child.started())


# A classifier of the blobs fixture's rows: the softmax of their first three columns.
SOFTMAX3 = ("(e := np.exp(x[:, :3] - x[:, :3].max(axis=1, keepdims=True)))"
            " / e.sum(axis=1, keepdims=True)")


def test_external_classifier_matches_the_same_model_in_process(tmp_path, model_child):
    # Tensors cross the pipe as exact float64, so the child's ensembles are
    # those of the same arithmetic run here, byte for byte.
    (tmp_path / "blobs.json").write_text(json.dumps({"n": 60, "seed": 2}))
    assert run("synth", "blobs", "--spec", str(tmp_path / "blobs.json"),
               "--out", str(tmp_path / "data")) == 0
    rows = tmp_path / "data" / "inputs.gtt"
    assert run("fit", "--data", str(rows), "--retain", "0.9",
               "--out", str(tmp_path / "sub.gtt")) == 0
    common = ["--model-cmd", model_child(f"dumps_tensor({SOFTMAX3})").cmd,
              "--output-kind", "probabilities:3",
              "--subspace", str(tmp_path / "sub.gtt"), "--input", str(rows),
              "--n", "4", "--seed", "3"]
    grid = (0.0, 0.5, 2.0)
    assert run("predict", *common, "--sigma", "0.5", "--out", str(tmp_path / "p")) == 0
    assert run("auto-sigma", *common, "--grid", ",".join(map(str, grid)),
               "--out", str(tmp_path / "a")) == 0

    from gtta.data import OutputKind
    from gtta.ensemble import run_gtta, select_sigma
    from gtta.perturb import NoiseSchedule
    from gtta.rng import RngStream
    from gtta.subspace import load_subspace

    class Softmax3:
        output_kind = OutputKind.probabilities(3)

        def predict(self, x):
            return eval(SOFTMAX3, {"np": np, "x": x})

    x, s = load_tensor(rows), load_subspace(tmp_path / "sub.gtt")
    streams = RngStream(3, 0).rows(len(x))
    plain = run_gtta(Softmax3(), s, NoiseSchedule("constant", 0.5, 4), x, streams)
    chosen = select_sigma(Softmax3(), s, [NoiseSchedule("constant", g, 4) for g in grid], x,
                          streams)
    assert set(chosen.chosen_sigma.tolist()) == set(grid)  # every grid point wins a row
    for out, result in (("p", plain), ("a", chosen)):
        assert (tmp_path / out / "mean.gtt").read_bytes() == dumps_tensor(result.mean_prediction)
        assert (tmp_path / out / "std.gtt").read_bytes() == dumps_tensor(result.std_map)


@pytest.mark.parametrize("argv", [
    ["predict", "--input", "{root}/test_x.gtt", "--sigma", "0.1"],
    ["auto-sigma", "--input", "{root}/test_x.gtt", "--grid", "0,0.1"],
    ["analyze", "bias-variance", "--data", "{root}/test_x.gtt", "--targets", "{root}/test_y.gtt",
     "--grid", "0,0.1", "--repeats", "2"],
    ["analyze", "std-error", "--data", "{root}/test_x.gtt", "--targets", "{root}/test_y.gtt",
     "--sigma", "0.1"],
], ids=["predict", "auto-sigma", "bias-variance", "std-error"])
@pytest.mark.parametrize("status", [0, 3])
def test_model_commands_end_the_child_before_writing(pipeline, tmp_path, capsys, model_child,
                                                     argv, status):
    # The child is closed, and its exit status checked, before the first artifact.
    child = model_child(LOGISTIC, at_eof=f"sys.exit({status})")
    out = tmp_path / "o"
    code = run(*[a.format(root=pipeline) for a in argv], "--model-cmd", child.cmd,
               "--output-kind", "per-pixel:12x12", "--subspace", str(pipeline / "subspace.gtt"),
               "--n", "4", "--out", str(out))
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    if status:
        assert code == 1 and "error: PredictorError" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert code == 0 and "provenance.json" in written
    assert len(child.started()) == 1 and not _alive(child.started()[0])


def test_package_imports_only_numpy_and_the_standard_library():
    # pyproject.toml names numpy as the one dependency; relative imports stay in gtta.
    allowed = set(sys.stdlib_module_names) | {"numpy", "gtta"}
    for path in sorted((SRC / "gtta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside = {name.split(".")[0] for name in names} - allowed
            assert not outside, f"{path.name} imports {sorted(outside)}"


def test_importing_the_cli_leaves_out_the_modules_of_synth_analyze_and_distill():
    # Each of those commands imports its module when it runs, so no other
    # command pays for the import.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, gtta.cli; print(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    loaded = set(ast.literal_eval(proc.stdout))
    assert "gtta.cli" in loaded
    assert not loaded & {"gtta.synthdata", "gtta.analysis", "gtta.distill"}
    from gtta import analysis, cli

    assert cli._RETIRED["bins"] == analysis.STD_ERROR_BINS


def _names(node) -> collections.Counter:
    """Each name ``node`` refers to, as a name, an attribute or an import, and how often."""
    named = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            named[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            named[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            named.update(alias.name for alias in sub.names)
    return named


def test_every_public_definition_has_a_caller():
    # A public function, class or method of the package is named somewhere in
    # the package beyond its own definition; scripts and tests do not count.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted((SRC / "gtta").glob("*.py"))}
    named = sum((_names(tree) for tree in trees.values()), collections.Counter())
    uncalled = []
    for module, tree in trees.items():
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for node in tree.body + [item for cls in classes for item in cls.body]:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and named[node.name] == _names(node)[node.name]):
                uncalled.append(f"{module}:{node.name}")
    assert not uncalled, uncalled


def test_every_error_type_is_raised_by_the_package():
    # Each GttaError subclass in errors.py is constructed in some other module
    # of the package: errors.py defines no type that the package never raises.
    errors = ast.parse((SRC / "gtta" / "errors.py").read_text())
    subclasses, known = set(), {"GttaError"}
    for node in errors.body:
        if isinstance(node, ast.ClassDef) and {getattr(b, "id", None) for b in node.bases} & known:
            subclasses.add(node.name)
            known.add(node.name)
    constructed = set()
    for path in sorted((SRC / "gtta").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                constructed.add(func.attr if isinstance(func, ast.Attribute)
                                else getattr(func, "id", None))
    assert subclasses and not subclasses - constructed, sorted(subclasses - constructed)


# --------------------------------------------------------------------------
# dispatch, provenance digests and hostile --config records

COMMAND_NAMES = ["synth", "fit", "train", "predict", "auto-sigma", "distill", "count", "analyze"]
EXPERIMENT_NAMES = ["bias-variance", "spectrum", "std-error", "structured-noise"]


@pytest.mark.parametrize("argv, names", [
    ([], COMMAND_NAMES), (["--help"], COMMAND_NAMES), (["bogus"], COMMAND_NAMES),
    (["analyze"], EXPERIMENT_NAMES), (["--config", "{record}"], COMMAND_NAMES),
], ids=["nothing", "help", "bogus", "analyze", "config-only"])
def test_a_command_line_without_a_command_lists_them_all(pipeline, capsys, argv, names):
    argv = [a.format(record=pipeline / "pred" / "provenance.json") for a in argv]
    try:
        code = run(*argv)
    except SystemExit as exc:  # argparse
        code = exc.code
    assert code in (0, 2)
    printed = "".join(capsys.readouterr())
    assert "{" + ",".join(names) + "}" in printed, printed


def test_a_command_builds_only_its_own_parser(pipeline, tmp_path, monkeypatch):
    def names(parser):
        return [name for name, _ in _subcommands(parser)]

    assert names(_build_parser({}, "count")) == ["count"]
    assert names(_build_parser({}, "analyze")) == [f"analyze {e}" for e in EXPERIMENT_NAMES]
    assert names(_build_parser({}, "bogus")) == names(_build_parser({})) == list(OPTIONS)
    from gtta import cli

    def declare_elsewhere(parser):
        raise AssertionError("built the parser of a command that does not run")

    for name, (help_line, _) in cli._COMMANDS.items():
        if name != "count":
            monkeypatch.setitem(cli._COMMANDS, name, (help_line, declare_elsewhere))
    assert run("count", "--input", str(pipeline / "pred" / "mean.gtt"),
               "--out", str(tmp_path / "c")) == 0


@pytest.fixture(scope="module")
def records(pipeline, tmp_path_factory):
    """A provenance record of every leaf command: {name: (replay argv, record path)}."""
    root = tmp_path_factory.mktemp("records")
    save_tensor(np.ones(144), root / "pattern.gtt")
    made = {
        "auto-sigma": ["auto-sigma", "--model", "{root}/model.gtt", "--subspace",
                       "{root}/subspace.gtt", "--input", "{root}/test_x.gtt", "--grid", "0,0.05",
                       "--n", "4"],
        "analyze bias-variance": BIAS_VARIANCE,
        "analyze spectrum": [*SPECTRUM, "--n", "4"],
        "analyze std-error": STD_ERROR,
        "analyze structured-noise": ["analyze", "structured-noise", "--data", "{root}/train_x.gtt",
                                     "--pattern", "{tmp}/pattern.gtt", "--n", "4"],
        "replay": ["predict", "--config", "{root}/pred/provenance.json"],
    }
    for name, argv in made.items():
        argv = [a.format(root=pipeline, tmp=root) for a in argv]
        assert run(*argv, "--out", str(root / name.replace(" ", "-"))) == 0, name
    paths = {name: root / name.replace(" ", "-") / "provenance.json" for name in made}
    paths |= {"synth": pipeline / "data" / "provenance.json",
              "fit": pipeline / "subspace.gtt.provenance.json",
              "train": pipeline / "model.gtt.provenance.json",
              "predict": pipeline / "pred" / "provenance.json",
              "distill": pipeline / "distilled" / "provenance.json",
              "count": pipeline / "counts" / "provenance.json"}
    argv = {name: name.split() for name in paths} | {"synth": ["synth", "images"],
                                                     "replay": ["predict"]}
    return {name: (argv[name], path) for name, path in paths.items()}


def test_every_provenance_digest_is_the_file_on_disk(pipeline, records):
    # Digests come from the bytes a command read and wrote, taken on a worker
    # thread while it runs; each must be the SHA-256 of the file as it lies.
    commands = set()
    for name, (_, path) in records.items():
        prov = read_json(path)
        commands.add(prov["command"])
        files = prov["inputs"] | prov["outputs"]
        assert files, name
        for file, digest in files.items():
            assert digest == hashlib.sha256(Path(file).read_bytes()).hexdigest(), (name, file)
    assert commands == {"synth images", "fit", "train", "predict", "auto-sigma", "distill",
                        "count"} | {f"analyze {e}" for e in EXPERIMENT_NAMES}
    sidecar = str(pipeline / "model.gtt.json")
    assert sidecar in read_json(records["train"][1])["outputs"]
    assert sidecar in read_json(records["replay"][1])["inputs"]


@pytest.mark.parametrize("failure", [None, "GttaError", "OSError"])
def test_no_thread_outlives_a_command(pipeline, tmp_path, monkeypatch, capsys, failure):
    from gtta import cli

    out = tmp_path / "o"
    if failure == "GttaError":  # mean.gtt is written, then std.gtt cannot be
        (out / "std.gtt").mkdir(parents=True)
    if failure == "OSError":
        def full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "run_gtta", full)
    before = len(threading.enumerate())
    code = run("predict", "--model", str(pipeline / "model.gtt"), "--subspace",
               str(pipeline / "subspace.gtt"), "--input", str(pipeline / "test_x.gtt"),
               "--n", "2", "--out", str(out))
    assert len(threading.enumerate()) == before
    err = capsys.readouterr().err
    if failure is None:
        assert code == 0 and (out / "provenance.json").exists()
    else:
        assert code == 1 and err.startswith("error: IoError:") and err.count("\n") == 1, err
        assert not (out / "provenance.json").exists()
        assert (out / "mean.gtt").exists() == (failure == "GttaError")


def test_an_allocation_the_machine_cannot_make_is_one_error_line(pipeline, tmp_path, capsys):
    # 10**15 candidates ask numpy for petabytes, which the allocator refuses at
    # once; an ensemble, a sweep, a layer, a one-hot layout or a fixture whose
    # size numpy cannot even index is refused before numpy is asked, on the
    # command line or in a --config record. Each once ended in numpy's traceback.
    predict = ["predict", "--model", str(pipeline / "model.gtt"), "--subspace",
               str(pipeline / "subspace.gtt"), "--input", str(pipeline / "test_x.gtt")]
    spectrum = [*(a.format(root=pipeline) for a in SPECTRUM), "--equal-sigma", "0.1"]
    prov = read_json(pipeline / "pred" / "provenance.json")
    prov["config"]["n"] = 10 ** 30
    (tmp_path / "rec.json").write_text(json.dumps(prov))
    cases = [([*predict, "--n", str(10 ** 15)], "MemoryError: Unable to allocate")]
    cases += [([*argv, "--n", str(n)], f"ParamError: an ensemble of N={n} candidates")
              for argv, n in [(predict, 10 ** 30), (predict, 2 ** 63 - 1), (spectrum, 10 ** 26)]]
    cases += [(["predict", "--config", str(tmp_path / "rec.json")],
               f"ParamError: an ensemble of N={10 ** 30} candidates")]
    bias_variance, train, classes = ([a.format(root=pipeline) for a in argv] for argv in
                                     (BIAS_VARIANCE, TRAIN, TARGET_READERS["train-classes"][0]))
    cases += [([*bias_variance, "--repeats", str(m)], f"ParamError: a sweep of {m} repeats")
              for m in (10 ** 18, 10 ** 30)]
    cases += [([*train, "--hidden", str(h)], "ParamError: a layer of 144x")
              for h in (10 ** 30, 2 * 10 ** 18)]
    cases += [([*classes, "--classes", str(10 ** 30)], "ParamError: a one-hot layout of 40 rows")]
    for i, (kind, spec) in enumerate([("blobs", {"n": 10 ** 30}), ("blobs", {"dim": 10 ** 30}),
                                      ("tabular", {"n": 10 ** 30}), ("images", {"height": 10 ** 21})]):
        (tmp_path / f"spec{i}.json").write_text(json.dumps(spec))
        cases += [(["synth", kind, "--spec", str(tmp_path / f"spec{i}.json")],
                   "ParamError: a fixture of ")]
    for argv, message in cases:
        out = tmp_path / "o"
        assert run(*argv, "--out", str(out)) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        assert not out.exists()


@pytest.mark.parametrize("side", ["13", "1000001"])
def test_count_refuses_an_element_wider_than_its_maps(pipeline, tmp_path, capsys, side):
    # Such an element erodes every pixel; a side of 1000001 once asked numpy
    # for a terabyte of offsets and ended in its traceback.
    out = tmp_path / "o"
    assert run("count", "--input", str(pipeline / "pred" / "mean.gtt"), "--elem", side,
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParamError: --elem {side} ") and err.count("\n") == 1, err
    assert "12x12" in err
    assert not out.exists()
    assert run("count", "--input", str(pipeline / "pred" / "mean.gtt"), "--elem", "11",
               "--out", str(out)) == 0


@pytest.mark.parametrize("command, key, value", [
    ("predict", "n", 1.5), ("predict", "input", 5), ("predict", "sigma", None),
    ("predict", "strategy", "bogus"), ("train", "task", "bogus"), ("fit", "header", "yes"),
    ("count", "elem", 3.5), ("count", "connectivity", 5), ("count", "seed", True),
])
def test_config_values_an_option_cannot_hold_are_refused(records, tmp_path, capsys, command, key,
                                                        value):
    # A record's values skip the command-line parse, so these once reached the
    # command: 1.5 candidates ended in numpy's traceback, an --input of 5 read
    # file descriptor 5, and a bogus task trained a regression model.
    argv, path = records[command]
    prov = read_json(path)
    prov["config"][key] = value
    (tmp_path / "rec.json").write_text(json.dumps(prov))
    out = tmp_path / "o"
    assert run(*argv, "--config", str(tmp_path / "rec.json"), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParamError: --config sets --") and err.count("\n") == 1, err
    assert not out.exists() and not (tmp_path / "o.provenance.json").exists()


def test_config_strings_are_read_as_a_command_line_would_read_them(records, tmp_path):
    argv, path = records["predict"]
    prov = read_json(path)
    prov["config"] |= {"n": str(prov["config"]["n"]), "sigma": str(prov["config"]["sigma"])}
    (tmp_path / "rec.json").write_text(json.dumps(prov))
    assert run(*argv, "--config", str(tmp_path / "rec.json"), "--out", str(tmp_path / "o")) == 0
    replayed = read_json(tmp_path / "o" / "provenance.json")["config"]
    assert replayed | {"out": None} == read_json(path)["config"] | {"out": None}
    for name in ("mean.gtt", "std.gtt", "results.json"):
        assert (tmp_path / "o" / name).read_bytes() == (path.parent / name).read_bytes(), name


# JSON values a hostile record gives an option; _fits says which it can hold.
_JSON_VALUES = [None, True, 7, 1.5, "x7", [1], {"a": 1}]
_ENGINE_COMMANDS = ("predict", "auto-sigma", "distill", "analyze")


def _fits(action, value) -> bool:
    """Whether the option ``action`` can hold ``value`` as a command-line parse leaves it."""
    if value is None:
        return action.default is None and not action.required
    if action.choices is not None and value not in action.choices:
        return False
    if action.nargs == 0:
        return isinstance(value, bool)
    kinds = {None: str, int: int, float: (int, float)}[action.type]
    return isinstance(value, kinds) and not isinstance(value, bool)


@settings(max_examples=100, deadline=1500)
@given(data=st.data())
def test_hostile_config_records_end_in_one_error_line(records, data):
    name = data.draw(st.sampled_from(sorted(records)), label="command")
    argv, path = records[name]
    text = path.read_text()
    record = json.loads(text)
    hows = ["truncate", "config", "value", "other"] + (["engine"] * (argv[0] in _ENGINE_COMMANDS))
    how = data.draw(st.sampled_from(hows), label="how")
    if how == "truncate":
        text = text[: data.draw(st.integers(0, len(text.rstrip()) - 1), label="cut")]
    elif how == "other":
        other = data.draw(st.sampled_from([n for n in sorted(records) if records[n][0] != argv]),
                          label="other")
        text = records[other][1].read_text()
    else:
        if how == "config":
            record["config"] = data.draw(st.sampled_from([None, True, 3, "x", [1]]), label="config")
        elif how == "engine":
            record["engine"] = data.draw(st.sampled_from([None, 1, 2, 4, "3"]), label="engine")
        else:
            leaf = "predict" if name == "replay" else name
            parser = dict(_subcommands(_build_parser({}, argv[0])))[leaf]
            action = data.draw(st.sampled_from([a for a in parser._actions
                                                if a.option_strings and a.dest != "help"]),
                               label="option")
            record["config"][action.dest] = data.draw(
                st.sampled_from([v for v in _JSON_VALUES if not _fits(action, v)]), label="value")
        text = json.dumps(record)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "record.json").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = run(*argv, "--config", str(tmp / "record.json"), "--out", str(tmp / "o"))
            except SystemExit as exc:  # argparse
                code = exc.code
        left = sorted(p.name for p in tmp.iterdir() if p.name != "record.json")
    message = err.getvalue()
    assert code in (1, 2), message
    assert "Traceback" not in message
    assert sum("error:" in line for line in message.splitlines()) == 1, message
    if code == 1:
        assert message.startswith("error: ") and message.count("\n") == 1, message
    assert not left, left


# --------------------------------------------------------------------------
# one exit: every failure a command ends in is one error line


@pytest.mark.parametrize("failure, line", [
    (ShapeError("rows do not fit"), "ShapeError: rows do not fit"),
    (FileNotFoundError(2, "No such file or directory", "x.gtt"),
     "IoError: [Errno 2] No such file or directory: 'x.gtt'"),
    (MemoryError("Unable to allocate 8.00 PiB"), "MemoryError: Unable to allocate 8.00 PiB"),
    (FloatingPointError("overflow encountered in multiply"),
     "DataError: a value leaves float64's range (overflow encountered in multiply)"),
], ids=["GttaError", "OSError", "MemoryError", "FloatingPointError"])
def test_every_failure_ends_in_its_one_error_line(tmp_path, monkeypatch, capsys, failure, line):
    from gtta import cli

    def fail(args):
        raise failure

    monkeypatch.setattr(cli, "_cmd_fit", fail)
    assert run("fit", "--data", str(tmp_path / "x.gtt"), "--out", str(tmp_path / "o")) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {line}\n" and not captured.out
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def huge_rows(tmp_path_factory):
    """20 rows of 4 normals, the same rows times 1e200, and a subspace fit on the first."""
    root = tmp_path_factory.mktemp("huge")
    unit = np.random.default_rng(0).standard_normal((20, 4))
    save_tensor(unit, root / "unit.gtt")
    save_tensor(unit * 1e200, root / "huge.gtt")
    save_tensor(np.ones(4), root / "pattern.gtt")
    save_tensor(np.full(4, 1e200), root / "huge_pattern.gtt")
    (root / "images.json").write_text(json.dumps(
        {"n_images": 3, "height": 12, "width": 12, "input_noise": 1e308}))
    (root / "tabular.json").write_text(json.dumps({"n": 10, "dim": 3, "noise": 1e308}))
    assert run("fit", "--data", str(root / "unit.gtt"), "--retain", "all",
               "--out", str(root / "unit_subspace.gtt")) == 0
    return root


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "{root}/huge.gtt"],
    ["synth", "images", "--spec", "{root}/images.json"],
    ["synth", "tabular", "--spec", "{root}/tabular.json"],
    ["analyze", "spectrum", "--baseline", "global_jitter", "--subspace",
     "{root}/unit_subspace.gtt", "--data", "{root}/huge.gtt"],
    ["analyze", "structured-noise", "--data", "{root}/huge.gtt", "--pattern", "{root}/pattern.gtt"],
    ["analyze", "structured-noise", "--data", "{root}/unit.gtt",
     "--pattern", "{root}/huge_pattern.gtt"],
], ids=["fit", "synth-images", "synth-tabular", "spectrum", "structured-noise-rows",
        "structured-noise-pattern"])
def test_a_value_that_leaves_float64_is_one_data_error(huge_rows, tmp_path, argv):
    # Each once ended in numpy's warnings and then a misleading error, a
    # LinAlgError traceback, or a report.json holding NaN.
    code, message, caught = _one_run([*(a.format(root=huge_rows) for a in argv),
                                      "--out", str(tmp_path / "o")])
    assert not caught, caught
    assert code == 1 and message.startswith("error: DataError: a value leaves float64's range")
    assert message.count("\n") == 1, message
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("data", ["unit", "huge"])
def test_a_command_leaves_the_float_error_state_as_it_found_it(huge_rows, tmp_path, data):
    with np.errstate(all="ignore"):
        before = np.geterr()
        code = run("fit", "--data", str(huge_rows / f"{data}.gtt"), "--out", str(tmp_path / "o"))
        assert code == (data == "huge") and np.geterr() == before


# Fuzz slice: finite rows at one magnitude, anywhere from 1e-300 to 1e300.
_MANTISSAS = st.lists(st.floats(-9.99, 9.99), min_size=4, max_size=4)
_SCALES = st.integers(-300, 299).map(lambda e: 10.0 ** e)


def _finite_artifacts(out: Path) -> None:
    """Fail unless every JSON file under ``out`` holds finite numbers only."""
    def refuse(constant):
        raise AssertionError(f"{constant} in a written file")

    for path in [out] if out.is_file() else out.rglob("*"):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=refuse)


@pytest.fixture(scope="module")
def extreme_model(tmp_path_factory):
    """A small fixed MLP of 4 inputs and a subspace fit on 20 unit-scale rows."""
    from gtta.data import OutputKind
    from gtta.predictor import MlpModel, save_model
    from gtta.rng import RngStream
    from gtta.subspace import fit, save_subspace

    root = tmp_path_factory.mktemp("extreme")
    save_model(MlpModel([4, 3, 2], OutputKind.probabilities(2), RngStream(0)), root / "model.gtt")
    save_subspace(fit(np.random.default_rng(0).standard_normal((20, 4)), "all"),
                  root / "subspace.gtt")
    return root


@settings(max_examples=40, deadline=3000)
@given(rows=st.lists(_MANTISSAS, min_size=5, max_size=10), scale=_SCALES,
       pattern=_MANTISSAS, pattern_scale=_SCALES, own_subspace=st.booleans())
def test_rows_of_extreme_magnitude_end_in_one_error_line_or_finite_artifacts(
        extreme_model, rows, scale, pattern, pattern_scale, own_subspace):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_tensor(np.array(rows) * scale, tmp / "rows.gtt")
        save_tensor(np.array(pattern) * pattern_scale, tmp / "pattern.gtt")
        data, fitted = str(tmp / "rows.gtt"), tmp / "fit.gtt"

        def holds_the_contract(argv, out: Path) -> int:
            code, message, caught = _one_run([*argv, "--out", str(out)])
            assert not caught, (argv[:2], caught)
            assert code in (0, 1), message
            if code:
                assert message.startswith("error: ") and message.count("\n") == 1, message
                assert not out.exists()
            else:
                _finite_artifacts(out)
            return code

        fit_code = holds_the_contract(["fit", "--data", data, "--retain", "all"], fitted)
        subspace = str(fitted if own_subspace and fit_code == 0
                       else extreme_model / "subspace.gtt")
        for i, argv in enumerate([
                ["analyze", "spectrum", "--baseline", "global_jitter", "--subspace", subspace,
                 "--data", data, "--n", "3"],
                ["analyze", "structured-noise", "--data", data, "--pattern",
                 str(tmp / "pattern.gtt"), "--n", "3"],
                ["predict", "--model", str(extreme_model / "model.gtt"), "--subspace", subspace,
                 "--input", data, "--n", "3"]]):
            holds_the_contract(argv, tmp / f"o{i}")


# Fuzz slice: the four analyze experiments, with drawn numeric options and
# damaged input files. An integer is small or far past what numpy can index,
# which is refused before anything is allocated; one in between could run
# the machine out of memory.
def _integers(top):
    return st.one_of(st.integers(-2, top), st.integers(10 ** 19, 10 ** 30))


_COUNTS = _integers(64).map(str)
_NUMBERS = st.one_of(st.floats(0, 2).map(repr), st.sampled_from(["-1", "nan", "inf", "x"]))
_FRACTIONS = st.one_of(st.floats(0, 1).map(repr), st.sampled_from(["-0.5", "1.5", "nan", "x"]))
ANALYZE_OPTIONS = {
    "--n": _COUNTS,
    "--repeats": _COUNTS,
    "--sigma": _NUMBERS,
    "--sigma-cap": _NUMBERS,
    "--grid": st.lists(st.floats(0, 1).map(repr), min_size=1, max_size=8).map(",".join),
    "--equal-sigma": _NUMBERS,
    "--inject-fraction": _FRACTIONS,
    "--retain": st.one_of(_COUNTS, _FRACTIONS, st.just("all")),
}
# Each experiment on the fixture's files, the options drawn for it and the files it reads.
ANALYZE_EXPERIMENTS = {
    "bias-variance": (["--model", "{root}/model.gtt", "--subspace", "{root}/subspace.gtt",
                       "--data", "{tmp}/rows.gtt", "--targets", "{tmp}/targets.gtt"],
                      ["--n", "--repeats", "--grid", "--sigma-cap"], ["rows", "targets"]),
    "spectrum": (["--subspace", "{root}/subspace.gtt", "--data", "{tmp}/rows.gtt"],
                 ["--n", "--sigma", "--equal-sigma", "--sigma-cap"], ["rows"]),
    "std-error": (["--model", "{root}/model.gtt", "--subspace", "{root}/subspace.gtt",
                   "--data", "{tmp}/rows.gtt", "--targets", "{tmp}/targets.gtt"],
                  ["--n", "--sigma", "--sigma-cap"], ["rows", "targets"]),
    "structured-noise": (["--data", "{tmp}/rows.gtt", "--pattern", "{tmp}/pattern.gtt"],
                         ["--n", "--sigma", "--inject-fraction", "--retain", "--sigma-cap"],
                         ["rows", "pattern"]),
}


@st.composite
def _analyze_run(draw):
    experiment = draw(st.sampled_from(sorted(ANALYZE_EXPERIMENTS)))
    _, options, files = ANALYZE_EXPERIMENTS[experiment]
    drawn = draw(st.lists(st.sampled_from(options), unique=True))
    damage = draw(st.none() | st.tuples(st.sampled_from(files), _DAMAGE))
    return experiment, [(flag, draw(ANALYZE_OPTIONS[flag])) for flag in drawn], damage


@settings(max_examples=60, deadline=2000)
@given(drawn=_analyze_run())
@example(drawn=("bias-variance", [("--repeats", str(10 ** 19))], None))
@example(drawn=("spectrum", [("--n", str(10 ** 19))], None))
@example(drawn=("structured-noise", [("--retain", str(10 ** 19))], None))
@example(drawn=("std-error", [("--n", "64"), ("--sigma", "0.5")], ("targets", ("cut", 30))))
def test_analyze_ends_in_one_error_line_or_a_finite_report(extreme_model, drawn):
    experiment, options, damage = drawn
    base, _, _ = ANALYZE_EXPERIMENTS[experiment]
    gen = np.random.default_rng(1)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_tensor(gen.standard_normal((12, 4)), tmp / "rows.gtt")
        save_tensor(np.arange(12.0) % 2, tmp / "targets.gtt")
        save_tensor(gen.standard_normal(4), tmp / "pattern.gtt")
        if damage is not None:
            name, how = damage
            _damage(tmp / f"{name}.gtt", *how)
        argv = ["analyze", experiment, *[a.format(root=extreme_model, tmp=tmp) for a in base],
                *[a for option in options for a in option]]
        if _one_fuzzed_run(argv, tmp / "o") == 0:
            wrote = sorted(p.name for p in (tmp / "o").iterdir())
            assert wrote == ["provenance.json", "report.json"], wrote


def _one_fuzzed_run(argv, out: Path) -> int:
    """The exit code of ``argv --out out``, run in process, which must end in one of two ways.

    Exit 0 with finite artifacts, or exit 1 or 2 with exactly one ``error:``
    line, no traceback, no warning and nothing written at ``out``.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = run(*argv, "--out", str(out))
        except SystemExit as exc:  # argparse
            code = exc.code
    message, wrote = err.getvalue(), sorted(out.parent.glob(out.name + "*"))
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2), message
    if code:
        lines = message.splitlines()
        parser = "gtta " + " ".join(argv[:1 + (argv[0] == "analyze")])
        assert sum("error:" in line for line in lines) == 1 and "Traceback" not in message, message
        assert lines[-1].startswith("error: " if code == 1 else f"{parser}: error: "), message
        assert not wrote, wrote
    for path in wrote:
        _finite_artifacts(path)
    return code


# Fuzz slice: the options of predict, auto-sigma, fit, count and synth, with
# integers drawn as in the slice above. A synth spec keeps blobs_max <= 8 and
# image sides <= 32, or goes far past them, so that placing blobs stays fast.
# Every command gets a drawn spec file; only synth reads it.
_CLAMPS = st.one_of(st.lists(st.floats(-3, 3).map(repr), min_size=1, max_size=3).map(",".join),
                    st.sampled_from(["x", "nan,1", "-inf,inf"]))
OPTION_VALUES = ANALYZE_OPTIONS | {
    "--clamp": _CLAMPS,
    "--strategy": st.sampled_from(["constant", "incremental", "x"]),
    "--threshold": _FRACTIONS,
    "--elem": _COUNTS,
    "--iters": _COUNTS,
    "--min-area": _COUNTS,
    "--seed": _COUNTS,
}
# Each command on the fixture's files, and the options drawn for it.
ENSEMBLE_ON_ROWS = ["--model", "{root}/model.gtt", "--subspace", "{root}/subspace.gtt",
                    "--input", "{tmp}/rows.gtt"]
OPTION_COMMANDS = {
    "predict": (["predict", *ENSEMBLE_ON_ROWS],
                ["--n", "--sigma", "--sigma-cap", "--clamp", "--strategy", "--seed"]),
    "auto-sigma": (["auto-sigma", *ENSEMBLE_ON_ROWS],
                   ["--n", "--sigma-cap", "--clamp", "--strategy", "--grid", "--threshold",
                    "--seed"]),
    "fit": (["fit", "--data", "{tmp}/rows.gtt"], ["--retain", "--seed"]),
    "count": (["count", "--input", "{tmp}/maps.gtt"],
              ["--threshold", "--elem", "--iters", "--min-area", "--seed"]),
    "synth": (["synth", "{kind}", "--spec", "{tmp}/spec.json"], ["--seed"]),
}
SPEC_TYPES = {"tabular": TabularSpec, "blobs": BlobsSpec, "images": BlobImagesSpec}
SPEC_VALUES = {
    **dict.fromkeys(["n", "dim", "n_images", "seed"], _integers(64)),
    **dict.fromkeys(["height", "width"], _integers(32)),
    **dict.fromkeys(["blobs_min", "blobs_max"], _integers(8)),
    "pattern_seed": st.none() | _integers(64),
    "splits": st.lists(st.floats(0, 1), min_size=2, max_size=4),
    "distractor_fractions": st.none() | st.lists(st.floats(0, 1), min_size=2, max_size=2),
}
_SPEC_FLOATS = st.floats(-2, 20)
_SPEC_ODD = st.sampled_from(["x", True, 1e308])


@st.composite
def _option_run(draw):
    command = draw(st.sampled_from(sorted(OPTION_COMMANDS)))
    kind = draw(st.sampled_from(sorted(SPEC_TYPES)))
    fields = draw(st.lists(st.sampled_from([f.name for f in dataclasses.fields(SPEC_TYPES[kind])]),
                           unique=True))
    spec = {name: draw(SPEC_VALUES.get(name, _SPEC_FLOATS) | _SPEC_ODD) for name in fields}
    drawn = draw(st.lists(st.sampled_from(OPTION_COMMANDS[command][1]), unique=True))
    return command, kind, spec, [(flag, draw(OPTION_VALUES[flag])) for flag in drawn]


@settings(max_examples=60, deadline=2000)
@given(drawn=_option_run())
def test_command_options_end_in_one_error_line_or_finite_artifacts(extreme_model, drawn):
    command, kind, spec, options = drawn
    base, _ = OPTION_COMMANDS[command]
    gen = np.random.default_rng(2)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_tensor(gen.standard_normal((12, 4)), tmp / "rows.gtt")
        save_tensor(gen.random((2, 12, 12)), tmp / "maps.gtt")
        (tmp / "spec.json").write_text(json.dumps(spec))
        argv = [a.format(root=extreme_model, tmp=tmp, kind=kind) for a in base]
        _one_fuzzed_run([*argv, *[a for option in options for a in option]], tmp / "o")
