import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gtta
from gtta import predictor
from gtta.cli import main
from gtta.ensemble import BLOCK_ROWS
from gtta.tensorio import content_hash, dumps_tensor, load_tensor, save_tensor

SRC = Path(gtta.__file__).resolve().parents[1]


def run(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


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
    # the distill stage consumed the model the train stage wrote
    train_prov = read_json(pipeline / "model.gtt.provenance.json")
    distill_prov = read_json(pipeline / "distilled" / "provenance.json")
    model_path = str(pipeline / "model.gtt")
    assert train_prov["outputs"][model_path] == distill_prov["inputs"][model_path]


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
    csv = (out / "spectrum.csv").read_text().splitlines()
    assert csv[0] == "index,eigenvalue,baseline_eigenvalue"
    assert len(csv) == len(report["eigenvalues"]) + 1


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
    assert content_hash(outs[0] / "spectrum.csv") == content_hash(outs[1] / "spectrum.csv")


def test_commands_do_not_mutate_inputs(pipeline, tmp_path):
    model = pipeline / "model.gtt"
    sub = pipeline / "subspace.gtt"
    inp = pipeline / "test_x.gtt"
    before = {p: content_hash(p) for p in (model, sub, inp)}
    assert run("predict", "--model", str(model), "--subspace", str(sub),
               "--input", str(inp), "--sigma", "0.1", "--n", "4",
               "--out", str(tmp_path / "o")) == 0
    assert {p: content_hash(p) for p in before} == before


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


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        run("predict", "--bogus-flag", "x")
    assert info.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


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


def test_fit_csv_with_header(tmp_path):
    csv = tmp_path / "d.csv"
    rows = ["a,b,c"] + [f"{i}.0,{i + 1}.0,{2 * i}.5" for i in range(8)]
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "s.gtt"
    assert run("fit", "--data", str(csv), "--header", "--retain", "all",
               "--out", str(out)) == 0
    assert (tmp_path / "s.gtt.json").exists()


def test_fit_drops_target_column(tmp_path):
    from gtta.subspace import load_subspace

    csv = tmp_path / "d.csv"
    csv.write_text("\n".join(f"{i}.0,{i + 1}.5,{9 * i}.0" for i in range(8)) + "\n")
    out = tmp_path / "s.gtt"
    assert run("fit", "--data", str(csv), "--target-col", "last",
               "--retain", "all", "--out", str(out)) == 0
    assert load_subspace(out).d == 2


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


@pytest.mark.parametrize("argv", [
    ["predict", "--model-cmd", "cat", "--output-kind", "per-pixel:abc"],
    ["predict", "--model-cmd", "cat", "--output-kind", "probabilities:x"],
    ["predict", "--model-cmd", "cat", "--output-kind", "probabilities:1"],
    ["predict", "--model-cmd", "cat", "--output-kind", "per-pixel:0x4"],
    ["predict", "--model", "{root}/model.gtt", "--clamp", "1"],
    ["predict", "--model", "{root}/model.gtt", "--clamp", "a,b"],
    ["auto-sigma", "--model", "{root}/model.gtt", "--grid", "a,b"],
    ["fit", "--data", "{root}/train_x.gtt", "--retain", "abc"],
    ["predict", "--config", "{tmp}/missing.json"],
    ["train", "--data", "{root}/train_x.gtt", "--targets", "{root}/train_y.gtt",
     "--task", "classification"],
    ["train", "--data", "{root}/train_x.gtt", "--targets", "{tmp}/flat_y.gtt",
     "--task", "segmentation"],
    ["synth", "images", "--spec", "{tmp}/tiny.json"],
])
def test_bad_values_end_in_error_line(pipeline, tmp_path, argv):
    save_tensor(np.zeros(24), tmp_path / "flat_y.gtt")
    (tmp_path / "tiny.json").write_text(json.dumps({"height": 8, "width": 8}))
    if argv[0] in ("predict", "auto-sigma"):
        argv = argv + ["--subspace", "{root}/subspace.gtt", "--input", "{root}/test_x.gtt"]
    argv = [a.format(root=pipeline, tmp=tmp_path) for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "gtta.cli", *argv, "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode in (1, 2)
    assert proc.stderr.strip().splitlines()[-1].startswith("error:")
    assert "Traceback" not in proc.stderr


def test_subspace_shape_mismatch_is_format_error(pipeline, tmp_path, capsys):
    from gtta.subspace import load_subspace, save_subspace

    s = load_subspace(pipeline / "subspace.gtt")
    bad = tmp_path / "narrow.gtt"
    save_subspace(dataclasses.replace(s, components=s.components[:, :-4]), bad)
    assert run("predict", "--model", str(pipeline / "model.gtt"), "--subspace", str(bad),
               "--input", str(pipeline / "test_x.gtt"), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err.startswith("error: FormatError:")


@pytest.mark.parametrize("sidecar", [
    "[1]",                                            # not an object
    '{"fit_fingerprint": [1], "range_source": 5}',    # fields of the wrong type
    '{"range_source": "elsewhere"}',                  # unknown range source
    '{"fit_fingerprint": "ab"',                       # not valid JSON
    '{"d": 7, "n_u": 1, "dead_components": 99}',      # sizes of another fit (d=144)
    '{"d": 145}',
    '{"n_u": 1}',
    '{"dead_components": 1}',
    '{"n_u": "3"}',                                   # a size that is not an integer
])
def test_bad_subspace_sidecar_is_format_error(pipeline, tmp_path, capsys, sidecar):
    sub = tmp_path / "subspace.gtt"
    sub.write_bytes((pipeline / "subspace.gtt").read_bytes())
    (tmp_path / "subspace.gtt.json").write_text(sidecar)
    assert run("predict", "--model", str(pipeline / "model.gtt"), "--subspace", str(sub),
               "--input", str(pipeline / "test_x.gtt"), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err.startswith("error: FormatError:")


def test_missing_subspace_sidecar_is_allowed(pipeline, tmp_path):
    from gtta.subspace import load_subspace

    sub = tmp_path / "subspace.gtt"
    sub.write_bytes((pipeline / "subspace.gtt").read_bytes())
    assert load_subspace(sub).fit_fingerprint is None
    assert run("predict", "--model", str(pipeline / "model.gtt"), "--subspace", str(sub),
               "--input", str(pipeline / "test_x.gtt"), "--out", str(tmp_path / "o")) == 0


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


BENCH = SRC.parent / "bench"

TRACED = """import sys
sys.path[:0] = [{bench!r}, {src!r}]
import gtta.cli, spans, workloads
tracer = spans.Tracer()
spans.install(tracer)
failed = False
for name, argv in {commands!r}:
    del tracer.spans[:]
    assert gtta.cli.main(argv) == 0, name
    missing = spans.missing_spans(spans.summarize(tracer.spans), workloads.WORKLOADS[name].spans)
    if missing:
        print(name, "spans never fired:", ", ".join(missing), file=sys.stderr)
        failed = True
sys.exit(failed)
"""


def test_bench_trace_sites_fire(pipeline, tmp_path):
    # The benchmark traces layers by wrapping named call sites; a renamed or
    # inlined site must fail here, not only in a traced benchmark run.
    common = ["--subspace", str(pipeline / "subspace.gtt"), "--input", str(pipeline / "test_x.gtt"),
              "--n", "4", "--seed", "1"]
    child = f"{sys.executable} {BENCH / 'model_child.py'} 12x12"
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
    code = TRACED.format(bench=str(BENCH), src=str(SRC), commands=commands)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


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


# A per-pixel model for the 12x12 pipeline: a steep logistic threshold at 0.5.
LOGISTIC = "dumps_tensor((0.5 + 0.5 * np.tanh(5 * (x - 0.5))).reshape(-1, 12, 12))"


# A per-pixel model whose confidence can rise with noise, so both grid points win rows.
WAVY = "dumps_tensor((0.5 + 0.5 * np.sin(6 * x)).reshape(-1, 12, 12))"


def _alive(pid: int) -> bool:
    return Path(f"/proc/{pid}").exists()


def test_model_cmd_auto_sigma_runs_one_child(pipeline, tmp_path, model_child):
    # Zero-noise rows are predicted alone, one request each, and the noisy grid
    # point makes one request per block; every request goes to one child.
    rows = load_tensor(pipeline / "train_x.gtt")[:13]
    save_tensor(rows, tmp_path / "x.gtt")
    child = model_child(WAVY)
    common = ["--model-cmd", child.cmd, "--output-kind", "per-pixel:12x12",
              "--subspace", str(pipeline / "subspace.gtt"), "--input", str(tmp_path / "x.gtt"),
              "--n", "4", "--seed", "3"]
    assert run("auto-sigma", *common, "--grid", "0,0.1", "--out", str(tmp_path / "a")) == 0
    pids = child.requests()
    assert child.started() == pids[:1] and set(pids) == set(pids[:1])
    assert len(pids) == len(rows) + -(-len(rows) // BLOCK_ROWS)
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
    monkeypatch.setattr(predictor, "REQUEST_TIMEOUT_S", 5.0)
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
        assert written == []
    else:
        assert code == 0 and "provenance.json" in written
    assert len(child.started()) == 1 and not _alive(child.started()[0])
