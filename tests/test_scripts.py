import importlib
import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import run_spectrum
import run_structured_noise

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_runs(script, monkeypatch, capsys):
    # Run as a program, through the script's __main__ guard.
    monkeypatch.setattr(sys, "argv", [str(script), "--help"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(script), run_name="__main__")
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


# Each script at a tiny setting, and the report its main() writes by default.
TINY_RUNS = {
    "run_spectrum": (["--n", "10"], "spectrum_report.json"),
    "run_structured_noise": (["--seeds", "1"], "structured_noise_report.json"),
    "run_std_error": (["--images", "8", "--epochs", "2"], "std_error_report.json"),
    "run_bias_variance": (["--grid", "0,0.01", "--n", "4", "--repeats", "2"],
                          "bias_variance.json"),
    "run_distill_experiment": (["--seeds", "1"], "distill_report.json"),
}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_main_writes_its_report(script, tmp_path, monkeypatch, capsys):
    argv, report = TINY_RUNS[script.stem]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script.name, *argv])
    importlib.import_module(script.stem).main()
    assert sorted(p.name for p in tmp_path.iterdir()) == [report]
    assert json.loads((tmp_path / report).read_text())
    assert report in capsys.readouterr().out


def test_frame_sequence_shares_scene():
    scene, frames = run_spectrum.scene_frames(13)
    assert len(frames) == 60
    spread = frames.std(axis=0)
    assert spread.max() < 0.1  # frames hug the scene
    assert np.abs(frames.mean(axis=0) - scene).max() < 0.05


def test_circle_pattern_geometry():
    pat = run_structured_noise.ring(2.0)
    img = pat.reshape(16, 16)
    assert img.max() == 2.0
    yy, xx = np.nonzero(img)
    dist = np.hypot(yy - 7.5, xx - 7.5)
    assert np.all(np.abs(dist - 5.0) <= 0.76)
    assert not img[7:9, 7:9].any()  # center stays empty
