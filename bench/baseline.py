"""Print the baseline tables: every workload, untraced and traced, on one seed.

Usage: python3 bench/baseline.py [--seed N]

Runs ``bench/run.py`` once per workload and trace setting, one run at a time,
for ``run_seconds`` of BENCHMARK.json each, and prints three markdown tables: the end-to-end metrics, the summary rows of
the ROADMAP baseline, and every per-layer metric by workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}, trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"ok": f"{result['failed']}/{result['attempted']} failed",
            **{name: m["value"] for name, m in result["metrics"].items()}}


def _fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"]
    names = [w["name"] for w in contract["workloads"]]
    plain = {w: run(w, args.seed, seconds, 0) for w in names}
    traced = {w: run(w, args.seed, seconds, 1) for w in names}

    e2e = contract["end_to_end"]
    print(f"End-to-end, seed {args.seed}, {seconds} s per run:\n")
    print("| workload | " + " | ".join(f"{m['name']} ({m['unit']})" for m in e2e) + " | operations |")
    print("|---" * (len(e2e) + 2) + "|")
    for w in names:
        print(f"| {w} | " + " | ".join(_fmt(plain[w][m["name"]]) for m in e2e)
              + f" | {plain[w]['ok']} |")

    def per_call(layers, seconds_key, calls_key):
        if not layers[calls_key]:
            return "n/a"
        seconds = layers[seconds_key] / layers[calls_key]
        return f"{1e3 * seconds:.1f} ms" if seconds >= 1e-3 else f"{1e6 * seconds:.1f} µs"

    p, a, x, c = (traced[w] for w in ("predict", "auto_sigma", "external_model", "count"))
    print("\nSummary:\n")
    print("| What | Value |\n|---|---|")
    print(f"| `predict`, 200 rows | {plain['predict']['wall_s']:.3f} s "
          f"(in-process `--threads 2` ÷ `--threads 1` rows/s: {p['cli.threads2_speedup']:.2f}) |")
    print(f"| `auto-sigma`, 200 rows, 7-point grid | {plain['auto_sigma']['wall_s']:.3f} s |")
    print(f"| `predict --model-cmd`, 16 rows | {plain['external_model']['wall_s']:.3f} s "
          f"({per_call(x, 'predictor.subprocess_s', 'predictor.subprocess_calls')} "
          f"per child call; `--threads 2` speedup {x['cli.threads2_speedup']:.2f}) |")
    print(f"| `count`, 12 maps of 256x256 | {plain['count']['wall_s']:.3f} s |")
    print(f"| `import gtta.cli` | {p['cli.import_s']:.3f} s |")
    print(f"| `label_components`, one 256x256 map | "
          f"{per_call(c, 'segcount.label_s', 'segcount.count_calls')} |")
    print(f"| `RngStream.generator()` (traced self time) | "
          f"{per_call(p, 'rng.generator_s', 'rng.generator_calls')} |")
    print(f"| tracing overhead on `auto-sigma` | {a['trace.overhead_s']:.3f} s |")

    print("\nPer layer (traced runs):\n")
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for m in contract["per_layer"]:
        print(f"| {m['name']} | {m['unit']} | "
              + " | ".join(_fmt(traced[w][m["name"]]) for w in names) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
