"""Benchmark of the gtta command line: one workload, one seed, one run.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is a black box imported from ``src/`` of the checkout this file
sits in. A run builds the workload's fixture from its spec, then runs the
workload command, one at a time (a closed loop with one client), for about
``--seconds`` seconds, checking every output. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones, from separately traced commands.

An operation is one command of the program, in a fresh process or in this
one. It fails on a non-zero exit or on a failed output check; the output
checks include the determinism contracts (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 3       # set-ups per untraced run; setup_s is their median
MIN_SAMPLES = 3         # per timed series, even when that overruns --seconds
RUN_BUDGET_S = 150      # no new sample starts after this much of a run
COMMAND_TIMEOUT_S = 120
SPEEDUP_SECONDS = 3     # --threads 1 / --threads 2 pairs run until this is spent
MAX_SPEEDUP_PAIRS = 5

# One BLAS thread, in this process and in every command: each command is one
# client on one core, and a second BLAS thread on a shared two-core machine
# mostly adds run-to-run spread. Set before numpy is first imported.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import spans  # noqa: E402
import workloads  # noqa: E402


class SetupError(Exception):
    """The fixture could not be built, so nothing can be measured."""


def _median(values):
    return statistics.median(values) if values else None


class Session:
    """Runs commands of the program for one workload and tallies operations."""

    def __init__(self, w: workloads.Workload, seed: int, work: Path, units: dict):
        self.w, self.seed, self.work, self.units = w, seed, work, units
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, bytes] = {}
        self.quality: dict = {}
        self._cli = None

    def record(self, what: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems

    # -- running the program ------------------------------------------------

    def fresh(self, argv, trace_file=None):
        """Run one command in a new interpreter: (exit problems, wall s, peak RSS MB)."""
        cmd = [sys.executable, str(HERE / "cli_proc.py")]
        if trace_file:
            cmd += ["--trace", trace_file]
        with open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd + ["--"] + argv, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        problems = []
        if proc.returncode != 0:
            tail = (self.work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            problems.append(f"exit {proc.returncode} {' '.join(tail)}")
        return problems, wall, usage.ru_maxrss / 1024.0

    def in_process(self, argv):
        """Run one command through ``gtta.cli.main`` in this process: (problems, seconds)."""
        if self._cli is None:
            sys.path.insert(0, str(SRC))
            import gtta.cli

            if not Path(gtta.cli.__file__).resolve().is_relative_to(SRC.resolve()):
                raise SetupError(f"imported gtta from {gtta.cli.__file__}, not from {SRC}")
            self._cli = gtta.cli
        start = time.perf_counter()
        try:
            code = self._cli.main(argv)
        except Exception as exc:  # the program's failure is a failed operation
            code = repr(exc)
        seconds = time.perf_counter() - start
        return ([] if code == 0 else [f"exit {code}"]), seconds

    def command(self, what: str, fresh: bool, threads: int = 1, trace_file=None):
        """Run the workload command once and compare its outputs with the first run.

        Returns (seconds, peak RSS MB or None) on success, None on a failed operation.
        """
        out = f"s{self.attempted}"
        argv = self.w.command(self.seed, out, threads=threads)
        if fresh:
            problems, seconds, rss = self.fresh(argv, trace_file)
        else:
            (problems, seconds), rss = self.in_process(argv), None
        if self.record(what, problems or self.compare(out)):
            return seconds, rss
        return None

    def setup_command(self, argv, trace_file=None):
        problems, _, _ = self.fresh(argv, trace_file)
        if not self.record(" ".join(argv[:2]), problems):
            raise SetupError(self.problems[-1])

    # -- checks -------------------------------------------------------------

    def compare(self, out: str) -> list[str]:
        """Problems if ``out`` differs from the reference outputs; removes ``out``."""
        problems = []
        for name in self.w.outputs:
            path = self.work / out / name
            if not path.exists():
                problems.append(f"{out}/{name} missing")
            elif path.read_bytes() != self.reference[name]:
                problems.append(f"{out}/{name} differs from the first run")
        shutil.rmtree(self.work / out, ignore_errors=True)
        return problems

    def run_reference(self) -> tuple[float, float]:
        """Run the first command, check its outputs in full, and keep them.

        Later runs are compared with these outputs even when a check failed;
        without outputs there is nothing to compare, and the run stops.
        """
        problems, wall, rss = self.fresh(self.w.command(self.seed, "ref"))
        if problems:
            self.record("first command", problems)
            raise SetupError(self.problems[-1])
        problems, self.quality = workloads.check_outputs(
            self.w, self.seed, self.work / "fixture", self.work / "ref")
        self.reference = {name: (self.work / "ref" / name).read_bytes()
                          for name in self.w.outputs}
        self.record("first command", problems)
        return wall, rss

    def rerun_from_provenance(self):
        """Rerun with ``--config ref/provenance.json``: (ok, wall s, peak RSS MB)."""
        argv = [self.w.command(self.seed, "ref")[0], "--config", "ref/provenance.json",
                "--out", "rerun"]
        problems, wall, rss = self.fresh(argv)
        ok = self.record("rerun from provenance", problems or self.compare("rerun"))
        return ok, wall, rss


# --------------------------------------------------------------------------
# the two kinds of run


def build_fixture(session: Session, trace: bool) -> list[float]:
    """Build the fixture (several times untraced); return the set-up times."""
    w, work = session.w, session.work
    times, first = [], None
    for rep in range(1 if trace else SETUP_REPEATS):
        directory = work / f"setup{rep}"
        traces = iter(range(100))

        def gtta(argv):
            trace_file = f"setup{rep}.{next(traces)}.trace.json" if trace else None
            session.setup_command(argv, trace_file)

        start = time.perf_counter()
        workloads.build_fixture(w, session.seed, directory, gtta)
        times.append(time.perf_counter() - start)
        digest = workloads.fixture_digest(directory)
        if first is None:
            first = digest
            directory.rename(work / "fixture")
        else:
            same = digest == first
            session.record(f"set-up {rep + 1}", [] if same else ["fixture differs from set-up 1"])
            shutil.rmtree(directory)
    return times


def measure(session: Session, seconds: float, run_start: float):
    """Untraced run: the end-to-end metrics, and the samples behind them."""
    setup_s = build_fixture(session, trace=False)
    deadline = time.perf_counter() + seconds
    wall, rss = session.run_reference()
    walls, peaks, rates = [wall], [rss], []
    ok, wall, rss = session.rerun_from_provenance()
    if ok:
        walls.append(wall)
        peaks.append(rss)
    if session.w.threads2_rerun:
        session.command("--threads 2 rerun", fresh=True, threads=2)
    # rows_per_s is a warm rate: the first in-process call only warms caches.
    session.command("in-process warm-up", fresh=False)

    while time.perf_counter() - run_start < RUN_BUDGET_S:
        if time.perf_counter() >= deadline and min(len(walls), len(rates)) >= MIN_SAMPLES:
            break
        in_process = len(rates) <= len(walls)
        sample = session.command("command", fresh=not in_process)
        if sample is None:
            break
        if in_process:
            rates.append(session.w.rows / sample[0])
        else:
            walls.append(sample[0])
            peaks.append(sample[1])

    return {
        "wall_s": _median(walls),
        "rows_per_s": _median(rates),
        "peak_rss_mb": _median(peaks),
        "setup_s": _median(setup_s),
        "accuracy": session.quality.get("accuracy"),
    }, {"walls": walls, "rates": rates, "setup_s": setup_s}


def _load_trace(session: Session, trace_file: str, expected) -> dict | None:
    """Summary of one traced command, or None (and a failed operation) if unusable."""
    with open(session.work / trace_file) as fh:
        data = json.load(fh)
    summary = spans.summarize(data["spans"])
    missing = spans.missing_spans(summary, expected)
    if missing:
        session.record("trace", [f"spans never fired: {', '.join(missing)}"])
        return None
    return {"summary": summary, "spans": data["spans"], "import_s": data["import_s"]}


def measure_traced(session: Session, seconds: float, run_start: float):
    """Traced run: the per-layer metrics, and the samples behind them."""
    build_fixture(session, trace=True)
    setup_summary = {}
    for path in sorted(session.work.glob("setup0.*.trace.json")):
        for name, entry in spans.summarize(json.loads(path.read_text())["spans"]).items():
            total = setup_summary.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                total[key] += value
    missing = spans.missing_spans(setup_summary, session.w.setup_spans)
    if missing:
        session.record("set-up trace", [f"spans never fired: {', '.join(missing)}"])

    deadline = time.perf_counter() + seconds
    wall, _ = session.run_reference()
    plain = [wall]
    ok, wall, _ = session.rerun_from_provenance()
    if ok:
        plain.append(wall)
    traced, layers = [], []
    while time.perf_counter() - run_start < RUN_BUDGET_S:
        if time.perf_counter() >= deadline and min(len(plain), len(traced)) >= MIN_SAMPLES:
            break
        trace_file = f"s{session.attempted}.trace.json" if len(traced) < len(plain) else None
        sample = session.command("command", fresh=True, trace_file=trace_file)
        if sample is None:
            break
        if trace_file is None:
            plain.append(sample[0])
            continue
        trace = _load_trace(session, trace_file, session.w.spans)
        if trace is None:
            break
        traced.append(sample[0])
        metrics = spans.layer_metrics(
            trace["summary"], setup_summary, spans.row_durations(trace["spans"]),
            spans.zero_noise_calls(trace["spans"]))
        metrics["cli.import_s"] = trace["import_s"]
        layers.append(metrics)

    # Warm in-process rows/s at --threads 2 over --threads 1, untraced. The
    # first call only warms caches.
    speedups = []
    pairs_until = time.perf_counter() + SPEEDUP_SECONDS
    if session.command("in-process warm-up", fresh=False) is not None:
        for _ in range(MAX_SPEEDUP_PAIRS):
            one = session.command("in-process --threads 1", fresh=False)
            two = session.command("in-process --threads 2", fresh=False)
            if one is None or two is None:
                break
            speedups.append(one[0] / two[0])
            if time.perf_counter() >= pairs_until:
                break

    if not layers:
        return {}, {}
    merged = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if session.units[name] == "s":
            merged[name] = statistics.median(values)
        elif len(set(values)) == 1:
            merged[name] = values[0]
        else:
            session.record("trace counts", [f"{name} changed between traced runs: {values}"])
            merged[name] = statistics.median(values)
    merged["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    merged["cli.threads2_speedup"] = _median(speedups)
    return merged, {"walls": plain, "traced": traced}


# --------------------------------------------------------------------------
# reporting


def _tail_note(samples) -> str:
    """Sample count, range, and the highest percentile with ten samples beyond it."""
    n = len(samples)
    if not n:
        return "n=0"
    note = f"n={n}, range {min(samples):.4g}..{max(samples):.4g}"
    if n < 20:
        return note + "; a tail percentile needs >= 20 samples"
    pct = int(100 * (1 - 10 / n))
    return note + f"; p{pct} {statistics.quantiles(samples, n=100, method='inclusive')[pct - 1]:.4g}"


def report(session: Session, trace: bool, metrics: dict, series: dict, wanted: dict) -> None:
    w = session.w
    print(f"gtta benchmark: workload {w.name}, seed {session.seed}, trace {int(trace)}")
    for name, unit in wanted.items():
        value = metrics.get(name)
        note = ""
        if name == "wall_s":
            note = _tail_note(series["walls"])
        elif name == "rows_per_s":
            note = _tail_note(series["rates"]) + f" (warm in-process calls of {w.rows} rows)"
        elif name == "setup_s":
            note = f"n={len(series['setup_s'])} set-ups"
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:36s} {shown:>14s} {unit:6s} {note}")
    if not trace:
        ratio = session.failed / session.attempted
        print(f"  {'failed_ratio':36s} {ratio:>14.6g} ratio  {session.failed}/{session.attempted} operations")
        for name in ("pixel_acc", "count_mae"):
            if name in session.quality:
                print(f"  {name:36s} {session.quality[name]:>14.6g}")
    for problem in session.problems:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()

    if not (SRC / "gtta" / "cli.py").is_file():
        print(f"error: no gtta package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    section = contract["per_layer" if args.trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in section}

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    session = Session(workloads.WORKLOADS[args.workload], args.seed, work, wanted)
    try:
        os.chdir(work)
        run = measure_traced if args.trace else measure
        metrics, series = run(session, args.seconds, run_start)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    report(session, bool(args.trace), metrics, series, wanted)
    absent = [name for name in wanted if metrics.get(name) is None]
    if absent:
        print(f"error: no measurement for {', '.join(absent)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
