"""Layer spans recorded from outside the package, and the metrics made from them.

``install`` wraps public functions of ``gtta`` at the names their callers look
up. Modules bind imported names at import time, so ``gtta.cli.run_gtta`` and
``gtta.ensemble.run_gtta`` are separate call sites of the same function, and
both are wrapped. Methods are wrapped on their class. A wrapped name that no
longer exists raises at install time, and a span expected for a workload that
never fires is reported by ``missing_spans``: a moved call site shows up as an
error, never as a zero reading.

A span is ``[name, start, end, parent, value]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``value`` a per-call quantity such
as model rows or file bytes.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time


class Tracer:
    """Records nested spans in memory; ``dump`` writes them out once, at the end.

    There is one stack of open spans, so a traced command must run on one
    thread (``--threads 1``), as every traced command of the benchmark does.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, value=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if value is not None:
                record[4] = value(args, result)
            return result

        return wrapper

    def dump(self, path, **header):
        with open(path, "w") as fh:
            json.dump(dict(header, spans=self.spans), fh, separators=(",", ":"))


def _file_size(index):
    return lambda args, result: os.path.getsize(args[index])


def _batch_rows(args, result):
    return len(args[1])


def install(tracer: Tracer) -> None:
    """Wrap every traced call site of the imported ``gtta`` package."""
    from gtta import cli, ensemble, perturb, predictor, rng, segcount, subspace

    sites = [
        (cli, "load_tensor", "tensorio.load", _file_size(0)),
        (subspace, "load_container", "tensorio.load", _file_size(0)),
        (predictor, "load_container", "tensorio.load", _file_size(0)),
        (cli, "save_tensor", "tensorio.save", _file_size(1)),
        (subspace, "save_container", "tensorio.save", _file_size(1)),
        (predictor, "save_container", "tensorio.save", _file_size(1)),
        (cli, "content_hash", "tensorio.hash", _file_size(0)),
        (cli, "load_subspace", "subspace.load", None),
        (cli, "fit", "subspace.fit", None),
        (perturb, "project", "subspace.project", None),
        (perturb, "reconstruct", "subspace.reconstruct", None),
        (rng.RngStream, "generator", "rng.generator", None),
        (ensemble, "make_candidates", "perturb.make_candidates", None),
        (perturb, "latent_candidates", "perturb.latent_candidates", None),
        (perturb, "per_component_sigma", "perturb.per_component_sigma", None),
        (predictor.MlpModel, "predict", "predictor.predict", _batch_rows),
        (predictor.SubprocessPredictor, "predict", "predictor.subprocess", _batch_rows),
        (cli, "mlp_train", "predictor.train", None),
        (predictor.MlpModel, "loss_and_gradients", "predictor.train_step", None),
        (cli, "run_gtta", "ensemble.run_gtta", None),
        (ensemble, "run_gtta", "ensemble.run_gtta", None),
        (cli, "select_sigma", "ensemble.select_sigma", None),
        (cli, "count_components", "segcount.count", lambda args, result: result.count),
        (segcount, "erode", "segcount.erode", None),
        (segcount, "label_components", "segcount.label", lambda args, result: result[1]),
    ]
    for owner, attr, name, value in sites:
        if attr not in owner.__dict__:
            raise LookupError(f"traced call site {owner.__name__}.{attr} no longer exists")
        original = owner.__dict__[attr]
        setattr(owner, attr, tracer.wrap(name, original, value))


# --------------------------------------------------------------------------
# aggregation


def summarize(spans) -> dict:
    """Per span name: calls, self seconds, and the summed value.

    Self time is a span's duration minus the durations of its direct children.
    """
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = {}
    for i, (name, start, end, _, value) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "value": 0})
        entry["calls"] += 1
        entry["self_s"] += end - start - child_s[i]
        entry["value"] += value
    return out


def row_durations(spans) -> list[float]:
    """Seconds per input row: each select_sigma call, else each top-level run_gtta."""
    rows = []
    for name, start, end, parent, _ in spans:
        if name == "ensemble.select_sigma" or (
            name == "ensemble.run_gtta"
            and (parent < 0 or spans[parent][0] != "ensemble.select_sigma")
        ):
            rows.append(end - start)
    return rows


def zero_noise_calls(spans) -> int:
    """run_gtta calls whose model calls covered a single row in total."""
    rows = {}
    for name, _, _, parent, value in spans:
        if name in ("predictor.predict", "predictor.subprocess"):
            while parent >= 0 and spans[parent][0] != "ensemble.run_gtta":
                parent = spans[parent][3]
            if parent >= 0:
                rows[parent] = rows.get(parent, 0) + value
    return sum(1 for r in rows.values() if r == 1)


def missing_spans(summary: dict, expected) -> list[str]:
    return sorted(name for name in expected if summary.get(name, {}).get("calls", 0) == 0)


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(command: dict, setup: dict, rows_s: list[float], zero_noise: int) -> dict:
    """The per-layer metrics of one traced command.

    ``command`` and ``setup`` are ``summarize`` outputs of the workload command
    and of the fixture build; only fit and training come from the latter.
    """
    def calls(name, source=command):
        return source.get(name, {}).get("calls", 0)

    def self_s(name, source=command):
        return source.get(name, {}).get("self_s", 0.0)

    def value(name):
        return command.get(name, {}).get("value", 0)

    model_calls = calls("predictor.predict") + calls("predictor.subprocess")
    model_rows = value("predictor.predict") + value("predictor.subprocess")
    gtta_calls = calls("ensemble.run_gtta")
    labeled = value("segcount.label")
    return {
        "tensorio.load_s": self_s("tensorio.load"),
        "tensorio.save_s": self_s("tensorio.save"),
        "tensorio.hash_s": self_s("tensorio.hash"),
        "tensorio.bytes_read": value("tensorio.load") + value("tensorio.hash"),
        "tensorio.bytes_written": value("tensorio.save"),
        "subspace.load_s": self_s("subspace.load"),
        "subspace.project_calls": calls("subspace.project"),
        "subspace.project_s": self_s("subspace.project"),
        "subspace.reconstruct_s": self_s("subspace.reconstruct"),
        "subspace.fit_s": self_s("subspace.fit", setup),
        "rng.generator_calls": calls("rng.generator"),
        "rng.generator_s": self_s("rng.generator"),
        "perturb.make_candidates_calls": calls("perturb.make_candidates"),
        "perturb.make_candidates_s": self_s("perturb.make_candidates"),
        "perturb.latent_candidates_s": self_s("perturb.latent_candidates"),
        "perturb.per_component_sigma_calls": calls("perturb.per_component_sigma"),
        "perturb.per_component_sigma_s": self_s("perturb.per_component_sigma"),
        "predictor.predict_calls": model_calls,
        "predictor.predict_rows": model_rows,
        "predictor.predict_s": self_s("predictor.predict") + self_s("predictor.subprocess"),
        "predictor.rows_per_call": model_rows / model_calls if model_calls else 0.0,
        "predictor.subprocess_calls": calls("predictor.subprocess"),
        "predictor.subprocess_s": self_s("predictor.subprocess"),
        "predictor.train_steps": calls("predictor.train_step", setup),
        "predictor.train_s": self_s("predictor.train", setup) + self_s("predictor.train_step", setup),
        "ensemble.run_gtta_calls": gtta_calls,
        "ensemble.run_gtta_s": self_s("ensemble.run_gtta"),
        "ensemble.select_sigma_calls": calls("ensemble.select_sigma"),
        "ensemble.select_sigma_s": self_s("ensemble.select_sigma"),
        "ensemble.zero_noise_calls": zero_noise,
        # Each row returns one ensemble, so rows over computed ensembles.
        "ensemble.kept_ensemble_ratio": len(rows_s) / gtta_calls if gtta_calls else 0.0,
        "ensemble.row_s_p50": _quantile(rows_s, 50),
        "ensemble.row_s_p95": _quantile(rows_s, 95),
        "segcount.count_calls": calls("segcount.count"),
        "segcount.erode_s": self_s("segcount.erode"),
        "segcount.label_s": self_s("segcount.label"),
        "segcount.components": labeled,
        "segcount.kept_component_ratio": value("segcount.count") / labeled if labeled else 0.0,
    }
