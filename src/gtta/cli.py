"""Command-line entry point.

Every run writes its artifacts plus a ``provenance.json`` recording the
resolved configuration and the content hash of every file the command read
or wrote, as :func:`gtta.tensorio.recording` saw them.
Re-running a command with ``--config <provenance.json>`` reproduces the
artifacts byte for byte; explicit flags override config values.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import shlex
import sys
from pathlib import Path

import numpy as np

from .data import REAL_VALUES, Dataset, OutputKind
from .ensemble import DEFAULT_SIGMA_GRID, ENGINE, run_gtta, select_sigma
from .errors import DataError, FormatError, GttaError, ParamError
from .perturb import VAR_FLOOR, NoiseSchedule
from .predictor import (
    MlpModel,
    SubprocessPredictor,
    batch_from_dataset,
    load_model,
    mlp_train,
    save_model,
)
from .rng import RngStream
from .segcount import count as count_components, evaluate_counting
from .subspace import fit, load_subspace, save_subspace
from .tensorio import (
    content_hash, load_json, load_tensor, recording, save_container, save_json, save_tensor,
)

# Task-level defaults: retained variance, ensemble sizes per task family.
DEFAULT_RETAIN = 0.99
DEFAULT_ENSEMBLE = 15
DEFAULT_ENSEMBLE_REGRESSION = 100

# Options of earlier versions, each at the one value the code now always uses.
# A config that names another value asks for a computation that no longer exists.
# ``bins`` is ``analysis.STD_ERROR_BINS``, written out so that only ``analyze``
# imports ``analysis``.
_RETIRED = {"var_floor": VAR_FLOOR, "range_data": None, "hard_labels": False,
            "restart": False, "bins": 10}

# Commands whose outputs moved with the engine version; a record of one of
# them from another engine would replay a different computation.
_ENGINE_COMMANDS = ("predict", "auto-sigma", "distill", "analyze")

# The error line of each failure that a command ends in and that its type does not name.
_ERROR_LINES = {OSError: "IoError: {}",
                FloatingPointError: "DataError: a value leaves float64's range ({})"}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Only a known command runs, so only its parser is built and only it reads --config.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        config = _load_config(argv) if command else {}
        parser = _build_parser(config, command)
        args = parser.parse_args(argv)
        if not hasattr(args, "handler"):
            parser.print_usage(sys.stderr)
            return 2
        ran = {k: getattr(args, k) for k in ("command", "kind", "experiment") if hasattr(args, k)}
        if any(config.get(k, v) != v for k, v in ran.items()):
            recorded = " ".join(str(config.get(k, v)) for k, v in ran.items())
            raise ParamError(f"--config {args.config} is from a {recorded} run, "
                             f"not {' '.join(ran.values())}")
        # A value that leaves float64's range is a FloatingPointError, not a warning.
        with recording() as record, np.errstate(over="raise", invalid="raise"):
            args.handler(args)
            provenance = _provenance(args, record)
        out = Path(args.out)
        save_json(provenance, out / "provenance.json" if out.is_dir() else f"{out}.provenance.json")
    except (GttaError, MemoryError, *_ERROR_LINES) as exc:
        line = next((f for t, f in _ERROR_LINES.items() if isinstance(exc, t)),
                    type(exc).__name__ + ": {}")
        print("error: " + line.format(exc), file=sys.stderr)
        return 1
    return 0


def _load_config(argv) -> dict:
    """The option values a ``--config`` file holds; a provenance record keeps them under "config"."""
    finder = argparse.ArgumentParser(prog="gtta", add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv)[0].config
    if path is None:
        return {}
    record = load_json(path)
    config = record.get("config", record)
    if not isinstance(config, dict):
        raise FormatError(f"--config {path}: \"config\" is not a JSON object")
    for key, fixed in _RETIRED.items():
        if config.get(key, fixed) != fixed:
            raise ParamError(f"--config {path} sets {key} to {config[key]!r}; "
                             f"that option is gone and is always {fixed!r}")
    engine = record.get("engine", 1)
    if "config" in record and config.get("command") in _ENGINE_COMMANDS and engine != ENGINE:
        raise ParamError(f"--config {path} records a {config['command']} run of engine "
                         f"{engine}, whose outputs engine {ENGINE} does not reproduce")
    return config


class _ConfigParser(argparse.ArgumentParser):
    """A subcommand parser whose options default to the values of a ``--config`` file.

    Only the options a subcommand declares are taken from the config; the
    provenance of another command or an older version names others. A value
    is taken only if the option could hold it after a command-line parse.
    """

    def __init__(self, *args, config, **kwargs):
        self.config = config
        super().__init__(*args, **kwargs)

    def add_argument(self, *names, **kwargs):
        action = super().add_argument(*names, **kwargs)
        taken = action.option_strings and action.default is not argparse.SUPPRESS
        if taken and action.dest in self.config:
            action.default, action.required = _config_value(action, self.config[action.dest]), False
        return action


# The JSON values a --config may give an option, by the option's type, and their name.
_CONFIG_TYPES = {None: (str, "a string"), int: (int, "an integer"),
                 float: ((int, float), "a number")}


def _config_value(action: argparse.Action, value):
    """``value`` as the option ``action`` holds it, or a ``ParamError`` if it cannot hold it.

    A string is converted as a command-line value is; a number must already
    be of the option's type; null stands for an option left out.
    """
    if value is None and action.default is None and not action.required:
        return value
    types, takes = (bool, "true or false") if action.nargs == 0 else _CONFIG_TYPES[action.type]
    if isinstance(value, str) and action.type is not None:
        with contextlib.suppress(ValueError):
            value = action.type(value)
    ok = isinstance(value, types) and isinstance(value, bool) == (types is bool)
    if action.choices is not None:
        ok, takes = ok and value in action.choices, f"one of {', '.join(map(str, action.choices))}"
    if not ok:
        raise ParamError(f"--config sets {action.option_strings[0]} to {value!r}, "
                         f"which is not {takes}")
    return value


# --------------------------------------------------------------------------
# provenance


def _provenance(args, record) -> dict:
    """The resolved config and the content hashes of the files a command read and wrote.

    Each hash is the recording's digest of the bytes the command saw, so this
    waits for any still being taken. It is written after the recording ends:
    a directory ``--out`` gets a provenance.json inside, an output file a
    .provenance.json sibling.
    """
    subject = [getattr(args, k) for k in ("kind", "experiment") if hasattr(args, k)]
    return {
        "command": " ".join([args.command] + subject),
        "engine": ENGINE,
        "config": {k: v for k, v in sorted(vars(args).items()) if k not in ("handler", "config")},
        "inputs": {p: content_hash(p, seen) for p, seen in record["inputs"].items()},
        "outputs": {p: content_hash(p, seen) for p, seen in record["outputs"].items()},
    }


# --------------------------------------------------------------------------
# shared argument groups


def _add_common(sub, handler):
    """The options every command takes, declared last, and the command's handler."""
    sub.add_argument("--out", required=True)
    sub.add_argument("--config", help="JSON file of defaults; flags override")
    sub.add_argument("--threads", type=int, default=1,
                     help="no effect; accepted because existing command lines pass it")
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(handler=handler)


def _add_schedule(sub, with_grid=False):
    sub.add_argument("--strategy", choices=["constant", "incremental"], default="constant")
    sub.add_argument("--n", type=int, default=None, help="ensemble size")
    sub.add_argument("--sigma-cap", type=float, default=None)
    if with_grid:
        sub.add_argument("--grid", default=",".join(str(v) for v in DEFAULT_SIGMA_GRID))
    else:
        sub.add_argument("--sigma", type=float, default=0.1)


def _add_model_source(sub):
    """The model, in-process or external, and the subspace its ensemble perturbs in."""
    sub.add_argument("--model", help="MLP checkpoint file")
    sub.add_argument("--model-cmd", help="external predictor command (stdin/stdout tensors)")
    sub.add_argument("--output-kind", default=None,
                     help="for --model-cmd: probabilities:C, real, or per-pixel:HxW")
    sub.add_argument("--subspace", required=True)


def _parse_output_kind(text: str) -> OutputKind:
    try:
        if text == "real":
            return OutputKind.real_values()
        if text.startswith("probabilities:"):
            return OutputKind.probabilities(int(text.split(":", 1)[1]))
        if text.startswith("per-pixel:"):
            h, w = text.split(":", 1)[1].lower().split("x")
            return OutputKind.per_pixel(int(h), int(w))
    except ValueError:
        pass
    raise ParamError(f"cannot parse output kind {text!r}; "
                     "use probabilities:C, real, or per-pixel:HxW")


@contextlib.contextmanager
def _load_predictor(args):
    """The model and the subspace it is perturbed in, for the length of a ``with`` block.

    The subspace is read right after the model. An external model's child is
    closed, with its last checks, when the block ends, so callers write
    artifacts after the block; if the block raises, the child is killed.
    """
    if args.model:
        yield load_model(args.model), load_subspace(args.subspace)
    elif args.model_cmd:
        if not args.output_kind:
            raise ParamError("--model-cmd requires --output-kind")
        kind = _parse_output_kind(args.output_kind)
        try:
            argv = shlex.split(args.model_cmd)
        except ValueError as exc:
            raise ParamError(f"--model-cmd {args.model_cmd!r} cannot be split: {exc}") from None
        if not argv:
            raise ParamError(f"--model-cmd {args.model_cmd!r} names no command")
        with SubprocessPredictor(argv, kind) as model:
            yield model, load_subspace(args.subspace)
    else:
        raise ParamError("need --model or --model-cmd")


def _schedule(args, model, sigma: float | None = None) -> NoiseSchedule:
    """The schedule at ``sigma``, else ``--sigma``; ``--n`` defaults by the model's output kind."""
    n = args.n
    if n is None:
        regression = model is not None and model.output_kind.kind == REAL_VALUES
        n = DEFAULT_ENSEMBLE_REGRESSION if regression else DEFAULT_ENSEMBLE
    return NoiseSchedule(args.strategy, args.sigma if sigma is None else sigma, n,
                         sigma_cap=args.sigma_cap)


def _parse_floats(text, flag: str) -> tuple:
    try:
        return tuple(float(tok) for tok in str(text).split(","))
    except ValueError:
        raise ParamError(f"{flag} needs comma-separated numbers, got {text!r}") from None


def _parse_clamp(text):
    if text is None:
        return None
    bounds = _parse_floats(text, "--clamp")
    if len(bounds) != 2 or not -math.inf < bounds[0] <= bounds[1] < math.inf:
        raise ParamError(f"--clamp needs finite LO,HI with LO <= HI, got {text!r}")
    return bounds


def _parse_retain(text):
    """'all', an integer component count, or a retained-variance fraction."""
    text = str(text)
    if text == "all":
        return text
    try:
        return int(text) if text.isdigit() else float(text)
    except ValueError:
        raise ParamError(f"--retain needs a fraction, a count, or 'all', got {text!r}") from None


# --------------------------------------------------------------------------
# subcommands


def _cmd_synth(args):
    from . import synthdata

    out = Path(args.out)
    params = load_json(args.spec)
    if "seed" not in params:
        params["seed"] = args.seed
    spec = synthdata.spec_from_dict(args.kind, params)
    if args.kind == "tabular":
        bundle = synthdata.gen_tabular(spec)
        for name, split in (("train", bundle.train), ("val", bundle.val), ("test", bundle.test)):
            save_tensor(split.inputs, out / f"{name}_inputs.gtt")
            save_tensor(split.targets, out / f"{name}_targets.gtt")
    elif args.kind == "blobs":
        bundle = synthdata.gen_blobs(spec)
        save_tensor(bundle.data.inputs, out / "inputs.gtt")
        save_tensor(bundle.data.targets.astype(np.float64), out / "targets.gtt")
        if spec.distractor_amplitude != 0:
            save_tensor(bundle.pattern, out / "pattern.gtt")
    else:
        bundle = synthdata.gen_blob_images(spec)
        save_tensor(bundle.data.inputs, out / "inputs.gtt")
        save_tensor(bundle.data.targets, out / "targets.gtt")
        save_tensor(np.stack(bundle.instance_maps).astype(np.float64), out / "instances.gtt")
        save_tensor(bundle.counts.astype(np.float64)[:, None], out / "counts.gtt")
    save_json(params | {"kind": args.kind}, out / "spec.json")


def _load_rows(path, header: bool = False) -> np.ndarray:
    """The [n, d] rows of a GTT/CSV file; a 1-D tensor is one row."""
    rows = np.atleast_2d(load_tensor(path, header=header))
    if rows.ndim != 2:
        raise DataError(f"inputs must be [n, d] with n >= 1, got shape {rows.shape}")
    return rows


def _split_target_col(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` without their last column, and that column, for ``--target-col last``."""
    if rows.shape[1] < 2:
        raise DataError("need at least 2 columns to split off a target column")
    return np.ascontiguousarray(rows[:, :-1]), rows[:, -1].copy()


def _cmd_fit(args):
    rows = _load_rows(args.data, header=args.header)
    if args.target_col == "last":
        rows, _ = _split_target_col(rows)
    save_subspace(fit(rows, _parse_retain(args.retain)), args.out)


def _train_kind(args, targets) -> OutputKind:
    if args.task == "classification":
        if args.classes is None:
            raise ParamError("--task classification needs --classes")
        return OutputKind.probabilities(args.classes)
    if args.task == "segmentation":
        if targets.ndim != 3:
            raise ParamError(f"--task segmentation needs [n, H, W] --targets, got {targets.shape}")
        return OutputKind.per_pixel(*targets.shape[1:])
    return OutputKind.real_values()


def _load_targets(args, alternative: str = "", header: bool = False) -> np.ndarray:
    """The tensor of ``--targets``, which a command that compares outputs with targets needs."""
    if not args.targets:
        raise ParamError(f"{args.command} needs --targets{alternative}")
    return load_tensor(args.targets, header=header)


def _cmd_train(args):
    if args.target_col == "last":
        if args.targets:
            raise ParamError("train takes its targets from --targets or --target-col last, "
                             "not both")
        rows, targets = _split_target_col(_load_rows(args.data, header=args.header))
    else:
        targets = _load_targets(args, " or --target-col last", header=args.header)
        rows = _load_rows(args.data, header=args.header)
    kind = _train_kind(args, targets)
    ds = Dataset(rows, targets, kind)
    try:
        hidden = [int(tok) for tok in args.hidden.split(",") if tok]
    except ValueError:
        raise ParamError(f"--hidden needs comma-separated integers, got {args.hidden!r}") from None
    model = MlpModel([ds.d] + hidden + [kind.head_width or 1], kind, RngStream(args.seed))
    curve = mlp_train(
        model, batch_from_dataset(ds),
        epochs=args.epochs, lr=args.lr, rng=RngStream(args.seed, 1),
        batch_size=args.batch_size, momentum=args.momentum,
    )
    save_model(model, args.out)
    save_json({"loss_curve": curve}, args.out + ".losses.json")


def _cmd_predict(args):
    with _load_predictor(args) as (model, s):
        rows = _load_rows(args.input)
        sched = _schedule(args, model)
        result = run_gtta(model, s, sched, rows, RngStream(args.seed, 0).rows(len(rows)),
                          clamp=_parse_clamp(args.clamp))
    _emit_ensemble_outputs(result, sched, Path(args.out))


def _cmd_auto_sigma(args):
    with _load_predictor(args) as (model, s):
        rows = _load_rows(args.input)
        scheds = [_schedule(args, model, sigma) for sigma in _parse_floats(args.grid, "--grid")]
        result = select_sigma(model, s, scheds, rows, RngStream(args.seed, 0).rows(len(rows)),
                              clamp=_parse_clamp(args.clamp), threshold=args.threshold)
    _emit_ensemble_outputs(result, scheds[0], Path(args.out))


def _emit_ensemble_outputs(result, sched: NoiseSchedule, out: Path):
    save_tensor(result.mean_prediction, out / "mean.gtt")
    save_tensor(result.std_map, out / "std.gtt")
    records = [
        {"row": i, "mean_prediction": "mean.gtt", "std_min": float(std.min()),
         "std_mean": float(std.mean()), "std_max": float(std.max()),
         "chosen_sigma": float(sigma), "ensemble_size": sched.ensemble_size,
         "strategy": sched.strategy}
        for i, (std, sigma) in enumerate(zip(result.std_map, result.chosen_sigma))
    ]
    save_json(records, out / "results.json")


def _cmd_distill(args):
    from .distill import distill, generate_pseudolabels

    student = load_model(args.student)
    s = load_subspace(args.subspace)
    kind = student.output_kind
    labeled = Dataset(_load_rows(args.labeled), load_tensor(args.labeled_targets), kind)
    unlabeled = _load_rows(args.unlabeled)
    pseudo = generate_pseudolabels(student, s, _schedule(args, student), unlabeled,
                                   RngStream(args.seed, 7))
    distilled, report = distill(
        student, labeled, pseudo,
        mixing=getattr(args, "lambda"), epochs=args.epochs, lr=args.lr,
        rng=RngStream(args.seed, 8), batch_size=args.batch_size,
    )
    out = Path(args.out)
    save_container({"inputs": pseudo.inputs, "teacher_targets": pseudo.targets,
                    "weights": pseudo.weights}, out / "pseudolabels.gtt")
    save_model(distilled, out / "distilled.gtt")
    save_json(report, out / "report.json")


def _cmd_count(args):
    prob = load_tensor(args.input)
    if prob.ndim not in (2, 3):
        raise DataError(f"--input must be an [H,W] or [n,H,W] tensor, got shape {prob.shape}")
    lo, hi = prob.min(), prob.max()  # the loader has refused NaN and empty tensors
    if lo < 0 or hi > 1:
        raise DataError(f"--input must hold probabilities in [0, 1], got values in [{lo}, {hi}]")
    if prob.ndim == 2:
        prob = prob[None]
    if args.elem > min(prob.shape[1:]):
        raise ParamError(f"--elem {args.elem} is wider than the {prob.shape[1]}x{prob.shape[2]} "
                         "maps; an element wider than a map erodes every pixel of it")
    records = []
    for i in range(prob.shape[0]):
        result = count_components(
            prob[i], args.threshold, args.elem, args.iters,
            min_area=args.min_area, connectivity=args.connectivity,
        )
        records.append({"row": i, "count": result.count, "areas": result.areas})
    report = {"counts": records}
    if args.truth:
        truth = load_tensor(args.truth).reshape(-1)
        report["mae"] = evaluate_counting([r["count"] for r in records], truth)
    save_json(report, Path(args.out) / "counts.json")


def _cmd_analyze(experiment, args):
    save_json(experiment(args), Path(args.out) / "report.json")


def _load_eval_data(args, model) -> Dataset:
    """The evaluation rows and targets, read as the model's output kind."""
    targets = _load_targets(args)
    return Dataset(_load_rows(args.data), targets, model.output_kind)


def _analyze_bias_variance(args):
    from .analysis import bias_variance_sweep

    with _load_predictor(args) as (model, s):
        data = _load_eval_data(args, model)
        scheds = [_schedule(args, model, sigma) for sigma in _parse_floats(args.grid, "--grid")]
        return bias_variance_sweep(model, s, scheds, data, args.repeats, RngStream(args.seed, 11))


def _analyze_spectrum(args):
    from .analysis import covariance_spectrum_experiment

    return covariance_spectrum_experiment(
        load_subspace(args.subspace), _schedule(args, None), _load_rows(args.data),
        RngStream(args.seed, 12), baseline=args.baseline, equal_sigma=args.equal_sigma,
    )


def _analyze_std_error(args):
    from .analysis import std_error_correlation

    with _load_predictor(args) as (model, s):
        data = _load_eval_data(args, model)
        return std_error_correlation(model, s, _schedule(args, model), data,
                                     RngStream(args.seed, 13))


def _analyze_structured_noise(args):
    from .analysis import structured_noise_removal

    carrier = _load_rows(args.data)
    pattern = load_tensor(args.pattern).reshape(-1)
    return structured_noise_removal(
        carrier, pattern, _schedule(args, None), RngStream(args.seed, 14),
        inject_fraction=args.inject_fraction, retain=_parse_retain(args.retain),
    )


# --------------------------------------------------------------------------
# parser


def _declare_synth(p):
    p.add_argument("kind", choices=["tabular", "blobs", "images"])
    p.add_argument("--spec", required=True, help="JSON spec file")
    _add_common(p, _cmd_synth)


def _declare_fit(p):
    p.add_argument("--data", required=True)
    p.add_argument("--retain", default=str(DEFAULT_RETAIN),
                   help="variance fraction in (0,1], integer count, or 'all'")
    p.add_argument("--header", action="store_true", help="skip one CSV header line")
    p.add_argument("--target-col", choices=["last"], default=None,
                   help="drop the final CSV column (it is a target, not an input)")
    _add_common(p, _cmd_fit)


def _declare_train(p):
    p.add_argument("--data", required=True)
    p.add_argument("--targets", default=None)
    p.add_argument("--target-col", choices=["last"], default=None,
                   help="take targets from the final CSV column")
    p.add_argument("--header", action="store_true")
    p.add_argument("--task", choices=["classification", "regression", "segmentation"],
                   required=True)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--hidden", default="64,64")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--momentum", type=float, default=0.0)
    _add_common(p, _cmd_train)


def _declare_predict(p):
    _add_model_source(p)
    p.add_argument("--input", required=True)
    _add_schedule(p)
    p.add_argument("--clamp", default=None, metavar="LO,HI",
                   help="clamp reconstructed candidates into [LO, HI]")
    _add_common(p, _cmd_predict)


def _declare_auto_sigma(p):
    _add_model_source(p)
    p.add_argument("--input", required=True)
    _add_schedule(p, with_grid=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="segmentation confidence cutoff (default by strategy)")
    p.add_argument("--clamp", default=None, metavar="LO,HI",
                   help="clamp reconstructed candidates into [LO, HI]")
    _add_common(p, _cmd_auto_sigma)


def _declare_distill(p):
    p.add_argument("--student", required=True, help="pretrained MLP checkpoint")
    p.add_argument("--subspace", required=True)
    p.add_argument("--labeled", required=True)
    p.add_argument("--labeled-targets", required=True)
    p.add_argument("--unlabeled", required=True)
    _add_schedule(p)
    p.add_argument("--lambda", dest="lambda", type=float, default=0.5,
                   help="supervised loss share in [0, 1]")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--batch-size", type=int, default=32)
    _add_common(p, _cmd_distill)


def _declare_count(p):
    p.add_argument("--input", required=True, help="[H,W] or [n,H,W] tensor of probabilities")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--elem", type=int, default=3, help="square element side")
    p.add_argument("--iters", type=int, default=1)
    p.add_argument("--min-area", type=int, default=4)
    p.add_argument("--connectivity", type=int, choices=[4, 8], default=8)
    p.add_argument("--truth", default=None, help="true counts tensor for MAE")
    _add_common(p, _cmd_count)


def _declare_analyze(p):
    parser_class = functools.partial(_ConfigParser, config=p.config)
    experiments = p.add_subparsers(dest="experiment", required=True, parser_class=parser_class)

    p = experiments.add_parser("bias-variance", help="ensemble error split per sigma")
    _add_model_source(p)
    p.add_argument("--data", required=True)
    p.add_argument("--targets", default=None)
    _add_schedule(p, with_grid=True)
    p.add_argument("--repeats", type=int, default=20, help="ensembles per input and sigma")
    _add_common(p, functools.partial(_cmd_analyze, _analyze_bias_variance))

    p = experiments.add_parser("spectrum", help="latent covariance eigenvalues")
    p.add_argument("--subspace", required=True)
    p.add_argument("--data", required=True)
    _add_schedule(p)
    p.add_argument("--baseline", choices=["none", "global_jitter"], default="none")
    p.add_argument("--equal-sigma", type=float, default=None,
                   help="share one noise std across all components")
    _add_common(p, functools.partial(_cmd_analyze, _analyze_spectrum))

    p = experiments.add_parser("std-error", help="ensemble std against absolute error")
    _add_model_source(p)
    p.add_argument("--data", required=True)
    p.add_argument("--targets", default=None)
    _add_schedule(p)
    _add_common(p, functools.partial(_cmd_analyze, _analyze_std_error))

    p = experiments.add_parser("structured-noise", help="removal of an injected pattern")
    p.add_argument("--data", required=True)
    p.add_argument("--pattern", required=True, help="pattern tensor to inject")
    _add_schedule(p)
    p.add_argument("--inject-fraction", type=float, default=0.5)
    p.add_argument("--retain", default="all")
    _add_common(p, functools.partial(_cmd_analyze, _analyze_structured_noise))


# Every command: its help line and the function that declares its options.
_COMMANDS = {
    "synth": ("generate a deterministic fixture", _declare_synth),
    "fit": ("fit the principal subspace of a data matrix", _declare_fit),
    "train": ("train the built-in MLP", _declare_train),
    "predict": ("run the perturbation ensemble on inputs", _declare_predict),
    "auto-sigma": ("pick the noise level per input by confidence", _declare_auto_sigma),
    "distill": ("distill the ensemble into the base model", _declare_distill),
    "count": ("count objects in probability maps", _declare_count),
    "analyze": ("statistical diagnostics", _declare_analyze),
}


def _build_parser(config: dict, command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; ``config`` gives the defaults of the options it names.

    Only ``command``'s subparser is built when it names one; otherwise every
    command's is, so usage, help and errors list them all.
    """
    parser = argparse.ArgumentParser(
        prog="gtta",
        description="Latent-subspace test-time ensembles, distillation, counting.",
    )
    subs = parser.add_subparsers(dest="command",
                                 parser_class=functools.partial(_ConfigParser, config=config))
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_line, declare = _COMMANDS[name]
        declare(subs.add_parser(name, help=help_line))
    return parser


if __name__ == "__main__":
    sys.exit(main())
