"""Command-line entry point.

Every run writes its artifacts plus a ``provenance.json`` recording the
resolved configuration and the content hash of every input and output file.
Re-running a command with ``--config <provenance.json>`` reproduces the
artifacts byte for byte; explicit flags override config values.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shlex
import sys
from pathlib import Path

import numpy as np

from . import analysis, synthdata
from .distill import distill as run_distill
from .distill import generate_pseudolabels, save_pseudolabels
from .data import REAL_VALUES, Dataset, OutputKind, load_dataset
from .ensemble import (
    DEFAULT_SIGMA_GRID,
    SigmaSearchConfig,
    run_gtta,
    select_sigma,
)
from .errors import GttaError, ParamError
from .perturb import NoiseSchedule
from .predictor import (
    MlpModel,
    SubprocessPredictor,
    batch_from_dataset,
    load_model,
    mlp_train,
    save_model,
)
from .rng import RngStream
from .segcount import StructuringElement, count as count_components, evaluate_counting
from .subspace import fit, load_subspace, save_subspace
from .tensorio import content_hash, load_tensor, save_bytes, save_json, save_tensor

# Task-level defaults: retained variance, ensemble sizes per task family.
DEFAULT_RETAIN = 0.99
DEFAULT_ENSEMBLE = 15
DEFAULT_ENSEMBLE_REGRESSION = 100


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        config = _load_config(argv)
        for sub in _all_subparsers(parser):
            # Only a subcommand's own options are taken from the config; the
            # provenance of another command or an older version names others.
            own = {a.dest: config[a.dest] for a in sub._actions if a.dest in config}
            sub.set_defaults(**own)
            for action in sub._actions:
                if action.required and action.dest in own:
                    action.required = False
        args = parser.parse_args(argv)
        if not hasattr(args, "handler"):
            parser.print_usage(sys.stderr)
            return 2
        if config.get("command", args.command) != args.command:
            raise ParamError(f"--config {args.config} is from a {config['command']} run, "
                             f"not {args.command}")
        args.handler(args)
    except GttaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IoError: {exc}", file=sys.stderr)
        return 1
    return 0


def _load_config(argv) -> dict:
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return {}
    with open(path) as fh:
        try:
            loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParamError(f"--config {path} is not JSON: {exc}") from None
    # Provenance files carry the resolved config under "config".
    return loaded.get("config", loaded) if isinstance(loaded, dict) else {}


def _all_subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield sub
                yield from _all_subparsers(sub)


# --------------------------------------------------------------------------
# provenance


def _write_provenance(command: str, args, input_paths, output_paths, where):
    """Record the resolved config and content hashes of inputs and outputs.

    ``where`` is either a directory (gets a provenance.json inside) or a
    primary output file (gets a .provenance.json sibling).
    """
    skip = {"handler", "config"}
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in skip and not callable(v)
    }
    record = {
        "command": command,
        "config": config,
        "inputs": {str(p): content_hash(p) for p in input_paths if p},
        "outputs": {str(p): content_hash(p) for p in output_paths},
    }
    where = Path(where)
    path = where / "provenance.json" if where.is_dir() else Path(str(where) + ".provenance.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    save_json(record, path)
    return path


def _write_json(obj, path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    save_json(obj, path)


def _write_csv(path, header, rows):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)] + [
        ",".join("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    save_bytes("".join(line + "\n" for line in lines).encode(), path)


# --------------------------------------------------------------------------
# shared argument groups


def _add_common(sub):
    sub.add_argument("--config", help="JSON file of defaults; flags override")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted so that older provenance files replay; no effect")
    sub.add_argument("--seed", type=int, default=0)


def _add_schedule(sub, with_grid=False):
    sub.add_argument("--strategy", choices=["constant", "incremental"], default="constant")
    sub.add_argument("--n", type=int, default=None, help="ensemble size")
    sub.add_argument("--var-floor", type=float, default=1e-6)
    sub.add_argument("--sigma-cap", type=float, default=None)
    sub.add_argument("--clamp", default=None, metavar="LO,HI",
                     help="clamp reconstructed candidates into [LO, HI]")
    if with_grid:
        sub.add_argument("--grid", default=",".join(str(v) for v in DEFAULT_SIGMA_GRID))
        sub.add_argument("--threshold", type=float, default=None,
                         help="segmentation confidence cutoff (default by strategy)")
    else:
        sub.add_argument("--sigma", type=float, default=0.1)


def _add_model_source(sub):
    sub.add_argument("--model", help="MLP checkpoint file")
    sub.add_argument("--model-cmd", help="external predictor command (stdin/stdout tensors)")
    sub.add_argument("--output-kind", default=None,
                     help="for --model-cmd: probabilities:C, real, or per-pixel:HxW")


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
    """The model and the files it was read from, for the length of a ``with`` block.

    An external model's child is closed, with its last checks, when the
    block ends, so callers write artifacts after the block; if the block
    raises, the child is killed.
    """
    if args.model:
        yield load_model(args.model), [args.model, args.model + ".json"]
    elif args.model_cmd:
        if not args.output_kind:
            raise ParamError("--model-cmd requires --output-kind")
        kind = _parse_output_kind(args.output_kind)
        with SubprocessPredictor(shlex.split(args.model_cmd), kind) as model:
            yield model, []
    else:
        raise ParamError("need --model or --model-cmd")


def _default_ensemble_size(args, model) -> int:
    if args.n is not None:
        return args.n
    if model is not None and model.output_kind.kind == REAL_VALUES:
        return DEFAULT_ENSEMBLE_REGRESSION
    return DEFAULT_ENSEMBLE


def _schedule(args, n: int) -> NoiseSchedule:
    return NoiseSchedule(args.strategy, args.sigma, n,
                         var_floor=args.var_floor, sigma_cap=args.sigma_cap)


def _parse_floats(text, flag: str) -> tuple:
    try:
        return tuple(float(tok) for tok in str(text).split(","))
    except ValueError:
        raise ParamError(f"{flag} needs comma-separated numbers, got {text!r}") from None


def _parse_clamp(text):
    if text is None:
        return None
    bounds = _parse_floats(text, "--clamp")
    if len(bounds) != 2:
        raise ParamError(f"--clamp needs LO,HI, got {text!r}")
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(args.spec) as fh:
        params = json.load(fh)
    if args.seed is not None and "seed" not in params:
        params["seed"] = args.seed
    spec = synthdata.spec_from_dict(args.kind, params)
    outputs = []
    if args.kind == "tabular":
        bundle = synthdata.gen_tabular(spec)
        for name, split in (("train", bundle.train), ("val", bundle.val), ("test", bundle.test)):
            save_tensor(split.inputs, out / f"{name}_inputs.gtt")
            save_tensor(split.targets, out / f"{name}_targets.gtt")
            outputs += [out / f"{name}_inputs.gtt", out / f"{name}_targets.gtt"]
    elif args.kind == "blobs":
        bundle = synthdata.gen_blobs(spec)
        save_tensor(bundle.data.inputs, out / "inputs.gtt")
        save_tensor(bundle.data.targets.astype(np.float64), out / "targets.gtt")
        outputs += [out / "inputs.gtt", out / "targets.gtt"]
        if bundle.spec.distractor_amplitude != 0:
            save_tensor(bundle.pattern, out / "pattern.gtt")
            outputs.append(out / "pattern.gtt")
    else:
        bundle = synthdata.gen_blob_images(spec)
        save_tensor(bundle.data.inputs, out / "inputs.gtt")
        save_tensor(bundle.data.targets, out / "targets.gtt")
        save_tensor(np.stack(bundle.instance_maps).astype(np.float64), out / "instances.gtt")
        save_tensor(bundle.counts.astype(np.float64)[:, None], out / "counts.gtt")
        outputs += [out / p for p in
                    ("inputs.gtt", "targets.gtt", "instances.gtt", "counts.gtt")]
    _write_json(params | {"kind": args.kind}, out / "spec.json")
    outputs.append(out / "spec.json")
    _write_provenance(f"synth {args.kind}", args, [args.spec], outputs, out)


def _cmd_fit(args):
    data = load_tensor(args.data, header=args.header)
    if args.target_col == "last":
        data = np.ascontiguousarray(data[:, :-1])
    range_ref = load_tensor(args.range_data) if args.range_data else None
    s = fit(data, _parse_retain(args.retain), range_reference=range_ref)
    save_subspace(s, args.out)
    inputs = [args.data] + ([args.range_data] if args.range_data else [])
    _write_provenance("fit", args, inputs, [args.out, args.out + ".json"], args.out)


def _train_kind(args, targets) -> OutputKind:
    if args.task == "classification":
        if args.classes is None:
            raise ParamError("--task classification needs --classes")
        return OutputKind.probabilities(args.classes)
    if args.task == "segmentation":
        if targets is None or targets.ndim != 3:
            shape = None if targets is None else targets.shape
            raise ParamError(f"--task segmentation needs [n, H, W] --targets, got {shape}")
        return OutputKind.per_pixel(*targets.shape[1:])
    return OutputKind.real_values()


def _cmd_train(args):
    targets = load_tensor(args.targets, header=args.header) if args.targets else None
    kind = _train_kind(args, targets)
    ds = load_dataset(args.data, kind, targets,
                      target_col_last=args.target_col == "last", header=args.header)
    hidden = [int(tok) for tok in args.hidden.split(",") if tok]
    model = MlpModel([ds.d] + hidden + [kind.head_width or 1], kind, RngStream(args.seed))
    curve = mlp_train(
        model, batch_from_dataset(ds),
        epochs=args.epochs, lr=args.lr, rng=RngStream(args.seed, 1),
        batch_size=args.batch_size, momentum=args.momentum,
    )
    save_model(model, args.out)
    _write_json({"loss_curve": curve}, args.out + ".losses.json")
    inputs = [args.data] + ([args.targets] if args.targets else [])
    _write_provenance("train", args, inputs,
                      [args.out, args.out + ".json", args.out + ".losses.json"],
                      args.out)


def _cmd_predict(args):
    with _load_predictor(args) as (model, model_files):
        s = load_subspace(args.subspace)
        rows = np.atleast_2d(load_tensor(args.input))
        sched = _schedule(args, _default_ensemble_size(args, model))
        result = run_gtta(model, s, sched, rows, RngStream(args.seed, 0).rows(len(rows)),
                          clamp=_parse_clamp(args.clamp))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = _emit_ensemble_outputs(result, args.strategy, sched.ensemble_size, out)
    _write_provenance("predict", args,
                      [args.input, args.subspace] + model_files, outputs, out)


def _cmd_auto_sigma(args):
    with _load_predictor(args) as (model, model_files):
        s = load_subspace(args.subspace)
        rows = np.atleast_2d(load_tensor(args.input))
        cfg = SigmaSearchConfig(
            grid=_parse_floats(args.grid, "--grid"),
            ensemble_size=_default_ensemble_size(args, model),
            confidence_threshold=args.threshold,
            var_floor=args.var_floor,
            sigma_cap=args.sigma_cap,
            clamp=_parse_clamp(args.clamp),
        )
        _, result = select_sigma(model, s, args.strategy, rows, cfg,
                                 RngStream(args.seed, 0).rows(len(rows)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = _emit_ensemble_outputs(result, args.strategy, cfg.ensemble_size, out)
    _write_provenance("auto-sigma", args,
                      [args.input, args.subspace] + model_files, outputs, out)


def _emit_ensemble_outputs(result, strategy: str, ensemble_size: int, out: Path):
    save_tensor(result.mean_prediction, out / "mean.gtt")
    save_tensor(result.std_map, out / "std.gtt")
    records = [
        {"row": i, "mean_prediction": "mean.gtt", "std_min": float(std.min()),
         "std_mean": float(std.mean()), "std_max": float(std.max()),
         "chosen_sigma": float(sigma), "ensemble_size": ensemble_size, "strategy": strategy}
        for i, (std, sigma) in enumerate(zip(result.std_map, result.chosen_sigma))
    ]
    _write_json(records, out / "results.json")
    return [out / "mean.gtt", out / "std.gtt", out / "results.json"]


def _cmd_distill(args):
    student = load_model(args.student)
    s = load_subspace(args.subspace)
    kind = student.output_kind
    labeled = load_dataset(args.labeled, kind, load_tensor(args.labeled_targets))
    unlabeled = Dataset(np.atleast_2d(load_tensor(args.unlabeled)), None, kind)
    sched = _schedule(args, _default_ensemble_size(args, student))
    pseudo = generate_pseudolabels(
        student, s, sched, unlabeled, RngStream(args.seed, 7)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_pseudolabels(pseudo, out / "pseudolabels.gtt")
    distilled, report = run_distill(
        student, labeled, pseudo,
        mixing=getattr(args, "lambda"), epochs=args.epochs, lr=args.lr,
        rng=RngStream(args.seed, 8), batch_size=args.batch_size,
        hard_labels=args.hard_labels, restart=args.restart,
    )
    save_model(distilled, out / "distilled.gtt")
    _write_json(report, out / "report.json")
    outputs = [out / "pseudolabels.gtt", out / "pseudolabels.gtt.json",
               out / "distilled.gtt", out / "distilled.gtt.json", out / "report.json"]
    inputs = [args.student, args.student + ".json", args.subspace,
              args.labeled, args.labeled_targets, args.unlabeled]
    _write_provenance("distill", args, inputs, outputs, out)


def _cmd_count(args):
    prob = load_tensor(args.input)
    if prob.ndim == 2:
        prob = prob[None]
    element = StructuringElement.square(args.elem, args.iters)
    records = []
    for i in range(prob.shape[0]):
        result = count_components(
            prob[i], args.threshold, element,
            min_area=args.min_area, connectivity=args.connectivity,
        )
        records.append({"row": i, "count": result.count, "areas": result.areas})
    report = {"counts": records}
    inputs = [args.input]
    if args.truth:
        truth = load_tensor(args.truth).reshape(-1)
        report["mae"] = evaluate_counting([r["count"] for r in records], truth)
        inputs.append(args.truth)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(report, out / "counts.json")
    _write_provenance("count", args, inputs, [out / "counts.json"], out)


def _cmd_analyze(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    handler = {
        "bias-variance": _analyze_bias_variance,
        "spectrum": _analyze_spectrum,
        "std-error": _analyze_std_error,
        "structured-noise": _analyze_structured_noise,
    }[args.experiment]
    report, csv_paths, inputs = handler(args, out)
    _write_json(report, out / "report.json")
    _write_provenance(f"analyze {args.experiment}", args, inputs,
                      csv_paths + [out / "report.json"], out)


def _load_eval_data(args, model) -> Dataset:
    """The evaluation rows and targets, read as the model's output kind."""
    targets = load_tensor(args.targets) if args.targets else None
    return load_dataset(args.data, model.output_kind, targets)


def _analyze_bias_variance(args, out: Path):
    with _load_predictor(args) as (model, model_files):
        s = load_subspace(args.subspace)
        data = _load_eval_data(args, model)
        grid = _parse_floats(args.grid, "--grid")
        n = _default_ensemble_size(args, model)
        report = analysis.bias_variance_sweep(
            model, s, args.strategy, grid, n, data, args.repeats,
            RngStream(args.seed, 11), var_floor=args.var_floor,
        )
    rows = [(r["strategy"], r["sigma"], r["bias2"], r["variance"], r["error"])
            for r in report.rows]
    _write_csv(out / "bias_variance.csv",
               ["strategy", "sigma", "bias2", "variance", "error"], rows)
    inputs = [args.data, args.targets, args.subspace] + model_files
    return report.to_dict(), [out / "bias_variance.csv"], inputs


def _analyze_spectrum(args, out: Path):
    s = load_subspace(args.subspace)
    data = Dataset(np.atleast_2d(load_tensor(args.data)), None, OutputKind.real_values())
    sched = _schedule(args, max(args.n or DEFAULT_ENSEMBLE, 2))
    report = analysis.covariance_spectrum_experiment(
        s, sched, data, sched.ensemble_size, RngStream(args.seed, 12),
        baseline=args.baseline, equal_sigma=args.equal_sigma,
    )
    base = report.baseline_eigenvalues
    rows = [
        (i, float(v), None if base is None else float(base[i]))
        for i, v in enumerate(report.eigenvalues)
    ]
    _write_csv(out / "spectrum.csv", ["index", "eigenvalue", "baseline_eigenvalue"], rows)
    return report.to_dict(), [out / "spectrum.csv"], [args.data, args.subspace]


def _analyze_std_error(args, out: Path):
    with _load_predictor(args) as (model, model_files):
        s = load_subspace(args.subspace)
        data = _load_eval_data(args, model)
        sched = _schedule(args, _default_ensemble_size(args, model))
        report = analysis.std_error_correlation(
            model, s, sched, data, RngStream(args.seed, 13), bins=args.bins
        )
    rows = [
        (float(report.bin_edges[b]), float(report.bin_edges[b + 1]),
         int(report.bin_counts[b]), report.bin_mae[b])
        for b in range(len(report.bin_counts))
    ]
    _write_csv(out / "std_error.csv", ["bin_lo", "bin_hi", "count", "mae"], rows)
    inputs = [args.data, args.targets, args.subspace] + model_files
    return report.to_dict(), [out / "std_error.csv"], inputs


def _analyze_structured_noise(args, out: Path):
    carrier = Dataset(np.atleast_2d(load_tensor(args.data)), None, OutputKind.real_values())
    pattern = load_tensor(args.pattern).reshape(-1)
    report = analysis.structured_noise_removal(
        carrier, pattern, _schedule(args, args.n or DEFAULT_ENSEMBLE), RngStream(args.seed, 14),
        inject_fraction=args.inject_fraction, retain=_parse_retain(args.retain),
    )
    rows = [(i, r["latent_noise"], r["global_jitter"])
            for i, r in enumerate(report.per_row)]
    _write_csv(out / "structured_noise.csv",
               ["row", "latent_noise", "global_jitter"], rows)
    return report.to_dict(), [out / "structured_noise.csv"], [args.data, args.pattern]


# --------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtta",
        description="Latent-subspace test-time ensembles, distillation, counting.",
    )
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("synth", help="generate a deterministic fixture")
    p.add_argument("kind", choices=["tabular", "blobs", "images"])
    p.add_argument("--spec", required=True, help="JSON spec file")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_synth)

    p = subs.add_parser("fit", help="fit the principal subspace of a data matrix")
    p.add_argument("--data", required=True)
    p.add_argument("--retain", default=str(DEFAULT_RETAIN),
                   help="variance fraction in (0,1], integer count, or 'all'")
    p.add_argument("--range-data", default=None,
                   help="measure coordinate ranges on this set instead of the fit set")
    p.add_argument("--header", action="store_true", help="skip one CSV header line")
    p.add_argument("--target-col", choices=["last"], default=None,
                   help="drop the final CSV column (it is a target, not an input)")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_fit)

    p = subs.add_parser("train", help="train the built-in MLP")
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
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_train)

    p = subs.add_parser("predict", help="run the perturbation ensemble on inputs")
    _add_model_source(p)
    p.add_argument("--subspace", required=True)
    p.add_argument("--input", required=True)
    _add_schedule(p)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_predict)

    p = subs.add_parser("auto-sigma", help="pick the noise level per input by confidence")
    _add_model_source(p)
    p.add_argument("--subspace", required=True)
    p.add_argument("--input", required=True)
    _add_schedule(p, with_grid=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_auto_sigma)

    p = subs.add_parser("distill", help="distill the ensemble into the base model")
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
    p.add_argument("--hard-labels", action="store_true",
                   help="threshold teacher targets instead of using them soft")
    p.add_argument("--restart", action="store_true",
                   help="reinitialize the student instead of fine-tuning")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_distill)

    p = subs.add_parser("count", help="count objects in probability maps")
    p.add_argument("--input", required=True, help="[H,W] or [n,H,W] tensor of probabilities")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--elem", type=int, default=3, help="square element side")
    p.add_argument("--iters", type=int, default=1)
    p.add_argument("--min-area", type=int, default=4)
    p.add_argument("--connectivity", type=int, choices=[4, 8], default=8)
    p.add_argument("--truth", default=None, help="true counts tensor for MAE")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_count)

    p = subs.add_parser("analyze", help="statistical diagnostics")
    p.add_argument("experiment",
                   choices=["bias-variance", "spectrum", "std-error", "structured-noise"])
    _add_model_source(p)
    p.add_argument("--subspace", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--targets", default=None)
    _add_schedule(p)
    p.add_argument("--grid", default=",".join(str(v) for v in DEFAULT_SIGMA_GRID))
    p.add_argument("--repeats", type=int, default=20, help="ensembles per input and sigma")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--baseline", choices=["none", "global_jitter"], default="none")
    p.add_argument("--equal-sigma", type=float, default=None,
                   help="share one noise std across all components")
    p.add_argument("--pattern", default=None, help="pattern tensor for structured-noise")
    p.add_argument("--inject-fraction", type=float, default=0.5)
    p.add_argument("--retain", default="all")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze)

    return parser


if __name__ == "__main__":
    sys.exit(main())
