#!/usr/bin/env python3
"""Bias/variance/error of the perturbation ensemble across noise levels.

Trains a small classifier on blobs with a class-skewed distractor, then
sweeps the noise grid for both schedules on distractor-carrying eval rows.
Prints one line per schedule and noise level, and writes their rows to a
JSON report.
"""

import argparse
import dataclasses
import json

from gtta.analysis import bias_variance_sweep
from gtta.data import Dataset, OutputKind
from gtta.perturb import NoiseSchedule
from gtta.predictor import MlpModel, batch_from_dataset, mlp_train
from gtta.rng import RngStream
from gtta.subspace import fit
from gtta.synthdata import BlobsSpec, gen_blobs


def setup(seed):
    """The trained classifier, its full-rank subspace and the distractor-carrying eval rows."""
    train_spec = BlobsSpec(
        n=300, dim=16, class_sep=3.0, cluster_std=1.0,
        distractor_amplitude=2.5, distractor_fractions=(0.9, 0.1),
        pattern_seed=seed, seed=seed,
    )
    eval_spec = dataclasses.replace(
        train_spec, n=160, seed=seed + 1000, distractor_fractions=(0.5, 0.5)
    )
    train, ev = gen_blobs(train_spec), gen_blobs(eval_spec)
    model = MlpModel([16, 32, 2], OutputKind.probabilities(2), RngStream(seed, 50))
    mlp_train(model, batch_from_dataset(train.data), epochs=120, lr=0.1,
              rng=RngStream(seed, 51))
    eval_ds = Dataset(ev.data.inputs[ev.injected], ev.data.targets[ev.injected],
                      ev.data.output_kind)
    return model, fit(train.data.inputs, "all"), eval_ds


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid", default="0,0.002,0.005,0.01,0.02,0.05")
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=8)
    ap.add_argument("--out", default="bias_variance")
    args = ap.parse_args()

    seed = args.seed
    model, s, eval_ds = setup(seed)
    grid = tuple(float(tok) for tok in args.grid.split(","))
    rows = []
    for strategy in ("constant", "incremental"):
        scheds = [NoiseSchedule(strategy, sigma, args.n) for sigma in grid]
        report = bias_variance_sweep(model, s, scheds, eval_ds, args.repeats,
                                     RngStream(seed, 52))
        rows.extend(report.rows)
        for row in report.rows:
            print(f"{strategy:11s} sigma={row['sigma']:<6g} "
                  f"bias2={row['bias2']:.4f} var={row['variance']:.5f} "
                  f"err={row['error']:.4f}")

    with open(args.out + ".json", "w") as fh:
        json.dump({"rows": rows, "ensemble_size": args.n,
                   "repeats": args.repeats}, fh, sort_keys=True, indent=2)
    print(f"-> {args.out}.json")


if __name__ == "__main__":
    main()
