#!/usr/bin/env python3
"""Ensemble spread against true error on a boundary-noise segmentation task.

Trains a small per-pixel MLP on blob images whose training masks carry
boundary noise, then pools (ensemble std, absolute error against the clean
mask) pairs over the held-out images. Prints the Pearson correlation and the
mean error per std bin, and writes a JSON report.
"""

import argparse
import json

from gtta.analysis import std_error_correlation
from gtta.data import Dataset, OutputKind
from gtta.perturb import NoiseSchedule
from gtta.predictor import MlpModel, batch_from_dataset, mlp_train
from gtta.rng import RngStream
from gtta.subspace import fit
from gtta.synthdata import BlobImagesSpec, gen_blob_images


def setup(n_images, epochs):
    """The MLP trained on the first 3/4 of ``n_images`` 16x16 images, its subspace, the rest."""
    bundle = gen_blob_images(BlobImagesSpec(
        n_images=n_images, height=16, width=16, boundary_noise=0.25, input_noise=0.05,
        seed=42,
    ))
    kind, n_train = OutputKind.per_pixel(16, 16), n_images * 3 // 4
    train = Dataset(bundle.data.inputs[:n_train], bundle.data.targets[:n_train], kind)
    ev = Dataset(bundle.data.inputs[n_train:], bundle.clean_targets[n_train:], kind)
    model = MlpModel([256, 48, 256], kind, RngStream(1, 60))
    mlp_train(model, batch_from_dataset(train), epochs=epochs, lr=0.5, rng=RngStream(1, 61))
    return model, fit(train.inputs, 0.99), ev


def spread_report(n_images, epochs):
    """The spread/error report of ``setup``'s model: sigma 0.02, N 15."""
    model, s, ev = setup(n_images, epochs)
    return std_error_correlation(model, s, NoiseSchedule("constant", 0.02, 15), ev,
                                 RngStream(1, 62))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--images", type=int, default=80)
    ap.add_argument("--epochs", type=int, default=150)
    ap.add_argument("--out", default="std_error_report.json")
    args = ap.parse_args()

    report = spread_report(args.images, args.epochs)
    print(f"pearson = {report['pearson']}")
    edges = report["bin_edges"]
    for b, (count, mae) in enumerate(zip(report["bin_counts"], report["bin_mae"])):
        lo, hi = edges[b], edges[b + 1]
        print(f"std [{lo:.4f}, {hi:.4f}): {count:5d} elements, "
              + ("empty" if mae is None else f"mae {mae:.4f}"))
    with open(args.out, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
