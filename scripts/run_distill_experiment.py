#!/usr/bin/env python3
"""Weighted vs unweighted self-distillation on the blob segmentation fixture.

For each seed: pretrain a pixel MLP on noisy-boundary labels, pseudo-label
unlabeled frames with the perturbation ensemble, then distill twice, once
with consensus weights 1 - std and once with flat weights. Reports the
paired F-scores on held-out images against clean masks.
"""

import argparse
import json

import numpy as np

from gtta.data import Dataset, OutputKind
from gtta.distill import distill, generate_pseudolabels
from gtta.metrics import binary_f_score
from gtta.perturb import NoiseSchedule
from gtta.predictor import MlpModel, WeightedBatch, batch_from_dataset, mlp_train
from gtta.rng import RngStream
from gtta.subspace import fit
from gtta.synthdata import BlobImagesSpec, gen_blob_images


def fscore(model, holdout):
    preds = model.predict(holdout.inputs)
    return float(np.mean([binary_f_score(p, t) for p, t in zip(preds, holdout.targets)]))


def run_seed(seed, sigma, mixing):
    """Distill one seed's student with consensus and with flat weights.

    Returns the row of held-out F-scores, the weighted student and the
    held-out images.
    """
    bundle = gen_blob_images(BlobImagesSpec(
        n_images=80, height=16, width=16, boundary_noise=0.30,
        input_noise=0.05, seed=seed,
    ))
    labeled = Dataset(bundle.data.inputs[:40], bundle.data.targets[:40],
                      OutputKind.per_pixel(16, 16))
    holdout = Dataset(bundle.data.inputs[64:], bundle.clean_targets[64:],
                      OutputKind.per_pixel(16, 16))
    student = MlpModel([256, 48, 256], OutputKind.per_pixel(16, 16), RngStream(seed, 70))
    mlp_train(student, batch_from_dataset(labeled), epochs=150, lr=0.5,
              rng=RngStream(seed, 71))
    s = fit(labeled.inputs, 0.99)
    pseudo = generate_pseudolabels(
        student, s, NoiseSchedule("constant", sigma, 15), bundle.data.inputs[40:64],
        RngStream(seed, 72),
    )
    flat = WeightedBatch(pseudo.inputs, pseudo.targets, np.ones_like(pseudo.weights))
    kwargs = dict(mixing=mixing, epochs=60, lr=0.5, rng=RngStream(seed, 73))
    model_w, _ = distill(student, labeled, pseudo, **kwargs)
    model_u, _ = distill(student, labeled, flat, **kwargs)
    row = {"seed": seed, "weighted": fscore(model_w, holdout),
           "unweighted": fscore(model_u, holdout), "base": fscore(student, holdout)}
    return row, model_w, holdout


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--sigma", type=float, default=0.01)
    ap.add_argument("--mixing", type=float, default=0.2)
    ap.add_argument("--out", default="distill_report.json")
    args = ap.parse_args()

    rows = []
    for seed in range(args.seeds):
        row = run_seed(seed, args.sigma, args.mixing)[0]
        rows.append(row)
        fw, fu = row["weighted"], row["unweighted"]
        print(f"seed {seed:2d}: base {row['base']:.4f}  "
              f"weighted {fw:.4f}  unweighted {fu:.4f}  delta {fw - fu:+.4f}")

    mean_w = float(np.mean([r["weighted"] for r in rows]))
    mean_u = float(np.mean([r["unweighted"] for r in rows]))
    with open(args.out, "w") as fh:
        json.dump({"rows": rows, "mean_weighted": mean_w,
                   "mean_unweighted": mean_u}, fh, sort_keys=True, indent=2)
    print(f"mean weighted {mean_w:.4f} vs unweighted {mean_u:.4f} -> {args.out}")


if __name__ == "__main__":
    main()
