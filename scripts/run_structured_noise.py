#!/usr/bin/env python3
"""How well latent-noise reconstruction scrubs a fixed ring distractor.

Injects a ring pattern into half the fit rows, reconstructs held-out rows
carrying the same pattern under latent noise, and compares the residual
pattern correlation against a two-parameter brightness/contrast jitter.
Writes a JSON report and prints per-seed results.
"""

import argparse
import json

import numpy as np

from gtta.analysis import structured_noise_removal
from gtta.perturb import NoiseSchedule
from gtta.rng import RngStream
from gtta.synthdata import BlobImagesSpec, gen_blob_images


def ring(amplitude):
    """A flat ring of radius 5 and thickness 1.5 centred on a 16x16 image, as a [256] vector."""
    yy, xx = np.mgrid[0:16, 0:16]
    on_ring = np.abs(np.hypot(yy - 7.5, xx - 7.5) - 5.0) <= 0.75
    return (amplitude * on_ring.astype(np.float64)).ravel()


def seed_report(seed, sigma, n, amplitude):
    """Scrub the ring from 8 held-out images of seed ``seed``'s 40."""
    bundle = gen_blob_images(BlobImagesSpec(
        n_images=40, height=16, width=16, input_noise=0.05, seed=100 + seed
    ))
    return structured_noise_removal(
        bundle.data.inputs, ring(amplitude), NoiseSchedule("constant", sigma, n), RngStream(seed),
        inject_fraction=0.5, retain="all", test_count=8,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--sigma", type=float, default=0.1)
    ap.add_argument("--n", type=int, default=15)
    ap.add_argument("--amplitude", type=float, default=0.8)
    ap.add_argument("--out", default="structured_noise_report.json")
    args = ap.parse_args()

    rows = []
    for seed in range(args.seeds):
        report = seed_report(seed, args.sigma, args.n, args.amplitude)
        rows.append({
            "seed": seed,
            "latent_noise": report.correlation,
            "global_jitter": report.baseline_correlation,
        })
        print(f"seed {seed:2d}: latent residual corr {report.correlation:.4f}  "
              f"jitter {report.baseline_correlation:.4f}")

    wins = sum(r["latent_noise"] < r["global_jitter"] for r in rows)
    summary = {
        "rows": rows,
        "wins": wins,
        "seeds": args.seeds,
        "mean_latent": float(np.mean([r["latent_noise"] for r in rows])),
        "mean_jitter": float(np.mean([r["global_jitter"] for r in rows])),
    }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
    print(f"latent noise removed the pattern better in {wins}/{args.seeds} seeds "
          f"-> {args.out}")


if __name__ == "__main__":
    main()
