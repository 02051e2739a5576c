#!/usr/bin/env python3
"""Latent covariance spectra: equal-std latent noise vs global jitter.

Uses noisy frames of one synthetic scene so the jitter family stays a true
two-parameter manifold across inputs. Prints the eigenvalue curves.
"""

import argparse
import json

from gtta.analysis import covariance_spectrum_experiment, report_dict
from gtta.perturb import NoiseSchedule
from gtta.rng import RngStream
from gtta.subspace import fit
from gtta.synthdata import BlobImagesSpec, gen_blob_images


def scene_frames(seed):
    """A clean 16x16 scene of 2-3 blobs and 60 frames of it, each with noise of std 0.05."""
    scene = gen_blob_images(BlobImagesSpec(
        n_images=1, height=16, width=16, blobs_min=2, input_noise=0.0, seed=seed
    )).data.inputs[0]
    noise = RngStream(seed).derive(20).generator().standard_normal((60, scene.size))
    return scene, scene + 0.05 * noise


def frame_setup(seed, components):
    """A subspace fit to the first 30 of 60 frames, and the last 30 frames."""
    frames = scene_frames(seed)[1]
    return fit(frames[:30], components), frames[30:]


def spectrum_report(seed, stream, components, n, equal_sigma):
    """Equal-std latent noise and global jitter on the last 30 of 60 frames."""
    s, frames = frame_setup(seed, components)
    return covariance_spectrum_experiment(
        s, NoiseSchedule("constant", 0.1, n), frames, RngStream(stream),
        baseline="global_jitter", equal_sigma=equal_sigma,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=901)
    ap.add_argument("--stream", type=int, default=57)
    ap.add_argument("--components", type=int, default=3)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--equal-sigma", type=float, default=0.3)
    ap.add_argument("--out", default="spectrum_report.json")
    args = ap.parse_args()

    report = spectrum_report(args.seed, args.stream, args.components, args.n, args.equal_sigma)
    print("latent-noise eigenvalues :", [f"{v:.5f}" for v in report.eigenvalues])
    print("global-jitter eigenvalues:", [f"{v:.5f}" for v in report.baseline_eigenvalues])
    e = report.eigenvalues
    b = report.baseline_eigenvalues
    print(f"noise spread max/min = {e.max() / e.min():.4f}; "
          f"jitter l3/l1 = {b[2] / b[0]:.2e}")
    with open(args.out, "w") as fh:
        json.dump(report_dict(report), fh, sort_keys=True, indent=2)
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
