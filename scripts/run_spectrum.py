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
from gtta.synthdata import FrameSequenceSpec, gen_frame_sequence


def frame_setup(seed, components):
    """A subspace fit to the first 30 of 60 frames, and the last 30 frames."""
    frames = gen_frame_sequence(FrameSequenceSpec(
        n_frames=60, height=16, width=16, frame_noise=0.05, seed=seed
    )).frames
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
