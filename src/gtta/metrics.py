"""Small evaluation helpers shared by the experiment code."""

from __future__ import annotations

import numpy as np


def binary_f_score(prob_map, truth, threshold: float = 0.5) -> float:
    """F-measure of a thresholded probability map against a binary mask."""
    pred = np.asarray(prob_map) > threshold
    truth = np.asarray(truth) > 0.5
    tp = np.count_nonzero(pred & truth)
    fp = np.count_nonzero(pred & ~truth)
    fn = np.count_nonzero(~pred & truth)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def pearson_r(x, y) -> float | None:
    """Pearson correlation, or None when either side is constant."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    xd = x - x.mean()
    yd = y - y.mean()
    denom = np.sqrt((xd**2).sum() * (yd**2).sum())
    if denom == 0:
        return None
    return float((xd * yd).sum() / denom)
