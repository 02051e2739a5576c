import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtta.errors import ParamError
from gtta.segcount import label_components
from gtta.synthdata import (
    BlobImagesSpec,
    BlobsSpec,
    TabularSpec,
    _ellipse_box,
    gen_blob_images,
    gen_blobs,
    gen_tabular,
    spec_from_dict,
    tabular_target,
)


def test_tabular_deterministic():
    spec = TabularSpec(seed=5)
    a, b = gen_tabular(spec), gen_tabular(spec)
    assert np.array_equal(a.train.inputs, b.train.inputs)
    assert np.array_equal(a.train.targets, b.train.targets)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_tabular_zero_noise_recoverable():
    spec = TabularSpec(noise=0.0, seed=1)
    data = gen_tabular(spec)
    for split in (data.train, data.val, data.test):
        expected = tabular_target(split.inputs, data.coefficients, spec.nonlinear_scale)
        assert np.array_equal(split.targets, expected)


def test_tabular_default_width_and_splits():
    data = gen_tabular(TabularSpec(n=100, seed=2))
    assert data.train.d == 36
    assert data.train.n + data.val.n + data.test.n == 100
    assert data.train.n == 60


def test_blobs_deterministic_and_balanced():
    spec = BlobsSpec(n=201, seed=3)
    a, b = gen_blobs(spec), gen_blobs(spec)
    assert np.array_equal(a.data.inputs, b.data.inputs)
    counts = np.bincount(a.data.targets.astype(int))
    assert abs(counts[0] - counts[1]) <= 1


def test_blobs_zero_amplitude_leaves_rows_clean():
    base = BlobsSpec(n=80, distractor_amplitude=0.0, seed=4)
    hit = dataclasses.replace(base, distractor_amplitude=2.0)
    a, b = gen_blobs(base), gen_blobs(hit)
    assert not a.pattern.any()
    changed = np.any(a.data.inputs != b.data.inputs, axis=1)
    assert np.array_equal(changed, b.injected)


def test_blobs_pattern_carries_no_class_signal():
    blobs = gen_blobs(BlobsSpec(n=50, distractor_amplitude=1.5, seed=5))
    assert blobs.pattern[0] == 0.0
    assert np.linalg.norm(blobs.pattern) == pytest.approx(1.5)


def test_blobs_injection_fraction():
    blobs = gen_blobs(BlobsSpec(n=4000, distractor_amplitude=1.0,
                                distractor_fraction=0.5, seed=6))
    # binomial: 5 sigma around 0.5 at n = 4000 is about 0.04
    assert abs(blobs.injected.mean() - 0.5) < 0.04


def test_blobs_per_class_fractions():
    blobs = gen_blobs(BlobsSpec(n=4000, distractor_amplitude=1.0,
                                distractor_fractions=(0.9, 0.1), seed=7))
    labels = blobs.data.targets.astype(int)
    rate0 = blobs.injected[labels == 0].mean()
    rate1 = blobs.injected[labels == 1].mean()
    assert abs(rate0 - 0.9) < 0.04
    assert abs(rate1 - 0.1) < 0.04


def test_blobs_shared_pattern_across_row_seeds():
    a = gen_blobs(BlobsSpec(n=30, distractor_amplitude=1.0, pattern_seed=9, seed=10))
    b = gen_blobs(BlobsSpec(n=44, distractor_amplitude=1.0, pattern_seed=9, seed=11))
    assert np.array_equal(a.pattern, b.pattern)
    assert not np.array_equal(a.data.inputs[0], b.data.inputs[0])


def bayes_accuracy(spec: BlobsSpec) -> float:
    """Closed-form accuracy of the optimal rule on the clean generator."""
    z = spec.class_sep / (2.0 * spec.cluster_std)
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def test_bayes_accuracy_closed_form_oracle():
    spec = BlobsSpec(n=20000, dim=8, class_sep=2.0, cluster_std=1.0, seed=8)
    blobs = gen_blobs(spec)
    # optimal rule for symmetric isotropic blobs: sign of the class axis
    pred = (blobs.data.inputs[:, 0] > 0).astype(int)
    empirical = np.mean(pred == blobs.data.targets)
    theory = bayes_accuracy(spec)
    # binomial se at n = 20000 is ~0.0035; allow 5 sigma
    assert abs(empirical - theory) < 0.0175


def test_blob_images_counts_match_components():
    data = gen_blob_images(BlobImagesSpec(n_images=40, seed=9))
    for inst, k in zip(data.instance_maps, data.counts):
        assert label_components(inst > 0, connectivity=8)[1] == k
        ids = np.unique(inst)
        assert ids[-1] == k  # contiguous ids 1..K


def test_blob_images_clean_targets_match_masks():
    data = gen_blob_images(BlobImagesSpec(n_images=10, boundary_noise=0.0, seed=10))
    for i, inst in enumerate(data.instance_maps):
        assert np.array_equal(data.data.targets[i], (inst > 0).astype(float))
        assert np.array_equal(data.clean_targets[i], data.data.targets[i])


def test_blob_images_boundary_noise_flips_only_near_edges():
    spec = BlobImagesSpec(n_images=10, boundary_noise=0.5, seed=11)
    noisy = gen_blob_images(spec)
    clean = gen_blob_images(dataclasses.replace(spec, boundary_noise=0.0))
    assert np.array_equal(noisy.clean_targets, clean.data.targets)
    diff = noisy.data.targets != noisy.clean_targets
    assert diff.any()
    for i in range(10):
        fg = noisy.instance_maps[i] > 0
        interior = fg.copy()
        # flipped pixels must touch the boundary band (erosion/dilation by 1)
        from gtta.segcount import erode

        inner = erode(fg, 3, 1)
        outer = ~erode(~fg, 3, 1)
        band = outer & ~inner
        assert not (diff[i] & ~band).any()


def ellipse_oracle(height, width, cy, cx, r1, r2, theta):
    """The ellipse's mask, by its per-pixel formula over the whole image."""
    yy, xx = np.mgrid[0:height, 0:width]
    dy, dx = yy - cy, xx - cx
    u = dx * np.cos(theta) + dy * np.sin(theta)
    v = -dx * np.sin(theta) + dy * np.cos(theta)
    return (u / r1) ** 2 + (v / r2) ** 2 <= 1.0


def pasted_box(height, width, cy, cx, r1, r2, theta):
    box, mask = _ellipse_box(height, width, cy, cx, r1, r2, theta)
    full = np.zeros((height, width), dtype=bool)
    full[box] = mask
    return full


@settings(max_examples=150, deadline=None)
@given(extra=st.tuples(st.integers(0, 30), st.integers(0, 30)),
       radii=st.tuples(st.floats(1, 12), st.floats(1, 12)),
       theta=st.floats(0, math.pi), at=st.tuples(st.floats(0, 1), st.floats(0, 1)))
@example(extra=(0, 0), radii=(3.0, 5.5), theta=0.0, at=(0.0, 0.0))
@example(extra=(0, 7), radii=(5.5, 3.0), theta=math.pi, at=(1.0, 1.0))
@example(extra=(4, 0), radii=(2.0, 7.25), theta=math.pi, at=(0.0, 1.0))
@example(extra=(3, 3), radii=(7.25, 2.0), theta=0.0, at=(1.0, 0.0))
def test_ellipse_box_pasted_into_the_image_is_the_full_grid_mask(extra, radii, theta, at):
    r1, r2 = radii
    rmax = max(r1, r2)
    height, width = (math.ceil(2 * rmax + 3) + e for e in extra)
    # `at` 0 and 1 are the lowest and highest centres _place_blobs draws.
    cy = (rmax + 1) + ((height - rmax - 2) - (rmax + 1)) * at[0]
    cx = (rmax + 1) + ((width - rmax - 2) - (rmax + 1)) * at[1]
    expected = ellipse_oracle(height, width, cy, cx, r1, r2, theta)
    assert expected.any()
    assert np.array_equal(pasted_box(height, width, cy, cx, r1, r2, theta), expected)


@pytest.mark.parametrize("cy, cx", [(0.0, 0.0), (19.0, 14.0), (0.4, 13.3), (18.5, 0.2)])
def test_ellipse_box_is_clipped_to_the_image(cy, cx):
    args = (20, 15, cy, cx, 4.5, 2.5, 0.7)
    assert np.array_equal(pasted_box(*args), ellipse_oracle(*args))


def test_blob_images_deterministic():
    spec = BlobImagesSpec(n_images=6, seed=12)
    a, b = gen_blob_images(spec), gen_blob_images(spec)
    assert np.array_equal(a.data.inputs, b.data.inputs)
    assert np.array_equal(a.counts, b.counts)


def test_blob_images_validation():
    with pytest.raises(ParamError):
        BlobImagesSpec(radius_min=0.5)
    with pytest.raises(ParamError):
        BlobImagesSpec(blobs_min=3, blobs_max=2)
    with pytest.raises(ParamError):
        BlobImagesSpec(height=8, width=8)  # radius_max 4.5 needs 12 pixels
    for overlap in (-0.1, 1.0):
        with pytest.raises(ParamError, match="overlap"):
            BlobImagesSpec(overlap=overlap)
    # 100 * 101 * 100 distance checks are over the budget, 100 * 100 * 99 are not
    with pytest.raises(ParamError, match="blobs_max 101"):
        BlobImagesSpec(blobs_max=101)
    BlobImagesSpec(blobs_max=100, overlap=0.9)
    # the smallest image that fits a blob of radius_max still generates
    assert gen_blob_images(BlobImagesSpec(n_images=2, height=12, width=12)).data.n == 2


def test_spec_from_dict():
    spec = spec_from_dict("tabular", {"n": 50, "seed": 3})
    assert isinstance(spec, TabularSpec)
    assert spec.n == 50
    with pytest.raises(ParamError):
        spec_from_dict("tabular", {"bogus": 1})
    with pytest.raises(ParamError):
        spec_from_dict("nope", {})
