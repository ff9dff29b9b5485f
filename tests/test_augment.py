"""View generation: crops, flips, jitter, and the shared-geometry contract.

Golden values in this file were produced once from the implementation at a
fixed seed and frozen as regression anchors.
"""

import copy

import numpy as np
import pytest

import oracles
from fusekd import augment as aug
from fusekd.augment import AugmentConfig


def ramp_image(h=8, w=8):
    return np.arange(3 * h * w, dtype=np.float64).reshape(3, h, w) / (3 * h * w - 1)


class TestRandomResizedCrop:
    def test_full_scale_square_is_identity(self, rng):
        # at scale 1 every in-range aspect either rounds to the full square or overflows
        img = ramp_image(16, 16)
        cfg = AugmentConfig(scale_min=1.0, flip_prob=0.0)
        box, _, _, _ = oracles.view_draws(16, copy.deepcopy(rng), cfg)
        pair = aug.make_views(img, rng, cfg)
        assert box == (0, 0, 16, 16)
        np.testing.assert_allclose(pair.teacher_view, img, atol=1e-6, rtol=0)

    def test_golden_crop_box_seed0(self):
        rng = np.random.default_rng(0)
        box = aug.sample_crop_box(8, rng, (0.2, 1.0))
        assert box == (0, 0, 7, 6)  # frozen golden

    def test_same_rng_state_same_output(self):
        img = ramp_image()
        a = aug.make_views(img, np.random.default_rng(42), AugmentConfig())
        b = aug.make_views(img, np.random.default_rng(42), AugmentConfig())
        np.testing.assert_array_equal(a.teacher_view, b.teacher_view)

    def test_degenerate_source_errors(self, rng):
        # too small, or not square: a (3, 8, 16) image must not come back as (3, 8, 8) views
        for shape in [(3, 1, 1), (3, 1, 4), (3, 8, 16), (3, 16, 8), (1, 8, 8)]:
            with pytest.raises(ValueError):
                aug.make_views(np.zeros(shape), rng, AugmentConfig(scale_min=0.5))

    def test_output_range(self, rng):
        img = rng.random((3, 16, 16))
        out = aug.make_views(img, rng, AugmentConfig()).teacher_view
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestBilinearResize:
    def test_identity_size_is_exact(self, rng):
        img = rng.random((3, 5, 5))
        np.testing.assert_array_equal(aug._crop_resize(img, (0, 0, 5, 5), 5, 5), img)

    def test_constant_image_stays_constant(self):
        img = np.full((3, 4, 4), 0.3)
        out = aug._crop_resize(img, (0, 0, 4, 4), 9, 7)
        np.testing.assert_allclose(out, 0.3, atol=1e-12)

    def test_2x_upsample_midpoints(self):
        img = np.zeros((1, 1, 2))
        img[0, 0] = [0.0, 1.0]
        out = aug._crop_resize(img, (0, 0, 1, 2), 1, 4)
        # centers at src coords -0.25, 0.25, 0.75, 1.25 (clamped)
        np.testing.assert_allclose(out[0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-12)


class TestResizeMatchesLoopOracle:
    """The one-gather resize and make_views' fused crop + flip equal a per-pixel loop, bitwise."""

    def test_bilinear_resize_every_source_size(self, rng):
        for h in range(1, 17):
            for w in range(1, 17):
                img = rng.random((3, h, w))
                want = oracles.bilinear_resize_naive(img.tolist(), 16, 16)
                np.testing.assert_array_equal(aug._crop_resize(img, (0, 0, h, w), 16, 16), want)

    @pytest.mark.parametrize("flip", [False, True])
    def test_fused_crop_flip_every_crop_size(self, rng, flip):
        img = rng.random((3, 16, 16))
        planes = img.tolist()
        for h in range(1, 17):
            for w in range(1, 17):
                top, left = (3 * h) % (17 - h), (5 * w) % (17 - w)
                crop = [[row[left : left + w] for row in ch[top : top + h]] for ch in planes]
                want = oracles.bilinear_resize_naive(crop, 16, 16)
                if flip:
                    want = [[row[::-1] for row in ch] for ch in want]
                got = aug._crop_resize(img, (top, left, h, w), 16, 16, flip)
                np.testing.assert_array_equal(got, want)

    def test_make_views_teacher_view_over_50_seeds(self, rng):
        img = rng.random((3, 16, 16))
        for seed in range(50):
            pair = aug.make_views(img, np.random.default_rng(seed), AugmentConfig())
            box, flip, _, _ = oracles.view_draws(16, np.random.default_rng(seed), AugmentConfig())
            top, left, h, w = box
            crop = img[:, top : top + h, left : left + w]
            want = np.array(oracles.bilinear_resize_naive(crop.tolist(), 16, 16))
            if flip:
                want = want[..., ::-1]
            np.testing.assert_array_equal(pair.teacher_view, want)


class TestHorizontalFlip:
    """The flip of a crop kept at its own size (the full-scale view's path)."""

    def test_involution(self, rng):
        img = rng.random((3, 4, 6))
        once = aug._crop_resize(img, (0, 0, 4, 6), 4, 6, True)
        np.testing.assert_array_equal(aug._crop_resize(once, (0, 0, 4, 6), 4, 6, True), img)

    def test_symmetric_image_unchanged(self):
        img = np.zeros((3, 2, 4))
        img[:, :, :] = [0.1, 0.4, 0.4, 0.1]
        np.testing.assert_array_equal(aug._crop_resize(img, (0, 0, 2, 4), 2, 4, True), img)

    def test_two_pixel_row(self):
        img = np.zeros((3, 1, 2))
        img[0, 0] = [0.2, 0.9]
        out = aug._crop_resize(img, (0, 0, 1, 2), 1, 2, True)
        np.testing.assert_array_equal(out[0, 0], [0.9, 0.2])

    def test_flag_false_is_identity(self, rng):
        img = rng.random((3, 3, 3))
        np.testing.assert_array_equal(aug._crop_resize(img, (0, 0, 3, 3), 3, 3, False), img)


class TestColorJitter:
    def test_zero_strengths_identity_bit_exact(self, rng):
        img = rng.random((3, 8, 8))
        out = aug.apply_jitter(img, *aug.sample_jitter(rng, (0.0, 0.0, 0.0)))
        np.testing.assert_array_equal(out, img)

    def test_brightness_scaling(self):
        img = np.full((3, 4, 4), 0.25)
        out = aug.apply_jitter(img, ("brightness",), (2.0,))
        np.testing.assert_allclose(out, 0.5, atol=1e-15)

    def test_clamped_to_unit_range(self):
        img = np.full((3, 4, 4), 0.9)
        out = aug.apply_jitter(img, ("brightness",), (2.0,))
        assert out.max() <= 1.0

    def test_golden_jitter_seed0(self):
        # frozen from seed 0 on the 3x8x8 ramp image
        rng = np.random.default_rng(0)
        order, factors = aug.sample_jitter(rng, (0.4, 0.4, 0.4))
        assert order == ("saturation", "brightness", "contrast")
        np.testing.assert_allclose(
            factors,
            (1.2506161913602178, 0.6327788191489557, 0.6132221084228232),
            rtol=0,
            atol=0,
        )
        out = aug.apply_jitter(ramp_image(), order, factors)
        assert out.sum() == pytest.approx(58.814339608115915, abs=1e-12)
        assert out[0, 0, 0] == pytest.approx(0.10731764943037242, abs=1e-15)
        assert out[2, 7, 7] == pytest.approx(0.4953516110741994, abs=1e-15)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            aug.apply_jitter(ramp_image(), ("hue",), (1.1,))


class TestMakeViews:
    def test_zero_jitter_views_identical(self, rng):
        cfg = AugmentConfig(brightness=0.0, contrast=0.0, saturation=0.0)
        pair = aug.make_views(rng.random((3, 16, 16)), rng, cfg)
        np.testing.assert_array_equal(pair.teacher_view, pair.student_view)

    def test_shared_geometry_over_100_seeds(self):
        img = ramp_image(16, 16)
        cfg = AugmentConfig()
        for seed in range(100):
            pair = aug.make_views(img, np.random.default_rng(seed), cfg)
            box, flip, order, factors = oracles.view_draws(16, np.random.default_rng(seed), cfg)
            # the draws fully reproduce both views from the source image
            top, left, h, w = box
            crop = img[:, top : top + h, left : left + w]
            shared = np.array(oracles.bilinear_resize_naive(crop.tolist(), 16, 16))
            if flip:
                shared = shared[..., ::-1]
            np.testing.assert_array_equal(pair.teacher_view, shared)
            np.testing.assert_array_equal(
                pair.student_view, aug.apply_jitter(pair.teacher_view, order, factors)
            )

    def test_determinism_same_seed(self):
        img = ramp_image(16, 16)
        cfg = AugmentConfig()
        a = aug.make_views(img, np.random.default_rng(7), cfg)
        b = aug.make_views(img, np.random.default_rng(7), cfg)
        np.testing.assert_array_equal(a.teacher_view, b.teacher_view)
        np.testing.assert_array_equal(a.student_view, b.student_view)

    def test_golden_pair_seed0(self):
        # frozen from seed 0 on the 3x16x16 ramp image
        pair = aug.make_views(ramp_image(16, 16), np.random.default_rng(0), AugmentConfig())
        box, flip, order, factors = oracles.view_draws(16, np.random.default_rng(0), AugmentConfig())
        assert box == (0, 0, 14, 13)
        assert flip is True
        assert order == ("contrast", "saturation", "brightness")
        np.testing.assert_allclose(
            factors,
            (1.1835972487871986, 1.0348999931723382, 1.085308620613744),
            rtol=0,
            atol=0,
        )
        assert pair.teacher_view.sum() == pytest.approx(366.4771838331161, abs=1e-9)
        assert pair.student_view.sum() == pytest.approx(403.36523637025846, abs=1e-9)
        assert pair.teacher_view[1, 3, 5] == pytest.approx(0.39769393741851367, abs=1e-15)
        assert pair.student_view[1, 3, 5] == pytest.approx(0.43084652426756986, abs=1e-15)

    def test_outputs_stay_in_unit_range(self):
        img = ramp_image(16, 16)
        for seed in range(20):
            pair = aug.make_views(img, np.random.default_rng(seed), AugmentConfig())
            for view in (pair.teacher_view, pair.student_view):
                assert view.min() >= 0.0 and view.max() <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(scale_min=0.0)
        with pytest.raises(ValueError):
            AugmentConfig(flip_prob=1.5)
        with pytest.raises(ValueError):
            AugmentConfig(brightness=-0.1)
