"""Tests for boolean-map saliency and the mask-union oracle."""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from fewdet import saliency as S
from fewdet import synthdata as sd
from fewdet.saliency import BmsConfig
from fewdet.tensor import Tape
from oracles import bms_saliency_per_map, flood_fill_surroundedness


class FakeScene:
    def __init__(self, size, masks):
        self.image = np.zeros((3, size, size))
        self.masks = None if masks is None else np.array(masks, dtype=bool).reshape(
            -1, size, size)


class TestBooleanMaps:
    """The maps as one [3T, H*W] stack: row c*T + k-1 is channel c's
    value > t_k, t_k = k/(T+1)."""

    def test_count_and_layout(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, size=(3, 6, 6))
        maps = S.boolean_maps(img, BmsConfig(thresholds_per_channel=8))
        assert maps.shape == (24, 36) and maps.dtype == bool
        for c in range(3):
            for k in range(1, 9):
                np.testing.assert_array_equal(maps[c * 8 + k - 1], img[c].ravel() > k / 9)

    def test_constant_zero_image_single_threshold(self):
        img = np.zeros((3, 4, 4))
        maps = S.boolean_maps(img, BmsConfig(thresholds_per_channel=1))
        assert maps.shape == (3, 16) and not maps.any()

    def test_exact_threshold_goes_to_complement(self):
        """t_1 = 1/2 at T=1 and t_2 = 1/2 at T=3; pixels exactly at 0.5 fail
        the strict compare, so they are False in that threshold's map."""
        img = np.full((3, 3, 3), 0.5)
        assert not S.boolean_maps(img, BmsConfig(thresholds_per_channel=1)).any()
        maps = S.boolean_maps(img, BmsConfig(thresholds_per_channel=3)).reshape(3, 3, 9)
        assert maps[:, 0].all() and not maps[:, 1:].any()

    @pytest.mark.parametrize("thresholds", [16, 85, 255])
    def test_values_at_every_threshold_stay_below(self, thresholds):
        """Every t_k, and one float step either side of it: the stack's
        thresholds are the doubles k/(T+1), compared strictly."""
        at = np.arange(thresholds + 2) / (thresholds + 1)
        values = np.concatenate([at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)])
        img = np.stack([values, values[::-1], np.roll(values, 7)])[:, None, :]
        maps = S.boolean_maps(img, BmsConfig(thresholds_per_channel=thresholds))
        for c in range(3):
            for k in range(1, thresholds + 1):
                assert np.array_equal(maps[c * thresholds + k - 1],
                                      img[c, 0] > k / (thresholds + 1))

    def test_checkerboard_thresholding(self):
        board = np.indices((4, 4)).sum(axis=0) % 2
        img = np.stack([board * 0.9 + 0.1] * 3)  # low 0.1, high 1.0
        maps = S.boolean_maps(img, BmsConfig(thresholds_per_channel=1))
        np.testing.assert_array_equal(maps[0].reshape(4, 4), board.astype(bool))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            S.boolean_maps(np.full((3, 2, 2), 1.5), BmsConfig())

    @pytest.mark.parametrize("bad", [-0.25, np.inf, np.nan])
    def test_one_bad_pixel_rejected(self, bad):
        """One bad pixel, NaN included, is the same error in BMS."""
        img = np.full((3, 6, 6), 0.5)
        img[1, 2, 3] = bad
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            S.bms_saliency(img, BmsConfig())


class TestSurroundedness:

    def test_all_true_clears(self):
        assert not S.surroundedness(np.ones((5, 5), dtype=bool), 0).any()

    def test_center_pixel_survives(self):
        m = np.zeros((5, 5), dtype=bool)
        m[2, 2] = True
        np.testing.assert_array_equal(S.surroundedness(m, 0), m)

    def test_border_block_removed_interior_kept(self):
        m = np.zeros((8, 8), dtype=bool)
        m[2:5, 0:3] = True   # touches left edge
        m[5:7, 5:7] = True   # interior 2x2
        want = np.zeros_like(m)
        want[5:7, 5:7] = True
        np.testing.assert_array_equal(S.surroundedness(m, 0), want)

    def test_diagonal_is_not_connected(self):
        """A diagonal chain to the border must not drag interior pixels out."""
        m = np.zeros((5, 5), dtype=bool)
        m[0, 0] = True
        m[1, 1] = True
        got = S.surroundedness(m, 0)
        assert not got[0, 0] and got[1, 1]

    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = rng.uniform(size=(9, 9)) < 0.4
            np.testing.assert_array_equal(S.surroundedness(m, 0),
                                          flood_fill_surroundedness(m))

    def test_opening_removes_single_pixels(self):
        m = np.zeros((7, 7), dtype=bool)
        m[3, 3] = True
        assert not S.surroundedness(m, 1).any()

    @given(st.integers(0, 2 ** 25 - 1))
    @settings(max_examples=25, deadline=None)
    def test_oracle_agreement_property(self, bits):
        m = np.array([(bits >> i) & 1 for i in range(25)], dtype=bool).reshape(5, 5)
        np.testing.assert_array_equal(S.surroundedness(m, 0),
                                      flood_fill_surroundedness(m))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_stack_matches_flood_fill_per_map(self, n):
        """The maps of a stack share one canvas but never each other's
        components: each comes out as it would alone (an empty stack
        comes out empty)."""
        rng = np.random.default_rng(10 + n)
        for shape in [(1, 1), (1, 6), (6, 1), (2, 2), (5, 5), (9, 4)]:
            for _ in range(10):
                stack = rng.uniform(size=(n, *shape)) < rng.uniform(0.2, 0.9)
                got = S.surroundedness(stack, 0)
                assert got.shape == stack.shape
                for one, want in zip(got, stack):
                    np.testing.assert_array_equal(one, flood_fill_surroundedness(want))


LAZY_NDIMAGE = f"""
import hashlib, sys
sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / "src")!r})
import numpy as np
from fewdet import cli
from fewdet import saliency as S
cli.resolve_config(None, [])  # validates BMS settings on a blank scene
cli.gradcheck_suite(seed=0, points=1)
before = "scipy.ndimage" in sys.modules
image = np.random.default_rng(3).uniform(0, 1, (3, 24, 24))
digest = hashlib.sha256(S.bms_saliency(image, S.BmsConfig()).tobytes()).hexdigest()
print(before, "scipy.ndimage" in sys.modules, digest)
"""


class TestLazyNdimage:

    def test_loaded_only_when_a_map_is_labelled(self):
        """Config validation and the gradient check label no map and leave
        scipy.ndimage unloaded; BMS then loads it, with the bytes a process
        that imported it up front gets."""
        proc = subprocess.run([sys.executable, "-c", LAZY_NDIMAGE], capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        before, after, digest = proc.stdout.split()
        image = np.random.default_rng(3).uniform(0, 1, (3, 24, 24))
        want = hashlib.sha256(S.bms_saliency(image, BmsConfig()).tobytes()).hexdigest()
        assert (before, after, digest) == ("False", "True", want)

    def test_cross_is_scipys_4_connectivity(self):
        want = ndimage.generate_binary_structure(2, 1)
        assert S._CROSS.dtype == want.dtype
        assert np.array_equal(S._CROSS, want)


class TestBmsSaliency:

    def test_constant_image_is_zero(self):
        img = np.full((3, 8, 8), 0.4)
        np.testing.assert_array_equal(S.bms_saliency(img, BmsConfig()),
                                      np.zeros((8, 8)))

    def test_bright_disk_outshines_background(self):
        size = 33
        yy, xx = np.mgrid[0:size, 0:size]
        disk = (xx - 16) ** 2 + (yy - 16) ** 2 <= 8 ** 2
        img = np.full((3, size, size), 0.2)
        img[:, disk] = 0.9
        s = S.bms_saliency(img, BmsConfig())
        assert s[disk].min() > s[~disk].max()

    def test_two_identical_objects_equally_salient(self):
        img = np.full((3, 16, 16), 0.1)
        a = np.zeros((16, 16), dtype=bool)
        b = np.zeros((16, 16), dtype=bool)
        a[3:6, 3:6] = True
        b[10:13, 10:13] = True
        img[:, a] = 0.8
        img[:, b] = 0.8
        s = S.bms_saliency(img, BmsConfig())
        assert abs(s[a].mean() - s[b].mean()) < 1e-9

    def test_horizontal_flip_equivariance(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, size=(3, 12, 12))
        s = S.bms_saliency(img, BmsConfig())
        s_flipped = S.bms_saliency(img[:, :, ::-1], BmsConfig())
        np.testing.assert_array_equal(s_flipped, s[:, ::-1])

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            img = rng.uniform(0, 1, size=(3, 10, 10))
            s = S.bms_saliency(img, BmsConfig())
            assert s.min() >= 0.0 and s.max() <= 1.0

    def test_one_labelling_per_image(self, monkeypatch):
        """The distinct non-trivial boolean maps of the whole image and their
        complements are labelled in at most one call, each map once however
        many channels give it; an image without one makes no call."""
        calls = []
        real_label = ndimage.label

        def label(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return real_label(*args, **kwargs)

        monkeypatch.setattr(ndimage, "label", label)
        rng = np.random.default_rng(6)
        blocks = np.kron(rng.uniform(0, 1, (3, 5, 4)), np.ones((1, 2, 3)))
        grey = np.repeat(rng.uniform(0, 1, (1, 10, 12)), 3, axis=0)
        two_equal = rng.uniform(0, 1, (3, 10, 12))
        two_equal[2] = two_equal[0]
        for t in (1, 2, 8):
            cfg = BmsConfig(thresholds_per_channel=t)

            def distinct(channels):
                maps = [channel > k / (t + 1) for channel in channels
                        for k in range(1, t + 1)]
                return len({m.tobytes() for m in maps if m.any() and not m.all()})

            assert distinct(grey) == distinct(grey[:1]) > 0
            for img in (rng.uniform(0, 1, size=(3, 10, 12)), blocks, grey, two_equal,
                        np.full((3, 10, 12), 0.4), np.zeros((3, 10, 12))):
                calls.clear()
                S.bms_saliency(img, cfg)
                n = distinct(img)
                assert calls == ([(12, 2 * n * 13 + 1)] if n else [])

    @pytest.mark.parametrize("shape", [(1, 7), (3, 5), (17, 23), (8, 8)])
    def test_trivial_maps_make_no_label_call(self, monkeypatch, shape):
        """All-True and all-False maps are told apart from the others
        whatever the padding of their packed bits."""
        calls = []
        monkeypatch.setattr(ndimage, "label", lambda *a, **k: calls.append(a))
        for value in (0.0, 0.3, 0.9, 1.0):
            got = S.bms_saliency(np.full((3, *shape), value), BmsConfig())
            assert not got.any() and got.shape == shape
        assert calls == []

    def test_never_records_on_tape(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, size=(3, 8, 8))
        with Tape() as tape:
            S.bms_saliency(img, BmsConfig())
            S.oracle_saliency(FakeScene(8, [np.eye(8, dtype=bool)]), 1)
        assert len(tape) == 0


class TestStackedBmsMatchesPerMap:
    """The one-pass stacked labelling and the shifted-array opening give the
    same bits as labelling and opening each boolean map on its own."""

    @staticmethod
    def images(thresholds):
        rng = np.random.default_rng(5)
        blocks = np.kron(rng.uniform(0, 1, (3, 5, 6)), np.ones((1, 4, 4)))
        yield rng.uniform(0, 1, (3, 17, 23))
        yield blocks[:, :17, :23]
        yield blocks[:, :20, :9].transpose(0, 2, 1)
        yield sd.generate_scene(2).image
        # maps that repeat across channels: a grey image, two equal channels,
        # and a mirrored channel, whose maps have the counts of the first
        # channel's but other pixels
        yield np.repeat(rng.uniform(0, 1, (1, 17, 23)), 3, axis=0)
        two_equal = blocks[:, :17, :23].copy()
        two_equal[1] = two_equal[0]
        yield two_equal
        mirrored = rng.uniform(0, 1, (3, 17, 23))
        mirrored[2] = mirrored[0, :, ::-1]
        yield mirrored
        for value in (0.0, 0.5, 1.0, 0.3):
            yield np.full((3, 17, 23), value)
        # a row, a column and a 2x2 image: every pixel is on a border
        for shape in [(1, 7), (7, 1), (2, 2)]:
            yield rng.uniform(0, 1, (3, *shape))
        # values exactly at the thresholds and one float step either side
        at = np.arange(thresholds + 2) / (thresholds + 1)
        edges = np.concatenate([at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)])
        yield np.kron(rng.choice(edges, (3, 6, 8)), np.ones((1, 3, 3)))
        # levels 0..T, one per value: a single level, and levels with gaps
        mid = (np.arange(thresholds + 1) + 0.5) / (thresholds + 1)
        gaps = np.kron(rng.choice(mid[::3], (3, 5, 6)), np.ones((1, 3, 4)))
        yield gaps
        single = gaps.copy()
        single[0] = mid[thresholds // 2]
        yield single

    @pytest.mark.parametrize("thresholds", range(1, 10))
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_byte_identical(self, thresholds, radius):
        cfg = BmsConfig(thresholds_per_channel=thresholds, opening_radius=radius)
        for img in self.images(thresholds):
            got = S.bms_saliency(img, cfg)
            want = bms_saliency_per_map(img, thresholds, radius)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), thresholds=st.integers(1, 9), radius=st.integers(0, 2),
           h=st.integers(1, 9), w=st.integers(1, 9))
    def test_quantized_images_property(self, data, thresholds, radius, h, w):
        """Channels drawn from a few values at, beside and between the
        thresholds, or copied or mirrored from an earlier channel: single
        levels, gaps and maps repeated within and across channels are the
        rule."""
        at = np.arange(thresholds + 2) / (thresholds + 1)
        mid = (at[:-1] + at[1:]) / 2
        values = np.unique(np.concatenate(
            [at, mid, np.nextafter(at, 0.0), np.nextafter(at, 1.0)]))
        img = np.empty((3, h, w))
        for c, channel in enumerate(img):
            how = data.draw(st.sampled_from(["drawn", "copy", "mirror"] if c else ["drawn"]),
                            label="how")
            if how != "drawn":
                earlier = img[data.draw(st.integers(0, c - 1), label="earlier")]
                channel[...] = earlier if how == "copy" else earlier[:, ::-1]
                continue
            palette = data.draw(st.lists(st.sampled_from(values), min_size=1,
                                         max_size=4), label="palette")
            picks = data.draw(st.lists(st.integers(0, len(palette) - 1),
                                       min_size=h * w, max_size=h * w), label="pixels")
            channel[...] = np.array(palette)[picks].reshape(h, w)
        got = S.bms_saliency(img, BmsConfig(thresholds, radius))
        want = bms_saliency_per_map(img, thresholds, radius)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("thresholds", [1, 3, 8])
    @pytest.mark.parametrize("radius", [3, 5])
    def test_wide_opening_on_a_small_image(self, thresholds, radius):
        """On a 9x9 image the opening erodes most regions away, all of them
        at radius 5; nothing dilates back across the ring into a neighbour."""
        rng = np.random.default_rng(7)
        blocks = np.kron(rng.uniform(0, 1, (3, 3, 3)), np.ones((1, 3, 3)))
        disk = np.full((3, 9, 9), 0.1)
        disk[:, 1:8, 1:8] = 0.9
        cfg = BmsConfig(thresholds_per_channel=thresholds, opening_radius=radius)
        for img in (rng.uniform(0, 1, (3, 9, 9)), blocks, disk):
            got = S.bms_saliency(img, cfg)
            want = bms_saliency_per_map(img, thresholds, radius)
            assert got.tobytes() == want.tobytes()
        if radius == 5:
            assert not S.bms_saliency(disk, cfg).any()


class TestManyThresholds:
    """Up to the 255-threshold cap, where a map can have 3T = 765 copies and a
    pixel's weighted count no longer fits a byte."""

    @pytest.mark.parametrize("thresholds", [16, 85, 255])
    @pytest.mark.parametrize("radius", [0, 1])
    def test_byte_identical(self, thresholds, radius):
        images = list(TestStackedBmsMatchesPerMap.images(thresholds))
        edges = images[14]  # values at, and one float step beside, each t_k
        assert edges.shape == (3, 18, 24)
        cfg = BmsConfig(thresholds_per_channel=thresholds, opening_radius=radius)
        for img in (sd.generate_scene(2).image, edges):
            got = S.bms_saliency(img, cfg)
            want = bms_saliency_per_map(img, thresholds, radius)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestOracleSaliency:

    def test_empty_scene_is_zero(self):
        s = S.oracle_saliency(FakeScene(16, []), 2)
        np.testing.assert_array_equal(s, np.zeros((16, 16)))

    def test_full_frame_object_is_ones(self):
        s = S.oracle_saliency(FakeScene(8, [np.ones((8, 8), dtype=bool)]), 3)
        np.testing.assert_array_equal(s, np.ones((8, 8)))

    def test_no_blur_is_exact_mask(self):
        m = np.zeros((32, 32), dtype=bool)
        m[5:15, 8:18] = True
        s = S.oracle_saliency(FakeScene(32, [m]), 0)
        np.testing.assert_array_equal(s, m.astype(float))

    def test_includes_every_mask(self):
        a = np.zeros((16, 16), dtype=bool)
        b = np.zeros((16, 16), dtype=bool)
        a[2:5, 2:5] = True
        b[9:12, 9:12] = True
        s = S.oracle_saliency(FakeScene(16, [a, b]), 0)
        assert s[a].min() == 1.0 and s[b].min() == 1.0

    def test_blur_spreads_but_preserves_range(self):
        m = np.zeros((16, 16), dtype=bool)
        m[6:10, 6:10] = True
        s = S.oracle_saliency(FakeScene(16, [m]), 2)
        assert s.max() == 1.0 and s.min() == 0.0
        assert (s > 0).sum() > m.sum()

    def test_missing_mask_rejected(self):
        with pytest.raises(ValueError):
            S.oracle_saliency(FakeScene(8, None), 1)
        wrong_size = FakeScene(8, [])
        wrong_size.masks = np.ones((1, 4, 4), dtype=bool)
        with pytest.raises(ValueError):
            S.oracle_saliency(wrong_size, 1)


class TestBoxBlur:

    def test_zero_and_one_exactness(self):
        np.testing.assert_array_equal(S.box_blur(np.zeros((9, 9))), np.zeros((9, 9)))
        np.testing.assert_array_equal(S.box_blur(np.ones((9, 9))), np.ones((9, 9)))

    def test_general_constant_near_exact(self):
        m = np.full((9, 9), 0.37)
        np.testing.assert_allclose(S.box_blur(m), m, rtol=1e-15)

    def test_is_a_mean_of_neighbors(self):
        m = np.zeros((5, 5))
        m[2, 2] = 9.0
        out = S.box_blur(m)
        np.testing.assert_allclose(out[1:4, 1:4], np.ones((3, 3)), atol=1e-15)
        assert out[0, 0] == 0.0
