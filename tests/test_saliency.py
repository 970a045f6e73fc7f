"""Tests for boolean-map saliency and the mask-union oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_count_and_layout(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, size=(3, 6, 6))
        maps = S.boolean_maps(img, BmsConfig(thresholds_per_channel=8))
        assert len(maps) == 3 * 8 * 2
        # map/complement pairing
        for i in range(0, len(maps), 2):
            assert np.array_equal(maps[i], ~maps[i + 1])

    def test_constant_zero_image_single_threshold(self):
        img = np.zeros((3, 4, 4))
        maps = S.boolean_maps(img, BmsConfig(thresholds_per_channel=1))
        assert not maps[0].any() and maps[1].all()

    def test_exact_threshold_goes_to_complement(self):
        """t_1 = 1/2 at T=1; pixels exactly at 0.5 fail the strict compare."""
        img = np.full((3, 3, 3), 0.5)
        maps = S.boolean_maps(img, BmsConfig(thresholds_per_channel=1))
        assert not maps[0].any() and maps[1].all()

    def test_checkerboard_thresholding(self):
        board = np.indices((4, 4)).sum(axis=0) % 2
        img = np.stack([board * 0.9 + 0.1] * 3)  # low 0.1, high 1.0
        maps = S.boolean_maps(img, BmsConfig(thresholds_per_channel=1))
        np.testing.assert_array_equal(maps[0], board.astype(bool))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            S.boolean_maps(np.full((3, 2, 2), 1.5), BmsConfig())


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
    def images():
        rng = np.random.default_rng(5)
        blocks = np.kron(rng.uniform(0, 1, (3, 5, 6)), np.ones((1, 4, 4)))
        yield rng.uniform(0, 1, (3, 17, 23))
        yield blocks[:, :17, :23]
        yield blocks[:, :20, :9].transpose(0, 2, 1)
        yield sd.generate_scene(2).image
        for value in (0.0, 0.5, 1.0, 0.3):
            yield np.full((3, 17, 23), value)

    @pytest.mark.parametrize("thresholds", range(1, 10))
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_byte_identical(self, thresholds, radius):
        cfg = BmsConfig(thresholds_per_channel=thresholds, opening_radius=radius)
        for img in self.images():
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
