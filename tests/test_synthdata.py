"""Tests for the synthetic scene generator and benchmark splits."""

import json

import numpy as np
import pytest

from fewdet import synthdata as SD
from fewdet.ppm import read_ppm
from fewdet.synthdata import GenConfig, generate_scene
from oracles import corners, generate_scene_per_pair, iou


class TestSceneGeneration:

    def test_same_seed_bit_identical(self):
        a = generate_scene(123)
        b = generate_scene(123)
        assert np.array_equal(a.image, b.image)
        assert len(a.objects) == len(b.objects)
        for oa, ob in zip(a.objects, b.objects):
            assert oa.class_id == ob.class_id
            assert oa.box == ob.box
            assert np.array_equal(oa.mask, ob.mask)

    def test_different_seeds_differ(self):
        assert not np.array_equal(generate_scene(1).image, generate_scene(2).image)

    def test_pixel_range_and_shape(self):
        s = generate_scene(5)
        assert s.image.shape == (3, 64, 64)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        assert s.image.dtype == np.float64

    def test_object_count_bounds(self):
        for seed in range(40):
            s = generate_scene(seed)
            assert 1 <= len(s.objects) <= 4

    def test_box_is_exact_tight_bound_of_mask(self):
        for seed in range(30):
            s = generate_scene(seed)
            for o in s.objects:
                rows = np.flatnonzero(o.mask.any(axis=1))
                cols = np.flatnonzero(o.mask.any(axis=0))
                size = o.mask.shape[0]
                assert o.box.cx == (cols[0] + cols[-1] + 1) / (2 * size)
                assert o.box.cy == (rows[0] + rows[-1] + 1) / (2 * size)
                assert o.box.w == (cols[-1] + 1 - cols[0]) / size
                assert o.box.h == (rows[-1] + 1 - rows[0]) / size

    def test_boxes_inside_image(self):
        for seed in range(30):
            for o in generate_scene(seed).objects:
                x0, y0, x1, y1 = corners(o.box)
                assert 0.0 <= x0 < x1 <= 1.0
                assert 0.0 <= y0 < y1 <= 1.0

    def test_pairwise_overlap_cap(self):
        for seed in range(50):
            objs = generate_scene(seed).objects
            for i in range(len(objs)):
                for j in range(i + 1, len(objs)):
                    assert iou(objs[i].box, objs[j].box) <= 0.3 + 1e-12

    def test_placement_matches_per_pair_oracle(self):
        """One iou_matrix row per candidate places the same objects, to the
        byte, as one scalar IoU per (candidate, placed object) pair."""
        for seed in range(200):
            got, want = generate_scene(seed), generate_scene_per_pair(seed)
            assert got.image.tobytes() == want.image.tobytes()
            assert [(o.class_id, o.box) for o in got.objects] == \
                [(o.class_id, o.box) for o in want.objects]
            assert all(a.mask.tobytes() == b.mask.tobytes()
                       for a, b in zip(got.objects, want.objects))

    def test_empty_scene_requires_allow_empty(self):
        with pytest.raises(SD.GenerationError):
            generate_scene(0, GenConfig(max_objects=0))
        s = generate_scene(0, GenConfig(max_objects=0, allow_empty=True))
        assert s.objects == [] and s.annotated == []

    def test_class_frequencies_near_uniform(self):
        """Across 1000 scenes every class lands within 20% of the uniform share."""
        counts = np.zeros(SD.NUM_CLASSES)
        for seed in range(1000):
            for o in generate_scene(seed).objects:
                counts[o.class_id - 1] += 1
        mean = counts.mean()
        assert np.all(counts >= 0.8 * mean)
        assert np.all(counts <= 1.2 * mean)

    def test_masks_painted_into_image(self):
        s = generate_scene(11)
        last = s.objects[-1]  # painted last, never occluded
        pixels = s.image[:, last.mask]
        assert pixels.min() >= 0.45  # object palette floor, above background band


class TestClassLayout:

    def test_class_id_mapping_is_a_bijection(self):
        seen = set()
        for shape in range(4):
            for family in range(2):
                cid = SD.class_id_of(shape, family)
                assert SD.shape_of(cid) == (shape, family)
                seen.add(cid)
        assert seen == set(range(1, 9))

    def test_palettes_shared_across_shapes(self):
        """Color family, not the exact color, separates class pairs."""
        warm_classes = [SD.class_id_of(s, 0) for s in range(4)]
        assert all(SD.shape_of(c)[1] == 0 for c in warm_classes)
        assert len({SD.shape_of(c)[0] for c in warm_classes}) == 4


class TestSplits:

    def test_three_disjoint_novel_pairs(self):
        novels = [set(SD.make_split(i).novel) for i in (1, 2, 3)]
        assert all(len(n) == 2 for n in novels)
        assert not (novels[0] & novels[1] or novels[0] & novels[2]
                    or novels[1] & novels[2])

    def test_novel_subset_of_categories(self):
        for i in (1, 2, 3):
            split = SD.make_split(i)
            assert set(split.novel) < set(split.categories)
            assert set(split.base) | set(split.novel) == set(split.categories)

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError):
            SD.make_split(4)


class TestBenchmark:

    def test_base_train_hides_novel_annotations(self):
        bm = SD.build_benchmark(3, SD.make_split(2), sizes=(40, 5, 5))
        novel = set(bm.split.novel)
        hidden = visible = 0
        for scene in bm.base_train:
            for o, a in zip(scene.objects, scene.annotated):
                if o.class_id in novel:
                    hidden += not a
                    visible += a
                else:
                    assert a
        assert visible == 0
        assert hidden > 0  # novel objects exist in the pixels, unannotated

    def test_pool_and_test_fully_annotated(self):
        bm = SD.build_benchmark(3, SD.make_split(1), sizes=(5, 20, 20))
        for scene in bm.novel_pool + bm.test:
            assert all(scene.annotated)

    def test_split_changes_novel_not_distribution(self):
        bm1 = SD.build_benchmark(9, SD.make_split(1), sizes=(5, 5, 5))
        bm2 = SD.build_benchmark(9, SD.make_split(2), sizes=(5, 5, 5))
        assert set(bm1.split.novel) != set(bm2.split.novel)
        # same generator distribution: identical seeds inside a subset would
        # need identical split ids, so just check shapes and ranges agree
        assert len(bm1.test) == len(bm2.test)
        for s in bm2.test:
            assert s.image.shape == (3, 64, 64)

    def test_default_test_set_has_thirty_gt_per_class(self):
        bm = SD.build_benchmark(0, SD.make_split(1),
                                sizes=(1, 1, SD.DEFAULT_SIZES[2]))
        counts = {c: 0 for c in range(1, 9)}
        for scene in bm.test:
            for o in scene.objects:
                counts[o.class_id] += 1
        assert all(v >= 30 for v in counts.values()), counts

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            SD.build_benchmark(0, SD.make_split(1), sizes=(0, 1, 1))

    def test_instance_index_covers_every_object(self):
        bm = SD.build_benchmark(4, SD.make_split(1), sizes=(5, 10, 5))
        index = SD.class_instance_index(bm.novel_pool)
        total = sum(len(v) for v in index.values())
        assert total == sum(len(s.objects) for s in bm.novel_pool)
        for cid, refs in index.items():
            for s_i, o_i in refs:
                assert bm.novel_pool[s_i].objects[o_i].class_id == cid


class TestDump:

    def test_ppm_and_sidecar_round_trip(self, tmp_path):
        scene = generate_scene(21)
        SD.dump_scene(scene, tmp_path, "scene_021")
        img = read_ppm(tmp_path / "scene_021.ppm")
        assert img.shape == (3, 64, 64)
        # 8-bit quantization bound
        assert np.abs(img - scene.image).max() <= 0.5 / 255 + 1e-12
        doc = json.loads((tmp_path / "scene_021.json").read_text())
        assert len(doc["objects"]) == len(scene.objects)
        first = doc["objects"][0]
        assert first["class"] == scene.objects[0].class_id
        assert first["annotated"] is True
