"""Tests for the synthetic scene generator and benchmark splits."""

import json

import numpy as np
import pytest

from fewdet import synthdata as SD
from fewdet.ppm import read_ppm
from fewdet.synthdata import GenConfig, generate_scene
from oracles import center_to_corners, generate_scene_per_pair, iou


class TestSceneGeneration:

    def test_same_seed_bit_identical(self):
        a = generate_scene(123)
        b = generate_scene(123)
        for name in ("image", "boxes", "labels", "masks", "annotated"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

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
            assert 1 <= len(s.labels) <= 4
            assert s.boxes.shape == (len(s.labels), 4) and s.boxes.dtype == np.float64
            assert s.labels.dtype == np.int64
            assert s.masks.shape == (len(s.labels), 64, 64) and s.masks.dtype == bool
            assert s.annotated.dtype == bool and s.annotated.all()

    def test_box_is_exact_tight_bound_of_mask(self):
        for seed in range(30):
            s = generate_scene(seed)
            for (cx, cy, w, h), mask in zip(s.boxes.tolist(), s.masks):
                rows = np.flatnonzero(mask.any(axis=1))
                cols = np.flatnonzero(mask.any(axis=0))
                size = mask.shape[0]
                assert cx == (cols[0] + cols[-1] + 1) / (2 * size)
                assert cy == (rows[0] + rows[-1] + 1) / (2 * size)
                assert w == (cols[-1] + 1 - cols[0]) / size
                assert h == (rows[-1] + 1 - rows[0]) / size

    def test_boxes_inside_image(self):
        for seed in range(30):
            for box in generate_scene(seed).boxes.tolist():
                x0, y0, x1, y1 = center_to_corners(box)
                assert 0.0 <= x0 < x1 <= 1.0
                assert 0.0 <= y0 < y1 <= 1.0

    def test_pairwise_overlap_cap(self):
        for seed in range(50):
            boxes = generate_scene(seed).boxes.tolist()
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert iou(boxes[i], boxes[j]) <= 0.3 + 1e-12

    def test_placement_matches_per_pair_oracle(self):
        """One iou_matrix row per candidate places the same objects, to the
        byte, as one scalar IoU per (candidate, placed object) pair."""
        for seed in range(200):
            got, want = generate_scene(seed), generate_scene_per_pair(seed)
            assert got.image.tobytes() == want.image.tobytes()
            assert got.labels.tolist() == want.labels.tolist()
            assert got.boxes.tobytes() == want.boxes.tobytes()
            assert got.masks.tobytes() == want.masks.tobytes()

    @pytest.mark.parametrize("seed", [741, 951, 1071])
    def test_object_without_room_ends_the_scene(self, seed):
        """At side 32 these scenes find no room for the last of their four
        objects: they keep the three placed before it, to the byte as the
        per-pair oracle does."""
        cfg = GenConfig(image_size=32)
        got, want = generate_scene(seed, cfg), generate_scene_per_pair(seed, cfg)
        assert len(got.labels) == 3
        assert got.image.tobytes() == want.image.tobytes()
        assert got.labels.tolist() == want.labels.tolist()
        assert got.boxes.tobytes() == want.boxes.tobytes()
        assert got.masks.tobytes() == want.masks.tobytes()

    def test_empty_scene_requires_allow_empty(self):
        with pytest.raises(SD.GenerationError):
            generate_scene(0, GenConfig(max_objects=0))
        s = generate_scene(0, GenConfig(max_objects=0, allow_empty=True))
        assert s.boxes.shape == (0, 4) and s.labels.shape == (0,)
        assert s.masks.shape == (0, 64, 64) and s.annotated.shape == (0,)

    def test_class_frequencies_near_uniform(self):
        """Across 1000 scenes every class lands within 20% of the uniform share."""
        counts = np.zeros(SD.NUM_CLASSES)
        for seed in range(1000):
            for class_id in generate_scene(seed).labels:
                counts[class_id - 1] += 1
        mean = counts.mean()
        assert np.all(counts >= 0.8 * mean)
        assert np.all(counts <= 1.2 * mean)

    def test_masks_painted_into_image(self):
        s = generate_scene(11)
        last = s.masks[-1]  # painted last, never occluded
        pixels = s.image[:, last]
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
            assert scene.annotated.dtype == bool
            for class_id, a in zip(scene.labels.tolist(), scene.annotated.tolist()):
                if class_id in novel:
                    hidden += not a
                    visible += a
                else:
                    assert a
        assert visible == 0
        assert hidden > 0  # novel objects exist in the pixels, unannotated

    def test_pool_and_test_fully_annotated(self):
        bm = SD.build_benchmark(3, SD.make_split(1), sizes=(5, 20, 20))
        for scene in bm.novel_pool + bm.test:
            assert scene.annotated.all()

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
            for class_id in scene.labels.tolist():
                counts[class_id] += 1
        assert all(v >= 30 for v in counts.values()), counts

    def test_cli_default_sizes_build_at_side_32(self):
        """The smallest side detector.image_size accepts builds the CLI's
        default 200/40/200 benchmark at seed 0, one object or more a scene."""
        bm = SD.build_benchmark(0, SD.make_split(1), sizes=(200, 40, 200),
                                cfg=GenConfig(image_size=32))
        scenes = bm.base_train + bm.novel_pool + bm.test
        assert len(scenes) == 440
        assert all(1 <= len(s.labels) <= 4 for s in scenes)
        assert all(s.image.shape == (3, 32, 32) for s in scenes)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            SD.build_benchmark(0, SD.make_split(1), sizes=(0, 1, 1))

    def test_instance_index_covers_every_object(self):
        bm = SD.build_benchmark(4, SD.make_split(1), sizes=(5, 10, 5))
        index = SD.class_instance_index(bm.novel_pool)
        total = sum(len(v) for v in index.values())
        assert total == sum(len(s.labels) for s in bm.novel_pool)
        for cid, refs in index.items():
            for s_i, o_i in refs:
                assert bm.novel_pool[s_i].labels[o_i] == cid


class TestDump:

    def test_ppm_and_sidecar_round_trip(self, tmp_path):
        scene = generate_scene(21)
        SD.dump_scene(scene, tmp_path, "scene_021")
        img = read_ppm(tmp_path / "scene_021.ppm")
        assert img.shape == (3, 64, 64)
        # 8-bit quantization bound
        assert np.abs(img - scene.image).max() <= 0.5 / 255 + 1e-12
        doc = json.loads((tmp_path / "scene_021.json").read_text())
        assert len(doc["objects"]) == len(scene.labels)
        first = doc["objects"][0]
        assert first["class"] == scene.labels[0]
        assert first["box"] == scene.boxes[0].tolist()
        assert first["annotated"] is True
