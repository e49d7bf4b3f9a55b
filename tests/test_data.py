"""Synthetic generation invariants, tiling, fold planning, class weights,
and PGM round trips."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfam.data import (
    LabeledImage,
    class_bases,
    compute_class_weights,
    crop_tiles,
    gen_synthetic,
    kfold_split,
    load_dataset,
    read_pgm,
    save_dataset,
    write_pgm,
)
from lfam.errors import ConfigError, ContractError, PgmError, ShapeError
from lfam.rng import make_rng
from lfam.tensor import Tensor


class TestMakeRng:
    @pytest.mark.parametrize("seed, stream", [(-1, 0), (2**63, 0), (0, -1), (0, 2**63)])
    def test_seed_or_stream_outside_the_key_range_is_config_error(self, seed, stream):
        name = "seed" if seed != 0 else "stream"
        with pytest.raises(ConfigError, match=f"^make_rng: {name} "):
            make_rng(seed, stream)

    def test_largest_seed_and_stream_are_taken(self):
        # numpy warns on key values in the last few below 2**64; 2**63 - 1 is clear of them
        top = 2**63 - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0 <= make_rng(top, top).random() < 1


class TestGenSynthetic:
    def test_shapes_and_ranges(self):
        images = gen_synthetic(3, size=32, num_classes=4, rare_class_frac=0.02, seed=0)
        assert len(images) == 3
        for im in images:
            assert im.image.shape == (1, 1, 32, 32)
            assert im.mask.shape == (32, 32)
            assert im.image.data.dtype == np.float32
            assert 0.0 <= im.image.data.min() and im.image.data.max() <= 1.0
            assert im.mask.min() >= 0 and im.mask.max() < 4

    def test_intensity_tracks_class_base_within_noise(self):
        images = gen_synthetic(2, size=24, num_classes=3, rare_class_frac=0.03, seed=5)
        bases = class_bases(3)
        for im in images:
            deviation = np.abs(im.image.data[0, 0] - bases[im.mask])
            assert deviation.max() <= 0.08 + 1e-6

    def test_every_class_appears(self):
        images = gen_synthetic(4, size=32, num_classes=4, rare_class_frac=0.02, seed=1)
        for im in images:
            assert set(np.unique(im.mask)) == {0, 1, 2, 3}

    def test_rare_class_share_is_small_but_present(self):
        images = gen_synthetic(6, size=64, num_classes=4, rare_class_frac=0.015, seed=2)
        shares = [np.count_nonzero(im.mask == 3) / im.mask.size for im in images]
        for s in shares:
            assert 0.003 <= s <= 0.05

    def test_same_seed_reproduces(self):
        a = gen_synthetic(2, size=16, num_classes=3, rare_class_frac=0.04, seed=9)
        b = gen_synthetic(2, size=16, num_classes=3, rare_class_frac=0.04, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.image.data, y.image.data)
            np.testing.assert_array_equal(x.mask, y.mask)

    def test_image_streams_are_independent_of_count(self):
        # image i depends only on (seed, i), not on how many images are drawn
        few = gen_synthetic(2, size=16, num_classes=3, rare_class_frac=0.04, seed=9)
        many = gen_synthetic(5, size=16, num_classes=3, rare_class_frac=0.04, seed=9)
        np.testing.assert_array_equal(few[1].image.data, many[1].image.data)

    def test_different_seeds_differ(self):
        a = gen_synthetic(1, size=16, num_classes=3, rare_class_frac=0.04, seed=0)[0]
        b = gen_synthetic(1, size=16, num_classes=3, rare_class_frac=0.04, seed=1)[0]
        assert not np.array_equal(a.image.data, b.image.data)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            gen_synthetic(0, 16, 3, 0.02, seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(1, 4, 3, 0.02, seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(1, 16, 1, 0.02, seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(1, 16, 3, 0.0, seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(1, 16, 3, 0.1, seed=0)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_mask_labels_always_valid(self, seed):
        im = gen_synthetic(1, size=16, num_classes=5, rare_class_frac=0.05, seed=seed)[0]
        assert im.mask.min() >= 0 and im.mask.max() < 5


class TestLabeledImage:
    def test_rejects_mismatched_mask(self):
        with pytest.raises(ShapeError):
            LabeledImage(image=Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)),
                         mask=np.zeros((5, 4), dtype=np.int64))

    def test_rejects_batched_image(self):
        with pytest.raises(ShapeError):
            LabeledImage(image=Tensor(np.zeros((2, 1, 4, 4), dtype=np.float32)),
                         mask=np.zeros((4, 4), dtype=np.int64))

    def test_rejects_float_mask(self):
        with pytest.raises(ContractError):
            LabeledImage(image=Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)),
                         mask=np.zeros((4, 4)))


class TestCropTiles:
    def test_exact_tiling_counts_and_content(self):
        # 1024 / 256 -> 4 x 4 = 16 tiles per image
        img = gen_synthetic(1, size=32, num_classes=3, rare_class_frac=0.03, seed=3)[0]
        tiles = crop_tiles(img, 8)
        assert len(tiles) == 16
        # row-major: tile 1 is the top row, second column
        np.testing.assert_array_equal(tiles[1].mask, img.mask[0:8, 8:16])
        np.testing.assert_array_equal(tiles[4].image.data[0, 0],
                                      img.image.data[0, 0, 8:16, 0:8])

    def test_remainder_rows_are_dropped(self):
        img = LabeledImage(image=Tensor(np.zeros((1, 1, 10, 13), dtype=np.float32)),
                           mask=np.zeros((10, 13), dtype=np.int64))
        assert len(crop_tiles(img, 4)) == 2 * 3

    def test_tiles_are_copies(self):
        img = gen_synthetic(1, size=16, num_classes=2, rare_class_frac=0.04, seed=4)[0]
        tile = crop_tiles(img, 8)[0]
        tile.image.data[...] = -1.0
        assert img.image.data.min() >= 0.0

    def test_oversized_tile_rejected(self):
        img = gen_synthetic(1, size=16, num_classes=2, rare_class_frac=0.04, seed=4)[0]
        with pytest.raises(ShapeError):
            crop_tiles(img, 17)


class TestKfoldSplit:
    def test_reference_plan_sizes(self):
        plan = kfold_split(320, 5, val_frac_of_train=0.25, seed=0)
        for fold in plan.folds:
            assert len(fold.test) == 64
            assert len(fold.val) == 64
            assert len(fold.train) == 192

    def test_quarter_fold_sizes(self):
        plan = kfold_split(100, 4, val_frac_of_train=0.0, seed=1)
        for fold in plan.folds:
            assert len(fold.test) == 25
            assert len(fold.val) == 0
            assert len(fold.train) == 75

    def test_partition_properties(self):
        plan = kfold_split(53, 4, val_frac_of_train=0.2, seed=2)
        all_test = sorted(i for f in plan.folds for i in f.test)
        assert all_test == list(range(53))
        for fold in plan.folds:
            parts = set(fold.train) | set(fold.val) | set(fold.test)
            assert parts == set(range(53))
            assert not set(fold.train) & set(fold.val)
            assert not set(fold.train) & set(fold.test)
            assert not set(fold.val) & set(fold.test)

    def test_deterministic_per_seed(self):
        a = kfold_split(40, 5, 0.25, seed=7)
        b = kfold_split(40, 5, 0.25, seed=7)
        c = kfold_split(40, 5, 0.25, seed=8)
        assert a == b
        assert a != c

    @given(n=st.integers(4, 80), k=st.integers(2, 4), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_fold_sizes_balanced(self, n, k, seed):
        if n < k:
            return
        plan = kfold_split(n, k, 0.25, seed)
        sizes = [len(f.test) for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == n

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            kfold_split(3, 5, 0.25, seed=0)
        with pytest.raises(ConfigError):
            kfold_split(10, 1, 0.25, seed=0)
        with pytest.raises(ConfigError):
            kfold_split(10, 2, 1.0, seed=0)


class TestClassWeights:
    def test_inverse_frequency_example(self):
        # counts (75, 25): raw (2/3, 2), normalized to mean 1 -> (0.5, 1.5)
        mask = np.zeros((10, 10), dtype=np.int64)
        mask.flat[:25] = 1
        assert np.count_nonzero(mask == 1) == 25
        weights = compute_class_weights([mask], 2)
        np.testing.assert_allclose(weights, [0.5, 1.5], rtol=1e-12)

    def test_mean_is_one(self):
        rng = np.random.default_rng(17)
        masks = [rng.integers(0, 4, size=(6, 6)) for _ in range(3)]
        weights = compute_class_weights(masks, 4)
        np.testing.assert_allclose(weights.mean(), 1.0, rtol=1e-12)

    def test_absent_class_floored_not_infinite(self):
        weights = compute_class_weights([np.zeros((4, 4), dtype=np.int64)], 3)
        assert np.isfinite(weights).all()
        assert weights[1] == weights[2] > weights[0]

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ContractError):
            compute_class_weights([np.full((2, 2), 5, dtype=np.int64)], 3)


class TestPgmRoundTrip:
    def test_write_read_identity(self, tmp_path):
        arr = np.arange(48, dtype=np.uint8).reshape(6, 8)
        write_pgm(tmp_path / "x.pgm", arr)
        np.testing.assert_array_equal(read_pgm(tmp_path / "x.pgm"), arr)

    def test_header_is_plain_p5(self, tmp_path):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 3), dtype=np.uint8))
        raw = (tmp_path / "x.pgm").read_bytes()
        assert raw.startswith(b"P5\n3 2\n255\n")
        assert len(raw) == len(b"P5\n3 2\n255\n") + 6

    def test_comment_lines_are_skipped(self, tmp_path):
        payload = bytes(range(6))
        (tmp_path / "c.pgm").write_bytes(b"P5\n# made elsewhere\n3 2\n255\n" + payload)
        np.testing.assert_array_equal(read_pgm(tmp_path / "c.pgm"),
                                      np.frombuffer(payload, dtype=np.uint8).reshape(2, 3))

    def test_truncated_payload_rejected(self, tmp_path):
        (tmp_path / "t.pgm").write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 5)
        with pytest.raises(ContractError):
            read_pgm(tmp_path / "t.pgm")

    def test_wrong_magic_rejected(self, tmp_path):
        (tmp_path / "w.pgm").write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(ContractError):
            read_pgm(tmp_path / "w.pgm")

    @pytest.mark.parametrize("raw", [b"P5\nxx 4\n255\n", b"P5\n4", b"P5\n# c",
                                     b"P5\n" + b"9" * 5000 + b" 1\n255\n",
                                     b"P5\n0 4\n255\n", b"P5\n2 2\n65535\n" + bytes(8),
                                     # the magic P5 with no whitespace after it: "P512" is no width 12
                                     b"P512 2\n255\n" + bytes(24), b"P5#c\n2 2\n255\n" + bytes(4)])
    def test_malformed_header_raises_pgm_error(self, tmp_path, raw):
        (tmp_path / "m.pgm").write_bytes(raw)
        with pytest.raises(PgmError):
            read_pgm(tmp_path / "m.pgm")

    @given(st.one_of(st.binary(max_size=40),
                     st.binary(max_size=40).map(lambda b: b"P5" + b),
                     st.tuples(st.sampled_from([b"P5\n", b"P5 # c\n"]),
                               st.lists(st.sampled_from([b"0", b"1", b"2", b"255", b"x", b" ",
                                                         b"\n", b"#", b"-1"]), max_size=8),
                               st.binary(max_size=8)).map(lambda t: t[0] + b"".join(t[1]) + t[2])))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_parse_or_raise_pgm_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.pgm"
            path.write_bytes(raw)
            try:
                arr = read_pgm(path)
            except PgmError:
                return
        assert arr.dtype == np.uint8 and arr.ndim == 2 and arr.size > 0

    def test_non_uint8_write_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.int64))

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "x.pgm"
        before = np.arange(12, dtype=np.uint8).reshape(3, 4)
        write_pgm(path, before)
        write_bytes = Path.write_bytes

        def write_half_then_fail(target, data):
            write_bytes(target, data[:len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError):
            write_pgm(path, np.full((5, 6), 7, dtype=np.uint8))
        monkeypatch.undo()
        np.testing.assert_array_equal(read_pgm(path), before)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.pgm"]


class TestDatasetRoundTrip:
    def test_masks_survive_exactly_images_within_quantization(self, tmp_path):
        images = gen_synthetic(3, size=16, num_classes=4, rare_class_frac=0.03, seed=6)
        save_dataset(tmp_path, images)
        loaded = load_dataset(tmp_path)
        assert len(loaded) == 3
        for orig, back in zip(images, loaded):
            np.testing.assert_array_equal(back.mask, orig.mask)
            assert np.abs(back.image.data - orig.image.data).max() <= 0.5 / 255.0 + 1e-7

    def test_layout_on_disk(self, tmp_path):
        images = gen_synthetic(2, size=16, num_classes=2, rare_class_frac=0.04, seed=6)
        save_dataset(tmp_path, images)
        assert sorted(p.name for p in (tmp_path / "images").iterdir()) == ["0000.pgm", "0001.pgm"]
        assert sorted(p.name for p in (tmp_path / "masks").iterdir()) == ["0000.pgm", "0001.pgm"]

    def test_mask_label_past_a_byte_raises_before_any_directory(self, tmp_path):
        images = gen_synthetic(2, size=16, num_classes=2, rare_class_frac=0.04, seed=6)
        images[1].mask[3, 4] = 256
        with pytest.raises(ContractError, match="at most 256 classes"):
            save_dataset(tmp_path / "ds", images)
        assert not (tmp_path / "ds").exists()

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nowhere")

    def test_unpaired_files_rejected(self, tmp_path):
        images = gen_synthetic(2, size=16, num_classes=2, rare_class_frac=0.04, seed=6)
        save_dataset(tmp_path, images)
        (tmp_path / "masks" / "0001.pgm").unlink()
        with pytest.raises(ContractError):
            load_dataset(tmp_path)
