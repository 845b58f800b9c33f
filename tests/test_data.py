import dataclasses
import os
import struct

import numpy as np
import pytest

from kanmark.data import (FEYNMAN, PIXEL_VALUES, DataError, Dataset, average_pool,
                          epoch_batches, gen_feynman, load_idx, split_dataset,
                          split_indices, write_idx)

from oracles import FEYNMAN_DENOMINATORS, feynman_ref


def build_idx_pair(tmp_path, pixels, labels, rows=3, cols=3):
    """Hand-assembled IDX files from raw byte grids."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, len(labels), rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(labels.tobytes())
    return images_path, labels_path


class TestLoadIdx:
    def test_hand_built_fixture(self, tmp_path):
        pixels = np.arange(18, dtype=np.uint8)  # two 3x3 images
        images, labels = build_idx_pair(tmp_path, pixels, [7, 2])
        ds = load_idx(images, labels)
        assert ds.inputs.shape == (2, 9)
        expected = 2.0 * (pixels.reshape(2, 9).astype(float) / 255.0) - 1.0
        assert np.array_equal(ds.inputs, expected)
        assert np.array_equal(ds.targets, [7, 2])

    def test_every_pixel_loads_as_the_in_place_formulas_bits(self, tmp_path):
        # load_idx once mapped pixels with these three in-place steps.
        pixels = np.arange(256, dtype=np.uint8)
        old = pixels.astype(np.float64)
        old /= 255.0
        old *= 2.0
        old -= 1.0
        images, labels = build_idx_pair(tmp_path, pixels, [3], rows=16, cols=16)
        ds = load_idx(images, labels)
        assert ds.inputs.tobytes() == PIXEL_VALUES.tobytes() == old.tobytes()
        assert ds.inputs.flags.writeable and not PIXEL_VALUES.flags.writeable

    def test_normalization_endpoints(self, tmp_path):
        images, labels = build_idx_pair(tmp_path, [0] * 9 + [255] * 9, [0, 1])
        ds = load_idx(images, labels)
        assert np.all(ds.inputs[0] == -1.0)
        assert np.all(ds.inputs[1] == 1.0)

    def test_limit(self, tmp_path):
        images, labels = build_idx_pair(tmp_path, np.zeros(27, dtype=np.uint8),
                                        [1, 2, 3])
        ds = load_idx(images, labels, limit=2)
        assert len(ds) == 2

    @pytest.mark.parametrize("limit", [1, 4, 6, 9])
    def test_limit_is_the_first_rows_alone(self, tmp_path, limit):
        rng = np.random.default_rng(3)
        images, labels = build_idx_pair(tmp_path, rng.integers(0, 256, 54),
                                        rng.integers(0, 10, 6))
        full, limited = load_idx(images, labels), load_idx(images, labels, limit=limit)
        assert limited.inputs.tobytes() == full.inputs[:limit].tobytes()
        assert limited.targets.tobytes() == full.targets[:limit].tobytes()
        # converted alone: no view keeps the unlimited rows alive
        for a in (limited.inputs, limited.targets):
            assert (a if a.base is None else a.base).nbytes == a.nbytes

    def test_limit_still_checks_every_label(self, tmp_path):
        images, labels = build_idx_pair(tmp_path, np.zeros(27, dtype=np.uint8),
                                        [1, 2, 10])
        with pytest.raises(DataError, match="labels above 9"):
            load_idx(images, labels, limit=1)

    def test_header_only_files_load_zero_rows(self, tmp_path):
        images, labels = build_idx_pair(tmp_path, [], [])
        assert images.stat().st_size == 16 and labels.stat().st_size == 8
        ds = load_idx(images, labels)
        assert ds.inputs.shape == (0, 9) and len(ds.targets) == 0

    def test_bad_image_magic(self, tmp_path):
        images, labels = build_idx_pair(tmp_path, np.zeros(9, dtype=np.uint8), [1])
        data = bytearray(images.read_bytes())
        data[3] = 0x99
        images.write_bytes(bytes(data))
        with pytest.raises(DataError, match="magic 0x00000899, expected 0x00000803"):
            load_idx(images, labels)

    def test_bad_label_magic(self, tmp_path):
        images, labels = build_idx_pair(tmp_path, np.zeros(9, dtype=np.uint8), [1])
        data = bytearray(labels.read_bytes())
        data[3] = 0x00
        labels.write_bytes(bytes(data))
        with pytest.raises(DataError, match="magic 0x00000800, expected 0x00000801"):
            load_idx(images, labels)

    def test_truncated_payload(self, tmp_path):
        images, labels = build_idx_pair(tmp_path, np.zeros(9, dtype=np.uint8), [1])
        images.write_bytes(images.read_bytes()[:-2])
        with pytest.raises(DataError, match="payload needs 9 bytes, file has 7"):
            load_idx(images, labels)

    def test_truncated_header(self, tmp_path):
        images, labels = build_idx_pair(tmp_path, np.zeros(9, dtype=np.uint8), [1])
        images.write_bytes(b"\x00\x00")
        with pytest.raises(DataError, match="header needs 16 bytes, file has 2"):
            load_idx(images, labels)

    def test_count_mismatch(self, tmp_path):
        img1, _ = build_idx_pair(tmp_path, np.zeros(9, dtype=np.uint8), [1])
        sub = tmp_path / "other"
        sub.mkdir()
        _, lab2 = build_idx_pair(sub, np.zeros(18, dtype=np.uint8), [1, 2])
        with pytest.raises(DataError, match="1 images vs 2 labels"):
            load_idx(img1, lab2)

    def test_label_above_nine_rejected(self, tmp_path):
        images, labels = build_idx_pair(tmp_path, np.zeros(9, dtype=np.uint8), [11])
        with pytest.raises(DataError):
            load_idx(images, labels)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_idx(tmp_path / "nope.idx", tmp_path / "nope2.idx")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_not_a_regular_file(self, tmp_path):
        images, labels = build_idx_pair(tmp_path, np.zeros(9, dtype=np.uint8), [1])
        read_end, write_end = os.pipe()
        os.write(write_end, images.read_bytes())
        os.close(write_end)
        try:
            with pytest.raises(DataError, match="not a regular file"):
                load_idx(f"/dev/fd/{read_end}", labels)
        finally:
            os.close(read_end)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=4 * 25, dtype=np.uint8)
        images, labels = build_idx_pair(tmp_path, pixels, [0, 3, 9, 5],
                                        rows=5, cols=5)
        ds = load_idx(images, labels)
        out_i, out_l = tmp_path / "out_images.idx", tmp_path / "out_labels.idx"
        write_idx(ds, out_i, out_l, image_shape=(5, 5))
        assert out_i.read_bytes() == images.read_bytes()
        assert out_l.read_bytes() == labels.read_bytes()
        again = load_idx(out_i, out_l)
        assert np.array_equal(again.inputs, ds.inputs)
        assert np.array_equal(again.targets, ds.targets)

    def test_write_infers_square_shape(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.uniform(-1, 1, size=(3, 25)), np.array([1, 7, 2]))
        inferred = tmp_path / "inferred.idx", tmp_path / "inferred-labels.idx"
        explicit = tmp_path / "explicit.idx", tmp_path / "explicit-labels.idx"
        write_idx(ds, *inferred)
        write_idx(ds, *explicit, image_shape=(5, 5))
        assert inferred[0].read_bytes() == explicit[0].read_bytes()
        assert inferred[1].read_bytes() == explicit[1].read_bytes()
        not_square = Dataset(np.zeros((2, 10)), np.array([0, 1]))
        with pytest.raises(DataError):
            write_idx(not_square, tmp_path / "a.idx", tmp_path / "b.idx")


class TestFeynman:
    def test_registry_has_all_formulas(self):
        assert len(FEYNMAN) == 24
        assert FEYNMAN["I.12.11"].arity == 2
        assert FEYNMAN["I.9.18"].arity == 6

    def test_formula_identity_at_zero_coupling(self):
        f = FEYNMAN["I.12.11"]
        x = np.array([[0.0, 0.3], [0.0, -0.9]])
        assert np.allclose(f.fn(x), [1.0, 1.0])

    def test_ratio_formula(self):
        f = FEYNMAN["II.38.3"]
        assert f.fn(np.array([[0.5, 0.5]]))[0] == pytest.approx(1.0)

    def test_deterministic_and_strictly_inside(self):
        a = gen_feynman("I.16.6", 500, seed=9)
        b = gen_feynman("I.16.6", 500, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        assert np.all(np.abs(a.inputs) < 1.0)

    def test_rejection_keeps_denominators_safe(self):
        for fid in ("I.13.12", "II.38.3", "I.30.3", "III.9.52", "I.9.18"):
            ds = gen_feynman(fid, 400, seed=3)
            guard = FEYNMAN[fid].guard(ds.inputs)
            assert np.all(guard >= 1e-6), fid
            assert np.all(np.isfinite(ds.targets))

    def test_guards_track_the_vanishing_denominators(self):
        # A guard on another expression would only redraw other rows.
        guarded = sorted(fid for fid, f in FEYNMAN.items() if f.guard is not None)
        assert guarded == sorted(FEYNMAN_DENOMINATORS)
        rng = np.random.default_rng(23)
        for fid in guarded:
            x = rng.uniform(-1.0, 1.0, size=(200, FEYNMAN[fid].arity))
            guard = FEYNMAN[fid].guard(x)
            den = np.abs([FEYNMAN_DENOMINATORS[fid](row) for row in x])
            # rows ordered by |denominator| have a non-decreasing guard
            assert np.all(np.diff(guard[np.lexsort((guard, den))]) >= 0), fid

    def test_size_check_counts_every_input(self):
        # 2**59 floats fit numpy's size limit; 2**59 rows of 6 inputs do not.
        with pytest.raises(MemoryError, match="samples of 6 inputs"):
            gen_feynman("I.9.18", 2**59)

    @pytest.mark.parametrize("fid", sorted(FEYNMAN))
    def test_targets_match_independent_evaluator(self, fid):
        ds = gen_feynman(fid, 100, seed=17)
        for row, target in zip(ds.inputs, ds.targets):
            assert target == pytest.approx(feynman_ref(fid, row),
                                           rel=1e-12, abs=1e-12)

    def test_guard_that_rejects_every_row_raises(self, monkeypatch):
        calls = []

        def reject_all(v):
            calls.append(len(v))
            return np.zeros(len(v))

        monkeypatch.setitem(FEYNMAN, "III.9.52",
                            dataclasses.replace(FEYNMAN["III.9.52"], guard=reject_all))
        with pytest.raises(DataError, match="formula III.9.52 still rejects 50 of 50 "
                                            "rows after 100 redraws"):
            gen_feynman("III.9.52", 50, seed=0)
        assert calls == [50] * 101  # the first draw, then each redraw

    def test_unknown_formula(self):
        with pytest.raises(DataError):
            gen_feynman("IV.0.0", 10, seed=0)

    def test_formula_object_is_not_an_id(self):
        with pytest.raises(DataError, match="unknown formula id"):
            gen_feynman(FEYNMAN["I.12.11"], 10)

    def test_bad_n(self):
        with pytest.raises(DataError):
            gen_feynman("I.12.11", 0, seed=0)

    def test_one_sample(self):
        ds = gen_feynman("I.12.11", 1, seed=0)
        assert ds.inputs.shape == (1, 2) and ds.targets.shape == (1,)

    @pytest.mark.parametrize("fid", sorted(set(FEYNMAN) - {"I.50.26"}))
    def test_formula_reads_its_last_declared_input(self, fid):
        # An arity above the formula's would pass every sampling test, so each
        # formula must fail on one column fewer. I.50.26 lists a second
        # variable that it does not use.
        arity = FEYNMAN[fid].arity
        with pytest.raises(IndexError):
            FEYNMAN[fid].fn(np.full((3, arity - 1), 0.5))


class TestAveragePool:
    def test_pools_block_means(self):
        img = np.array([[1.0, 1.0, -1.0, -1.0,
                         0.0, 0.0, -1.0, 1.0,
                         1.0, -1.0, 0.5, 0.5,
                         1.0, 1.0, 0.5, 0.5]])
        ds = Dataset(img, np.array([3]))
        pooled = average_pool(ds, 2)
        assert pooled.inputs.shape == (1, 4)
        assert np.allclose(pooled.inputs[0], [0.5, -0.5, 0.5, 0.5])
        assert np.array_equal(pooled.targets, ds.targets)

    def test_factor_one_is_identity(self):
        ds = Dataset(np.zeros((2, 9)), np.array([0, 1]))
        assert average_pool(ds, 1) is ds

    def test_values_stay_in_range(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.uniform(-1, 1, size=(5, 16)), rng.integers(0, 10, 5))
        pooled = average_pool(ds, 2)
        assert np.abs(pooled.inputs).max() <= 1.0

    def test_non_divisible_shape_rejected(self):
        ds = Dataset(np.zeros((2, 9)), np.array([0, 1]))
        with pytest.raises(DataError):
            average_pool(ds, 2)

    def test_zero_rows_pool_to_zero_rows(self):
        ds = Dataset(np.zeros((0, 16)), np.zeros(0, dtype=np.int64))
        assert average_pool(ds, 2).inputs.shape == (0, 4)
        with pytest.raises(DataError, match="not poolable by 3"):
            average_pool(ds, 3)

    def test_rows_pool_as_they_do_among_all_rows(self):
        rng = np.random.default_rng(2)
        ds = Dataset(PIXEL_VALUES[rng.integers(0, 256, (40, 64))], rng.integers(0, 10, 40))
        rows = rng.permutation(40)[:7]
        some = average_pool(Dataset(ds.inputs[rows], ds.targets[rows]), 4)
        assert some.inputs.tobytes() == average_pool(ds, 4).inputs[rows].tobytes()


class TestSplit:
    def make(self, n=100, d=3):
        rng = np.random.default_rng(1)
        return Dataset(rng.uniform(-1, 1, size=(n, d)),
                       rng.integers(0, 10, size=n))

    def test_all_in_train(self):
        splits = split_dataset(self.make(), (1.0, 0.0, 0.0), seed=0)
        assert len(splits[0]) == 100
        assert len(splits[1]) == 0
        assert len(splits[2]) == 0

    def test_same_seed_identical(self):
        ds = self.make()
        a = split_dataset(ds, (0.6, 0.2, 0.2), seed=5)
        b = split_dataset(ds, (0.6, 0.2, 0.2), seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x.inputs, y.inputs)

    def test_sizes_disjoint_and_complete(self):
        ds = self.make(n=1000)
        train, test, hold = split_dataset(ds, (0.8, 0.1, 0.1), seed=2)
        assert (len(train), len(test), len(hold)) == (800, 100, 100)
        seen = np.vstack([train.inputs, test.inputs, hold.inputs])
        assert seen.shape == ds.inputs.shape
        order = np.lexsort(seen.T)
        base = np.lexsort(ds.inputs.T)
        assert np.array_equal(seen[order], ds.inputs[base])

    # One fraction, which the docstring allows, keeps every row in the seeded order.
    @pytest.mark.parametrize("fractions", [(1.0,), (0.5, 0.5), (0.7, 0.15, 0.15)])
    def test_splits_are_the_seeded_order_cut_at_each_fraction(self, fractions):
        ds = self.make(n=57)
        rows = split_indices(57, fractions, seed=4)
        order = np.random.default_rng(4).permutation(57)
        assert np.concatenate(rows).tobytes() == order.tobytes()
        assert [len(r) for r in rows[:-1]] == [int(f * 57) for f in fractions[:-1]]
        splits = split_dataset(ds, fractions, seed=4)
        assert len(splits) == len(fractions)
        for split, idx in zip(splits, rows):
            assert split.inputs.tobytes() == ds.inputs[idx].tobytes()
            assert split.targets.tobytes() == ds.targets[idx].tobytes()

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(DataError):
            split_dataset(self.make(), (0.5, 0.2), seed=0)

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(DataError):
            split_dataset(empty, (1.0,), seed=0)


class TestBatches:
    def test_batches_cover_everything(self):
        rng = np.random.default_rng(0)
        seen = np.concatenate(list(epoch_batches(103, 16, rng)))
        assert sorted(seen.tolist()) == list(range(103))

    def test_deterministic_given_generator_state(self):
        a = np.concatenate(list(epoch_batches(50, 8, np.random.default_rng(4))))
        b = np.concatenate(list(epoch_batches(50, 8, np.random.default_rng(4))))
        assert np.array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            list(epoch_batches(0, 8, np.random.default_rng(0)))


class TestDatasetValidation:
    def test_out_of_range_inputs_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.5]]), np.array([0]))

    def test_row_count_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
