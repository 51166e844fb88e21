import gzip
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from temperhmc import data, synth
from temperhmc.errors import (BadMagic, IndivisibleSize,
                              InsufficientClassCount, TruncatedPayload)


def make_idx_pair(n=12, side=28, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, side, side)).astype(np.uint8)
    labels = (np.arange(n) % 10).astype(np.int64)
    return synth.idx_image_bytes(images), synth.idx_label_bytes(labels), images, labels


class TestParseIdx:
    def test_roundtrip(self):
        img_b, lab_b, images, labels = make_idx_pair()
        raw = data.parse_idx(img_b, lab_b)
        np.testing.assert_array_equal(raw.images, images)
        np.testing.assert_array_equal(raw.labels, labels)

    def test_magic_words(self):
        img_b, lab_b, _, _ = make_idx_pair()
        assert struct.unpack(">i", img_b[:4])[0] == 2051
        assert struct.unpack(">i", lab_b[:4])[0] == 2049
        with pytest.raises(BadMagic):
            data.parse_idx(lab_b, lab_b)   # label magic where images expected

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            data.parse_idx(b"\x00\x00\x99\x03" + b"\x00" * 16, b"")

    def test_element_type_other_than_unsigned_byte(self):
        # a well-formed IDX file of float32 images (type byte 0x0D)
        images = np.zeros((2, 28, 28), dtype=">f4")
        floats = b"\x00\x00\x0d\x03" + struct.pack(">3i", *images.shape)
        _, lab_b, _, _ = make_idx_pair(n=2)
        with pytest.raises(BadMagic, match="unsigned-byte"):
            data.parse_idx(floats + images.tobytes(), lab_b)

    def test_truncated_payload(self):
        img_b, lab_b, _, _ = make_idx_pair()
        with pytest.raises(TruncatedPayload):
            data.parse_idx(img_b[:-5], lab_b)

    def test_count_mismatch(self):
        img_b, _, _, _ = make_idx_pair(n=9)
        _, lab_b, _, _ = make_idx_pair(n=10)
        with pytest.raises(TruncatedPayload):
            data.parse_idx(img_b, lab_b)

    def test_images_other_than_28x28(self):
        img_b, lab_b, _, _ = make_idx_pair(side=32)
        with pytest.raises(BadMagic, match="32x32, not 28x28"):
            data.parse_idx(img_b, lab_b)

    def test_gzip_transparent(self, tmp_path):
        img_b, lab_b, images, _ = make_idx_pair()
        (tmp_path / "train-images-idx3-ubyte.gz").write_bytes(gzip.compress(img_b))
        (tmp_path / "train-labels-idx1-ubyte.gz").write_bytes(gzip.compress(lab_b))
        raw = data.load_idx_split(tmp_path, "train")
        np.testing.assert_array_equal(raw.images, images)


def oracle_resize(img, n_dst=16):
    """Brute-force area-weighted resampling: integrate over each target cell."""
    n_src = img.shape[0]
    scale = n_src / n_dst
    out = np.zeros((n_dst, n_dst))
    for i in range(n_dst):
        for j in range(n_dst):
            total = 0.0
            for si in range(n_src):
                oy = max(0.0, min((i + 1) * scale, si + 1) - max(i * scale, si))
                if oy == 0.0:
                    continue
                for sj in range(n_src):
                    ox = max(0.0, min((j + 1) * scale, sj + 1) - max(j * scale, sj))
                    if ox:
                        total += oy * ox * img[si, sj]
            out[i, j] = total / scale**2
    return out


def render_one_at_a_time(n, seed):
    """make_images one image per loop step, with numpy's uniform and normal.

    The reference the block render must equal bit for bit.
    """
    rng = np.random.default_rng(seed)
    templates = synth._class_templates(np.random.default_rng(synth.TEMPLATE_SEED))
    labels = np.arange(n) % 10
    rng.shuffle(labels)
    images = np.empty((n, 28, 28), dtype=np.uint8)
    for i, lab in enumerate(labels):
        dy, dx = rng.uniform(-2.0, 2.0, size=2)
        img = np.roll(templates[lab], (int(round(dy)), int(round(dx))), axis=(0, 1))
        img = img * rng.uniform(0.7, 1.0)
        img = img + rng.normal(0.0, 0.12, size=img.shape)
        images[i] = np.round(255 * np.clip(img, 0.0, 1.0)).astype(np.uint8)
    return images, labels.astype(np.int64)


class TestMakeImages:
    @pytest.mark.parametrize("n", [0, 1, 40, 255, 256, 257, 600])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_equals_the_one_at_a_time_render(self, n, seed):
        images, labels = synth.make_images(n, seed)
        ref_images, ref_labels = render_one_at_a_time(n, seed)
        assert images.dtype == np.uint8 and labels.dtype == np.int64
        np.testing.assert_array_equal(images, ref_images)
        np.testing.assert_array_equal(labels, ref_labels)

    def test_pins_the_conftest_train_split(self):
        images, labels = synth.make_images(3000, 0)
        digest = hashlib.sha256(images.tobytes() + labels.tobytes()).hexdigest()
        assert digest == ("25ab4ec65e0ef8fc4eee7c44e46f71ef"
                          "33fbdb262597cba2ddacefb56ffcd2d3")


class TestWriteCorpus:
    def test_files_gunzip_to_the_idx_bytes(self, tmp_path):
        synth.write_corpus(tmp_path, n_train=40, n_test=20, seed=4)
        train_imgs, train_labels = synth.make_images(40, 4)
        test_imgs, test_labels = synth.make_images(20, 5)
        expect = {
            "train-images-idx3-ubyte": synth.idx_image_bytes(train_imgs),
            "train-labels-idx1-ubyte": synth.idx_label_bytes(train_labels),
            "t10k-images-idx3-ubyte": synth.idx_image_bytes(test_imgs),
            "t10k-labels-idx1-ubyte": synth.idx_label_bytes(test_labels),
        }
        assert {p.name for p in tmp_path.iterdir()} == {n + ".gz" for n in expect}
        for name, payload in expect.items():
            blob = (tmp_path / (name + ".gz")).read_bytes()
            assert gzip.decompress(blob) == payload
            assert blob[8] == 4         # the header's "fastest" flag: level 1

    def test_same_seed_same_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth.write_corpus(a, n_train=300, n_test=40, seed=2)
        synth.write_corpus(b, n_train=300, n_test=40, seed=2)
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            blob = (a / name).read_bytes()
            assert blob == (b / name).read_bytes()
            assert blob[4:8] == bytes(4)    # the header's mtime: none recorded

    def test_failed_write_keeps_earlier_files(self, tmp_path, fail_writes):
        synth.write_corpus(tmp_path, n_train=40, n_test=20, seed=4)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        fail_writes(synth)
        with pytest.raises(OSError):
            synth.write_corpus(tmp_path, n_train=40, n_test=20, seed=5)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestResize:
    def test_constant_image_preserved(self):
        img = np.full((1, 28, 28), 0.37)
        out = data.resize_images(img)
        np.testing.assert_allclose(out, 0.37, atol=1e-12)

    def test_mass_conservation_single_pixel(self):
        img = np.zeros((1, 28, 28))
        img[0, 13, 5] = 1.0
        out = data.resize_images(img)
        assert out.sum() == pytest.approx((16 / 28) ** 2, rel=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(size=(28, 28))
        out = data.resize_images(img[None])[0]
        np.testing.assert_allclose(out, oracle_resize(img), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        a, b = rng.uniform(size=(2, 1, 28, 28))
        lhs = data.resize_images(2.0 * a + 0.5 * b)
        rhs = 2.0 * data.resize_images(a) + 0.5 * data.resize_images(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestTransform:
    def test_standardised_moments(self, full_splits):
        train, test = full_splits
        combined = np.concatenate([train.inputs, test.inputs])
        mean = combined.mean(axis=0)
        var = combined.var(axis=0)
        np.testing.assert_allclose(mean, 0.0, atol=1e-10)
        # features above the variance floor come out with unit variance
        live = var > 0.5
        np.testing.assert_allclose(var[live], 1.0, atol=1e-10)

    def test_blocks_match_one_whole_resize(self, corpus_dir, full_splits):
        # 3000 and 600 images: neither split is a whole number of blocks
        raws = [data.load_idx_split(corpus_dir, split) for split in ("train", "test")]
        feats = np.concatenate([data.resize_images(r.images / 255.0) for r in raws])
        feats = feats.reshape(len(feats), -1)
        std = np.sqrt(np.maximum(feats.var(axis=0), data.VARIANCE_FLOOR))
        expected = (feats - feats.mean(axis=0)) / std
        got = np.concatenate([ds.inputs for ds in full_splits])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        for ds, raw in zip(full_splits, raws):
            np.testing.assert_array_equal(ds.labels, raw.labels)

    def test_shapes(self, full_splits):
        train, test = full_splits
        assert train.inputs.shape[1] == 256
        assert test.inputs.shape[1] == 256


class TestStratifiedSubset:
    def test_class_counts(self, full_splits):
        train, test = full_splits
        sub, _ = data.stratified_subset(train, test, 500, seed=1)
        np.testing.assert_array_equal(np.bincount(sub.labels, minlength=10), 50)

    def test_partition(self, full_splits):
        train, test = full_splits
        sub, rest = data.stratified_subset(train, test, 200, seed=2)
        assert len(sub) + len(rest) == len(train) + len(test)
        assert len(rest) == len(test) + len(train) - 200

    def test_indivisible_size(self, full_splits):
        train, test = full_splits
        with pytest.raises(IndivisibleSize):
            data.stratified_subset(train, test, 503, seed=0)

    def test_insufficient_class_count(self, full_splits):
        train, test = full_splits
        with pytest.raises(InsufficientClassCount):
            data.stratified_subset(train, test, len(train) * 10, seed=0)

    def test_deterministic_in_seed(self, full_splits):
        train, test = full_splits
        a, _ = data.stratified_subset(train, test, 100, seed=9)
        b, _ = data.stratified_subset(train, test, 100, seed=9)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        c, _ = data.stratified_subset(train, test, 100, seed=10)
        assert not np.array_equal(a.inputs, c.inputs)


class TestStratifiedIndices:
    @staticmethod
    def inline_draw(labels, n_eval):
        # the per-class draw the remd command made inline before it moved
        # into data.stratified_indices
        rng = np.random.default_rng(12345)
        idx = []
        per = n_eval // 10
        for c in range(10):
            cand = np.flatnonzero(labels == c)
            idx.append(rng.choice(cand, size=min(per, len(cand)), replace=False))
        return np.sort(np.concatenate(idx))

    @pytest.mark.parametrize("n_eval", [10, 95, 300, 1000])
    def test_pins_the_inline_draw(self, n_eval):
        # uneven classes; class 9 has fewer than n_eval // 10 at the larger sizes
        labels = np.random.default_rng(5).choice(
            10, size=900, p=[0.11] * 5 + [0.1] * 4 + [0.05])
        idx = data.stratified_indices(labels, n_eval, seed=12345)
        np.testing.assert_array_equal(idx, self.inline_draw(labels, n_eval))

    def test_matches_on_the_test_fixture(self, d50):
        _, test = d50
        np.testing.assert_array_equal(
            data.stratified_indices(test.labels, 1000, seed=12345),
            self.inline_draw(test.labels, 1000))


class TestStore:
    @staticmethod
    def saved(tmp_path, full_splits):
        store = data.DatasetStore(tmp_path)
        train, test = data.stratified_subset(*full_splits, 100, 3)
        store.save(100, 3, train, test)
        return store, train, test

    def test_snapshot_bit_identical(self, tmp_path, full_splits):
        store, a_train, a_test = self.saved(tmp_path, full_splits)
        b_train, b_test = store.load(100, 3)
        np.testing.assert_array_equal(a_train.inputs, b_train.inputs)
        np.testing.assert_array_equal(a_train.labels, b_train.labels)
        np.testing.assert_array_equal(a_test.inputs, b_test.inputs)

    def test_checksum_detects_corruption(self, tmp_path, full_splits):
        store, _, _ = self.saved(tmp_path, full_splits)
        path = store._paths(100, 3)[0]
        blob = bytearray(open(path, "rb").read())
        blob[100] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(TruncatedPayload):
            store.load(100, 3)

    def test_truncated_snapshot_raises(self, tmp_path, full_splits):
        store, _, _ = self.saved(tmp_path, full_splits)
        path = store._paths(100, 3)[0]
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:len(blob) // 2])
        with pytest.raises(TruncatedPayload):
            store.load(100, 3)


class TestSelectiveLoad:
    """load_dataset keeps only the rows its selection picks."""

    K = 100

    @staticmethod
    def pick(labels):
        return data.stratified_indices(labels, TestSelectiveLoad.K, seed=12345)

    @pytest.fixture
    def path(self, tmp_path, d500):
        # 3,100 rows: many blocks, the last one partial
        path = tmp_path / "test.bin"
        data.save_dataset(path, d500[1])
        return path

    @pytest.mark.parametrize("rows", [
        pick, lambda labels: np.array([0, 127, 128, 129, len(labels) - 1]),
        lambda labels: np.array([], dtype=int)], ids=["stratified", "block edges", "none"])
    def test_equals_the_full_load_indexed(self, path, rows):
        full = data.load_dataset(path)
        idx = rows(full.labels)
        got = data.load_dataset(path, rows)
        np.testing.assert_array_equal(got.inputs, full.inputs[idx])
        np.testing.assert_array_equal(got.labels, full.labels[idx])

    def test_rows_out_of_order_raise(self, path):
        with pytest.raises(ValueError, match="ascending"):
            data.load_dataset(path, lambda labels: np.array([5, 3]))

    @pytest.mark.parametrize("where", ["unpicked row", "label", "trailer"])
    def test_flipped_byte_raises(self, path, where):
        blob = bytearray(path.read_bytes())
        full = data.load_dataset(path)
        unpicked = np.setdiff1d(np.arange(len(full)), self.pick(full.labels))[0]
        at = {"unpicked row": 24 + unpicked * full.inputs.shape[1] * 8 + 3,
              "label": len(blob) - 32 - 8, "trailer": len(blob) - 1}[where]
        blob[at] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedPayload):
            data.load_dataset(path, self.pick)

    @pytest.mark.parametrize("cut", [1, 32, 5000])
    def test_truncated_file_raises(self, path, cut):
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(TruncatedPayload):
            data.load_dataset(path, self.pick)

    def test_peak_memory_is_the_rows_kept_and_one_block(self, path):
        tracemalloc.start()
        try:
            got = data.load_dataset(path, self.pick)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == self.K
        assert peak <= got.inputs.nbytes + data.BLOCK_BYTES + 64 * 1024
