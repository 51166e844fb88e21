"""MNIST-format ingestion, 16x16 downsampling, and stratified subsets.

Images arrive as IDX files (gzip or plain).  Each 28x28 image is mapped to
[0, 1], resized to 16x16 by area-weighted averaging, flattened to 256
features, and standardised per feature using statistics over the full
combined (train + test) set.  Training subsets D_n are stratified: n/10
examples per class; everything not selected is appended to the test split.
A D_n is saved as a checksummed binary snapshot whose name holds (n, seed).

Each step holds only the rows it uses, and no step holds two full-size
float copies of the corpus: the writer streams a split's rows out of the
standardised features by index, and the reader streams a snapshot through
its checksum, keeping only the rows its caller picks from the labels.  A
command reads only the rows it uses, and one that uses no test rows opens
no test snapshot.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (BadMagic, IndivisibleSize, InsufficientClassCount,
                     TruncatedPayload)
from .files import replacing

# Magic words 00 00 08 0n: unsigned bytes (type 0x08) in n = 3 or 1 dimensions.
IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049

N_CLASSES = 10
SOURCE_SIDE = 28
TARGET_SIDE = 16
VARIANCE_FLOOR = 1e-8
# Images scaled and resized per block: a block's float copy is 64 x 28 x 28
# x 8 B = 400 kB, so no split is ever held as a whole float array.
RESIZE_BLOCK = 64
# Feature rows per block of the variance and of a snapshot read or write:
# 256 KiB, 128 rows of 256 features.
BLOCK_BYTES = 1 << 18

SNAPSHOT_MAGIC = b"THMCDS01"


@dataclass(frozen=True)
class RawImageSet:
    """Decoded IDX contents: uint8 images (n, 28, 28) and labels (n,)."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise TruncatedPayload(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise TruncatedPayload("labels outside [0, 9]")


@dataclass(frozen=True)
class Dataset:
    """Normalised feature matrix (n, 256) plus integer labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.ascontiguousarray(self.inputs, dtype=float))
        object.__setattr__(self, "labels", np.ascontiguousarray(self.labels, dtype=np.int64))
        self.inputs.setflags(write=False)
        self.labels.setflags(write=False)

    def __len__(self):
        return len(self.labels)


def _parse_idx_array(data: bytes) -> np.ndarray:
    if len(data) < 4:
        raise BadMagic("file shorter than an IDX magic word")
    magic = struct.unpack(">i", data[:4])[0]
    if magic not in (IMAGE_MAGIC, LABEL_MAGIC):
        raise BadMagic(f"magic word {magic} is not an unsigned-byte IDX image/label file")
    ndim = data[3]
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise TruncatedPayload("IDX header truncated")
    dims = struct.unpack(f">{ndim}i", data[4:header_len])
    expected = int(np.prod(dims))
    payload = np.frombuffer(data, dtype=np.uint8, offset=header_len)
    if payload.size != expected:
        raise TruncatedPayload(
            f"payload has {payload.size} bytes, header promises {expected}"
        )
    return payload.reshape(dims)       # a read-only view of data


def parse_idx(image_bytes: bytes, label_bytes: bytes) -> RawImageSet:
    """Decode a matching pair of IDX image/label byte streams."""
    images = _parse_idx_array(image_bytes)
    labels = _parse_idx_array(label_bytes)
    if images.ndim != 3:
        raise BadMagic("image file does not hold a 3-D tensor")
    if labels.ndim != 1:
        raise BadMagic("label file does not hold a 1-D tensor")
    if images.shape[1:] != (SOURCE_SIDE, SOURCE_SIDE):
        raise BadMagic(f"images are {images.shape[1]}x{images.shape[2]}, "
                       f"not {SOURCE_SIDE}x{SOURCE_SIDE}")
    return RawImageSet(images, labels.astype(np.int64))


def _read_maybe_gzip(path) -> bytes:
    """The file's bytes, gunzipped if it starts with the gzip magic."""
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head != b"\x1f\x8b":
            return fh.read()
        try:
            return gzip.decompress(fh.read())
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise TruncatedPayload(f"{path}: damaged gzip stream ({exc})") from exc


_MNIST_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def load_idx_split(mnist_dir, split: str) -> RawImageSet:
    """Load one MNIST split from a directory of (optionally gzipped) IDX files."""
    img_name, lab_name = _MNIST_NAMES[split]
    paths = []
    for name in (img_name, lab_name):
        for candidate in (name, name + ".gz"):
            p = os.path.join(mnist_dir, candidate)
            if os.path.exists(p):
                paths.append(p)
                break
        else:
            raise FileNotFoundError(f"{name}[.gz] not found in {mnist_dir}")
    return parse_idx(_read_maybe_gzip(paths[0]), _read_maybe_gzip(paths[1]))


def resize_weights() -> np.ndarray:
    """(16, 28) matrix of fractional source-pixel overlaps per target cell.

    Row i holds the lengths of the intersections of source pixel intervals
    [j, j+1) with the target cell [i*s, (i+1)*s), s = 28/16.  Rows sum to
    s, so W @ img @ W.T / s**2 averages intensity over each target cell.
    """
    scale = SOURCE_SIDE / TARGET_SIDE
    weights = np.zeros((TARGET_SIDE, SOURCE_SIDE))
    for i in range(TARGET_SIDE):
        lo, hi = i * scale, (i + 1) * scale
        for j in range(int(np.floor(lo)), min(int(np.ceil(hi)), SOURCE_SIDE)):
            weights[i, j] = min(hi, j + 1) - max(lo, j)
    return weights


def resize_images(images: np.ndarray, wmat: np.ndarray | None = None) -> np.ndarray:
    """Area-weighted resize of (n, 28, 28) images to (n, 16, 16).

    Linear in the pixel values and mass-conserving up to the (16/28)^2
    area factor.  wmat is resize_weights(), built when not given.
    """
    wmat = resize_weights() if wmat is None else wmat
    scale = SOURCE_SIDE / TARGET_SIDE
    return wmat @ images @ wmat.T / scale**2


def _resize_into(out: np.ndarray, images: np.ndarray, wmat=None) -> None:
    """Scale uint8 images to [0, 1] and resize them into out, a block at a time.

    wmat is resize_weights(), built once here when not given.
    """
    wmat = resize_weights() if wmat is None else wmat
    for i in range(0, len(images), RESIZE_BLOCK):
        out[i:i + RESIZE_BLOCK] = resize_images(images[i:i + RESIZE_BLOCK] / 255.0, wmat)


def _block_rows(n, d):
    """Rows in a block of n rows of d features; at least one."""
    return max(1, min(n, BLOCK_BYTES // (8 * d)))


def _variance(feats, mean):
    """feats.var(axis=0), bit for bit, without a full-size array of deviations.

    numpy adds axis 0 one row at a time.  Each block's squared deviations
    are reduced with the running sum as their first row, so the additions
    keep that order; summing blocks apart and adding the sums would not.
    """
    step = _block_rows(*feats.shape)
    block = np.empty((step + 1, feats.shape[1]))
    total = np.zeros(feats.shape[1])
    for a in range(0, len(feats), step):
        rows = feats[a:a + step]
        dev = block[1:1 + len(rows)]
        np.subtract(rows, mean, out=dev)
        np.multiply(dev, dev, out=dev)
        block[0] = total
        np.add.reduce(block[int(a == 0):1 + len(rows)], axis=0, out=total)
    return total / len(feats)


def transform(train_raw: RawImageSet, test_raw: RawImageSet):
    """Resize, flatten, and standardise both splits jointly.

    Standardisation statistics are computed per feature over the combined
    train + test set, with a variance floor for near-constant border
    pixels.  Returns (train, test) Datasets, views of one feature array.
    """
    n_train = len(train_raw.labels)
    feats = np.empty((n_train + len(test_raw.labels), TARGET_SIDE, TARGET_SIDE))
    wmat = resize_weights()
    _resize_into(feats[:n_train], train_raw.images, wmat)
    _resize_into(feats[n_train:], test_raw.images, wmat)
    feats = feats.reshape(len(feats), -1)
    mean = feats.mean(axis=0)
    std = np.sqrt(np.maximum(_variance(feats, mean), VARIANCE_FLOOR))
    feats -= mean
    feats /= std
    return (Dataset(feats[:n_train], train_raw.labels),
            Dataset(feats[n_train:], test_raw.labels))


def stratified_indices(labels: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Sorted indices of a stratified draw of n // 10 examples per class.

    Classes are drawn in order 0..9 without replacement from one
    default_rng(seed) stream; a class with fewer examples gives all it has.
    """
    per_class = n // N_CLASSES
    rng = np.random.default_rng(seed)
    chosen = []
    for c in range(N_CLASSES):
        idx = np.flatnonzero(labels == c)
        chosen.append(rng.choice(idx, size=min(per_class, len(idx)), replace=False))
    return np.sort(np.concatenate(chosen))


def all_rows(labels: np.ndarray) -> np.ndarray:
    """Every row: the selection of a full read or write."""
    return np.arange(len(labels))


def _ascending(rows, n: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (rows[0] < 0 or rows[-1] >= n or np.any(np.diff(rows) <= 0)):
        raise ValueError(f"rows are not ascending indices below {n}")
    return rows


def stratified_split(train: Dataset, test: Dataset, n: int, seed: int):
    """The rows of a stratified D_n and of its complement-augmented test set.

    Draws n/10 examples per class from the training split without
    replacement; unused training examples are appended to the test split.
    Each split is a list of (Dataset, ascending row indices) pieces, its
    rows in order.  Fully determined by (n, seed).
    """
    if n % N_CLASSES != 0:
        raise IndivisibleSize(f"subset size {n} is not a multiple of {N_CLASSES}")
    per_class = n // N_CLASSES
    for c in range(N_CLASSES):
        count = int(np.sum(train.labels == c))
        if count < per_class:
            raise InsufficientClassCount(
                f"class {c} has {count} examples, need {per_class}"
            )
    chosen = stratified_indices(train.labels, n, seed)
    rest = np.ones(len(train), dtype=bool)
    rest[chosen] = False
    return ([(train, chosen)],
            [(test, all_rows(test.labels)), (train, np.flatnonzero(rest))])


def _labels(pieces) -> np.ndarray:
    return np.concatenate([ds.labels[rows] for ds, rows in pieces])


def stratified_subset(train: Dataset, test: Dataset, n: int, seed: int):
    """Stratified D_n and its complement-augmented test set, as Datasets.

    The rows of stratified_split, gathered.
    """
    return tuple(Dataset(np.concatenate([ds.inputs[rows] for ds, rows in pieces]),
                         _labels(pieces))
                 for pieces in stratified_split(train, test, n, seed))


def save_dataset(path, split) -> None:
    """Versioned binary snapshot with a sha256 trailer; atomic write.

    split is a Dataset, or (Dataset, row indices) pieces as stratified_split
    gives them.  The rows go through the checksum and out a block at a time,
    so a split given by pieces is never built as an array of its own.
    """
    pieces = [(split, all_rows(split.labels))] if isinstance(split, Dataset) else split
    pieces = [(ds, _ascending(rows, len(ds))) for ds, rows in pieces]
    labels = np.ascontiguousarray(_labels(pieces), dtype="<i8")
    d = pieces[0][0].inputs.shape[1]
    block = np.empty((_block_rows(len(labels), d), d), dtype="<f8")
    digest = hashlib.sha256()
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<qq", len(labels), d))
        for ds, rows in pieces:
            for a in range(0, len(rows), len(block)):
                part = rows[a:a + len(block)]
                # mode="clip" writes straight into out; the rows are in range
                buf = np.take(ds.inputs, part, axis=0, out=block[:len(part)],
                              mode="clip")
                digest.update(buf)
                fh.write(buf)
        digest.update(labels)
        fh.write(labels)
        fh.write(digest.digest())


def load_dataset(path, rows=all_rows) -> Dataset:
    """Inverse of save_dataset, keeping the rows rows(labels) picks.

    rows maps the snapshot's labels to the ascending indices of the rows to
    keep; by default it keeps them all.  The labels are read first, then
    the inputs stream through the checksum a block at a time, and only the
    picked rows are kept.  Every load checks the whole payload against the
    trailer.
    """
    with open(path, "rb") as fh:
        if fh.read(len(SNAPSHOT_MAGIC)) != SNAPSHOT_MAGIC:
            raise BadMagic(f"{path} is not a dataset snapshot")
        n, d = struct.unpack("<qq", fh.read(16))
        start = fh.tell()
        if os.fstat(fh.fileno()).st_size != start + 8 * (n * d + n) + 32:
            raise TruncatedPayload(f"{path}: size differs from its header's")
        fh.seek(8 * n * d, os.SEEK_CUR)
        labels = np.empty(n, dtype="<i8")
        fh.readinto(labels)
        stored = fh.read(32)
        keep = _ascending(rows(labels), n)
        inputs = np.empty((len(keep), d), dtype="<f8")
        block = np.empty((_block_rows(n, d), d), dtype="<f8")
        digest = hashlib.sha256()
        fh.seek(start)
        for a in range(0, n, len(block)):
            buf = block[:min(len(block), n - a)]
            fh.readinto(buf)
            digest.update(buf)
            lo, hi = np.searchsorted(keep, (a, a + len(buf)))
            np.take(buf, keep[lo:hi] - a, axis=0, out=inputs[lo:hi], mode="clip")
        digest.update(labels)
    if digest.digest() != stored:
        raise TruncatedPayload(f"{path}: checksum mismatch")
    return Dataset(inputs, labels[keep])


class DatasetStore:
    """Directory of persisted (size, seed) train/test snapshot pairs."""

    def __init__(self, directory):
        self.directory = str(directory)

    def _paths(self, n, seed):
        stem = os.path.join(self.directory, f"d{n}_seed{seed}")
        return stem + "_train.bin", stem + "_test.bin"

    def has(self, n, seed):
        return all(os.path.exists(p) for p in self._paths(n, seed))

    def load(self, n, seed, test_rows=all_rows):
        """The (n, seed) pair: the whole train split and the test rows picked.

        test_rows maps the test labels to the ascending indices of the rows
        to read, as load_dataset's rows does; None reads no test snapshot
        and gives None in its place.
        """
        train_p, test_p = self._paths(n, seed)
        train = load_dataset(train_p)
        return train, None if test_rows is None else load_dataset(test_p, test_rows)

    def save(self, n, seed, train, test):
        """Write the (n, seed) snapshot pair; returns the two paths.

        train and test are Datasets or pieces, as save_dataset takes them.
        Only saving creates the directory, so a mistyped one given to a
        reader is reported, not left behind empty.
        """
        os.makedirs(self.directory, exist_ok=True)
        paths = self._paths(n, seed)
        save_dataset(paths[0], train)
        save_dataset(paths[1], test)
        return paths
