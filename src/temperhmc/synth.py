"""Synthetic digit-like image corpus in IDX format.

Generates a 10-class 28x28 grayscale dataset whose files are byte-level
drop-in replacements for the usual IDX pairs, so the full ingestion
pipeline (parsing, resizing, normalisation, stratified subsets) can run
in environments without the real image corpus.  Each class is a fixed
arrangement of Gaussian blobs; samples add random sub-pixel shifts,
amplitude jitter, and pixel noise, giving classes that are learnable but
overlap enough for small training sets to overfit.

The corpus is rendered and written one split at a time, and each file's
header and payload are written apart, so no step holds a second copy of a
split's images.  Each file is written atomically.
"""

from __future__ import annotations

import gzip
import os
import struct

import numpy as np

from .data import IMAGE_MAGIC, LABEL_MAGIC
from .files import replacing

SIDE = 28
N_CLASSES = 10
TEMPLATE_SEED = 7       # one fixed set of class templates for every corpus


def _class_templates(rng):
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    templates = []
    for _ in range(N_CLASSES):
        n_blobs = rng.integers(2, 5)
        img = np.zeros((SIDE, SIDE))
        for _ in range(n_blobs):
            cy, cx = rng.uniform(6, SIDE - 6, size=2)
            sy, sx = rng.uniform(2.0, 5.0, size=2)
            amp = rng.uniform(0.6, 1.0)
            img += amp * np.exp(-((yy - cy) ** 2 / (2 * sy**2)
                                  + (xx - cx) ** 2 / (2 * sx**2)))
        templates.append(img / img.max())
    return templates


def _render(template, rng):
    dy, dx = rng.uniform(-2.0, 2.0, size=2)
    img = np.roll(template, (int(round(dy)), int(round(dx))), axis=(0, 1))
    img = img * rng.uniform(0.7, 1.0)
    img = img + rng.normal(0.0, 0.12, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def make_images(n: int, seed: int):
    """n images and labels; labels cycle through classes for balance."""
    rng = np.random.default_rng(seed)
    templates = _class_templates(np.random.default_rng(TEMPLATE_SEED))
    labels = np.arange(n) % N_CLASSES
    rng.shuffle(labels)
    images = np.empty((n, SIDE, SIDE), dtype=np.uint8)
    for i, lab in enumerate(labels):
        images[i] = np.round(255 * _render(templates[lab], rng)).astype(np.uint8)
    return images, labels.astype(np.int64)


def _idx_header(magic: int, shape) -> bytes:
    return struct.pack(f">{1 + len(shape)}i", magic, *shape)


def idx_image_bytes(images: np.ndarray) -> bytes:
    return _idx_header(IMAGE_MAGIC, images.shape) + images.astype(np.uint8).tobytes()


def idx_label_bytes(labels: np.ndarray) -> bytes:
    return _idx_header(LABEL_MAGIC, labels.shape) + labels.astype(np.uint8).tobytes()


def _write_gz(path, magic: int, payload: np.ndarray) -> None:
    """One gzipped IDX file: the header, then the uint8 payload's own buffer.

    Level 1 compression: the pixel noise leaves little for a higher level
    to gain (84% of the raw size against 82% at level 9), at a fifth of the
    time.
    """
    with replacing(path) as tmp, open(tmp, "wb") as raw, \
            gzip.GzipFile(path, "wb", compresslevel=1, fileobj=raw) as fh:
        fh.write(_idx_header(magic, payload.shape))
        fh.write(payload)


def write_corpus(directory, n_train: int = 6000, n_test: int = 1000,
                 seed: int = 0):
    """Write gzipped train/test IDX pairs with the standard file names."""
    os.makedirs(directory, exist_ok=True)
    for prefix, n, split_seed in (("train", n_train, seed), ("t10k", n_test, seed + 1)):
        images, labels = make_images(n, split_seed)
        stem = os.path.join(directory, prefix)
        _write_gz(f"{stem}-images-idx3-ubyte.gz", IMAGE_MAGIC, images)
        _write_gz(f"{stem}-labels-idx1-ubyte.gz", LABEL_MAGIC, labels.astype(np.uint8))
    return directory
