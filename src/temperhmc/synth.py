"""Synthetic digit-like image corpus in IDX format.

Generates a 10-class 28x28 grayscale dataset whose files are byte-level
drop-in replacements for the usual IDX pairs, so the full ingestion
pipeline (parsing, resizing, normalisation, stratified subsets) can run
in environments without the real image corpus.  Each class is a fixed
arrangement of Gaussian blobs; samples add random whole-pixel shifts,
amplitude jitter, and pixel noise, giving classes that are learnable but
overlap enough for small training sets to overfit.

The random draws are made one image at a time, in a fixed order: three
uniforms (the vertical and horizontal shift and the amplitude), then the
pixel noise.  The arithmetic runs on blocks of RENDER_BLOCK images, with
each shifted template gathered from a table of pre-rolled ones, so the
images equal those of a one-image-at-a-time renderer bit for bit.

The corpus is rendered and written one split at a time, and each file's
header and payload are written apart, so no step holds a second copy of a
split's images.  Each file is written atomically, and the same seed gives
byte-identical files.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .data import IMAGE_MAGIC, LABEL_MAGIC
from .files import replacing

SIDE = 28
N_CLASSES = 10
TEMPLATE_SEED = 7       # one fixed set of class templates for every corpus
MAX_SHIFT = 2           # a shift is uniform on [-2, 2), rounded to a whole pixel
AMPLITUDE = (0.7, 1.0)  # bounds of the uniform intensity scale
NOISE_SD = 0.12         # sd of the additive Gaussian pixel noise
# Images rendered per block: a block's noise and float images take
# 2 x 64 x 28 x 28 x 8 B = 800 kB.  Blocks of 256 were no faster and
# raised a 1000 + 1000 corpus's peak RSS by about 2.6 MB.
RENDER_BLOCK = 64
# Payload bytes handed to the compressor per call, so that no more than
# about one slice of compressed output is held at once.
WRITE_SLICE = 1 << 20


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


def _shifted_templates():
    """(N_CLASSES * S * S, SIDE, SIDE) table, S = 2 * MAX_SHIFT + 1.

    Row (c * S + dy + MAX_SHIFT) * S + dx + MAX_SHIFT is class c's template
    rolled by (dy, dx) pixels.  A roll only moves values, so a gather from
    the table equals the roll.
    """
    shifts = range(-MAX_SHIFT, MAX_SHIFT + 1)
    return np.stack([np.roll(t, (dy, dx), axis=(0, 1))
                     for t in _class_templates(np.random.default_rng(TEMPLATE_SEED))
                     for dy in shifts for dx in shifts])


def make_images(n: int, seed: int):
    """n images and labels; labels cycle through classes for balance.

    Each image is its class template rolled by a whole-pixel shift, scaled
    by a uniform amplitude, plus Gaussian noise, clipped to [0, 1].  The
    uniforms are drawn as numpy's uniform(low, high) draws them,
    low + (high - low) * random(), and the noise as 0.0 + NOISE_SD * z.
    """
    rng = np.random.default_rng(seed)
    table = _shifted_templates()
    labels = np.arange(n) % N_CLASSES
    rng.shuffle(labels)
    images = np.empty((n, SIDE, SIDE), dtype=np.uint8)
    draws = np.empty((min(n, RENDER_BLOCK), 3))
    noise = np.empty((len(draws), SIDE, SIDE))
    img = np.empty_like(noise)
    span = 2 * MAX_SHIFT + 1
    lo, hi = AMPLITUDE
    for a in range(0, n, RENDER_BLOCK):
        m = min(RENDER_BLOCK, n - a)
        for j in range(m):
            rng.random(out=draws[j])
            rng.standard_normal(out=noise[j])
        d, z, x = draws[:m], noise[:m], img[:m]
        # each shift plus MAX_SHIFT: its offset in the table
        off = np.rint(-MAX_SHIFT + 2 * MAX_SHIFT * d[:, :2]).astype(np.intp) + MAX_SHIFT
        rows = (labels[a:a + m] * span + off[:, 0]) * span + off[:, 1]
        # mode="clip" writes straight into out; the rows are in range
        np.take(table, rows, axis=0, out=x, mode="clip")
        x *= (lo + (hi - lo) * d[:, 2])[:, None, None]
        z *= NOISE_SD
        x += z
        np.clip(x, 0.0, 1.0, out=x)
        x *= 255
        np.round(x, out=x)
        images[a:a + m] = x
    return images, labels.astype(np.int64)


def _idx_header(magic: int, shape) -> bytes:
    return struct.pack(f">{1 + len(shape)}i", magic, *shape)


def idx_image_bytes(images: np.ndarray) -> bytes:
    return _idx_header(IMAGE_MAGIC, images.shape) + images.astype(np.uint8).tobytes()


def idx_label_bytes(labels: np.ndarray) -> bytes:
    return _idx_header(LABEL_MAGIC, labels.shape) + labels.astype(np.uint8).tobytes()


def _write_gz(path, magic: int, payload: np.ndarray) -> None:
    """One gzipped IDX file: the header, then the uint8 payload's own buffer.

    Level 1, Huffman coding only: the pixel noise leaves LZ77 nothing to
    find.  Per 1,000 images the output is 79% of the raw size, against 84%
    at level 1 with LZ77 and 82% at level 9, in under half level 1's time.
    The gzip header records mtime 0, so the file depends on the payload
    alone.
    """
    deflate = zlib.compressobj(1, zlib.DEFLATED, 31, 8, zlib.Z_HUFFMAN_ONLY)
    flat = memoryview(np.ascontiguousarray(payload).reshape(-1))
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(deflate.compress(_idx_header(magic, payload.shape)))
        for a in range(0, len(flat), WRITE_SLICE):
            fh.write(deflate.compress(flat[a:a + WRITE_SLICE]))
        fh.write(deflate.flush())


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
