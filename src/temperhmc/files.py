"""Atomic replacement of the files the package writes."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def replacing(path):
    """Yield a temporary path beside path, and rename it over path on success.

    The caller opens and writes the temporary path.  A write that raises
    leaves an earlier file at path as it was and removes the temporary one,
    so path never holds a half-written file.
    """
    tmp = f"{path}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
