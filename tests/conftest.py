import builtins

import numpy as np
import pytest

from temperhmc import data, synth
from temperhmc.network import NetworkArch


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Small synthetic IDX corpus shared across the session."""
    d = tmp_path_factory.mktemp("corpus")
    synth.write_corpus(d, n_train=3000, n_test=600, seed=0)
    return d


@pytest.fixture(scope="session")
def full_splits(corpus_dir):
    raw_train = data.load_idx_split(corpus_dir, "train")
    raw_test = data.load_idx_split(corpus_dir, "test")
    return data.transform(raw_train, raw_test)


@pytest.fixture(scope="session")
def d500(full_splits):
    train, test = full_splits
    return data.stratified_subset(train, test, 500, seed=0)


@pytest.fixture(scope="session")
def d50(full_splits):
    train, test = full_splits
    return data.stratified_subset(train, test, 50, seed=0)


@pytest.fixture
def tiny_arch():
    """A 2-4-3-sized problem is enough for oracle comparisons."""
    return NetworkArch((2, 4, 3))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


class _FailingFile:
    """A real file whose writes after the first raise, as on a full disk."""

    def __init__(self, fh):
        self._fh = fh
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError("no space left on device")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def fail_writes(monkeypatch):
    """fail_writes(module): files that module opens fail after one write."""
    def install(module):
        monkeypatch.setattr(module, "open",
                            lambda *a, **k: _FailingFile(builtins.open(*a, **k)),
                            raising=False)
    return install
