"""The names and flags the benchmark under bench/ uses still exist.

bench/spans.py traces package attributes by dotted name, bench/checks.py
imports from the package, and bench/run.py drives the CLI with fixed
flags.  A deleted or renamed one fails here rather than in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from temperhmc import synth
from temperhmc.cli import build_parser

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_run():
    # run.py pins the BLAS thread count at import; keep that out of the suite
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("OPENBLAS_NUM_THREADS", raising=False)
        yield load("run")


def test_every_traced_target_resolves():
    for module_name, path, _, _ in load("spans").TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path}"


def test_checks_imports_succeed():
    assert callable(load("checks").check_ti)


def test_every_workload_flag_is_a_flag_of_its_command(bench_run, monkeypatch, tmp_path):
    """Set-up and command argv of each workload parse, with no flag left over."""
    monkeypatch.setattr(synth, "write_corpus", lambda *a, **k: None)
    parser = build_parser()
    for workload in bench_run.WORKLOADS.values():
        calls = []

        def cli(argv, *_, **__):
            calls.append([str(a) for a in argv])
            return True, 0.0

        run = bench_run.Run(workload, 0, tmp_path)
        run.cli = cli
        inp, _ = run.setup(0)
        cli(run.argv(inp, tmp_path / "out"))
        assert {"prepare-data", workload.command} <= {argv[0] for argv in calls}
        for argv in calls:
            _, unknown = parser.parse_known_args(argv)
            assert unknown == [], f"{workload.name}: {argv[0]} has no flag {unknown}"
