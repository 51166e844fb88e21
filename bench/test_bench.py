"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest -q bench``.  They
cover the self-time arithmetic, each output check's rejection of a
corrupted output, and a tiny-size smoke run of every workload that must
print every metric BENCHMARK.json names, with its unit.
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys

import run  # first: it sets the BLAS thread count before numpy loads

run.import_program()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

TINY_ARGS = {
    "remd-m1-d50": ("--nt", "2", "--tmin", "1e-2", "--tmax", "1e2", "--sweeps", "3",
                    "--ntraj", "1", "--L", "3", "--burn-in-traj", "2",
                    "--eval-subset", "100", "--checkpoint-every", "1"),
    "ti-m1-d500": ("--repeats", "1", "--n-bridge", "1", "--burn-in-traj", "2",
                   "--sample-traj", "4", "--L", "3", "--fit-burn-in-traj", "4",
                   "--fit-sample-traj", "8"),
    "minimize-m3-d500": ("--mode", "best-of", "--restarts", "1", "--n-steps", "200"),
}
TINY = {name: dataclasses.replace(w, args=TINY_ARGS[name])
        for name, w in run.WORKLOADS.items()}


def test_self_time_on_hand_built_tree():
    spans = [Span(1, None, "root", "root", 0.0, 10.0),
             Span(2, 1, "a", "x", 1.0, 4.0),
             Span(3, 2, "c", "x", 2.0, 3.0),
             Span(4, 1, "b", "y", 5.0, 9.0),
             Span(5, 4, "d", "y", 6.0, 7.0),
             Span(6, 4, "e", "y", 6.5, 8.0)]   # overlaps its sibling d
    assert self_times(spans) == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 2.0,
                                               5: 1.0, 6: 1.5})


def test_traced_self_times_add_up_to_root():
    tracer = Tracer("t")

    leaf = tracer.wrap(lambda: sum(range(1000)), "leaf", "a")
    middle = tracer.wrap(lambda: (leaf(), leaf()), "middle", "b")
    with tracer.span("command", "root") as root:
        middle()
        leaf()
    assert [s.parent for s in tracer.spans] == [None, 1, 2, 2, 1]
    assert sum(self_times(tracer.spans).values()) == pytest.approx(root.duration)


def test_patching_restores_bindings():
    import temperhmc.hmc
    import temperhmc.network
    import temperhmc.replica
    original = temperhmc.network.energy
    with Tracer("t").patched():
        assert temperhmc.network.energy is not original
        assert temperhmc.hmc.tune_step_size is temperhmc.replica.tune_step_size
    assert temperhmc.network.energy is original


def test_patching_finds_every_import_site(monkeypatch):
    # a module that imports a traced name later is patched without listing it
    import temperhmc.hmc
    import temperhmc.network
    original = temperhmc.network.energy_gradient
    monkeypatch.setattr(temperhmc.hmc, "energy_gradient_alias", original, raising=False)
    with Tracer("t").patched():
        assert temperhmc.hmc.energy_gradient_alias is temperhmc.network.energy_gradient
        assert temperhmc.hmc.energy_gradient_alias.__wrapped__ is original
    assert temperhmc.hmc.energy_gradient_alias is original


def test_round_trips():
    # identity 0: bottom -> top -> bottom is one trip; identity 1 only goes up
    rows = [[0, 1, 2], [1, 2, 0], [2, 1, 0], [2, 0, 1], [0, 2, 1]]
    assert layers.round_trips(rows) == 1
    assert layers.round_trips([]) == 0


def test_network_cost_by_hand():
    # 2 inputs -> 3 logistic hidden units -> 1 linear score
    flops, byts = layers.network_cost((2, 3, 1), 1, "linear-softmax", gradient=False)
    assert flops == (2 * 2 * 3 + 3 + 4 * 3) + (2 * 3 * 1 + 1) + 5
    assert byts == 8 * ((2 + 6 + 3 + 3) + (3 + 3 + 1 + 1) + 1)
    g_flops, _ = layers.network_cost((2, 3, 1), 1, "linear-softmax", gradient=True)
    assert g_flops == flops + (2 * 2 * 3 + 3) + (2 * 3 * 1 + 1) + (2 * 3 * 1 + 3 * 3)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny run of each workload's command; maps workload -> (run, input, out)."""
    done = {}
    for name, w in TINY.items():
        work = tmp_path_factory.mktemp(name)
        r = run.Run(w, 1, work)
        inp, _ = r.setup(r.seeds[0])
        out = work / "out"
        ok, _ = r.cli(r.argv(inp, out), "command")
        assert ok, (work / "command.log").read_text()
        done[name] = (r, inp, out)
    return done


def _copy(outputs, name, tmp_path):
    r, inp, out = outputs[name]
    dest = tmp_path / "out"
    shutil.copytree(out, dest)
    return r, inp, dest


def test_valid_outputs_pass(outputs):
    for name, (r, inp, out) in outputs.items():
        assert r.check(inp, out), r.problems


def test_remd_check_rejects_checkpoint_disagreeing_with_trace(outputs, tmp_path):
    _, _, out = _copy(outputs, "remd-m1-d50", tmp_path)
    path = out / "remd_checkpoint.npz"
    with np.load(path, allow_pickle=True) as data:
        fields = dict(data)
    fields["energy"] = fields["energy"] * (1 + 1e-6)
    np.savez(path, **fields)
    problems = checks.check_remd(out, 3, 2)
    assert problems and "checkpoint energy" in problems[0]


def test_remd_check_rejects_missing_row_and_bad_values(outputs, tmp_path):
    _, _, out = _copy(outputs, "remd-m1-d50", tmp_path)
    trace = out / "remd_trace.csv"
    lines = trace.read_text().splitlines()
    trace.write_text("\n".join(lines[:-1]) + "\n")
    assert "not one per (sweep, rung)" in checks.check_remd(out, 3, 2)[0]

    header, first, second, *rest = lines
    sweep, slot, temp, _, e_test, _, ident = first.split(",")
    first = ",".join([sweep, slot, temp, "nan", e_test, "1.5", ident])
    second = second.rsplit(",", 1)[0] + "," + ident   # one identity twice in sweep 0
    trace.write_text("\n".join([header, first, second, *rest]) + "\n")
    problems = " ".join(checks.check_remd(out, 3, 2))
    assert "e_train=nan" in problems
    assert "acceptance 1.5" in problems
    assert "not a permutation" in problems


@pytest.mark.parametrize("corrupt, message", [
    (lambda run: run.update(free_energy=math.nan), "not finite"),
    (lambda run: run.update(log_evidence=run["log_evidence"] + 1e-3), "-F - log V"),
    (lambda run: run["per_lambda"].update(lambdas=[0.0, 0.4, 1.0]), "not uniform"),
    (lambda run: run["per_lambda"]["se"].__setitem__(1, math.inf), "not all finite"),
])
def test_ti_check_rejects(outputs, tmp_path, corrupt, message):
    _, _, out = _copy(outputs, "ti-m1-d500", tmp_path)
    path = out / "ti_run.json"
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    problems = checks.check_ti(out, 1)
    assert problems and message in " ".join(problems)


def test_minimize_check_rejects_truncated_params(outputs, tmp_path):
    r, inp, out = _copy(outputs, "minimize-m3-d500", tmp_path)
    path = out / "baseline_best.params"
    path.write_bytes(path.read_bytes()[:-8])
    assert not r.check(inp, out)
    assert "does not reload" in r.problems[-1]


def test_minimize_check_rejects_wrong_recorded_energy(outputs, tmp_path):
    r, inp, out = _copy(outputs, "minimize-m3-d500", tmp_path)
    path = out / "baseline.csv"
    header, row = path.read_text().splitlines()[:2]
    i, e_train, e_test = row.split(",")
    path.write_text(f"{header}\n{i},{float(e_train) * 0.5!r},{e_test}\n")
    assert not r.check(inp, out)
    assert "baseline.csv records" in r.problems[-1]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_prints_every_metric_with_its_unit(monkeypatch, name, trace, key):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run.main(["--workload", name, "--seed", "1", "--seconds", "0.01",
                         "--trace", str(trace)]) == 0
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, stdout.getvalue()
    expected = {m["name"]: m["unit"] for m in spec[key]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "remd-m1-d50",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
