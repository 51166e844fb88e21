import builtins
import hashlib
import inspect
import json
import os
import struct

import numpy as np
import pytest

import temperhmc.cli
import temperhmc.harness
import temperhmc.replica
from temperhmc import data, synth
from temperhmc.cli import SETTINGS, build_parser, main, write_manifest
from temperhmc.harness import BaselineResult, baseline_optimize, write_sweep_csv
from temperhmc.minimize import RMinConfig
from temperhmc.network import get_arch, prior_box, save_params
from temperhmc.replica import START_TOL_PER_T, RemdConfig, RunTrace, make_ladder
from temperhmc.ti import TiConfig


def setting_names(command):
    return {s.name for s in SETTINGS[command]}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, corpus_dir):
    d = tmp_path_factory.mktemp("cli_data")
    rc = main(["prepare-data", "--mnist-dir", str(corpus_dir),
               "--data-dir", str(d), "--size", "50", "--seed", "0"])
    assert rc == 0
    return d


def prepare(mnist_dir, data_dir, size=100, seed=0):
    return main(["prepare-data", "--mnist-dir", str(mnist_dir),
                 "--data-dir", str(data_dir), "--size", str(size),
                 "--seed", str(seed)])


@pytest.fixture(scope="module")
def corpus_b(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus_b")
    synth.write_corpus(d, n_train=600, n_test=100, seed=5)
    return d


def snapshots(data_dir, size=100, seed=0):
    return [(data_dir / f"d{size}_seed{seed}_{split}.bin").read_bytes()
            for split in ("train", "test")]


def reference_snapshots(mnist_dir, size, seed):
    """The two snapshots as built before prepare-data streamed its rows.

    The spread is var(axis=0) of the whole feature array, the test split is
    built by concatenate, and each split is written from its own arrays.
    """
    train_raw, test_raw = (data.load_idx_split(mnist_dir, s) for s in ("train", "test"))
    n_train = len(train_raw.labels)
    feats = np.empty((n_train + len(test_raw.labels), 16, 16))
    data._resize_into(feats[:n_train], train_raw.images)
    data._resize_into(feats[n_train:], test_raw.images)
    feats = feats.reshape(len(feats), -1)
    feats = (feats - feats.mean(axis=0)) / np.sqrt(
        np.maximum(feats.var(axis=0), data.VARIANCE_FLOOR))
    train_x, test_x = feats[:n_train], feats[n_train:]
    train_y, test_y = train_raw.labels, test_raw.labels
    chosen = data.stratified_indices(train_y, size, seed)
    mask = np.zeros(n_train, dtype=bool)
    mask[chosen] = True
    splits = [(train_x[chosen], train_y[chosen]),
              (np.concatenate([test_x, train_x[~mask]]),
               np.concatenate([test_y, train_y[~mask]]))]
    blobs = []
    for x, y in splits:
        payload = x.astype("<f8").tobytes() + y.astype("<i8").tobytes()
        blobs.append(data.SNAPSHOT_MAGIC + struct.pack("<qq", *x.shape) + payload
                     + hashlib.sha256(payload).digest())
    return blobs


class TestPrepareData:
    def test_outputs_and_manifest(self, corpus_dir, tmp_path):
        # the two D_n snapshots and the manifest: no corpus cache, no sidecars
        assert prepare(corpus_dir, tmp_path, size=50) == 0
        snaps = {"d50_seed0_train.bin", "d50_seed0_test.bin"}
        written = {p.name for p in tmp_path.iterdir()}
        assert written == snaps | {"prepare-data_manifest.json"}
        manifest = json.loads((tmp_path / "prepare-data_manifest.json").read_text())
        assert manifest["command"] == "prepare-data"
        assert manifest["config"]["size"] == 50
        assert set(manifest["config"]) == setting_names("prepare-data")
        assert set(manifest["outputs"]) == snaps

    @pytest.mark.parametrize("size,seed", [(50, 0), (500, 3)])
    def test_snapshots_match_the_reference(self, corpus_dir, tmp_path, size, seed):
        assert prepare(corpus_dir, tmp_path, size=size, seed=seed) == 0
        assert snapshots(tmp_path, size, seed) == reference_snapshots(
            corpus_dir, size, seed)

    def test_idempotent(self, data_dir, corpus_dir):
        before = snapshots(data_dir, 50)
        assert prepare(corpus_dir, data_dir, size=50) == 0
        assert snapshots(data_dir, 50) == before

    def test_each_call_reads_its_corpus(self, corpus_dir, corpus_b, tmp_path):
        # a second corpus prepared into a used data dir gives the D_n that
        # a fresh dir gets, not one drawn from the first corpus
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert prepare(corpus_dir, shared) == 0
        from_a = snapshots(shared)
        assert prepare(corpus_b, shared) == 0
        assert prepare(corpus_b, fresh) == 0
        assert snapshots(shared) == snapshots(fresh) != from_a
        manifest = json.loads((shared / "prepare-data_manifest.json").read_text())
        assert manifest["config"]["mnist_dir"] == str(corpus_b)

    def test_missing_args_exit_2(self, tmp_path):
        assert main(["prepare-data", "--data-dir", str(tmp_path)]) == 2


class TestMinimize:
    def test_best_of_run(self, data_dir, tmp_path):
        out = tmp_path / "min"
        rc = main(["minimize", "--model", "M1", "--data", "D50",
                   "--data-dir", str(data_dir), "--out-dir", str(out),
                   "--mode", "best-of", "--restarts", "3",
                   "--n-steps", "150", "--seed", "1"])
        assert rc == 0
        lines = (out / "baseline.csv").read_text().strip().split("\n")
        assert lines[0] == "solution,e_train,e_test"
        assert len(lines) == 1 + 3
        summary = json.loads((out / "baseline_summary.json").read_text())
        assert summary["n_restarts"] == 3
        assert (out / "baseline_best.params").exists()
        manifest = json.loads((out / "minimize_manifest.json").read_text())
        assert "baseline.csv" in manifest["outputs"]
        assert set(manifest["config"]) == setting_names("minimize")
        assert manifest["config"]["restarts"] == 3
        assert manifest["config"]["dt0"] == RMinConfig.dt0      # a default

    def test_summary_counts_minima_outside_the_box(self, data_dir, tmp_path,
                                                   monkeypatch, capsys):
        arch = get_arch("M1")
        half = prior_box(arch).half_width
        # the best minimum has one coordinate on a wall and one past the other
        at_wall = np.zeros(arch.n_params)
        at_wall[7], at_wall[11] = half[7], -1.5 * half[11]
        inside = np.full(arch.n_params, 0.5) * half

        def stub(arch, train, test, seed, **kwargs):
            return BaselineResult(np.array([1.0, 0.5]), np.array([3.0, 4.0]),
                                  [inside, at_wall], 2, "best-of")

        monkeypatch.setattr(temperhmc.cli, "baseline_optimize", stub)
        capsys.readouterr()
        assert main(["minimize", "--model", "M1", "--data", "D50", "--mode", "best-of",
                     "--data-dir", str(data_dir), "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "baseline_summary.json").read_text())
        assert summary["solutions_outside_box"] == 1
        assert summary["best_outside_box"] == [7, 11]
        assert json.loads(capsys.readouterr().out) == summary

    def test_unknown_model_exit_2(self, data_dir, tmp_path):
        rc = main(["minimize", "--model", "M9", "--data", "D50",
                   "--data-dir", str(data_dir), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_missing_dataset_exit_2(self, data_dir, tmp_path):
        rc = main(["minimize", "--model", "M1", "--data", "D500",
                   "--data-dir", str(data_dir), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_budget_exhausted_exit_4(self, data_dir, tmp_path):
        # 2-step minimisations can never reach zero training energy
        rc = main(["minimize", "--model", "M1", "--data", "D50",
                   "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
                   "--mode", "zero-energy", "--restarts", "1",
                   "--n-steps", "2", "--seed", "1"])
        assert rc == 4


@pytest.fixture(scope="module")
def remd_out(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("remd_out")
    rc = main(["remd", "--model", "M1", "--data", "D50",
               "--data-dir", str(data_dir), "--out-dir", str(out),
               "--tmin", "0.1", "--tmax", "10", "--nt", "3",
               "--ntraj", "1", "--L", "10", "--sweeps", "10",
               "--burn-in-traj", "5", "--eval-subset", "100", "--seed", "3"])
    assert rc == 0
    return out


class TestRemdAndReport:
    def test_trace_and_summary(self, remd_out):
        lines = (remd_out / "remd_trace.csv").read_text().strip().split("\n")
        assert lines[0].startswith("sweep,slot,")
        assert len(lines) == 1 + 10 * 3
        summary = (remd_out / "remd_summary.csv").read_text()
        assert "argmin_test_temperature" in summary
        assert (remd_out / "remd_checkpoint.npz").exists()
        meta = json.loads((remd_out / "remd_run.json").read_text())
        assert meta["n_sweeps"] == 10
        manifest = json.loads((remd_out / "remd_manifest.json").read_text())
        assert set(manifest["config"]) == setting_names("remd")
        assert setting_names("remd") <= set(meta)
        assert meta["ntraj"] == manifest["config"]["ntraj"] == 1
        assert meta["checkpoint_every"] == RemdConfig.checkpoint_every
        with np.load(remd_out / "remd_checkpoint.npz", allow_pickle=False) as ckpt:
            assert meta["dt"] == ckpt["dt"].tolist()
        assert len(meta["dt"]) == 3
        assert len(meta["swap_attempts"]) == len(meta["swap_accepts"]) == 2
        assert sum(meta["swap_attempts"]) == 3 * 10      # N_T attempts a sweep
        assert all(0 <= acc <= att for acc, att in
                   zip(meta["swap_accepts"], meta["swap_attempts"]))

    def test_run_file_records_each_rung_s_start(self, remd_out):
        meta = json.loads((remd_out / "remd_run.json").read_text())
        energies, steps = meta["start_energy"], meta["start_steps"]
        assert len(energies) == len(steps) == meta["nt"] == 3
        assert all(isinstance(n, int) and n >= 1 for n in steps)
        # coldest rung first; each start-up rmin stopped below 1e-3 T
        ladder = make_ladder(meta["tmin"], meta["tmax"], meta["nt"])
        assert all(e < START_TOL_PER_T * T for e, T in zip(energies, ladder))

    def test_run_file_counts_each_rung_s_production_work(self, remd_out):
        meta = json.loads((remd_out / "remd_run.json").read_text())
        calls, stops = meta["grad_calls"], meta["wall_stops"]
        assert len(calls) == len(stops) == len(meta["accept_rate"]) == 3
        n_traj, n_steps = meta["ntraj"] * meta["n_sweeps"], meta["L"]
        for c, s in zip(calls, stops):
            assert isinstance(c, int) and isinstance(s, int)
            # a wall stop makes at most L - 1 calls, any other trajectory L
            assert (n_traj - s) * n_steps <= c <= n_traj * n_steps - s

    def test_run_file_counts_each_rung_s_kicks(self, remd_out):
        # a trajectory kicks at its L - 1 inner steps and makes one value_grad
        # call at its last; a wall stop makes kicks alone
        meta = json.loads((remd_out / "remd_run.json").read_text())
        n_traj = meta["ntraj"] * meta["n_sweeps"]
        for c, k, s in zip(meta["grad_calls"], meta["kick_calls"], meta["wall_stops"]):
            assert isinstance(k, int)
            assert c - k == n_traj - s

    def test_report_rebuilds_table(self, remd_out, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(["report", "--trace", str(remd_out / "remd_trace.csv"),
                   "--out", str(out), "--n-train", "50", "--burn-in", "2",
                   "--baseline", "42.5"])
        assert rc == 0
        text = out.read_text()
        assert "baseline_test_mean,42.5" in text
        data_rows = [ln for ln in text.strip().split("\n")
                     if not ln.startswith(("temperature", "#"))]
        assert len(data_rows) == 3


class TestTiAndCompare:
    def test_ti_run_and_compare(self, data_dir, tmp_path):
        # a reference minimum for the smallest model
        min_out = tmp_path / "m"
        rc = main(["minimize", "--model", "M1", "--data", "D50",
                   "--data-dir", str(data_dir), "--out-dir", str(min_out),
                   "--mode", "best-of", "--restarts", "2",
                   "--n-steps", "400", "--seed", "5"])
        assert rc == 0
        ti_out = tmp_path / "ti"
        rc = main(["ti", "--model", "M1", "--data", "D50",
                   "--data-dir", str(data_dir), "--out-dir", str(ti_out),
                   "--w0", str(min_out / "baseline_best.params"),
                   "--repeats", "2", "--n-bridge", "2", "--L", "10",
                   "--burn-in-traj", "3", "--sample-traj", "6",
                   "--fit-burn-in-traj", "10", "--fit-sample-traj", "20",
                   "--seed", "6"])
        assert rc == 0
        run = json.loads((ti_out / "ti_run.json").read_text())
        assert run["model"] == "M1" and run["dataset"] == "D50"
        manifest = json.loads((ti_out / "ti_manifest.json").read_text())
        assert set(manifest["config"]) == setting_names("ti")
        assert manifest["config"]["data_seed"] == 0            # a default
        assert np.isfinite(run["free_energy"])
        assert run["log_evidence"] == pytest.approx(
            -run["free_energy"] - run["log_prior_volume"], abs=1.0)
        # f0 and integral are repeat means, like free_energy
        assert run["free_energy"] == pytest.approx(run["f0"] + run["integral"],
                                                   rel=1e-12, abs=1e-9)
        per = run["per_lambda"]
        assert len(per["lambdas"]) == 4
        assert len(per["dt"]) == len(per["accept_rate"]) == len(per["grad_calls"]) == 4
        assert all(dt > 0 for dt in per["dt"])
        # 6 sampling trajectories of L = 10 a window
        assert all(a in [n / 6 for n in range(7)] for a in per["accept_rate"])
        assert all(isinstance(c, int) and 0 <= c <= 60 for c in per["grad_calls"])
        assert run["frozen_lambdas"] == [lam for lam, a in
                                         zip(per["lambdas"], per["accept_rate"]) if a == 0]
        assert len(run["stiffness_fit"]) == 2          # one per repeat
        for fit in run["stiffness_fit"]:
            assert set(fit) == {"frac_outside_box", "degenerate"}
            assert 0.0 <= fit["frac_outside_box"] <= 1.0
            assert isinstance(fit["degenerate"], int) and fit["degenerate"] >= 0

        # comparing the run against itself: zero log odds
        rc = main(["compare-models", "--a", str(ti_out / "ti_run.json"),
                   "--b", str(ti_out / "ti_run.json")])
        assert rc == 0

        # the same tag drawn with another data seed is another training set
        assert run["data_seed"] == 0
        other = tmp_path / "other_seed.json"
        other.write_text(json.dumps(dict(run, data_seed=1)))
        rc = main(["compare-models", "--a", str(ti_out / "ti_run.json"),
                   "--b", str(other)])
        assert rc == 2

    @pytest.mark.parametrize("frozen", [[], [1, 3]])
    def test_frozen_windows_warn_and_exit_0(self, data_dir, w0_path, tmp_path,
                                            capsys, monkeypatch, frozen):
        run_ti = temperhmc.cli.run_ti

        def freezing(*args):
            result = run_ti(*args)
            result.accept_rate[:] = 0.5
            result.accept_rate[frozen] = 0.0
            return result

        monkeypatch.setattr(temperhmc.cli, "run_ti", freezing)
        capsys.readouterr()
        rc = main(["ti", "--model", "M1", "--data", "D50",
                   "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
                   "--w0", str(w0_path), "--repeats", "1", "--n-bridge", "2",
                   "--L", "3", "--burn-in-traj", "2", "--sample-traj", "4",
                   "--fit-burn-in-traj", "4", "--fit-sample-traj", "8"])
        assert rc == 0
        run = json.loads((tmp_path / "ti_run.json").read_text())
        lambdas = run["per_lambda"]["lambdas"]
        assert run["frozen_lambdas"] == [lambdas[i] for i in frozen]
        err = capsys.readouterr().err
        if frozen:
            assert err == ("warning: no trajectory was accepted in the windows at "
                           "lambda = 0.3333, 1\n")
        else:
            assert err == ""

    def test_window_kick_calls(self, data_dir, w0_path, tmp_path):
        rc = main(["ti", "--model", "M1", "--data", "D50",
                   "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
                   "--w0", str(w0_path), "--repeats", "1", "--n-bridge", "2",
                   "--L", "3", "--burn-in-traj", "2", "--sample-traj", "4",
                   "--fit-burn-in-traj", "4", "--fit-sample-traj", "8"])
        assert rc == 0
        per = json.loads((tmp_path / "ti_run.json").read_text())["per_lambda"]
        # each of the 4 sampling trajectories makes at most one value_grad
        # call; the bridge at lambda = 1 calls no network, so has no kick
        for lam, c, k in zip(per["lambdas"], per["grad_calls"], per["kick_calls"]):
            assert isinstance(k, int)
            assert 0 < k and c - k <= 4 if lam < 1 else k == 0

    def test_single_repeat_reports_no_spread(self, data_dir, w0_path, tmp_path,
                                             capsys):
        rc = main(["ti", "--model", "M1", "--data", "D50",
                   "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
                   "--w0", str(w0_path), "--repeats", "1", "--n-bridge", "1",
                   "--L", "3", "--burn-in-traj", "2", "--sample-traj", "4",
                   "--fit-burn-in-traj", "4", "--fit-sample-traj", "8"])
        assert rc == 0
        path = tmp_path / "ti_run.json"
        assert json.loads(path.read_text())["free_energy_std"] is None
        capsys.readouterr()
        assert main(["compare-models", "--a", str(path), "--b", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["log_odds_std"] is None

    def test_compare_published_numbers_exact(self, tmp_path, capsys):
        a = {"model": "deep", "dataset": "D5000",
             "log_integral": 26475.0, "log_prior_volume": 28960.0}
        b = {"model": "shallow", "dataset": "D5000",
             "log_integral": 19793.0, "log_prior_volume": 19946.0}
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        rc = main(["compare-models", "--a", str(pa), "--b", str(pb)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["log_odds_a_over_b"] == -2332.0
        assert report["favoured"] == "shallow"

    def test_compare_spreads_add_in_quadrature(self, tmp_path, capsys):
        a = {"dataset": "D500", "log_evidence": -1.0, "free_energy_std": 3.0}
        b = {"dataset": "D500", "log_evidence": -2.0, "free_energy_std": 4.0}
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        assert main(["compare-models", "--a", str(pa), "--b", str(pb)]) == 0
        assert json.loads(capsys.readouterr().out)["log_odds_std"] == 5.0

    def test_compare_dataset_mismatch_exit_2(self, tmp_path):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps({"dataset": "D500", "log_evidence": -1.0}))
        pb.write_text(json.dumps({"dataset": "D50", "log_evidence": -2.0}))
        assert main(["compare-models", "--a", str(pa), "--b", str(pb)]) == 2


SUMMARY_HEADER = "temperature,e_train_mean,e_train_se,e_test_mean,e_test_se\n"


class TestAnnealStopCommand:
    def test_stop_rule(self, tmp_path, capsys):
        table = tmp_path / "remd_summary.csv"
        table.write_text(SUMMARY_HEADER + "10,1,0,3,0\n1,2,0,1,0\n0.1,3,0,2,0\n"
                         "# uninformed_train_energy,115\n")
        rc = main(["anneal-stop", "--table", str(table)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stop_temperature"] == 1.0
        assert out["val_energy"] == 1.0
        assert not out["monotone"]

    def test_reads_the_table_remd_writes(self, remd_out, capsys):
        table = remd_out / "remd_summary.csv"
        recorded = [float(ln.split(",")[1]) for ln in table.read_text().split("\n")
                    if ln.startswith("# argmin_test_temperature,")]
        assert main(["anneal-stop", "--table", str(table)]) == 0
        stop = json.loads(capsys.readouterr().out)["stop_temperature"]
        assert f"{stop:.10g}" == f"{recorded[0]:.10g}"

    @pytest.mark.parametrize("window", ["0", "4"])
    def test_smoothing_outside_the_table_exit_2(self, tmp_path, capsys, window):
        table = tmp_path / "remd_summary.csv"
        table.write_text(SUMMARY_HEADER + "10,1,0,3,0\n1,2,0,1,0\n0.1,3,0,2,0\n")
        rc = main(["anneal-stop", "--table", str(table), "--smoothing", window])
        assert rc == 2
        assert "smoothing window" in capsys.readouterr().err

    def test_empty_table_exit_3(self, tmp_path):
        table = tmp_path / "remd_summary.csv"
        table.write_text(SUMMARY_HEADER)
        assert main(["anneal-stop", "--table", str(table)]) == 3


class TestConfigFile:
    def test_flags_override_file(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "M1", "data": "D50", "data_dir": str(data_dir),
            "mode": "best-of", "restarts": 5, "n_steps": 50, "seed": 1,
        }))
        out = tmp_path / "o"
        rc = main(["minimize", "--config", str(cfg), "--out-dir", str(out),
                   "--restarts", "2"])
        assert rc == 0
        summary = json.loads((out / "baseline_summary.json").read_text())
        assert summary["n_restarts"] == 2     # flag beat the file value
        manifest = json.loads((out / "minimize_manifest.json").read_text())
        assert manifest["config"]["restarts"] == 2


def _write_trace(out_dir, n):
    trace = RunTrace(np.array([1.0, 2.0]))
    for s in range(n):
        trace.append_sweep([s, s + 1.0], [0.5, 0.5], [1.0, 0.0], [0, 1], [1], [0])
    path = out_dir / "trace.csv"
    trace.write_csv(path)
    return path


def _write_sweep(out_dir, n):
    path = out_dir / "summary.csv"
    write_sweep_csv(path, {"temperatures": [1.0], "e_train_mean": [float(n)],
                           "e_train_se": [0.1], "e_test_mean": [2.0],
                           "e_test_se": [0.2]}, n_train=50)
    return path


def _write_manifest(out_dir, n):
    return write_manifest(str(out_dir), "run", {"n": n}, [])


class TestAtomicWrites:
    @pytest.mark.parametrize("module,write", [
        (temperhmc.replica, _write_trace),
        (temperhmc.harness, _write_sweep),
        (temperhmc.cli, _write_manifest),
    ], ids=["RunTrace.write_csv", "write_sweep_csv", "write_manifest"])
    def test_failed_write_keeps_earlier_file(self, tmp_path, fail_writes,
                                             module, write):
        path = write(tmp_path, 1)
        before = open(path, "rb").read()
        fail_writes(module)
        with pytest.raises(OSError):
            write(tmp_path, 2)
        assert open(path, "rb").read() == before
        assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(path)]


class TestExitCodes:
    """Exit code 2 only for errors in flags, config files and input files."""

    RUN = ["--ntraj", "1", "--L", "3", "--sweeps", "2", "--burn-in-traj", "1"]

    def remd(self, data_dir, out_dir, *flags):
        return main(["remd", "--data", "D50", "--data-dir", str(data_dir),
                     "--out-dir", str(out_dir), *self.RUN, *flags])

    def test_numerical_value_error_propagates(self, data_dir, tmp_path,
                                              monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("math domain error")

        monkeypatch.setattr(temperhmc.cli, "run_remd", broken)
        with pytest.raises(ValueError, match="math domain error"):
            self.remd(data_dir, tmp_path, "--model", "M1", "--nt", "2")

    def test_missing_model_exit_2(self, data_dir, tmp_path):
        assert self.remd(data_dir, tmp_path, "--nt", "2") == 2

    def test_bad_config_value_exit_2(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nt": "many"}))
        assert self.remd(data_dir, tmp_path, "--model", "M1",
                         "--config", str(cfg)) == 2
        assert "many" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [2.7, True])
    def test_config_value_its_type_does_not_hold_exit_2(self, data_dir, tmp_path,
                                                        capsys, value):
        # a float or a boolean for an int setting is not truncated to 2 or 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": value}))
        assert self.remd(data_dir, tmp_path, "--model", "M1", "--nt", "2",
                         "--config", str(cfg)) == 2
        assert f"seed = {json.dumps(value)}" in capsys.readouterr().err
        assert not (tmp_path / "remd_manifest.json").exists()

    def test_config_not_an_object_exit_2(self, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert self.remd(data_dir, tmp_path, "--model", "M1", "--nt", "2",
                         "--config", str(cfg)) == 2

    def test_w0_of_another_architecture_exit_2(self, data_dir, tmp_path, capsys):
        # M3star has M3's layer sizes, so its parameter count, but another head
        arch = get_arch("M3star")
        assert arch.n_params == get_arch("M3").n_params
        w0 = tmp_path / "m3star.params"
        save_params(w0, arch, np.zeros(arch.n_params))
        rc = main(["ti", "--model", "M3", "--data", "D50",
                   "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "out"),
                   "--w0", str(w0), "--repeats", "1", "--n-bridge", "1",
                   "--L", "1", "--burn-in-traj", "1", "--sample-traj", "2",
                   "--fit-burn-in-traj", "1", "--fit-sample-traj", "2"])
        assert rc == 2
        assert "does not match the requested model" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["wall", "nan"])
    def test_w0_outside_the_box_exit_2(self, data_dir, tmp_path, capsys, where):
        arch = get_arch("M1")
        w0 = np.zeros(arch.n_params)
        # on the wall is outside the open box; a NaN coordinate is in no box
        w0[7] = prior_box(arch).half_width[7] if where == "wall" else np.nan
        save_params(tmp_path / "w0.params", arch, w0)
        out = tmp_path / "out"
        rc = main(["ti", "--model", "M1", "--data", "D50",
                   "--data-dir", str(data_dir), "--out-dir", str(out),
                   "--w0", str(tmp_path / "w0.params"), "--repeats", "1",
                   "--n-bridge", "1", "--L", "1", "--burn-in-traj", "1",
                   "--sample-traj", "2", "--fit-burn-in-traj", "1",
                   "--fit-sample-traj", "2"])
        assert rc == 2
        assert (f"w0 lies outside the prior box in 1 of {arch.n_params} coordinates"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["remd", "--burn-in", "5", "--nt", "2", *RUN],
        ["minimize", "--n-step", "10", "--restarts", "1"],
    ], ids=["remd --burn-in", "minimize --n-step"])
    def test_flag_prefix_exit_2(self, data_dir, tmp_path, capsys, argv):
        # a prefix of --burn-in-traj or --n-steps is not taken for the flag
        with pytest.raises(SystemExit) as stop:
            main([*argv, "--model", "M1", "--data", "D50",
                  "--data-dir", str(data_dir), "--out-dir", str(tmp_path)])
        assert stop.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["minimize", "remd", "ti"])
    def test_missing_data_dir_exit_2_and_is_not_created(self, tmp_path, w0_path,
                                                        command):
        typo = tmp_path / "typo"
        argv = [command, "--model", "M1", "--data", "D50",
                "--data-dir", str(typo), "--out-dir", str(tmp_path / "out")]
        if command == "ti":
            argv += ["--w0", str(w0_path)]
        assert main(argv) == 2
        assert not typo.exists()

    def test_unknown_config_key_exit_2(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_traj": 1}))      # the flag is --ntraj
        assert self.remd(data_dir, tmp_path, "--model", "M1", "--nt", "2",
                         "--config", str(cfg)) == 2
        assert "n_traj" in capsys.readouterr().err
        assert not (tmp_path / "remd_manifest.json").exists()


class TestOutOfRangeSettings:
    """A count or step size below its bound exits 2 before any data is read."""

    RUN = ["--model", "M1", "--data", "D50"]

    @pytest.mark.parametrize("argv", [
        ["remd", "--ntraj", "0"],
        ["remd", "--L", "0"],
        ["ti", "--L", "0"],
        ["remd", "--eval-subset", "-5"],
        ["ti", "--repeats", "0"],
        ["minimize", "--restarts", "0"],
        ["remd", "--sweeps", "1"],
        ["ti", "--sample-traj", "1"],
        ["ti", "--fit-sample-traj", "0"],
        ["minimize", "--n-steps", "0"],
        ["minimize", "--dt0", "0"],
        ["remd", "--burn-in-traj", "-1"],
        ["ti", "--burn-in-traj", "-2"],
        ["ti", "--fit-burn-in-traj", "-1"],
        ["ti", "--n-bridge", "0"],
        ["remd", "--checkpoint-every", "-1"],
        ["remd", "--seed", "-1"],
        ["prepare-data", "--size", "0"],
    ], ids=" ".join)
    def test_exit_2_and_no_output_directory(self, data_dir, corpus_dir, w0_path,
                                            tmp_path, capsys, argv):
        command, flag, value = argv
        out = tmp_path / "out"
        if command == "prepare-data":
            argv = [*argv, "--mnist-dir", str(corpus_dir), "--data-dir", str(out)]
        else:
            argv = [*argv, *self.RUN, "--data-dir", str(data_dir),
                    "--out-dir", str(out)]
        if command == "ti":
            argv += ["--w0", str(w0_path)]
        assert main(argv) == 2
        assert f"{flag} must be greater than" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ladder", [("5", "1", "4"), ("0.1", "10", "1")],
                             ids=["tmin above tmax", "one rung"])
    def test_bad_ladder_exit_2_before_the_data_is_read(self, data_dir, tmp_path,
                                                       monkeypatch, capsys, ladder):
        def load(*args):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(temperhmc.cli.DatasetStore, "load", load)
        tmin, tmax, nt = ladder
        out = tmp_path / "out"
        assert main(["remd", *self.RUN, "--data-dir", str(data_dir),
                     "--out-dir", str(out), "--tmin", tmin, "--tmax", tmax,
                     "--nt", nt]) == 2
        assert "bad ladder range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,config", [
        (["remd", "--tmax", "inf"], None),
        (["minimize", "--dt0", "inf"], None),
        (["remd"], '{"tmax": Infinity}'),
    ], ids=["remd --tmax inf", "minimize --dt0 inf", "config tmax Infinity"])
    def test_non_finite_float_exit_2_before_the_data_is_read(
            self, data_dir, tmp_path, monkeypatch, capsys, argv, config):
        def load(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(temperhmc.cli.DatasetStore, "load", load)
        out = tmp_path / "out"
        argv = [*argv, *self.RUN, "--data-dir", str(data_dir), "--out-dir", str(out)]
        if config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert "must be finite, not inf" in capsys.readouterr().err
        assert not out.exists()

    def test_bound_applies_to_a_config_file_value(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweeps": 1}))
        assert main(["remd", *self.RUN, "--data-dir", str(data_dir),
                     "--out-dir", str(tmp_path / "out"), "--config", str(cfg)]) == 2
        assert "--sweeps must be greater than 1, not 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lowest_values_in_range_run(self, data_dir, tmp_path):
        # remd's bounds are tight: the least value each allows runs
        assert main(["remd", *self.RUN, "--data-dir", str(data_dir),
                     "--out-dir", str(tmp_path), "--nt", "2", "--ntraj", "1",
                     "--L", "1", "--sweeps", "2", "--burn-in-traj", "0",
                     "--eval-subset", "0", "--checkpoint-every", "0",
                     "--seed", "0"]) == 0


class TestAnalysisSettings:
    """report, compare-models and anneal-stop resolve their settings as the
    run commands do: a bad value exits 2 before anything is written."""

    @pytest.mark.parametrize("argv,message", [
        (["report", "--burn-in", "-3"], "--burn-in must be greater than -1, not -3"),
        (["report", "--n-train", "0"], "--n-train must be greater than 0, not 0"),
        (["report", "--baseline", "nan"], "--baseline must be finite, not nan"),
        (["report", "--burn-in", "9"], "holds 10 sweeps; a burn-in of 9 leaves"),
        (["compare-models", "--log-prior-ratio", "inf"],
         "--log-prior-ratio must be finite, not inf"),
    ], ids=["report --burn-in -3", "report --n-train 0", "report --baseline nan",
            "report leaves one sweep", "compare-models --log-prior-ratio inf"])
    def test_exit_2_and_nothing_written(self, tmp_path, capsys, argv, message):
        out = tmp_path / "table.csv"
        if argv[0] == "report":
            argv = [*argv, "--trace", str(_write_trace(tmp_path, 10)), "--out", str(out)]
            if "--n-train" not in argv:
                argv += ["--n-train", "50"]
        else:
            run = tmp_path / "run.json"
            run.write_text(json.dumps({"dataset": "D50", "log_evidence": -1.0}))
            argv = [*argv, "--a", str(run), "--b", str(run)]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_report_reads_its_config_and_runs_on_two_sweeps(self, tmp_path):
        # the least trace a burn-in may leave; no baseline line when unset
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_train": 50, "burn_in": 8}))
        out = tmp_path / "table.csv"
        assert main(["report", "--config", str(cfg), "--out", str(out),
                     "--trace", str(_write_trace(tmp_path, 10))]) == 0
        text = out.read_text()
        assert "# uninformed_train_energy,115.129" in text
        assert "baseline_test_mean" not in text

    @pytest.mark.parametrize("command", ["compare-models", "report", "anneal-stop"])
    def test_missing_setting_exit_2(self, capsys, command):
        assert main([command]) == 2
        assert f"{command} requires --" in capsys.readouterr().err


class TestDataReads:
    """Each command reads only the snapshot rows it uses."""

    @pytest.fixture
    def opened(self, monkeypatch):
        paths = []

        def recording_open(path, *args, **kwargs):
            paths.append(os.path.basename(path))
            return builtins.open(path, *args, **kwargs)

        monkeypatch.setattr(data, "open", recording_open, raising=False)
        return paths

    def test_ti_opens_no_test_snapshot(self, data_dir, w0_path, tmp_path,
                                       monkeypatch, opened):
        def stop(*args, **kwargs):
            raise _Stop

        monkeypatch.setattr(temperhmc.cli, "fit_stiffness", stop)
        with pytest.raises(_Stop):
            main(["ti", "--model", "M1", "--data", "D50", "--data-dir", str(data_dir),
                  "--out-dir", str(tmp_path), "--w0", str(w0_path)])
        assert opened == ["d50_seed0_train.bin"]

    @pytest.mark.parametrize("n_eval", [100, 1000, 0, 10 ** 6])
    def test_remd_evaluates_its_stratified_rows(self, data_dir, tmp_path,
                                                monkeypatch, opened, n_eval):
        seen = []

        def energy_fns(arch, inputs, labels):
            seen.append((inputs, labels))
            return None, None

        def stop(*args, **kwargs):
            raise _Stop

        monkeypatch.setattr(temperhmc.cli, "dataset_energy_fns", energy_fns)
        monkeypatch.setattr(temperhmc.cli, "init_replica", stop)
        with pytest.raises(_Stop):
            main(["remd", "--model", "M1", "--data", "D50", "--data-dir",
                  str(data_dir), "--out-dir", str(tmp_path),
                  "--eval-subset", str(n_eval)])
        assert opened == ["d50_seed0_train.bin", "d50_seed0_test.bin"]
        _, full = data.DatasetStore(data_dir).load(50, 0)
        idx = (data.stratified_indices(full.labels, n_eval, 12345)
               if 0 < n_eval < len(full) else np.arange(len(full)))
        eval_inputs, eval_labels = seen[1]
        np.testing.assert_array_equal(eval_inputs, full.inputs[idx])
        np.testing.assert_array_equal(eval_labels, full.labels[idx])


class TestVersion:
    def test_manifest_names_the_package_version(self, tmp_path):
        path = write_manifest(str(tmp_path), "run", {}, [])
        with open(path) as fh:
            manifest = json.load(fh)
        assert manifest["package_version"] == temperhmc.__version__


class _Stop(Exception):
    """Raised by a stand-in to end a run once it has captured its input."""


@pytest.fixture(scope="module")
def w0_path(tmp_path_factory):
    arch = get_arch("M1")
    path = tmp_path_factory.mktemp("w0") / "w0.params"
    save_params(path, arch, np.zeros(arch.n_params))
    return path


class TestSettingsTable:
    """SETTINGS drives the flags, the --config merge, the defaults and help."""

    # the flags of each command, besides -h and --config
    FLAGS = {
        "prepare-data": {"--mnist-dir", "--data-dir", "--size", "--seed"},
        "minimize": {"--data-dir", "--data", "--data-seed", "--seed", "--out-dir",
                     "--model", "--restarts", "--mode", "--dt0", "--n-steps"},
        "remd": {"--data-dir", "--data", "--data-seed", "--seed", "--out-dir",
                 "--model", "--tmin", "--tmax", "--nt", "--ntraj", "--L",
                 "--sweeps", "--burn-in-traj", "--eval-subset",
                 "--checkpoint-every"},
        "ti": {"--data-dir", "--data", "--data-seed", "--seed", "--out-dir",
               "--model", "--w0", "--repeats", "--n-bridge", "--burn-in-traj",
               "--sample-traj", "--fit-burn-in-traj", "--fit-sample-traj", "--L"},
        "compare-models": {"--a", "--b", "--log-prior-ratio"},
        "report": {"--trace", "--out", "--n-train", "--burn-in", "--baseline"},
        "anneal-stop": {"--table", "--smoothing"},
    }

    def built(self, monkeypatch, command, data_dir, w0_path, tmp_path, *flags):
        """The RemdConfig, TiConfig or RMinConfig a command builds."""
        seen = []

        def capture(pick):
            def stop(*args, **kwargs):
                seen.append(pick(args, kwargs))
                raise _Stop
            return stop

        monkeypatch.setattr(temperhmc.cli, "init_replica",
                            capture(lambda a, kw: kw["cfg"]))
        monkeypatch.setattr(temperhmc.cli, "fit_stiffness",
                            capture(lambda a, kw: a[2]))
        monkeypatch.setattr(temperhmc.cli, "baseline_optimize",
                            capture(lambda a, kw: kw["rmin_cfg"]))
        argv = [command, "--model", "M1", "--data", "D50",
                "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "o")]
        if command == "ti":
            argv += ["--w0", str(w0_path)]
        with pytest.raises(_Stop):
            main(argv + list(flags))
        return seen[0]

    def test_flags_unchanged(self):
        # every subcommand the parser builds takes its flags from SETTINGS
        parser = build_parser()
        commands = parser._subparsers._group_actions[0].choices
        assert set(commands) == set(SETTINGS) == set(self.FLAGS)
        for command, sub in commands.items():
            found = {opt for action in sub._actions for opt in action.option_strings}
            flags = {"--" + name.replace("_", "-") for name in setting_names(command)}
            assert found == flags | {"-h", "--help", "--config"}, command
            assert flags == self.FLAGS[command], command

    def test_no_run_flags_build_the_dataclass_defaults(
            self, monkeypatch, data_dir, w0_path, tmp_path):
        for command, default in [("remd", RemdConfig()), ("ti", TiConfig()),
                                 ("minimize", RMinConfig())]:
            assert self.built(monkeypatch, command, data_dir, w0_path,
                              tmp_path) == default, command

    @pytest.mark.parametrize("mode,budget", [("zero-energy", "n_solutions"),
                                             ("best-of", "n_restarts")])
    def test_minimize_budget_defaults_to_baseline_optimize_s(
            self, monkeypatch, data_dir, tmp_path, mode, budget):
        seen = {}

        def stop(*args, **kwargs):
            seen.update(kwargs)
            raise _Stop

        monkeypatch.setattr(temperhmc.cli, "baseline_optimize", stop)
        with pytest.raises(_Stop):
            main(["minimize", "--model", "M1", "--data", "D50", "--mode", mode,
                  "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "o")])
        defaults = inspect.signature(baseline_optimize).parameters
        assert seen[budget] == defaults[budget].default
        assert "restart_cap" not in seen        # baseline_optimize's own default

    @pytest.mark.parametrize("command,key,text,field,value", [
        ("remd", "ntraj", "2", "n_traj", 2),
        ("remd", "L", "7", "n_leapfrog", 7),
        ("ti", "fit_sample_traj", "30", "fit_sample_traj", 30),
        ("minimize", "dt0", "0.05", "dt0", 0.05),
    ])
    def test_flag_and_config_string_agree(self, monkeypatch, data_dir, w0_path,
                                          tmp_path, command, key, text, field,
                                          value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: text}))
        flag = "--" + key.replace("_", "-")
        via_flag, via_file = (
            getattr(self.built(monkeypatch, command, data_dir, w0_path, tmp_path,
                               *argv), field)
            for argv in ([flag, text], ["--config", str(cfg)]))
        assert via_flag == via_file == value
        assert type(via_flag) is type(via_file) is type(value)

    def test_help_shows_each_default_or_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["remd", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"--ntraj NTRAJ (default: {RemdConfig.n_traj})" in text
        assert f"--L L (default: {RemdConfig.n_leapfrog})" in text
        assert "--model MODEL (required)" in text
        assert "--data DATA dataset tag, e.g. D500 (required)" in text
