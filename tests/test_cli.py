import inspect
import json
import os
from importlib.metadata import PackageNotFoundError

import numpy as np
import pytest

import temperhmc.cli
import temperhmc.harness
import temperhmc.replica
from temperhmc.cli import SETTINGS, build_parser, main, write_manifest
from temperhmc.harness import baseline_optimize, write_sweep_csv
from temperhmc.minimize import RMinConfig
from temperhmc.network import get_arch, save_params
from temperhmc.replica import RemdConfig, RunTrace
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


class TestPrepareData:
    def test_outputs_and_manifest(self, data_dir):
        assert (data_dir / "full_train.bin").exists()
        assert (data_dir / "d50_seed0_train.bin").exists()
        assert (data_dir / "d50_seed0_test.bin").exists()
        manifest = json.loads((data_dir / "prepare-data_manifest.json").read_text())
        assert manifest["command"] == "prepare-data"
        assert manifest["config"]["size"] == 50
        assert set(manifest["config"]) == setting_names("prepare-data")

    def test_idempotent(self, data_dir, corpus_dir):
        rc = main(["prepare-data", "--mnist-dir", str(corpus_dir),
                   "--data-dir", str(data_dir), "--size", "50", "--seed", "0"])
        assert rc == 0

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
        assert len(run["per_lambda"]["lambdas"]) == 4
        assert len(run["stiffness_fit"]) == 2          # one per repeat
        for fit in run["stiffness_fit"]:
            assert set(fit) == {"frac_outside_box", "degenerate"}
            assert 0.0 <= fit["frac_outside_box"] <= 1.0
            assert isinstance(fit["degenerate"], int) and fit["degenerate"] >= 0

        # comparing the run against itself: zero log odds
        rc = main(["compare-models", "--a", str(ti_out / "ti_run.json"),
                   "--b", str(ti_out / "ti_run.json")])
        assert rc == 0

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

    def test_compare_dataset_mismatch_exit_2(self, tmp_path):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps({"dataset": "D500", "log_evidence": -1.0}))
        pb.write_text(json.dumps({"dataset": "D50", "log_evidence": -2.0}))
        assert main(["compare-models", "--a", str(pa), "--b", str(pb)]) == 2


class TestAnnealStopCommand:
    def test_stop_rule(self, tmp_path, capsys):
        table = tmp_path / "cool.csv"
        table.write_text("temperature,val_energy\n10,3\n1,1\n0.1,2\n")
        rc = main(["anneal-stop", "--table", str(table)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stop_temperature"] == 1.0
        assert not out["monotone"]

    def test_empty_table_exit_3(self, tmp_path):
        table = tmp_path / "cool.csv"
        table.write_text("temperature,val_energy\n")
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
    write_sweep_csv(path, [(1.0, float(n), 0.1, 2.0, 0.2)],
                    {"uninformed_train_energy": 5.0, "argmin_test_temperature": 1.0})
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

    def test_unknown_config_key_exit_2(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_traj": 1}))      # the flag is --ntraj
        assert self.remd(data_dir, tmp_path, "--model", "M1", "--nt", "2",
                         "--config", str(cfg)) == 2
        assert "n_traj" in capsys.readouterr().err
        assert not (tmp_path / "remd_manifest.json").exists()


class TestVersion:
    def test_missing_package_reads_unknown(self, monkeypatch):
        def not_installed(name):
            raise PackageNotFoundError(name)

        monkeypatch.setattr(temperhmc.cli, "version", not_installed)
        assert temperhmc.cli._version() == "unknown"

    def test_other_errors_propagate(self, monkeypatch):
        def broken(name):
            raise RuntimeError("broken metadata")

        monkeypatch.setattr(temperhmc.cli, "version", broken)
        with pytest.raises(RuntimeError, match="broken metadata"):
            temperhmc.cli._version()


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

    # the flags of each config-reading command, besides -h and --config
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
        parser = build_parser()
        commands = parser._subparsers._group_actions[0].choices
        for command, flags in self.FLAGS.items():
            found = {opt for action in commands[command]._actions
                     for opt in action.option_strings}
            assert found == flags | {"-h", "--help", "--config"}, command
            assert {"--" + name.replace("_", "-")
                    for name in setting_names(command)} == flags

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
