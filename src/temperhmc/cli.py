"""Command-line entry points.

Subcommands: prepare-data, minimize, remd, ti, compare-models, report,
anneal-stop.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure, 4 restart/iteration budget exceeded.

Every command declares each setting once in SETTINGS, which generates its
flags and help.  Before a command runs, main's _resolve takes each setting
from its flag, else the --config JSON file, else its default (read from
RemdConfig, TiConfig or RMinConfig where one holds it), checks it against
its lower bound, and a set float for being finite, and hands the command
the resolved dict, which a run manifest echoes.  ti refuses a w0 outside
the prior box (PriorBox.inside), and report a burn-in that leaves under
two sweeps.  Flags, config and input files are read inside
_reading_config, so a missing setting, a bad value, a value out of range
or an unknown config key exits 2; the same errors raised by the
computation that follows propagate.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from . import __version__
from .data import (DatasetStore, all_rows, load_idx_split, stratified_indices,
                   stratified_split, transform)
from .errors import BudgetError, ConfigError, NumericalError
from .files import replacing
from .harness import (N_RESTARTS, N_SOLUTIONS, anneal_stop, baseline_optimize,
                      write_sweep_csv)
from .minimize import RMinConfig
from .network import (dataset_energy_fns, get_arch, load_params, prior_box,
                      save_params)
from .replica import (RemdConfig, RunTrace, init_replica, make_ladder,
                      measure_sweep, run_remd, save_checkpoint)
from .ti import TiConfig, compare, evidence, fit_stiffness, run_ti

REQUIRED = object()    # a setting with no default


class Setting(NamedTuple):     # flag --name with - for _; config key name
    name: str
    type: type
    default: object = REQUIRED      # None: unset, or the command picks one
    help: str = None
    choices: tuple = None
    above: float = None             # a value must be greater than this


_RUN = [                # shared by the commands that run on a dataset
    Setting("data_dir", str),
    Setting("data", str, help="dataset tag, e.g. D500"),
    Setting("data_seed", int, 0, above=-1),
    Setting("seed", int, 0, above=-1),
    Setting("out_dir", str, "."),
    Setting("model", str),
]

SETTINGS = {
    "prepare-data": [
        Setting("mnist_dir", str),
        Setting("data_dir", str),
        Setting("size", int, above=0),
        Setting("seed", int, 0, above=-1),
    ],
    "minimize": _RUN + [
        Setting("restarts", int, None,
                f"(default: {N_RESTARTS} for best-of, "
                f"{N_SOLUTIONS} for zero-energy)", above=0),
        Setting("mode", str, "zero-energy", choices=("zero-energy", "best-of")),
        Setting("dt0", float, RMinConfig.dt0, above=0),
        Setting("n_steps", int, RMinConfig.n_steps, above=0),
    ],
    "remd": _RUN + [
        Setting("tmin", float, 1e-2),
        Setting("tmax", float, 1e2),
        Setting("nt", int, 16),
        Setting("ntraj", int, RemdConfig.n_traj, above=0),
        Setting("L", int, RemdConfig.n_leapfrog, above=0),
        # the summary needs two sweeps past its burn-in of a fifth
        Setting("sweeps", int, RemdConfig.sweeps, above=1),
        Setting("burn_in_traj", int, RemdConfig.burn_in_traj, above=-1),
        Setting("eval_subset", int, 2000, "0: the whole test set", above=-1),
        Setting("checkpoint_every", int, RemdConfig.checkpoint_every, above=-1),
    ],
    "ti": _RUN + [
        Setting("w0", str, help="parameter checkpoint of the reference minimum"),
        Setting("repeats", int, 5, above=0),
        # Simpson's rule needs two intervals
        Setting("n_bridge", int, TiConfig.n_bridge, above=0),
        Setting("burn_in_traj", int, TiConfig.burn_in_traj, above=-1),
        # a window's blocked standard error needs two samples
        Setting("sample_traj", int, TiConfig.sample_traj, above=1),
        Setting("fit_burn_in_traj", int, TiConfig.fit_burn_in_traj, above=-1),
        Setting("fit_sample_traj", int, TiConfig.fit_sample_traj, above=0),
        Setting("L", int, TiConfig.n_leapfrog, above=0),
    ],
    "compare-models": [
        Setting("a", str, help="ti_run.json of model a"),
        Setting("b", str, help="ti_run.json of model b"),
        Setting("log_prior_ratio", float, 0.0),
    ],
    "report": [
        Setting("trace", str, help="remd_trace.csv"),
        Setting("out", str, help="the table to write"),
        Setting("n_train", int, help="training-set size", above=0),
        Setting("burn_in", int, None, "sweeps to cut (default: a fifth)", above=-1),
        Setting("baseline", float, None, "baseline test energy to record"),
    ],
    "anneal-stop": [
        Setting("table", str, help="remd_summary.csv, as remd or report writes it"),
        # anneal_stop checks the window against the table
        Setting("smoothing", int, 1),
    ],
}


def _file_checksum(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, name, config, outputs):
    manifest = {
        "command": name,
        "config": config,
        "package_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "outputs": {os.path.basename(p): _file_checksum(p) for p in outputs
                    if os.path.exists(p)},
    }
    path = os.path.join(out_dir, f"{name}_manifest.json")
    _write_json(path, manifest)
    return path


def _write_json(path, payload):
    with replacing(path) as tmp, open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2)


@contextmanager
def _reading_config():
    """Report a missing key or a bad value as a ConfigError (exit code 2)."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"missing key {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _flag(s):
    return "--" + s.name.replace("_", "-")


def _help(s):
    """The setting's help text, then its default or "(required)"."""
    if s.default is None:
        return s.help
    note = "(required)" if s.default is REQUIRED else f"(default: {s.default})"
    return f"{s.help} {note}" if s.help else note


def _resolve(args):
    """Each of the command's settings: its flag, else --config, else its default."""
    loaded = {}
    if args.config:
        with open(args.config) as fh, _reading_config():
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config} does not hold a JSON object")
    settings = SETTINGS[args.command]
    unknown = sorted(set(loaded) - {s.name for s in settings})
    if unknown:
        raise ConfigError(f"unknown key {', '.join(unknown)} in {args.config}")
    cfg = {}
    for s in settings:
        value = getattr(args, s.name)
        if value is None:
            value = loaded.get(s.name)      # a JSON null counts as unset
        if value is None and s.default is REQUIRED:
            raise ConfigError(f"{args.command} requires {_flag(s)}")
        with _reading_config():
            cfg[s.name] = value = s.default if value is None else _typed(s, value)
        if s.type is float and value is not None and not np.isfinite(value):
            raise ConfigError(f"{_flag(s)} must be finite, not {value}")
        if s.above is not None and value is not None and not value > s.above:
            raise ConfigError(f"{_flag(s)} must be greater than {s.above}, not {value}")
    return cfg


def _typed(s, value):
    """value as the setting's type; a non-string must convert exactly."""
    typed = s.type(value) if isinstance(value, (str, int, float)) else None
    if isinstance(value, bool) or (not isinstance(value, (str, s.type))
                                   and typed != value):
        raise ConfigError(f"{s.name} = {json.dumps(value)} is not a {s.type.__name__}")
    return typed


def _model_and_data(cfg, test_rows=all_rows):
    """The model, the train split and the test rows test_rows picks."""
    arch = get_arch(cfg["model"])
    store = DatasetStore(cfg["data_dir"])
    tag = cfg["data"]
    if not tag.startswith("D"):
        raise ConfigError(f"dataset tag {tag!r} should look like D500")
    n, seed = int(tag[1:]), cfg["data_seed"]
    if not store.has(n, seed):
        raise ConfigError(
            f"dataset {tag} (seed {seed}) not found in {cfg['data_dir']}; "
            "run prepare-data first"
        )
    return (arch, *store.load(n, seed, test_rows=test_rows))


def cmd_prepare_data(cfg):
    n, seed = cfg["size"], cfg["seed"]
    with _reading_config():
        full_train, full_test = transform(load_idx_split(cfg["mnist_dir"], "train"),
                                          load_idx_split(cfg["mnist_dir"], "test"))
        train, test = stratified_split(full_train, full_test, n, seed)
    # both splits are written by row index from the features, with no copy
    paths = DatasetStore(cfg["data_dir"]).save(n, seed, train, test)
    write_manifest(cfg["data_dir"], "prepare-data", cfg, paths)
    print(f"prepared D{n} seed {seed}: train {n}, "
          f"test {len(full_train) + len(full_test) - n}")
    return 0


def cmd_minimize(cfg):
    best_of = cfg["mode"] == "best-of"
    if cfg["restarts"] is None:
        cfg["restarts"] = N_RESTARTS if best_of else N_SOLUTIONS
    with _reading_config():
        arch, train, test = _model_and_data(cfg)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    result = baseline_optimize(
        arch, train, test, cfg["seed"], mode=cfg["mode"],
        rmin_cfg=RMinConfig(n_steps=cfg["n_steps"], dt0=cfg["dt0"]),
        **{"n_restarts" if best_of else "n_solutions": cfg["restarts"]})

    csv_path = os.path.join(out_dir, "baseline.csv")
    with replacing(csv_path) as tmp, open(tmp, "w") as fh:
        fh.write("solution,e_train,e_test\n")
        for i, (et, ev) in enumerate(zip(result.train_energies,
                                         result.test_energies)):
            fh.write(f"{i},{et:.10g},{ev:.10g}\n")
    best = int(np.argmin(result.train_energies))
    ckpt = os.path.join(out_dir, "baseline_best.params")
    save_params(ckpt, arch, result.solutions[best])
    box = prior_box(arch)
    summary = {
        "mode": result.mode,
        "n_restarts": result.n_restarts,
        "n_solutions": len(result.solutions),
        "mean_test_energy": result.mean_test_energy,
        # minima of zero prior mass, and the best one's coordinates ti refuses
        "solutions_outside_box": sum(not box.inside(w).all() for w in result.solutions),
        "best_outside_box": np.flatnonzero(~box.inside(result.solutions[best])).tolist(),
    }
    _write_json(os.path.join(out_dir, "baseline_summary.json"), summary)
    write_manifest(out_dir, "minimize", cfg, [csv_path, ckpt])
    print(json.dumps(summary))
    return 0


def cmd_remd(cfg):
    n_eval = cfg["eval_subset"]
    with _reading_config():
        ladder = make_ladder(cfg["tmin"], cfg["tmax"], cfg["nt"])   # before any read
        # a fixed stratified evaluation subset keeps the per-sweep cost bounded
        arch, train, test = _model_and_data(cfg, lambda labels: (
            stratified_indices(labels, n_eval, seed=12345)
            if 0 < n_eval < len(labels) else all_rows(labels)))
    remd_cfg = RemdConfig(n_traj=cfg["ntraj"], n_leapfrog=cfg["L"],
                          sweeps=cfg["sweeps"], burn_in_traj=cfg["burn_in_traj"],
                          checkpoint_every=cfg["checkpoint_every"])
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    box = prior_box(arch)
    _, value_grad = dataset_energy_fns(arch, train.inputs, train.labels)
    test_energy_fn, _ = dataset_energy_fns(arch, test.inputs, test.labels)

    seeds = np.random.SeedSequence(cfg["seed"]).spawn(len(ladder) + 1)
    replicas = [init_replica(i, T, value_grad, box, seeds[i],
                             arch=arch, cfg=remd_cfg)
                for i, T in enumerate(ladder)]
    ckpt_path = os.path.join(out_dir, "remd_checkpoint.npz")
    trace = run_remd(replicas, value_grad, box, remd_cfg, seeds[-1],
                     test_energy_fn=test_energy_fn,
                     checkpoint_path=ckpt_path)
    save_checkpoint(ckpt_path, replicas, trace.n_sweeps)

    trace_path = os.path.join(out_dir, "remd_trace.csv")
    trace.write_csv(trace_path)
    table_path = os.path.join(out_dir, "remd_summary.csv")
    burn = trace.n_sweeps // 5
    stop = write_sweep_csv(table_path, measure_sweep(trace, burn_in_sweeps=burn),
                           len(train))
    meta = dict(cfg, burn_in_sweeps=burn, n_sweeps=trace.n_sweeps,
                dt=[r.dt for r in replicas],
                start_energy=[r.start_energy for r in replicas],
                start_steps=[r.start_steps for r in replicas],
                accept_rate=np.mean(trace.accept_rate, axis=0).tolist(),
                grad_calls=[r.grad_calls for r in replicas],
                kick_calls=[r.kick_calls for r in replicas],
                wall_stops=[r.wall_stops for r in replicas],
                swap_attempts=np.sum(trace.swap_attempts, axis=0).tolist(),
                swap_accepts=np.sum(trace.swap_accepts, axis=0).tolist())
    _write_json(os.path.join(out_dir, "remd_run.json"), meta)
    write_manifest(out_dir, "remd", cfg, [trace_path, table_path, ckpt_path])
    print(f"remd complete: {trace.n_sweeps} sweeps, "
          f"argmin-T(test) = {stop:.4g}")
    return 0


def cmd_ti(cfg):
    with _reading_config():
        arch, train, _ = _model_and_data(cfg, test_rows=None)
        ckpt_arch, w0 = load_params(cfg["w0"])
        if ckpt_arch != arch:
            raise ConfigError("w0 checkpoint does not match the requested model")
    box = prior_box(arch)
    n_out = np.count_nonzero(~box.inside(w0))
    if n_out:
        raise ConfigError(f"w0 lies outside the prior box in {n_out} of {len(w0)} "
                          "coordinates")
    ti_cfg = TiConfig(n_bridge=cfg["n_bridge"], burn_in_traj=cfg["burn_in_traj"],
                      sample_traj=cfg["sample_traj"], n_leapfrog=cfg["L"],
                      fit_burn_in_traj=cfg["fit_burn_in_traj"],
                      fit_sample_traj=cfg["fit_sample_traj"])
    repeats, out_dir = cfg["repeats"], cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    energy_fn, value_grad = dataset_energy_fns(arch, train.inputs, train.labels)
    seeds = np.random.SeedSequence(cfg["seed"]).spawn(repeats)
    runs, fits = [], []
    for r in range(repeats):
        rng = np.random.default_rng(seeds[r])
        stiff = fit_stiffness(value_grad, w0, ti_cfg, rng, box)
        result = run_ti(energy_fn, value_grad, stiff, box, ti_cfg, rng)
        evidence(result, box)
        runs.append(result)
        fits.append({"frac_outside_box": stiff.frac_outside_box,
                     "degenerate": int(len(stiff.degenerate))})

    free_energies = np.array([r.free_energy for r in runs])
    payload = {
        "model": cfg["model"],
        "dataset": cfg["data"],
        "data_seed": cfg["data_seed"],
        "free_energy": float(free_energies.mean()),
        # one repeat measures no spread
        "free_energy_std": float(free_energies.std(ddof=1)) if repeats > 1 else None,
        "f0": float(np.mean([r.f0 for r in runs])),
        "integral": float(np.mean([r.integral for r in runs])),
        "log_prior_volume": box.log_volume,
        "log_evidence": float(np.mean([r.log_evidence for r in runs])),
        "repeats": repeats,
        "per_lambda": {     # the first repeat's windows
            "lambdas": runs[0].lambdas.tolist(),
            "mean": runs[0].integrand_mean.tolist(),
            "se": runs[0].integrand_se.tolist(),
            "dt": runs[0].dt.tolist(),
            "accept_rate": runs[0].accept_rate.tolist(),
            "grad_calls": runs[0].grad_calls.tolist(),
            "kick_calls": runs[0].kick_calls.tolist(),
        },
        # windows of the first repeat whose sampling accepted no trajectory
        "frozen_lambdas": runs[0].lambdas[runs[0].accept_rate == 0].tolist(),
        "stiffness_fit": fits,      # per repeat
    }
    if payload["frozen_lambdas"]:
        print("warning: no trajectory was accepted in the windows at lambda = "
              + ", ".join(f"{lam:.4g}" for lam in payload["frozen_lambdas"]),
              file=sys.stderr)
    out_path = os.path.join(out_dir, "ti_run.json")
    _write_json(out_path, payload)
    write_manifest(out_dir, "ti", cfg, [out_path])
    print(json.dumps({k: payload[k] for k in
                      ("model", "dataset", "free_energy", "log_evidence")}))
    return 0


def cmd_compare_models(cfg):
    with open(cfg["a"]) as fh, _reading_config():
        a = json.load(fh)
    with open(cfg["b"]) as fh, _reading_config():
        b = json.load(fh)

    def log_ev(run):
        if "log_evidence" in run:
            return float(run["log_evidence"])
        # accept (log integral, log prior volume) pairs as published inputs
        return float(run["log_integral"]) - float(run["log_prior_volume"])

    def err(run):       # None where no spread was measured
        std = run.get("free_energy_std", run.get("log_integral_std"))
        return None if std is None else float(std)

    def training_set(run):      # published inputs carry no data_seed
        return run.get("dataset"), run.get("data_seed")

    with _reading_config():
        log_odds = compare(log_ev(a), log_ev(b), cfg["log_prior_ratio"],
                           training_set(a), training_set(b))
        errs = err(a), err(b)
        sigma = None if None in errs else float(np.hypot(*errs))
    report = {
        "model_a": a.get("model"),
        "model_b": b.get("model"),
        "dataset": a.get("dataset"),
        "log_odds_a_over_b": log_odds,
        "log_odds_std": sigma,
        "favoured": (a.get("model") if log_odds > 0 else b.get("model")),
    }
    print(json.dumps(report, indent=2))
    return 0


def cmd_report(cfg):
    """Rebuild the per-temperature table from a per-sweep trace CSV."""
    with _reading_config():
        trace = RunTrace.read_csv(cfg["trace"])
    n = trace.n_sweeps
    burn = n // 5 if cfg["burn_in"] is None else cfg["burn_in"]
    if n - burn < 2:
        raise ConfigError(f"{cfg['trace']} holds {n} sweeps; a burn-in of {burn} "
                          "leaves fewer than the 2 the table needs")
    stop = write_sweep_csv(cfg["out"], measure_sweep(trace, burn_in_sweeps=burn),
                           cfg["n_train"], cfg["baseline"])
    print(f"wrote {cfg['out']}; argmin-T(test) = {stop:.4g}")
    return 0


def cmd_anneal_stop(cfg):
    temps, vals = [], []
    with open(cfg["table"]) as fh, _reading_config():
        for row in csv.DictReader(ln for ln in fh if not ln.startswith("#")):
            temps.append(float(row["temperature"]))
            vals.append(float(row["e_test_mean"]))
    res = anneal_stop(temps, vals, smoothing_window=cfg["smoothing"])
    print(json.dumps({
        "stop_temperature": res.temperature,
        "val_energy": res.value,
        "monotone": res.monotone,
    }))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="temperhmc", allow_abbrev=False,
        description="Tempered-posterior sampling and evidence estimation "
                    "for small classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_ in [
        ("prepare-data", cmd_prepare_data, "build and persist stratified subsets"),
        ("minimize", cmd_minimize, "baseline repeated fast minimisation"),
        ("remd", cmd_remd, "replica-exchange temperature sweep"),
        ("ti", cmd_ti, "thermodynamic integration evidence run"),
        ("compare-models", cmd_compare_models, "log odds from two ti run files"),
        ("report", cmd_report, "per-temperature table from a trace CSV"),
        ("anneal-stop", cmd_anneal_stop,
         "annealing stop rule on a remd_summary.csv table"),
    ]:
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override")
        for s in SETTINGS[name]:
            p.add_argument(_flag(s), type=s.type, choices=s.choices, help=_help(s))
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_resolve(args))
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
