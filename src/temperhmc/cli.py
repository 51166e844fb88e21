"""Command-line entry points.

Subcommands: prepare-data, minimize, remd, ti, compare-models, report,
anneal-stop.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure, 4 restart/iteration budget exceeded.

prepare-data, minimize, remd and ti declare each setting once in SETTINGS,
which generates their flags and help.  _resolve takes a setting from its
flag, else the --config JSON file, else its default (read from RemdConfig,
TiConfig or RMinConfig where one holds it), and the run manifest echoes
every resolved setting.  Flags, config and input files are read inside
_reading_config, so a missing setting, a bad value or an unknown config key
exits 2; the same errors raised by the computation that follows propagate.
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
from importlib.metadata import PackageNotFoundError, version
from typing import NamedTuple

import numpy as np

from .data import (DatasetStore, load_dataset, load_idx_split, save_dataset,
                   stratified_indices, transform)
from .errors import BudgetError, ConfigError, NumericalError
from .files import replacing
from .harness import (N_RESTARTS, N_SOLUTIONS, anneal_stop, baseline_optimize,
                      sweep_table, write_sweep_csv)
from .minimize import RMinConfig
from .network import (dataset_energy_fns, get_arch, load_params, prior_box,
                      save_params)
from .replica import (RemdConfig, RunTrace, init_replica, make_ladder,
                      measure_sweep, run_remd, save_checkpoint)
from .ti import TiConfig, evidence, fit_stiffness, run_ti

REQUIRED = object()    # a setting with no default


class Setting(NamedTuple):     # flag --name with - for _; config key name
    name: str
    type: type
    default: object = REQUIRED      # None: the command picks one
    help: str = None
    choices: tuple = None


_RUN = [                # shared by the commands that run on a dataset
    Setting("data_dir", str),
    Setting("data", str, help="dataset tag, e.g. D500"),
    Setting("data_seed", int, 0),
    Setting("seed", int, 0),
    Setting("out_dir", str, "."),
    Setting("model", str),
]

SETTINGS = {
    "prepare-data": [
        Setting("mnist_dir", str),
        Setting("data_dir", str),
        Setting("size", int),
        Setting("seed", int, 0),
    ],
    "minimize": _RUN + [
        Setting("restarts", int, None,
                f"(default: {N_RESTARTS} for best-of, "
                f"{N_SOLUTIONS} for zero-energy)"),
        Setting("mode", str, "zero-energy", choices=("zero-energy", "best-of")),
        Setting("dt0", float, RMinConfig.dt0),
        Setting("n_steps", int, RMinConfig.n_steps),
    ],
    "remd": _RUN + [
        Setting("tmin", float, 1e-2),
        Setting("tmax", float, 1e2),
        Setting("nt", int, 16),
        Setting("ntraj", int, RemdConfig.n_traj),
        Setting("L", int, RemdConfig.n_leapfrog),
        Setting("sweeps", int, RemdConfig.sweeps),
        Setting("burn_in_traj", int, RemdConfig.burn_in_traj),
        Setting("eval_subset", int, 2000),
        Setting("checkpoint_every", int, RemdConfig.checkpoint_every),
    ],
    "ti": _RUN + [
        Setting("w0", str, help="parameter checkpoint of the reference minimum"),
        Setting("repeats", int, 5),
        Setting("n_bridge", int, TiConfig.n_bridge),
        Setting("burn_in_traj", int, TiConfig.burn_in_traj),
        Setting("sample_traj", int, TiConfig.sample_traj),
        Setting("fit_burn_in_traj", int, TiConfig.fit_burn_in_traj),
        Setting("fit_sample_traj", int, TiConfig.fit_sample_traj),
        Setting("L", int, TiConfig.n_leapfrog),
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
        "package_version": _version(),
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


def _version():
    try:
        return version("temperhmc")
    except PackageNotFoundError:
        return "unknown"


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
            cfg[s.name] = s.default if value is None else _typed(s, value)
    return cfg


def _typed(s, value):
    """value as the setting's type; a non-string must convert exactly."""
    typed = s.type(value) if isinstance(value, (str, int, float)) else None
    if isinstance(value, bool) or (not isinstance(value, str) and typed != value):
        raise ConfigError(f"{s.name} = {json.dumps(value)} is not a {s.type.__name__}")
    return typed


def _model_and_data(cfg):
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
    return (arch, *store.load(n, seed))


def _write_table(path, trace, n_train, burn, baseline=None):
    """The per-temperature table of a trace, written to path; returns its references."""
    rows, refs = sweep_table(measure_sweep(trace, burn_in_sweeps=burn),
                             n_train, baseline)
    write_sweep_csv(path, rows, refs)
    return refs


def cmd_prepare_data(args):
    cfg = _resolve(args)
    # creates data_dir, which the full_*.bin files go into
    store = DatasetStore(cfg["data_dir"])
    full_paths = [os.path.join(cfg["data_dir"], "full_train.bin"),
                  os.path.join(cfg["data_dir"], "full_test.bin")]
    with _reading_config():
        if all(os.path.exists(p) for p in full_paths):
            full_train = load_dataset(full_paths[0])
            full_test = load_dataset(full_paths[1])
        else:
            raw_train = load_idx_split(cfg["mnist_dir"], "train")
            raw_test = load_idx_split(cfg["mnist_dir"], "test")
            full_train, full_test = transform(raw_train, raw_test)
            save_dataset(full_paths[0], full_train)
            save_dataset(full_paths[1], full_test)
        train, test = store.get_or_create(full_train, full_test, cfg["size"],
                                          cfg["seed"])
    write_manifest(cfg["data_dir"], "prepare-data", cfg, full_paths)
    print(f"prepared D{cfg['size']} seed {cfg['seed']}: "
          f"train {len(train)}, test {len(test)}")
    return 0


def cmd_minimize(args):
    cfg = _resolve(args)
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
    summary = {
        "mode": result.mode,
        "n_restarts": result.n_restarts,
        "n_solutions": len(result.solutions),
        "mean_test_energy": result.mean_test_energy,
    }
    _write_json(os.path.join(out_dir, "baseline_summary.json"), summary)
    write_manifest(out_dir, "minimize", cfg, [csv_path, ckpt])
    print(json.dumps(summary))
    return 0


def cmd_remd(args):
    cfg = _resolve(args)
    with _reading_config():
        arch, train, test = _model_and_data(cfg)
        ladder = make_ladder(cfg["tmin"], cfg["tmax"], cfg["nt"])
    remd_cfg = RemdConfig(n_traj=cfg["ntraj"], n_leapfrog=cfg["L"],
                          sweeps=cfg["sweeps"], burn_in_traj=cfg["burn_in_traj"],
                          checkpoint_every=cfg["checkpoint_every"])
    n_eval, out_dir = cfg["eval_subset"], cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    box = prior_box(arch)
    _, value_grad = dataset_energy_fns(arch, train.inputs, train.labels)

    if n_eval and n_eval < len(test):
        # fixed stratified evaluation subset keeps the per-sweep cost bounded
        idx = stratified_indices(test.labels, n_eval, seed=12345)
        eval_inputs, eval_labels = test.inputs[idx], test.labels[idx]
    else:
        eval_inputs, eval_labels = test.inputs, test.labels
    test_energy_fn, _ = dataset_energy_fns(arch, eval_inputs, eval_labels)

    seeds = np.random.SeedSequence(cfg["seed"]).spawn(len(ladder) + 1)
    replicas = [init_replica(i, T, value_grad, box, seeds[i],
                             arch=arch, cfg=remd_cfg)
                for i, T in enumerate(ladder)]
    ckpt_path = os.path.join(out_dir, "remd_checkpoint.npz")
    trace = run_remd(replicas, value_grad, box, remd_cfg, seeds[-1],
                     test_energy_fn=test_energy_fn,
                     checkpoint_path=ckpt_path if remd_cfg.checkpoint_every else None)
    save_checkpoint(ckpt_path, replicas, trace.n_sweeps)

    trace_path = os.path.join(out_dir, "remd_trace.csv")
    trace.write_csv(trace_path)
    table_path = os.path.join(out_dir, "remd_summary.csv")
    burn = trace.n_sweeps // 5
    refs = _write_table(table_path, trace, len(train), burn)
    meta = dict(cfg, burn_in_sweeps=burn, n_sweeps=trace.n_sweeps,
                dt=[r.dt for r in replicas],
                accept_rate=np.mean(trace.accept_rate, axis=0).tolist(),
                swap_attempts=np.sum(trace.swap_attempts, axis=0).tolist(),
                swap_accepts=np.sum(trace.swap_accepts, axis=0).tolist())
    _write_json(os.path.join(out_dir, "remd_run.json"), meta)
    write_manifest(out_dir, "remd", cfg, [trace_path, table_path, ckpt_path])
    print(f"remd complete: {trace.n_sweeps} sweeps, "
          f"argmin-T(test) = {refs['argmin_test_temperature']:.4g}")
    return 0


def cmd_ti(args):
    cfg = _resolve(args)
    with _reading_config():
        arch, train, _ = _model_and_data(cfg)
        ckpt_arch, w0 = load_params(cfg["w0"])
        if ckpt_arch.n_params != arch.n_params:
            raise ConfigError("w0 checkpoint does not match the requested model")
    ti_cfg = TiConfig(n_bridge=cfg["n_bridge"], burn_in_traj=cfg["burn_in_traj"],
                      sample_traj=cfg["sample_traj"], n_leapfrog=cfg["L"],
                      fit_burn_in_traj=cfg["fit_burn_in_traj"],
                      fit_sample_traj=cfg["fit_sample_traj"])
    repeats, out_dir = cfg["repeats"], cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    box = prior_box(arch)
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
        "free_energy": float(free_energies.mean()),
        "free_energy_std": float(free_energies.std(ddof=1)) if repeats > 1 else 0.0,
        "f0": runs[0].f0,
        "integral": runs[0].integral,
        "log_prior_volume": box.log_volume,
        "log_evidence": float(np.mean([r.log_evidence for r in runs])),
        "repeats": repeats,
        "per_lambda": {
            "lambdas": runs[0].lambdas.tolist(),
            "mean": runs[0].integrand_mean.tolist(),
            "se": runs[0].integrand_se.tolist(),
        },
        "stiffness_fit": fits,      # per repeat
    }
    out_path = os.path.join(out_dir, "ti_run.json")
    _write_json(out_path, payload)
    write_manifest(out_dir, "ti", cfg, [out_path])
    print(json.dumps({k: payload[k] for k in
                      ("model", "dataset", "free_energy", "log_evidence")}))
    return 0


def cmd_compare_models(args):
    with open(args.a) as fh, _reading_config():
        a = json.load(fh)
    with open(args.b) as fh, _reading_config():
        b = json.load(fh)
    if a.get("dataset") != b.get("dataset"):
        raise ConfigError(
            f"runs used different datasets: {a.get('dataset')} vs {b.get('dataset')}"
        )

    def log_ev(run):
        if "log_evidence" in run:
            return float(run["log_evidence"])
        # accept (log integral, log prior volume) pairs as published inputs
        return float(run["log_integral"]) - float(run["log_prior_volume"])

    def err(run):
        return float(run.get("free_energy_std", run.get("log_integral_std", 0.0)))

    with _reading_config():
        log_odds = log_ev(a) - log_ev(b) + float(args.log_prior_ratio)
        sigma = float(np.hypot(err(a), err(b)))
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


def cmd_report(args):
    """Rebuild the per-temperature table from a per-sweep trace CSV."""
    with _reading_config():
        trace = RunTrace.read_csv(args.trace)
    burn = args.burn_in if args.burn_in is not None else trace.n_sweeps // 5
    refs = _write_table(args.out, trace, args.n_train, burn, args.baseline)
    print(f"wrote {args.out}; argmin-T(test) = {refs['argmin_test_temperature']:.4g}")
    return 0


def cmd_anneal_stop(args):
    temps, vals = [], []
    with open(args.table) as fh, _reading_config():
        for row in csv.DictReader(fh):
            temps.append(float(row["temperature"]))
            vals.append(float(row["val_energy"]))
    res = anneal_stop(temps, vals, smoothing_window=args.smoothing)
    print(json.dumps({
        "stop_temperature": res.temperature,
        "val_energy": res.value,
        "monotone": res.monotone,
    }))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="temperhmc",
        description="Tempered-posterior sampling and evidence estimation "
                    "for small classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_ in [
        ("prepare-data", cmd_prepare_data, "build and persist stratified subsets"),
        ("minimize", cmd_minimize, "baseline repeated fast minimisation"),
        ("remd", cmd_remd, "replica-exchange temperature sweep"),
        ("ti", cmd_ti, "thermodynamic integration evidence run"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="JSON config file; flags override")
        for s in SETTINGS[name]:
            p.add_argument(_flag(s), type=s.type, choices=s.choices, help=_help(s))
        p.set_defaults(func=func)

    p = sub.add_parser("compare-models", help="log odds from two ti run files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--log-prior-ratio", dest="log_prior_ratio",
                   type=float, default=0.0)
    p.set_defaults(func=cmd_compare_models)

    p = sub.add_parser("report", help="per-temperature table from a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-train", dest="n_train", type=int, required=True)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--baseline", type=float)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("anneal-stop", help="annealing stop rule on a cooling table")
    p.add_argument("--table", required=True,
                   help="CSV with temperature,val_energy columns")
    p.add_argument("--smoothing", type=int, default=1)
    p.set_defaults(func=cmd_anneal_stop)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
