"""Command-line entry points.

Subcommands: prepare-data, minimize, remd, ti, compare-models, report,
anneal-stop.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure, 4 restart/iteration budget exceeded.  A command reads its flags,
config and input files inside _reading_config, so a missing key or a bad
value there exits 2; the same errors raised by the computation that
follows propagate.

Every run can take --config JSON; explicit flags override file values, and
the effective configuration is echoed into a run manifest next to the
outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from importlib.metadata import PackageNotFoundError, version

import numpy as np

from . import __name__ as _pkg
from .data import (DatasetStore, load_dataset, load_idx_split,
                   stratified_indices, transform)
from .errors import BudgetError, ConfigError, NumericalError
from .files import replacing
from .harness import (anneal_stop, baseline_optimize, sweep_table,
                      write_sweep_csv)
from .minimize import RMinConfig
from .network import (dataset_energy_fns, get_arch, load_params, prior_box,
                      save_params)
from .replica import (RemdConfig, RunTrace, init_replica, make_ladder,
                      measure_sweep, run_remd, save_checkpoint)
from .ti import TiConfig, evidence, fit_stiffness, run_ti


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
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _merge_config(args, keys):
    """File config (if any) overridden by explicitly-set CLI flags."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh, _reading_config():
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config} does not hold a JSON object")
        cfg.update(loaded)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _dataset_pair(cfg):
    store = DatasetStore(cfg["data_dir"])
    tag = cfg["data"]
    if not tag.startswith("D"):
        raise ConfigError(f"dataset tag {tag!r} should look like D500")
    n = int(tag[1:])
    seed = int(cfg.get("data_seed", 0))
    if not store.has(n, seed):
        raise ConfigError(
            f"dataset {tag} (seed {seed}) not found in {cfg['data_dir']}; "
            "run prepare-data first"
        )
    return store.load(n, seed)


def cmd_prepare_data(args):
    cfg = _merge_config(args, ["mnist_dir", "data_dir", "size", "seed"])
    for key in ("mnist_dir", "data_dir", "size"):
        if cfg.get(key) is None:
            raise ConfigError(f"prepare-data requires --{key.replace('_', '-')}")
    store = DatasetStore(cfg["data_dir"])
    full_paths = [os.path.join(cfg["data_dir"], "full_train.bin"),
                  os.path.join(cfg["data_dir"], "full_test.bin")]
    with _reading_config():
        seed, size = int(cfg.get("seed", 0)), int(cfg["size"])
        if all(os.path.exists(p) for p in full_paths):
            full_train = load_dataset(full_paths[0])
            full_test = load_dataset(full_paths[1])
        else:
            raw_train = load_idx_split(cfg["mnist_dir"], "train")
            raw_test = load_idx_split(cfg["mnist_dir"], "test")
            full_train, full_test = transform(raw_train, raw_test)
            from .data import save_dataset
            save_dataset(full_paths[0], full_train)
            save_dataset(full_paths[1], full_test)
        train, test = store.get_or_create(full_train, full_test, size, seed)
    write_manifest(cfg["data_dir"], "prepare-data", cfg, full_paths)
    print(f"prepared D{cfg['size']} seed {seed}: train {len(train)}, test {len(test)}")
    return 0


def cmd_minimize(args):
    cfg = _merge_config(args, ["model", "data", "data_dir", "data_seed",
                               "restarts", "seed", "mode", "dt0", "n_steps",
                               "out_dir"])
    with _reading_config():
        arch = get_arch(cfg["model"])
        train, test = _dataset_pair(cfg)
        mode = cfg.get("mode", "zero-energy")
        rmin_cfg = RMinConfig(n_steps=int(cfg.get("n_steps", 2000)),
                              dt0=float(cfg.get("dt0", 0.1)))
        kwargs = {"mode": mode, "rmin_cfg": rmin_cfg}
        if mode == "best-of":
            kwargs["n_restarts"] = int(cfg.get("restarts", 4000))
        else:
            kwargs["n_solutions"] = int(cfg.get("restarts", 100))
            kwargs["restart_cap"] = 40 * int(cfg.get("restarts", 100))
        seed = int(cfg.get("seed", 0))
    out_dir = cfg.get("out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    result = baseline_optimize(arch, train, test, seed, **kwargs)

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
    cfg = _merge_config(args, ["model", "data", "data_dir", "data_seed",
                               "tmin", "tmax", "nt", "ntraj", "L", "sweeps",
                               "seed", "checkpoint_every", "out_dir",
                               "eval_subset", "burn_in_traj"])
    with _reading_config():
        arch = get_arch(cfg["model"])
        train, test = _dataset_pair(cfg)
        n_eval = int(cfg.get("eval_subset", 2000))
        remd_cfg = RemdConfig(n_traj=int(cfg.get("ntraj", 10)),
                              n_leapfrog=int(cfg.get("L", 100)),
                              sweeps=int(cfg.get("sweeps", 500)),
                              burn_in_traj=int(cfg.get("burn_in_traj", 100)),
                              checkpoint_every=int(cfg.get("checkpoint_every", 0)))
        ladder = make_ladder(float(cfg.get("tmin", 1e-2)),
                             float(cfg.get("tmax", 1e2)), int(cfg.get("nt", 16)))
        seed = int(cfg.get("seed", 0))
    out_dir = cfg.get("out_dir", ".")
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

    seeds = np.random.SeedSequence(seed).spawn(len(ladder) + 1)
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
    burn = trace.n_sweeps // 5
    summary = measure_sweep(trace, burn_in_sweeps=burn)
    rows, refs = sweep_table(summary, len(train))
    table_path = os.path.join(out_dir, "remd_summary.csv")
    write_sweep_csv(table_path, rows, refs)
    meta = dict(cfg, burn_in_sweeps=burn, n_sweeps=trace.n_sweeps,
                dt=[r.dt for r in replicas],
                swap_attempts=np.sum(trace.swap_attempts, axis=0).tolist(),
                swap_accepts=np.sum(trace.swap_accepts, axis=0).tolist())
    _write_json(os.path.join(out_dir, "remd_run.json"), meta)
    write_manifest(out_dir, "remd", cfg, [trace_path, table_path, ckpt_path])
    print(f"remd complete: {trace.n_sweeps} sweeps, "
          f"argmin-T(test) = {refs['argmin_test_temperature']:.4g}")
    return 0


def cmd_ti(args):
    cfg = _merge_config(args, ["model", "data", "data_dir", "data_seed", "w0",
                               "repeats", "seed", "out_dir", "n_bridge",
                               "burn_in_traj", "sample_traj", "L",
                               "fit_burn_in_traj", "fit_sample_traj"])
    with _reading_config():
        arch = get_arch(cfg["model"])
        train, _ = _dataset_pair(cfg)
        ckpt_arch, w0 = load_params(cfg["w0"])
        if ckpt_arch.n_params != arch.n_params:
            raise ConfigError("w0 checkpoint does not match the requested model")
        ti_cfg = TiConfig(
            n_bridge=int(cfg.get("n_bridge", 100)),
            burn_in_traj=int(cfg.get("burn_in_traj", 100)),
            sample_traj=int(cfg.get("sample_traj", 100)),
            n_leapfrog=int(cfg.get("L", 100)),
            fit_burn_in_traj=int(cfg.get("fit_burn_in_traj", 1000)),
            fit_sample_traj=int(cfg.get("fit_sample_traj", 1000)),
        )
        repeats = int(cfg.get("repeats", 5))
        seed = int(cfg.get("seed", 0))
    out_dir = cfg.get("out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    box = prior_box(arch)
    energy_fn, value_grad = dataset_energy_fns(arch, train.inputs, train.labels)
    seeds = np.random.SeedSequence(seed).spawn(repeats)
    runs, fits = [], []
    for r in range(repeats):
        rng = np.random.default_rng(seeds[r])
        stiff = fit_stiffness(value_grad, w0, ti_cfg, rng, box)
        result = run_ti(energy_fn, value_grad, stiff, box, ti_cfg, rng)
        evidence(result, box, dataset_tag=cfg["data"])
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
    summary = measure_sweep(trace, burn_in_sweeps=burn)
    rows, refs = sweep_table(summary, args.n_train, args.baseline)
    write_sweep_csv(args.out, rows, refs)
    print(f"wrote {args.out}; argmin-T(test) = {refs['argmin_test_temperature']:.4g}")
    return 0


def cmd_anneal_stop(args):
    import csv as _csv
    temps, vals = [], []
    with open(args.table) as fh, _reading_config():
        for row in _csv.DictReader(fh):
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

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override")
        p.add_argument("--data-dir", dest="data_dir")
        p.add_argument("--data", help="dataset tag, e.g. D500")
        p.add_argument("--data-seed", dest="data_seed", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("prepare-data", help="build and persist stratified subsets")
    p.add_argument("--config")
    p.add_argument("--mnist-dir", dest="mnist_dir")
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--size", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_prepare_data)

    p = sub.add_parser("minimize", help="baseline repeated fast minimisation")
    add_common(p)
    p.add_argument("--model")
    p.add_argument("--restarts", type=int)
    p.add_argument("--mode", choices=["zero-energy", "best-of"])
    p.add_argument("--dt0", type=float)
    p.add_argument("--n-steps", dest="n_steps", type=int)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("remd", help="replica-exchange temperature sweep")
    add_common(p)
    p.add_argument("--model")
    p.add_argument("--tmin", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--nt", type=int)
    p.add_argument("--ntraj", type=int)
    p.add_argument("--L", type=int)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--burn-in-traj", dest="burn_in_traj", type=int)
    p.add_argument("--eval-subset", dest="eval_subset", type=int)
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    p.set_defaults(func=cmd_remd)

    p = sub.add_parser("ti", help="thermodynamic integration evidence run")
    add_common(p)
    p.add_argument("--model")
    p.add_argument("--w0", help="parameter checkpoint of the reference minimum")
    p.add_argument("--repeats", type=int)
    p.add_argument("--n-bridge", dest="n_bridge", type=int)
    p.add_argument("--burn-in-traj", dest="burn_in_traj", type=int)
    p.add_argument("--sample-traj", dest="sample_traj", type=int)
    p.add_argument("--fit-burn-in-traj", dest="fit_burn_in_traj", type=int)
    p.add_argument("--fit-sample-traj", dest="fit_sample_traj", type=int)
    p.add_argument("--L", type=int)
    p.set_defaults(func=cmd_ti)

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
