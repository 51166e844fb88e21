#!/usr/bin/env python3
"""Temperature as a regulariser: a small replica-exchange sweep.

Samples the tempered posterior of a small classifier over a geometric
temperature ladder and prints the per-temperature average training and
test energies.  Cold replicas pin the training data (and overfit); hot
replicas approach the prior (and underfit); the test energy is minimised
somewhere in between, typically near T ~ 1.

This is a desk-scale run: a few minutes with the defaults.

Usage:
    python demos/temperature_sweep.py [--nt 8] [--sweeps 120]
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from temperhmc import data, synth
from temperhmc.harness import UNINFORMED_PER_EXAMPLE, anneal_stop
from temperhmc.network import dataset_energy_fns, get_arch, prior_box
from temperhmc.replica import (RemdConfig, init_replica, make_ladder,
                               measure_sweep, run_remd)


def load_splits(mnist_dir):
    if mnist_dir:
        raw_train = data.load_idx_split(mnist_dir, "train")
        raw_test = data.load_idx_split(mnist_dir, "test")
    else:
        print("no --mnist-dir given; using a synthetic stand-in corpus")
        with tempfile.TemporaryDirectory(prefix="temperhmc_demo_") as tmp:
            synth.write_corpus(Path(tmp), n_train=3000, n_test=600, seed=0)
            raw_train = data.load_idx_split(tmp, "train")
            raw_test = data.load_idx_split(tmp, "test")
    return data.transform(raw_train, raw_test)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mnist-dir", default=None)
    ap.add_argument("--model", default="M1")
    ap.add_argument("--size", type=int, default=50)
    ap.add_argument("--nt", type=int, default=8)
    ap.add_argument("--tmin", type=float, default=1e-2)
    ap.add_argument("--tmax", type=float, default=1e2)
    ap.add_argument("--sweeps", type=int, default=120)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    train_full, test_full = load_splits(args.mnist_dir)
    train, test = data.stratified_subset(train_full, test_full, args.size,
                                         seed=0)
    arch = get_arch(args.model)
    box = prior_box(arch)
    _, value_grad = dataset_energy_fns(arch, train.inputs, train.labels)

    # a fixed 1000-image evaluation subset keeps the per-sweep cost bounded
    idx = data.stratified_indices(test.labels, 1000, seed=12345)
    eval_fn, _ = dataset_energy_fns(arch, test.inputs[idx], test.labels[idx])
    n_eval = len(idx)

    ladder = make_ladder(args.tmin, args.tmax, args.nt)
    cfg = RemdConfig(n_traj=2, n_leapfrog=25, sweeps=args.sweeps,
                     burn_in_traj=50)
    print(f"\ninitialising {args.nt} replicas on a geometric ladder "
          f"[{args.tmin:g}, {args.tmax:g}] (minimise, tune, burn in)...")
    seeds = np.random.SeedSequence(args.seed).spawn(args.nt + 1)
    replicas = [init_replica(i, float(T), value_grad, box, seeds[i],
                             arch=arch, cfg=cfg)
                for i, T in enumerate(ladder)]

    print(f"running {args.sweeps} exchange sweeps...")
    trace = run_remd(replicas, value_grad, box, cfg, seeds[-1],
                     test_energy_fn=eval_fn)
    burn = args.sweeps // 5
    summary = measure_sweep(trace, burn_in_sweeps=burn)

    swap_rate = (np.sum(trace.swap_accepts, axis=0) /
                 np.maximum(np.sum(trace.swap_attempts, axis=0), 1))
    print(f"\nadjacent swap acceptance: "
          f"{np.array2string(swap_rate, precision=2)}")

    print(f"\n{'T':>9} {'<E_train>/n':>12} {'<E_test>/n':>12}")
    best = anneal_stop(summary["temperatures"], summary["e_test_mean"]).index
    for i, T in enumerate(summary["temperatures"]):
        marker = "  <-- best test energy" if i == best else ""
        print(f"{T:>9.3g} "
              f"{summary['e_train_mean'][i] / len(train):>12.3f} "
              f"{summary['e_test_mean'][i] / n_eval:>12.3f}{marker}")
    print(f"\nuninformed classifier level: {UNINFORMED_PER_EXAMPLE:.3f} "
          "nats per example")
    print(f"test energy is minimised at T = "
          f"{summary['temperatures'][best]:.3g}: colder replicas memorise "
          "the training set, hotter ones forget it.")


if __name__ == "__main__":
    main()
