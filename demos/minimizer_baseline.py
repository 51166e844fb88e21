#!/usr/bin/env python3
"""Repeated fast minimisation as a non-Bayesian reference point.

Builds a small image-classification dataset (a synthetic stand-in corpus
unless --mnist-dir points at the real IDX files), runs the inertial
minimiser from many standard initialisations, and reports how quickly the
training energy collapses and how badly the resulting zero-training-error
networks overfit relative to an uninformed classifier.

Usage:
    python demos/minimizer_baseline.py [--size 50] [--restarts 20]
"""

import argparse
import math
import tempfile
from pathlib import Path

import numpy as np

from temperhmc import data, synth
from temperhmc.harness import UNINFORMED_PER_EXAMPLE, baseline_optimize
from temperhmc.minimize import RMinConfig, rmin
from temperhmc.network import dataset_energy_fns, get_arch, init_standard


def load_splits(mnist_dir):
    if mnist_dir:
        raw_train = data.load_idx_split(mnist_dir, "train")
        raw_test = data.load_idx_split(mnist_dir, "test")
        print(f"using IDX corpus from {mnist_dir}")
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
    ap.add_argument("--restarts", type=int, default=20)
    args = ap.parse_args()

    train_full, test_full = load_splits(args.mnist_dir)
    train, test = data.stratified_subset(train_full, test_full, args.size, seed=0)
    arch = get_arch(args.model)
    print(f"\nmodel {args.model} ({arch.n_params} parameters), "
          f"train n={len(train)}, test n={len(test)}")

    # --- how fast does a single minimisation run collapse? -----------------
    _, value_grad = dataset_energy_fns(arch, train.inputs, train.labels)
    print("\nsingle runs from standard initialisation "
          "(adaptive-step Verlet descent):")
    print(f"{'seed':>5} {'steps':>6} {'final E_train':>14}")
    for seed in range(5):
        w0 = init_standard(arch, np.random.default_rng(seed))
        res = rmin(w0, value_grad, cfg=RMinConfig(n_steps=3000))
        print(f"{seed:>5} {res.n_steps:>6} {res.energy:>14.3e}")

    # --- the ensemble view -------------------------------------------------
    print(f"\ncollecting {args.restarts} zero-training-energy solutions...")
    base = baseline_optimize(arch, train, test, seed=1,
                             n_solutions=args.restarts)
    per_ex = base.test_energies / len(test)
    uninformed = UNINFORMED_PER_EXAMPLE
    print(f"  restarts used:           {base.n_restarts}")
    print(f"  test energy per example: {per_ex.mean():.3f} "
          f"± {per_ex.std(ddof=1):.3f} nats")
    print(f"  uninformed reference:    {uninformed:.3f} nats (= ln 10)")
    if per_ex.mean() > uninformed:
        print("\nevery solution fits the training set perfectly, yet the "
              "average test loss is WORSE than guessing 0.1 for every class:")
        print("classic overfitting — the motivation for sampling tempered "
              "posteriors instead of optimising.")
    else:
        frac = math.exp(-per_ex.mean())
        print(f"\nmean test likelihood per example ≈ {frac:.3f}; "
              "better than guessing, but the spread across restarts shows "
              "how arbitrary a single optimum is.")


if __name__ == "__main__":
    main()
