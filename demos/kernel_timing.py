#!/usr/bin/env python3
"""Microseconds per call of the three network kernels the samplers use.

For M1 on 50 and 500 rows and M3 on 500 rows, times the float64
value+gradient (value_grad), the float32 gradient of the inner Verlet
steps (value_grad.kick) and the float64 energy alone (energy_fn) of one
dataset_energy_fns closure, at two points: a standard initialisation and
a uniform draw from the prior box.  It also prints the kick's relative
error against the float64 gradient there.  The inputs are standard normal
features with uniform labels, the shape of a standardised D_n.  One BLAS
thread, as the benchmark runs; each figure is the median of --calls
timed calls after five warm-up calls, the three kernels taking turns.

Usage:
    python demos/kernel_timing.py [--calls 200] [--seed 0]
"""

import argparse
import os
import statistics
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before numpy is first imported

import numpy as np  # noqa: E402

from temperhmc.network import (dataset_energy_fns, get_arch,  # noqa: E402
                               init_standard, prior_box)

SHAPES = [("M1", 50), ("M1", 500), ("M3", 500)]


def per_call_us(fns, w, calls):
    """Median microseconds per call of each of fns at w.

    The calls go round-robin, so that a slow spell of a shared machine
    falls on every kernel alike.
    """
    for fn in fns:
        for _ in range(5):
            fn(w)
    times = [[] for _ in fns]
    for _ in range(calls):
        for fn, spent in zip(fns, times):
            t0 = time.perf_counter()
            fn(w)
            spent.append(time.perf_counter() - t0)
    return [1e6 * statistics.median(spent) for spent in times]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    print(f"{'shape':9} {'w':6} {'value_grad':>11} {'kick':>8} {'energy':>8} "
          f"{'kick rel err':>13}")
    for model, rows in SHAPES:
        arch = get_arch(model)
        x = rng.normal(size=(rows, arch.layer_sizes[0]))
        y = rng.integers(0, arch.layer_sizes[-1], rows)
        energy_fn, value_grad = dataset_energy_fns(arch, x, y)
        half = prior_box(arch).half_width
        points = [("init", init_standard(arch, rng)),
                  ("prior", rng.uniform(-half, half))]
        for name, w in points:
            g = value_grad(w)[1]
            err = np.linalg.norm(value_grad.kick(w) - g) / np.linalg.norm(g)
            us = per_call_us((value_grad, value_grad.kick, energy_fn), w, args.calls)
            print(f"{model}·D{rows:<4} {name:6} {us[0]:11.0f} {us[1]:8.0f} "
                  f"{us[2]:8.0f} {err:13.1e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
