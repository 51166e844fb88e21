#!/usr/bin/env python3
"""Microseconds per call of the three network kernels the samplers use.

For M1 on 50 and 500 rows and M3 and M3star on 500 rows, times the
float64 value+gradient (value_grad), the float32 gradient of the inner
Verlet steps (value_grad.kick) and the float64 energy alone (energy_fn)
of one dataset_energy_fns closure, at two points: a standard
initialisation and a uniform draw from the prior box.  It also prints the
kick's relative error against the float64 gradient there.  The inputs are
standard normal features with uniform labels, the shape of a standardised
D_n.  One BLAS thread, as the benchmark runs; each figure is the median
of --calls timed calls after five warm-up calls, the kernels taking
turns in a shuffled order.

With --against SRC, a second source tree (the src directory of another
checkout, which holds its temperhmc package) is loaded under a module name
of its own, and both trees' kernels take turns on the same inputs and
points.  Each kernel's column then gives this tree's microseconds and its
ratio to the other tree's, and the last three columns the largest |Δ|
between the trees' outputs: value and gradient, kick, energy.

Usage:
    python demos/kernel_timing.py [--calls 200] [--seed 0] [--against SRC]
"""

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time
from functools import partial
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before numpy is first imported

import numpy as np  # noqa: E402

import temperhmc.network as network  # noqa: E402

SHAPES = [("M1", 50), ("M1", 500), ("M3", 500), ("M3star", 500)]


def load_network(src, name="temperhmc_against"):
    """The network module of the temperhmc package under src, as package name."""
    package = Path(src).resolve() / "temperhmc"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.network")


def per_call_us(fns, calls):
    """Median microseconds per call of each of the argument-free fns.

    The calls go in rounds, each kernel once a round, so that a slow spell
    of a shared machine falls on every kernel alike, and in a new random
    order each round, so that no kernel keeps a place: one that always ran
    next to another, or first, would read warmer or colder caches.
    """
    for fn in fns:
        for _ in range(5):
            fn()
    order = np.random.default_rng(0)
    times = [[] for _ in fns]
    for _ in range(calls):
        for k in order.permutation(len(fns)):
            t0 = time.perf_counter()
            fns[k]()
            times[k].append(time.perf_counter() - t0)
    return [1e6 * statistics.median(spent) for spent in times]


def kernels(module, model, x, y):
    """(value_grad, kick, energy_fn) of module's closures over (x, y)."""
    energy_fn, value_grad = module.dataset_energy_fns(module.get_arch(model), x, y)
    return value_grad, value_grad.kick, energy_fn


def largest_deltas(ours, theirs, w):
    """Largest |Δ| of each kernel's output at w between two trees."""
    (e, g), (e_other, g_other) = ours[0](w), theirs[0](w)
    return [max(abs(e - e_other), float(np.max(np.abs(g - g_other)))),
            float(np.max(np.abs(ours[1](w) - theirs[1](w)))),
            abs(ours[2](w) - theirs[2](w))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--against", metavar="SRC")
    args = parser.parse_args(argv)
    other = load_network(args.against) if args.against else None

    rng = np.random.default_rng(args.seed)
    head = f"{'shape':11} {'w':6} {'value_grad':>10} {'kick':>8} {'energy':>8}"
    if other is None:
        print(f"{head} {'kick rel err':>13}")
    else:
        print(f"{head.replace('value_grad', 'value_grad ratio')}"
              f"{'':15}{'|Δ| value_grad':>14} {'kick':>8} {'energy':>8}")
    for model, rows in SHAPES:
        arch = network.get_arch(model)
        x = rng.normal(size=(rows, arch.layer_sizes[0]))
        y = rng.integers(0, arch.layer_sizes[-1], rows)
        ours = kernels(network, model, x, y)
        half = network.prior_box(arch).half_width
        points = [("init", network.init_standard(arch, rng)),
                  ("prior", rng.uniform(-half, half))]
        for name, w in points:
            label = f"{model}·D{rows}"
            if other is None:
                g = ours[0](w)[1]
                err = np.linalg.norm(ours[1](w) - g) / np.linalg.norm(g)
                us = per_call_us([partial(fn, w) for fn in ours], args.calls)
                print(f"{label:11} {name:6} {us[0]:10.0f} {us[1]:8.0f} {us[2]:8.0f} "
                      f"{err:13.1e}")
                continue
            # the other tree reads inputs and a point of its own, so that
            # neither tree warms the cache for the other
            theirs = kernels(other, model, x.copy(), y.copy())
            deltas = largest_deltas(ours, theirs, w)
            us = per_call_us([partial(fn, v) for pair in zip(ours, theirs)
                              for fn, v in zip(pair, (w, w.copy()))], args.calls)
            cells = " ".join(f"{us[k]:5.0f} {us[k] / us[k + 1]:5.3f}×"
                             for k in range(0, 6, 2))
            print(f"{label:11} {name:6} {cells}  "
                  + " ".join(f"{d:8.1e}" for d in deltas))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
