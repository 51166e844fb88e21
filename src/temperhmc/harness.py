"""Experiment orchestration: baselines, sweep reports, annealing stop rule."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import BudgetError, ConfigError, InsufficientSamples
from .files import replacing
from .minimize import ZERO_TOL, RMinConfig, rmin
from .network import NetworkArch, dataset_energy_fns, init_standard

UNINFORMED_PER_EXAMPLE = math.log(10.0)
N_SOLUTIONS = 100       # zero-energy minima a baseline collects by default
N_RESTARTS = 4000       # minimisations of a best-of baseline by default


@dataclass
class BaselineResult:
    train_energies: np.ndarray
    test_energies: np.ndarray
    solutions: list                  # parameter vectors, same order
    n_restarts: int
    mode: str

    @property
    def mean_test_energy(self):
        return float(self.test_energies.mean())


def baseline_optimize(arch: NetworkArch, train, test, seed: int,
                      n_solutions: int = N_SOLUTIONS, mode: str = "zero-energy",
                      restart_cap: int = None, n_restarts: int = N_RESTARTS,
                      rmin_cfg: RMinConfig = None) -> BaselineResult:
    """Repeated fast minimisation, the non-Bayesian reference point.

    mode "zero-energy": restart until n_solutions minima with training energy
    below ZERO_TOL (BudgetError past restart_cap, 40 * n_solutions when not
    given).  mode "best-of": run n_restarts minimisations and keep the
    n_solutions lowest-training-energy results, ties in restart order; only
    the vectors kept so far stay alive.
    """
    _, value_grad = dataset_energy_fns(arch, train.inputs, train.labels)
    test_energy_fn, _ = dataset_energy_fns(arch, test.inputs, test.labels)
    rmin_cfg = rmin_cfg or RMinConfig()
    restarts = 0

    def minima(budget):     # (energy, w) of each restart, in seed order
        nonlocal restarts
        for s in np.random.SeedSequence(seed).spawn(budget):
            restarts += 1
            w0 = init_standard(arch, np.random.default_rng(s))
            res = rmin(w0, value_grad, cfg=rmin_cfg)
            yield res.energy, res.w

    if mode == "zero-energy":
        cap = 40 * n_solutions if restart_cap is None else restart_cap
        kept = list(islice(((e, w) for e, w in minima(cap) if e < ZERO_TOL),
                           n_solutions))
        if len(kept) < n_solutions:
            raise BudgetError(f"{restarts} restarts produced only {len(kept)} "
                              "zero-energy solutions")
    elif mode == "best-of":
        kept = heapq.nsmallest(n_solutions, minima(n_restarts), key=lambda t: t[0])
    else:
        raise ConfigError(f"unknown baseline mode {mode!r}")

    train_e = np.array([e for e, _ in kept])
    test_e = np.array([test_energy_fn(w) for _, w in kept])
    return BaselineResult(train_e, test_e, [w for _, w in kept], restarts, mode)


def write_sweep_csv(path, summary: dict, n_train: int,
                    baseline_test_mean: float = None) -> float:
    """The per-temperature table of replica.measure_sweep's summary, then
    '#' reference lines; returns argmin_test_temperature, anneal_stop's
    pick on the test energies."""
    temps = summary["temperatures"]
    stop = anneal_stop(temps, summary["e_test_mean"]).temperature
    with replacing(path) as tmp, open(tmp, "w") as fh:
        fh.write("temperature,e_train_mean,e_train_se,e_test_mean,e_test_se\n")
        for row in zip(temps, summary["e_train_mean"], summary["e_train_se"],
                       summary["e_test_mean"], summary["e_test_se"]):
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")
        fh.write(f"# uninformed_train_energy,{n_train * UNINFORMED_PER_EXAMPLE:.10g}\n")
        if baseline_test_mean is not None:
            fh.write(f"# baseline_test_mean,{baseline_test_mean:.10g}\n")
        fh.write(f"# argmin_test_temperature,{stop:.10g}\n")
    return stop


@dataclass
class AnnealStopResult:
    temperature: float
    index: int                      # position in the input arrays
    value: float                    # (smoothed) validation energy at the stop
    monotone: bool = False          # validation energy never rose while cooling


def anneal_stop(temperatures, val_energies,
                smoothing_window: int = 1) -> AnnealStopResult:
    """Simulated-annealing stopping rule on a cooling sequence.

    Scans from the hottest temperature downward and returns the temperature
    whose validation energy, optionally a moving average over 1..len(temps)
    states (centred for an odd window), is lowest over the whole sequence;
    that is "cool until it rises" only for a curve with a single minimum.
    A sequence that never rises while cooling is flagged monotone.
    """
    temps = np.asarray(temperatures, dtype=float)
    vals = np.asarray(val_energies, dtype=float)
    if len(temps) != len(vals) or len(temps) < 1:
        raise InsufficientSamples("need matching, non-empty cooling arrays")
    if not 1 <= smoothing_window <= len(temps):
        raise ConfigError(f"smoothing window {smoothing_window} not in 1..{len(temps)}")
    order = np.argsort(temps)[::-1]          # hottest first
    cooled = vals[order]
    if smoothing_window > 1:
        kernel = np.ones(smoothing_window) / smoothing_window
        smoothed = np.convolve(cooled, kernel, mode="same")
        # convolve's shrinking edge windows need renormalising
        counts = np.convolve(np.ones_like(cooled), kernel, mode="same")
        cooled = smoothed / counts
    best = int(np.argmin(cooled))
    monotone = bool(np.all(np.diff(cooled) <= 0))
    src = int(order[best])
    return AnnealStopResult(float(temps[src]), src, float(cooled[best]), monotone)
