"""Experiment orchestration: baselines, sweep reports, annealing stop rule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, InsufficientSamples
from .files import replacing
from .minimize import RMinConfig, rmin
from .network import NetworkArch, dataset_energy_fns, init_standard

UNINFORMED_PER_EXAMPLE = math.log(10.0)
N_SOLUTIONS = 100       # zero-energy minima a baseline collects by default
N_RESTARTS = 4000       # minimisations of a best-of baseline by default
ZERO_TOL = 1e-10        # training energy below which a minimum counts as zero


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
    n_solutions lowest-training-energy results.
    """
    _, value_grad = dataset_energy_fns(arch, train.inputs, train.labels)
    test_energy_fn, _ = dataset_energy_fns(arch, test.inputs, test.labels)
    rmin_cfg = rmin_cfg or RMinConfig()
    restart_cap = 40 * n_solutions if restart_cap is None else restart_cap
    seeds = np.random.SeedSequence(seed).spawn(
        restart_cap if mode == "zero-energy" else n_restarts)

    kept = []
    restarts = 0
    if mode == "zero-energy":
        while len(kept) < n_solutions:
            if restarts >= restart_cap:
                raise BudgetError(
                    f"{restarts} restarts produced only {len(kept)} zero-energy solutions"
                )
            w0 = init_standard(arch, np.random.default_rng(seeds[restarts]))
            restarts += 1
            res = rmin(w0, value_grad, cfg=rmin_cfg)
            if res.energy < ZERO_TOL:
                kept.append((res.energy, res.w))
    elif mode == "best-of":
        all_res = []
        for restarts in range(1, n_restarts + 1):
            w0 = init_standard(arch, np.random.default_rng(seeds[restarts - 1]))
            res = rmin(w0, value_grad, cfg=rmin_cfg)
            all_res.append((res.energy, res.w))
        all_res.sort(key=lambda t: t[0])
        kept = all_res[:n_solutions]
    else:
        raise ConfigError(f"unknown baseline mode {mode!r}")

    train_e = np.array([e for e, _ in kept])
    test_e = np.array([test_energy_fn(w) for _, w in kept])
    return BaselineResult(train_e, test_e, [w for _, w in kept], restarts, mode)


def sweep_table(summary: dict, n_train: int, baseline_test_mean: float = None):
    """Rows for the per-temperature report, plus reference levels.

    summary is the dict produced by replica.measure_sweep.  Returns
    (rows, references) where rows are (T, train mean/se, test mean/se)
    and references holds the uninformed-classifier level and baseline.
    """
    temps = summary["temperatures"]
    rows = list(zip(temps, summary["e_train_mean"], summary["e_train_se"],
                    summary["e_test_mean"], summary["e_test_se"]))
    best = int(np.argmin(summary["e_test_mean"]))
    references = {
        "uninformed_train_energy": n_train * UNINFORMED_PER_EXAMPLE,
        "baseline_test_mean": baseline_test_mean,
        "argmin_test_temperature": float(temps[best]),
    }
    return rows, references


def write_sweep_csv(path, rows, references):
    with replacing(path) as tmp, open(tmp, "w") as fh:
        fh.write("temperature,e_train_mean,e_train_se,e_test_mean,e_test_se\n")
        for row in rows:
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")
        fh.write(f"# uninformed_train_energy,{references['uninformed_train_energy']:.10g}\n")
        if references.get("baseline_test_mean") is not None:
            fh.write(f"# baseline_test_mean,{references['baseline_test_mean']:.10g}\n")
        fh.write(f"# argmin_test_temperature,{references['argmin_test_temperature']:.10g}\n")


@dataclass
class AnnealStopResult:
    temperature: float
    index: int                      # position in the cooling order
    value: float                    # (smoothed) validation energy at the stop
    monotone: bool = False          # validation energy never rose while cooling
    payload: object = None          # stored parameters for the chosen T, if any


def anneal_stop(temperatures, val_energies, payloads=None,
                smoothing_window: int = 1) -> AnnealStopResult:
    """Simulated-annealing stopping rule on a cooling sequence.

    Scans from the hottest temperature downward and returns the temperature
    whose (optionally smoothed) validation energy is smallest; a strictly
    improving sequence returns the coldest state flagged monotone.
    """
    temps = np.asarray(temperatures, dtype=float)
    vals = np.asarray(val_energies, dtype=float)
    if len(temps) != len(vals) or len(temps) < 1:
        raise InsufficientSamples("need matching, non-empty cooling arrays")
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
    return AnnealStopResult(float(temps[src]), src, float(cooled[best]),
                            monotone,
                            None if payloads is None else payloads[src])
