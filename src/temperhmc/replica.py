"""Replica-exchange HMC over a geometric temperature ladder.

Each sweep runs every replica for a fixed number of HMC trajectories at
its own temperature, then makes N_T random adjacent-pair swap attempts.
A swap exchanges the parameter vectors, cached energies, gradients and
held-out energies, and replica identity labels; the step size and RNG
stream stay with the temperature slot.  Per-replica seed streams plus a
dedicated swap stream make a run bit-reproducible.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InsufficientSamples
from .files import replacing
# unused tune_step_size: an import site bench/test_bench.py's tracing test reads
from .hmc import HmcConfig, adapt_step_size, run_chain, tune_step_size  # noqa: F401
from .minimize import RMinConfig, rmin
from .network import PriorBox, init_standard


def make_ladder(t_min: float, t_max: float, n_temps: int) -> np.ndarray:
    """Geometric temperature grid: T_i = T_min * (T_max/T_min)**(i/(N-1))."""
    if not (0 < t_min < t_max) or n_temps < 2:
        raise ConfigError(f"bad ladder range ({t_min}, {t_max}, {n_temps})")
    return t_min * (t_max / t_min) ** (np.arange(n_temps) / (n_temps - 1))


@dataclass
class Replica:
    index: int                  # ladder slot
    temperature: float
    w: np.ndarray
    energy: float
    dt: float
    rng: np.random.Generator
    identity: int = None        # which initial chain currently occupies the slot
    grad: np.ndarray = None     # gradient at w; run_remd fills it when absent
    e_test: float = None        # held-out energy at w; run_remd fills it

    def __post_init__(self):
        if self.identity is None:
            self.identity = self.index


def swap_log_prob(t_lo, t_hi, e_lo, e_hi) -> float:
    """Log acceptance of exchanging states between adjacent temperatures."""
    return (1.0 / t_lo - 1.0 / t_hi) * (e_lo - e_hi)


def attempt_swap(r_lo: Replica, r_hi: Replica, rng) -> bool:
    """Metropolis swap of two adjacent replicas' states, in place."""
    log_a = swap_log_prob(r_lo.temperature, r_hi.temperature,
                          r_lo.energy, r_hi.energy)
    if np.log(rng.uniform()) < log_a:
        r_lo.w, r_hi.w = r_hi.w, r_lo.w
        r_lo.energy, r_hi.energy = r_hi.energy, r_lo.energy
        r_lo.grad, r_hi.grad = r_hi.grad, r_lo.grad
        r_lo.e_test, r_hi.e_test = r_hi.e_test, r_lo.e_test
        r_lo.identity, r_hi.identity = r_hi.identity, r_lo.identity
        return True
    return False


@dataclass
class RemdConfig:
    """Settings of a replica-exchange run.

    Each rung's burn-in in init_replica adapts its dt by dual averaging,
    starting from dt0; the averaged dt then stays fixed for the whole
    production run.  With burn_in_traj = 0 a rung samples at dt0.
    """

    n_traj: int = 10            # HMC trajectories per replica per sweep
    n_leapfrog: int = 100       # Verlet steps per trajectory
    sweeps: int = 500
    burn_in_traj: int = 100     # per-replica burn-in during initialisation
    dt0: float = 0.1
    checkpoint_every: int = 0   # 0 disables checkpoints


def init_replica(index, temperature, value_grad, box, seed,
                 arch=None, w0=None, cfg: RemdConfig = None) -> Replica:
    """Standard init -> fast minimisation -> burn-in at T that adapts dt.

    Either an architecture (for standard initialisation) or an explicit
    starting vector must be given.
    """
    cfg = cfg or RemdConfig()
    if isinstance(seed, np.random.SeedSequence):
        rng = np.random.default_rng(seed)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    if w0 is None:
        if arch is None:
            raise ConfigError("init_replica needs arch or w0")
        w0 = init_standard(arch, rng)
        w0 = rmin(w0, value_grad, cfg=RMinConfig()).w
    w = np.array(w0, dtype=float)
    if box is not None:
        # the minimiser ignores the prior box, and a start outside it
        # rejects every proposal and drives the adapted dt down.  Move the
        # coordinates on or outside a wall (|w| >= sigma/2) well into the
        # interior; burn-in re-equilibrates.  A coordinate just inside a wall
        # stays; criterion 12 rests on this rule (see its note in CHANGES.md).
        outside = np.abs(w) >= 0.5 * box.sigma
        w[outside] = np.sign(w[outside]) * 0.3 * box.sigma[outside]

    w, (e, g), dt = adapt_step_size(
        w, value_grad(w), value_grad,
        HmcConfig(temperature, cfg.dt0, cfg.n_leapfrog), rng, box,
        cfg.burn_in_traj)
    return Replica(index, temperature, w, e, dt, rng, grad=g)


@dataclass
class RunTrace:
    """Per-sweep observables for every temperature slot."""

    temperatures: np.ndarray
    e_train: list = field(default_factory=list)       # each: (N_T,) array
    e_test: list = field(default_factory=list)
    accept_rate: list = field(default_factory=list)
    identities: list = field(default_factory=list)
    swap_attempts: list = field(default_factory=list)  # each: (N_T - 1,) counts
    swap_accepts: list = field(default_factory=list)

    @property
    def n_sweeps(self):
        return len(self.e_train)

    def append_sweep(self, e_train, e_test, accept, identities,
                     attempts, accepts):
        self.e_train.append(np.asarray(e_train, dtype=float))
        self.e_test.append(np.asarray(e_test, dtype=float))
        self.accept_rate.append(np.asarray(accept, dtype=float))
        self.identities.append(np.asarray(identities, dtype=int))
        self.swap_attempts.append(np.asarray(attempts, dtype=int))
        self.swap_accepts.append(np.asarray(accepts, dtype=int))

    def write_csv(self, path):
        """Long-format per-sweep trace: one row per (sweep, temperature)."""
        with replacing(path) as tmp, open(tmp, "w") as fh:
            fh.write("sweep,slot,temperature,e_train,e_test,accept_rate,identity\n")
            for s in range(self.n_sweeps):
                for i, T in enumerate(self.temperatures):
                    fh.write(f"{s},{i},{T:.10g},{self.e_train[s][i]:.10g},"
                             f"{self.e_test[s][i]:.10g},{self.accept_rate[s][i]:.4f},"
                             f"{self.identities[s][i]}\n")

    @classmethod
    def read_csv(cls, path):
        """The trace written by write_csv; it holds no swap counts."""
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        n_temps = len({row["slot"] for row in rows})

        def column(name, kind=float):
            return np.array([kind(row[name]) for row in rows]).reshape(-1, n_temps)

        trace = cls(column("temperature")[0])
        trace.e_train = list(column("e_train"))
        trace.e_test = list(column("e_test"))
        trace.accept_rate = list(column("accept_rate"))
        trace.identities = list(column("identity", int))
        return trace


def run_remd(replicas, value_grad, box, cfg: RemdConfig, swap_seed,
             test_energy_fn=None, checkpoint_path=None,
             trace: RunTrace = None) -> RunTrace:
    """Drive a replica-exchange simulation for cfg.sweeps sweeps.

    Every rung samples with the dt it carries in, from init_replica or a
    checkpoint: the kernel is never adapted during the run, since adapting
    dt from the chain's own past would break the invariance of the target.
    test_energy_fn(w) supplies the held-out observable recorded per sweep
    (NaN when absent).  A rung evaluates it only after a sweep in which it
    accepted a trajectory, or when it holds no value yet; a rejected
    trajectory leaves w, and so the value, unchanged.  Passing an existing
    trace resumes recording.  A replica without a carried gradient (built
    by hand, or loaded from a checkpoint, which stores none) gets it from
    one value_grad call here.
    """
    replicas = list(replicas)
    for r in replicas:
        if r.grad is None:
            r.grad = value_grad(r.w)[1]
    n_temps = len(replicas)
    temps = np.array([r.temperature for r in replicas])
    swap_rng = np.random.default_rng(swap_seed)
    trace = trace or RunTrace(temps)

    start_sweep = trace.n_sweeps
    for sweep in range(start_sweep, start_sweep + cfg.sweeps):
        accept = np.zeros(n_temps)
        for i, r in enumerate(replicas):
            hmc_cfg = HmcConfig(r.temperature, r.dt, cfg.n_leapfrog)
            r.w, (r.energy, r.grad), n_acc = run_chain(
                r.w, (r.energy, r.grad), value_grad, hmc_cfg, r.rng, box, cfg.n_traj)
            accept[i] = n_acc / cfg.n_traj
            if test_energy_fn and (n_acc or r.e_test is None):
                r.e_test = test_energy_fn(r.w)

        attempts = np.zeros(n_temps - 1, dtype=int) if n_temps > 1 else np.zeros(0, dtype=int)
        accepts = np.zeros_like(attempts)
        if n_temps > 1:
            for _ in range(n_temps):
                j = int(swap_rng.integers(n_temps - 1))
                attempts[j] += 1
                accepts[j] += attempt_swap(replicas[j], replicas[j + 1], swap_rng)

        e_test = [r.e_test if test_energy_fn else np.nan for r in replicas]
        trace.append_sweep([r.energy for r in replicas], e_test, accept,
                           [r.identity for r in replicas], attempts, accepts)

        if checkpoint_path and cfg.checkpoint_every and \
                (sweep + 1) % cfg.checkpoint_every == 0:
            save_checkpoint(checkpoint_path, replicas, sweep + 1)
    return trace


def save_checkpoint(path, replicas, sweep):
    """All replica states in one npz; RNG states as JSON strings, no pickle.

    Gradients and held-out energies are not stored: run_remd recomputes
    them on resume.  The file is written to a temporary name and renamed,
    so an interrupted write leaves an earlier checkpoint intact.
    """
    states = [json.dumps(r.rng.bit_generator.state) for r in replicas]
    # a handle: savez appends no .npz suffix
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        np.savez(fh,
                 sweep=sweep,
                 temperatures=[r.temperature for r in replicas],
                 w=np.stack([r.w for r in replicas]),
                 energy=[r.energy for r in replicas],
                 dt=[r.dt for r in replicas],
                 identity=[r.identity for r in replicas],
                 rng_states=np.array(states))


def load_checkpoint(path):
    """Rebuild the replica list saved by save_checkpoint; returns (replicas, sweep)."""
    with np.load(path) as data:
        replicas = []
        for i, T in enumerate(data["temperatures"]):
            rng = np.random.default_rng()
            rng.bit_generator.state = json.loads(str(data["rng_states"][i]))
            replicas.append(Replica(i, float(T), data["w"][i].copy(),
                                    float(data["energy"][i]), float(data["dt"][i]),
                                    rng, int(data["identity"][i])))
        return replicas, int(data["sweep"])


def blocked_mean_se(samples, n_blocks: int = 10):
    """Mean and autocorrelation-aware standard error via blocked means."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < 2:
        raise InsufficientSamples("need at least 2 samples")
    n_blocks = max(2, min(n_blocks, n))
    block = n // n_blocks
    trimmed = samples[: block * n_blocks].reshape(n_blocks, block)
    means = trimmed.mean(axis=1)
    se = means.std(ddof=1) / np.sqrt(n_blocks)
    return float(samples.mean()), float(se)


def measure_sweep(trace: RunTrace, burn_in_sweeps: int = 0):
    """Post-burn-in per-temperature means of train/test energy.

    Returns a dict of arrays keyed by temperature column:
    temperatures, e_train_mean/se, e_test_mean/se.
    """
    if trace.n_sweeps - burn_in_sweeps < 2:
        raise InsufficientSamples("trace shorter than burn-in cutoff")
    e_train = np.stack(trace.e_train[burn_in_sweeps:])
    e_test = np.stack(trace.e_test[burn_in_sweeps:])
    n_temps = len(trace.temperatures)
    out = {
        "temperatures": np.array(trace.temperatures),
        "e_train_mean": np.zeros(n_temps), "e_train_se": np.zeros(n_temps),
        "e_test_mean": np.zeros(n_temps), "e_test_se": np.zeros(n_temps),
    }
    for i in range(n_temps):
        out["e_train_mean"][i], out["e_train_se"][i] = blocked_mean_se(e_train[:, i])
        out["e_test_mean"][i], out["e_test_se"][i] = blocked_mean_se(e_test[:, i])
    return out
