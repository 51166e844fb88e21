"""Single-temperature Hamiltonian Monte Carlo.

A trajectory draws unit-mass momenta p_i ~ N(0, T), propagates (w, p)
with velocity Verlet for L steps, and accepts with log-probability
(U_old - U_new) / T where U = E + sum(p^2) / 2.  Proposals leaving the
uniform prior box are rejected outright; non-finite energies or gradients
are treated as rejections so the chain stays valid.

The potential is one call, value_grad(w) -> (E, gradient).  The chain
state is (w, E, g): a trajectory starts from the carried pair and ends with
the pair at its last Verlet step, so L steps cost exactly L calls.
run_chain strings trajectories together; every sampling loop drives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FailedToTune
from .network import PriorBox, in_support


@dataclass
class HmcConfig:
    temperature: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.temperature <= 0 or self.dt <= 0 or self.n_steps < 1:
            raise ValueError("need T > 0, dt > 0, L >= 1")


@dataclass
class TrajectoryOutcome:
    accepted: bool
    w: np.ndarray
    energy: float          # potential energy of the returned state
    grad: np.ndarray       # its gradient
    log_accept: float      # (U_o - U_n) / T


def velocity_verlet(w, p, g, value_grad, dt, n_steps):
    """Kick-drift-kick integration of (w, p) for n_steps >= 1 steps.

    g is the gradient at the starting w.  Returns (w, p, e, g, ok) with the
    energy and gradient at the final w; ok is False when a gradient went
    non-finite, in which case the trajectory must be counted as rejected.
    """
    w = np.array(w, dtype=float)
    p = np.array(p, dtype=float)
    if not np.all(np.isfinite(g)):
        return w, p, np.nan, g, False
    for _ in range(n_steps):
        p -= 0.5 * dt * g
        w += dt * p
        e, g = value_grad(w)
        if not np.all(np.isfinite(g)):
            return w, p, e, g, False
        p -= 0.5 * dt * g
    return w, p, e, g, True


def hmc_trajectory(w, value_grad, cfg: HmcConfig, rng,
                   box: PriorBox | None = None,
                   current=None) -> TrajectoryOutcome:
    """One HMC proposal from w; returns the accepted or retained state.

    current is the (energy, gradient) pair at w carried from the previous
    trajectory; without it one extra value_grad call computes it.
    """
    e_old, g_old = value_grad(w) if current is None else current
    p0 = _momentum(w, cfg, rng)
    u_old = e_old + float(np.sum(p0 * p0 / 2.0))

    w_new, p_new, e_new, g_new, ok = velocity_verlet(w, p0, g_old, value_grad,
                                                     cfg.dt, cfg.n_steps)
    log_u = np.log(rng.uniform())
    if not ok or not np.isfinite(e_new):
        return TrajectoryOutcome(False, w, e_old, g_old, -np.inf)
    u_new = e_new + float(np.sum(p_new * p_new / 2.0))
    alpha = (u_old - u_new) / cfg.temperature

    inside = box is None or in_support(w_new, box)
    if inside and log_u < alpha:
        return TrajectoryOutcome(True, w_new, e_new, g_new, alpha)
    return TrajectoryOutcome(False, w, e_old, g_old, alpha)


def _momentum(w, cfg: HmcConfig, rng):
    """Unit-mass momenta p_i ~ N(0, T) for one trajectory from w."""
    return rng.normal(0.0, np.sqrt(cfg.temperature), size=w.shape)


def _skip_trajectory(w, cfg: HmcConfig, rng):
    """Draw what hmc_trajectory(w, ...) draws, and integrate nothing.

    Keep in step with hmc_trajectory: one momentum draw, then one uniform
    for the accept test, whatever the outcome.  A probe round that stops
    early calls this for each probe it skips, so the RNG stream is the same
    as when it runs every probe.
    """
    _momentum(w, cfg, rng)
    rng.uniform()


def run_chain(w, current, value_grad, cfg: HmcConfig, rng, box, n_traj,
              observe=None):
    """n_traj HMC trajectories from w and its carried (energy, gradient) pair.

    observe(w), when given, sees the state after each trajectory.  Returns
    (w, current, n_accepted) at the end of the chain.
    """
    n_accepted = 0
    for _ in range(n_traj):
        out = hmc_trajectory(w, value_grad, cfg, rng, box, current)
        w, current = out.w, (out.energy, out.grad)
        n_accepted += out.accepted
        if observe is not None:
            observe(w)
    return w, current, n_accepted


@dataclass(frozen=True)
class StepSizeController:
    """Settings of the multiplicative tuner that targets acceptance in band."""

    band: tuple[float, float] = (0.6, 0.7)
    probe_batch: int = 20
    grow: float = 1.1
    shrink: float = 0.9
    # rounds before giving up; consecutive stalls compound the shrink, so a
    # dt orders of magnitude below dt0 takes a dozen rounds, and the cap
    # bounds a walk that keeps stepping across the band
    max_rounds: int = 200


def measure_acceptance(w, value_grad, cfg: HmcConfig, rng, box,
                       n_probe: int, current=None, band=None) -> float:
    """Acceptance rate of n_probe probe trajectories started from a copy of w.

    current is the (energy, gradient) pair at w, computed when not given.
    Probe outcomes never feed back into the main chain.

    With band = (lo, hi), the round stops integrating once its verdict is
    settled: once rate > hi (grow) or rate < lo (shrink) holds for every
    accept count the remaining probes could give.  The skipped probes still
    draw their random numbers, so the RNG stream and the verdict are those
    of the full round.  A settled round reports the rate of the probes it
    ran, which lies on the same side of the band as the full round's.
    Without a band every probe runs.
    """
    w = np.array(w, dtype=float)
    current = value_grad(w) if current is None else current
    lo, hi = (-np.inf, np.inf) if band is None else band
    n_acc = 0
    for done in range(1, n_probe + 1):
        w, current, accepted = run_chain(w, current, value_grad, cfg, rng, box, 1)
        n_acc += accepted
        left = n_probe - done
        if n_acc / n_probe > hi or (n_acc + left) / n_probe < lo:
            for _ in range(left):
                _skip_trajectory(w, cfg, rng)
            break
    return n_acc / done


def tune_step_size(controller: StepSizeController, w, value_grad,
                   cfg: HmcConfig, rng, box: PriorBox | None = None,
                   current=None) -> float:
    """Adjust dt, starting from cfg.dt, until probe acceptance is in band.

    Every probe round starts from w with the same (energy, gradient) pair,
    current, computed once when not given.  A round stops integrating once
    its grow / shrink verdict is settled (see measure_acceptance); its dt
    and the RNG stream are those of a round that runs every probe.

    A round above the band multiplies dt by grow, one below it by shrink.
    A stall, a round whose rate is 0.0, is strong evidence that dt is far
    too large, so the shrink compounds over consecutive stalls: the j-th
    in a row multiplies dt by shrink ** 2 ** (j - 1), an exponential search
    down to a workable dt (Hoffman & Gelman 2014, Alg. 4).  A compounded
    step that would reach a smaller dt already measured above the band
    stops at the geometric mean of dt and the largest such one.  Returns
    the tuned dt; raises FailedToTune, with the last round's rate, when
    the round cap is hit outside the band or dt leaves the positive finite
    floats.
    """
    lo, hi = controller.band
    dt = cfg.dt
    rate = None
    stalls = 0
    above = []                  # every dt measured above the band
    current = value_grad(w) if current is None else current
    for _ in range(controller.max_rounds):
        rate = measure_acceptance(w, value_grad, replace(cfg, dt=dt), rng, box,
                                  controller.probe_batch, current, controller.band)
        stalls = stalls + 1 if rate == 0.0 else 0
        if rate > hi:
            above.append(dt)
            dt *= controller.grow
        elif rate < lo and stalls < 2:
            dt *= controller.shrink
        elif rate < lo:
            floor = max((d for d in above if d < dt), default=0.0)
            step = dt * controller.shrink ** 2 ** (stalls - 1)
            dt = step if step > floor else math.sqrt(dt * floor)
        else:
            return dt
        if not 0.0 < dt < math.inf:
            raise FailedToTune(dt, rate)
    raise FailedToTune(dt, rate)
