"""Single-temperature Hamiltonian Monte Carlo.

A trajectory draws unit-mass momenta p_i ~ N(0, T), propagates (w, p)
with velocity Verlet for L steps, and accepts with log-probability
(U_old - U_new) / T where U = E + sum(p^2) / 2.  Proposals leaving the
uniform prior box are rejected outright; non-finite energies or gradients
are treated as rejections so the chain stays valid.

The potential is one call, value_grad(w) -> (E, gradient).  The chain
state is (w, E, g): a trajectory starts from the carried pair and ends with
the pair at its last Verlet step, so L steps cost exactly L calls.
run_chain strings trajectories together; every sampling loop drives it,
and so does adapt_step_size, the burn-in that sets each sampler's fixed dt.
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
    log_accept: float      # (U_o - U_n) / T; -inf for a proposal never accepted


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
    p0 = rng.normal(0.0, np.sqrt(cfg.temperature), size=w.shape)
    u_old = e_old + float(np.sum(p0 * p0 / 2.0))

    w_new, p_new, e_new, g_new, ok = velocity_verlet(w, p0, g_old, value_grad,
                                                     cfg.dt, cfg.n_steps)
    log_u = np.log(rng.uniform())
    outside = box is not None and not in_support(w_new, box)
    if not ok or not np.isfinite(e_new) or outside:
        return TrajectoryOutcome(False, w, e_old, g_old, -np.inf)
    u_new = e_new + float(np.sum(p_new * p_new / 2.0))
    alpha = (u_old - u_new) / cfg.temperature
    if log_u < alpha:
        return TrajectoryOutcome(True, w_new, e_new, g_new, alpha)
    return TrajectoryOutcome(False, w, e_old, g_old, alpha)


def run_chain(w, current, value_grad, cfg: HmcConfig, rng, box, n_traj,
              observe=None, jitter=0.0):
    """n_traj HMC trajectories from w and its carried (energy, gradient) pair.

    observe(outcome), when given, sees the TrajectoryOutcome of each
    trajectory.  With jitter > 0 each trajectory first draws its dt uniformly
    from cfg.dt * [1 - jitter, 1 + jitter], so that L fixed steps cannot
    resonate with a harmonic mode (Neal 2011, Handbook of MCMC, ch. 5).
    Returns (w, current, n_accepted) at the end of the chain.
    """
    n_accepted = 0
    for _ in range(n_traj):
        step = cfg if not jitter else replace(
            cfg, dt=cfg.dt * rng.uniform(1.0 - jitter, 1.0 + jitter))
        out = hmc_trajectory(w, value_grad, step, rng, box, current)
        w, current = out.w, (out.energy, out.grad)
        n_accepted += out.accepted
        if observe is not None:
            observe(out)
    return w, current, n_accepted


# Dual averaging of log dt (Hoffman & Gelman 2014, JMLR 15:1593, Alg. 5): the
# middle of StepSizeController's default band, then the paper's constants.
TARGET_ACCEPT, DA_GAMMA, DA_T0, DA_KAPPA = 0.65, 0.05, 10.0, 0.75


def adapt_step_size(w, current, value_grad, cfg: HmcConfig, rng, box, n_traj):
    """n_traj burn-in trajectories from w that adapt dt by dual averaging.

    The first trajectory runs at cfg.dt.  After the m-th, h, the running
    mean of TARGET_ACCEPT - min(1, e^alpha) (damped by DA_T0), sets the next
    trajectory's log dt = mu - sqrt(m) / DA_GAMMA * h, mu = log(10 cfg.dt),
    and weight m^-DA_KAPPA folds that log dt into the averaged iterate.
    Returns (w, current, dt) after the last trajectory, dt the averaged
    iterate capped at the larger of cfg.dt and the largest dt whose
    trajectory met the target (a short burn-in's average leans on the first
    iterates, near 10 cfg.dt), or cfg.dt when n_traj = 0.  Callers sample
    with dt fixed (Andrieu & Thoms 2008, Stat. Comput. 18:343).  Accepting
    nothing only drives dt down; a dt that leaves the positive finite
    floats raises FailedToTune.
    """
    mu = math.log(10.0 * cfg.dt)
    dt, h, log_dt_bar, cap = cfg.dt, 0.0, 0.0, cfg.dt
    accept = []         # each trajectory's acceptance probability
    for m in range(1, n_traj + 1):
        w, current, _ = run_chain(
            w, current, value_grad, replace(cfg, dt=dt), rng, box, 1,
            lambda out: accept.append(math.exp(min(out.log_accept, 0.0))))
        if accept[-1] >= TARGET_ACCEPT:
            cap = max(cap, dt)
        t = 1.0 / (m + DA_T0)
        h = (1.0 - t) * h + t * (TARGET_ACCEPT - accept[-1])
        log_dt = mu - math.sqrt(m) / DA_GAMMA * h
        eta = m ** -DA_KAPPA
        log_dt_bar = eta * log_dt + (1.0 - eta) * log_dt_bar
        dt = float(np.exp(log_dt))
        if not 0.0 < dt < math.inf:
            raise FailedToTune(dt, sum(accept) / m)
    # log_dt_bar averages log dts that all passed that check
    return w, current, min(math.exp(log_dt_bar), cap) if n_traj else cfg.dt


@dataclass(frozen=True)
class StepSizeController:
    """Settings of the multiplicative tuner that targets acceptance in band."""

    band: tuple[float, float] = (0.6, 0.7)
    probe_batch: int = 20
    grow: float = 1.1
    shrink: float = 0.9
    max_rounds: int = 200       # rounds before FailedToTune


def measure_acceptance(w, value_grad, cfg: HmcConfig, rng, box,
                       n_probe: int, current=None) -> float:
    """Acceptance rate of n_probe probe trajectories started from a copy of w.

    current is the (energy, gradient) pair at w, computed when not given.
    Probe outcomes never feed back into the main chain.
    """
    w = np.array(w, dtype=float)
    current = value_grad(w) if current is None else current
    return run_chain(w, current, value_grad, cfg, rng, box, n_probe)[2] / n_probe


def tune_step_size(controller: StepSizeController, w, value_grad,
                   cfg: HmcConfig, rng, box: PriorBox | None = None,
                   current=None) -> float:
    """Walk dt, starting from cfg.dt, until probe acceptance is in band.

    Every probe round starts from w with the same (energy, gradient) pair,
    current, computed once when not given.  A round above the band
    multiplies dt by grow, one below it by shrink.  Returns the tuned dt;
    raises FailedToTune, with the last round's rate, at the round cap.
    """
    lo, hi = controller.band
    dt, rate = cfg.dt, None
    current = value_grad(w) if current is None else current
    for _ in range(controller.max_rounds):
        rate = measure_acceptance(w, value_grad, replace(cfg, dt=dt), rng, box,
                                  controller.probe_batch, current)
        if lo <= rate <= hi:
            return dt
        dt *= controller.grow if rate > hi else controller.shrink
    raise FailedToTune(dt, rate)
