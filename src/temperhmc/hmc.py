"""Single-temperature Hamiltonian Monte Carlo.

A trajectory draws unit-mass momenta p_i ~ N(0, T), propagates (w, p)
with velocity Verlet for L steps, and accepts with log-probability
(U_old - U_new) / T where U = E + sum(p^2) / 2.  The uniform prior box
makes the potential +inf outside it, so a trajectory is rejected at its
first drift that leaves the box, before that point is evaluated (Neal
2011, Handbook of MCMC, ch. 5); the reverse trajectory visits the same
points, so the rule keeps detailed balance.  Non-finite energies or
gradients are treated as rejections so the chain stays valid.

The potential is one call, value_grad(w) -> (E, gradient).  The chain
state is (w, E, g): a trajectory starts from the carried pair and ends with
the pair at its last Verlet step; a trajectory stops at its first drift
outside the box.  A potential may carry a cheaper gradient alone,
value_grad.kick(w), such as the network's float32 one.  The L - 1 inner
Verlet steps then kick with it and the last step makes the one value_grad
call, so L steps cost L - 1 kicks and one value_grad call (kicks alone
when the trajectory stops at a wall), and the carried pair and the accept
test stay float64.  This is exact for any kick that is a fixed function
of w (Neal 2011; Zhang, Shahbaba & Zhao 2017, Stat. Comput. 27:1473):
every kick and drift is a shear, so the map preserves volume, and the
forces met along the path, value_grad's at w_0, the kick's at w_1 ..
w_{L-1}, value_grad's at w_L, read the same backwards, so the path run
back from (w_L, -p_L) meets the same forces at the same points and ends
at (w_0, -p_0).  A potential without a kick calls value_grad at every
step.
run_chain strings trajectories together; every sampling loop drives it,
and so does adapt_step_size, the burn-in that sets each sampler's fixed dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FailedToTune
from .network import PriorBox


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
    n_calls: int = 0       # potential calls the trajectory made, kicks included
    at_wall: bool = False  # stopped at a drift that left PriorBox.inside
    n_kicks: int = 0       # of n_calls, those to value_grad.kick


def velocity_verlet(w, p, g, value_grad, dt, n_steps, box=None):
    """Kick-drift-kick integration of (w, p) for n_steps >= 1 steps.

    g is the gradient at the starting w.  Returns (w, p, e, g, ok) with the
    energy and gradient at the final w; ok is False when a gradient went
    non-finite, in which case the trajectory must be counted as rejected.
    When value_grad has a kick attribute, kick(w) -> gradient, every step
    but the last takes its gradient from kick, and the last from
    value_grad; without one every step calls value_grad.  With a prior
    box, every drift is tested with PriorBox.inside before the potential
    sees the new w: at the first drift that leaves the box it returns ok
    False, that w, e nan and the last gradient, so a trajectory makes at
    most n_steps calls.  The kicks and drifts go through one
    scratch vector, in place.
    """
    w = np.array(w, dtype=float)
    p = np.array(p, dtype=float)
    if not np.all(np.isfinite(g)):
        return w, p, np.nan, g, False
    kick = getattr(value_grad, "kick", None)
    half, step, e = 0.5 * dt, np.empty_like(w), np.nan
    for left in range(n_steps - 1, -1, -1):     # steps after this one
        p -= np.multiply(half, g, out=step)
        w += np.multiply(dt, p, out=step)
        if box is not None and not box.inside(w).all():
            return w, p, np.nan, g, False
        if left and kick is not None:
            g = kick(w)
        else:
            e, g = value_grad(w)
        if not np.all(np.isfinite(g)):
            return w, p, e, g, False
        p -= np.multiply(half, g, out=step)
    return w, p, e, g, True


def _kinetic(p, scratch):
    """sum(p * p / 2.0) bit for bit, formed in scratch, a vector of p's shape."""
    np.multiply(p, p, out=scratch)
    scratch /= 2.0
    return float(np.add.reduce(scratch))


def hmc_trajectory(w, value_grad, cfg: HmcConfig, rng,
                   box: PriorBox | None = None,
                   current=None) -> TrajectoryOutcome:
    """One HMC proposal from w; returns the accepted or retained state.

    current is the (energy, gradient) pair at w carried from the previous
    trajectory; without it one extra value_grad call computes it.  A
    trajectory that leaves PriorBox.inside stops there (velocity_verlet), is
    rejected and has at_wall set; the uniform draw of the accept test is
    made all the same, so the random stream does not depend on where a
    trajectory stopped.
    The outcome counts every potential call in n_calls and the kicks among
    them in n_kicks.
    """
    calls = kicks = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return value_grad(x)

    kick = getattr(value_grad, "kick", None)
    if kick is not None:
        def counted_kick(x):
            nonlocal calls, kicks
            calls, kicks = calls + 1, kicks + 1
            return kick(x)
        counted.kick = counted_kick

    e_old, g_old = counted(w) if current is None else current
    # rng.normal(0.0, sqrt(T), w.shape) bit for bit: numpy forms 0.0 + scale * z
    p0 = rng.standard_normal(w.shape)
    p0 *= np.sqrt(cfg.temperature)
    p0 += 0.0
    scratch = np.empty_like(p0)
    u_old = e_old + _kinetic(p0, scratch)

    w_new, p_new, e_new, g_new, ok = velocity_verlet(w, p0, g_old, counted,
                                                     cfg.dt, cfg.n_steps, box)
    log_u = np.log(rng.uniform())
    if not ok or not np.isfinite(e_new):
        # a gradient failure stops inside the box, a wall stop outside it
        at_wall = box is not None and not box.inside(w_new).all()
        return TrajectoryOutcome(False, w, e_old, g_old, -np.inf, calls, at_wall,
                                 n_kicks=kicks)
    u_new = e_new + _kinetic(p_new, scratch)
    alpha = (u_old - u_new) / cfg.temperature
    if log_u < alpha:
        return TrajectoryOutcome(True, w_new, e_new, g_new, alpha, calls, n_kicks=kicks)
    return TrajectoryOutcome(False, w, e_old, g_old, alpha, calls, n_kicks=kicks)


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
