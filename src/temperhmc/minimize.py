"""Fast inertial energy minimiser.

Single velocity Verlet steps with an adaptive time step: after a downhill
step dt grows by a fixed increment; after an uphill step the momenta are
zeroed, the state reverts to the saved best, and dt shrinks by dt_factor,
by default FIRE's f_dec = 0.5 (Bitzek et al. 2006, PRL 97:170201).  Related
to FIRE, but without FIRE's velocity re-projection: the momentum direction
is never re-normalised, only reset.

The potential is one call, value_grad(w) -> (E, gradient), so a step
costs one forward and one backward pass.

Why 0.5: dt stops drifting when the accepted share a satisfies
a * dt_increment = (1 - a) * dt * (1 - dt_factor).  At dt ~ 0.1 one
increment of 0.05 overshoots by 50% and one halving undoes it, so about
half the steps are accepted.  At dt_factor = 0.95 it takes about 8
rejections, each costing a value_grad call and the momentum, to undo
one overshoot, and about 90% of the steps are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteEnergy


@dataclass
class RMinConfig:
    n_steps: int = 2000
    dt0: float = 0.1
    dt_increment: float = 0.05
    dt_factor: float = 0.5          # uphill: one halving undoes one dt_increment overshoot
    energy_tol: float = 1e-10       # stop once E drops below this
    stall_rel_tol: float = 1e-12    # ... or improvement stalls for stall_window steps
    stall_window: int = 100


@dataclass
class RMinResult:
    w: np.ndarray
    energy: float
    n_steps: int
    trace: list = field(default_factory=list)   # (step, best energy, dt)


def rmin(w0, value_grad, cfg: RMinConfig = None) -> RMinResult:
    """Minimise the energy of value_grad from w0; returns the best state seen.

    Deterministic: identical (w0, cfg, value_grad) give identical traces.
    """
    cfg = cfg or RMinConfig()
    w = np.array(w0, dtype=float)
    p = np.zeros_like(w)
    e, g = value_grad(w)
    if not np.isfinite(e):
        raise NonFiniteEnergy(f"non-finite starting energy {e}")

    dt = cfg.dt0
    trace = []
    last_improve_e = e
    last_improve_step = 0
    steps_done = 0
    for step in range(cfg.n_steps):
        w_save, e_save, g_save = w, e, g
        # one Verlet step (mass 1)
        p_half = p - 0.5 * dt * g
        w = w + dt * p_half
        e_new, g_new = value_grad(w)
        if np.isfinite(e_new) and e_new < e_save:
            p = p_half - 0.5 * dt * g_new
            g = g_new
            e = e_new
            dt += cfg.dt_increment
        else:
            p = np.zeros_like(w)
            w, e, g = w_save, e_save, g_save
            dt *= cfg.dt_factor
        trace.append((step, e, dt))
        steps_done = step + 1
        if e < cfg.energy_tol:
            break
        if e < last_improve_e * (1.0 - cfg.stall_rel_tol):
            last_improve_e = e
            last_improve_step = step
        elif step - last_improve_step >= cfg.stall_window:
            break
    return RMinResult(w, e, steps_done, trace)
