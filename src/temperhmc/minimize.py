"""Fast inertial energy minimiser.

Single velocity Verlet steps with an adaptive time step: after a downhill
step dt grows to max(dt + DT_INCREMENT, DT_GROWTH * dt); after an uphill
step, or one that reaches a non-finite energy or gradient, the step is
discarded, the momenta are zeroed and dt shrinks by DT_FACTOR.  Given a
prior box, a step whose drift puts a coordinate on or past a wall is
discarded the same way, before the potential sees that point, so a
minimisation started inside the box stays inside it.  DT_GROWTH and
DT_FACTOR are FIRE's f_inc = 1.1 and f_dec = 0.5 (Bitzek et al. 2006,
PRL 97:170201).  Related to FIRE, but without FIRE's velocity
re-projection: the momentum direction is never re-normalised, only reset.

The potential is one call, value_grad(w) -> (E, gradient), so a step
costs one forward and one backward pass.

Why 0.5: dt stops drifting when the accepted share a satisfies
a * DT_INCREMENT = (1 - a) * dt * (1 - DT_FACTOR).  At dt ~ 0.1 one
increment of 0.05 overshoots by 50% and one halving undoes it, so about
half the steps are accepted.  At DT_FACTOR = 0.95 it takes about 8
rejections, each costing a value_grad call and the momentum, to undo
one overshoot, and about 90% of the steps are rejected.

Why the growth factor: the increment is the larger of the two while
dt < DT_INCREMENT / (DT_GROWTH - 1) = 0.5, so every step at dt <= 0.5 is
as it was with the increment alone, and the balance above holds there.
Near a zero-energy minimum of a softmax classifier the energy and its
gradient shrink exponentially as the weights grow along the valley, so a
dt that grows by a fixed increment crawls: on four 500-row M3 inputs, 3
starts still stood at E = 4e-10 to 1e-9 after 2,000 steps.  Growing dt
geometrically keeps pace with the valley; all four reach ZERO_TOL in 217
to 339 steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteEnergy
from .hmc import velocity_verlet

DT_INCREMENT = 0.05
DT_GROWTH = 1.1         # downhill, once it beats DT_INCREMENT (dt > 0.5)
DT_FACTOR = 0.5         # uphill: one halving undoes one DT_INCREMENT overshoot
STALL_REL_TOL = 1e-12   # a smaller relative improvement counts towards a stall
ZERO_TOL = 1e-10        # an energy below this counts as a zero-energy minimum


@dataclass
class RMinConfig:
    n_steps: int = 2000
    dt0: float = 0.1
    energy_tol: float = ZERO_TOL    # stop once E drops below this
    stall_window: int = 100         # ... or improvement stalls for this many steps


@dataclass
class RMinResult:
    w: np.ndarray
    energy: float
    n_steps: int
    trace: list = field(default_factory=list)   # (step, best energy, dt)


def rmin(w0, value_grad, cfg: RMinConfig = None, *, box=None) -> RMinResult:
    """Minimise the energy of value_grad from w0; returns the best state seen.

    With a prior box, a step that would cross a wall counts as uphill and
    costs no value_grad call.  Deterministic: identical (w0, cfg,
    value_grad, box) give identical traces.
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
        w_new, p_new, e_new, g_new, ok = velocity_verlet(w, p, g, value_grad, dt, 1, box)
        if ok and np.isfinite(e_new) and e_new < e:
            w, p, e, g = w_new, p_new, e_new, g_new
            dt = max(dt + DT_INCREMENT, DT_GROWTH * dt)
        else:
            p = np.zeros_like(w)
            dt *= DT_FACTOR
        trace.append((step, e, dt))
        steps_done = step + 1
        if e < cfg.energy_tol:
            break
        if e < last_improve_e * (1.0 - STALL_REL_TOL):
            last_improve_e = e
            last_improve_step = step
        elif step - last_improve_step >= cfg.stall_window:
            break
    return RMinResult(w, e, steps_done, trace)
