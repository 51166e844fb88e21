#!/usr/bin/env python3
"""Model evidence by thermodynamic integration, end to end on a toy target.

The evidence of a model is the prior-weighted integral of the likelihood.
Direct quadrature is hopeless beyond a few dimensions, but the free energy
F = -log Z of a bridging family that morphs the true energy surface into a
tractable Gaussian can be integrated one temperature-like parameter at a
time.  This demo runs the full pipeline on a low-dimensional target where
dense quadrature is still possible, so every intermediate quantity can be
checked, then replays the published-numbers arithmetic used to compare two
classifier architectures.
"""

import math

import numpy as np

from temperhmc.network import PriorBox
from temperhmc.ti import TiConfig, compare, evidence, fit_stiffness, run_ti


def main():
    # probe trajectories with a too-large step size overflow harmlessly
    # before being rejected (an overflowed energy times a zero bridge weight
    # is NaN, equally harmless); keep the transcript clean
    np.seterr(over="ignore", invalid="ignore")

    # --- a 2D anharmonic target --------------------------------------------
    def energy_fn(w):
        return float(w[0] ** 4 + w[1] ** 4 + (w[0] * w[1]) ** 2)

    def value_grad(w):
        # the samplers take value and gradient from one call
        return energy_fn(w), np.array([4 * w[0] ** 3 + 2 * w[0] * w[1] ** 2,
                                       4 * w[1] ** 3 + 2 * w[0] ** 2 * w[1]])

    box = PriorBox(np.array([5.0, 5.0]))   # uniform prior: |w_i| < 2.5
    rng = np.random.default_rng(7)
    cfg = TiConfig(n_bridge=20, burn_in_traj=40, sample_traj=400,
                   n_leapfrog=15, retune_every_lambdas=5,
                   fit_burn_in_traj=300, fit_sample_traj=3000, dt0=0.3)

    print("step 1: sample the target to fit a diagonal Gaussian reference")
    stiff = fit_stiffness(value_grad, np.zeros(2), cfg, rng, box)
    print(f"  fitted stiffness k = {np.array2string(stiff.k, precision=3)}")

    print("step 2: integrate the bridge from the target to the reference")
    res = run_ti(energy_fn, value_grad, stiff, box, cfg, rng)
    print(f"  F0 (reference)  = {res.f0:+.4f}")
    print(f"  TI correction   = {res.integral:+.4f}")
    print(f"  F               = {res.free_energy:+.4f}")

    # dense quadrature is still affordable in 2D — the ground truth
    g = np.linspace(-2.5, 2.5, 1201)
    xx, yy = np.meshgrid(g, g)
    z = float(np.trapezoid(np.trapezoid(
        np.exp(-(xx**4 + yy**4 + (xx * yy) ** 2)), g, axis=1), g))
    print(f"  dense quadrature: F = {-math.log(z):+.4f} "
          f"(TI error {abs(res.free_energy + math.log(z)):.4f})")

    log_ev = evidence(res, box)
    print(f"  log evidence    = {log_ev:+.4f} "
          f"(log prior volume {box.log_volume:.4f})")

    # --- the same arithmetic at classifier scale ---------------------------
    print("\nstep 3: the published classifier comparison, same formula")
    print("  deep model:    log integral  26475, log prior volume 28960")
    print("  shallow model: log integral  19793, log prior volume 19946")
    log_odds = compare(26475.0 - 28960.0, 19793.0 - 19946.0)
    print(f"  log posterior odds (deep over shallow) = {log_odds:+.0f}")
    print("\nthe deep model has a far larger prior volume to pay for, and "
          "its likelihood integral does not make up the difference: the "
          f"shallow model is favoured by a factor e^{-log_odds:.0f}.")


if __name__ == "__main__":
    main()
