"""Model evidence by thermodynamic integration around a single minimum.

The workflow: sample the unbounded likelihood around a minimum w0 to fit a
diagonal stiffness k (inverse marginal variances), take the truncated
Gaussian with that stiffness as an analytically tractable reference, then
integrate the mean lambda-derivative of a bridging energy across a uniform
lambda grid to correct the reference free energy towards the true one.
The log evidence follows by subtracting the log prior volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DatasetMismatch, DegenerateDirection, GridMismatch,
                     NonFiniteEnergy)
from .hmc import HmcConfig, adapt_step_size, run_chain
from .network import PriorBox
from .replica import blocked_mean_se

VARIANCE_FLOOR = 1e-12
# Fixed-dt chains draw each trajectory's dt within +-10%: near w0 the target is
# close to harmonic, and L steps of one dt can make whole periods of a mode.
DT_JITTER = 0.1


@dataclass
class StiffnessDiag:
    """Diagonal quadratic fit around w0: J ~ J0 + sum k_ii (w_i - w0_i)^2 / 2."""

    w0: np.ndarray
    k: np.ndarray
    j0: float
    frac_outside_box: float = 0.0   # diagnostic from the fitting run
    degenerate: np.ndarray = None   # indices where the variance floor engaged

    def __post_init__(self):
        self.w0 = np.asarray(self.w0, dtype=float)
        self.k = np.asarray(self.k, dtype=float)
        if self.degenerate is None:
            self.degenerate = np.zeros(0, dtype=int)


@dataclass
class TiConfig:
    n_bridge: int = 100             # interior bridging distributions; grid has n+2 points
    burn_in_traj: int = 100         # per-lambda burn-in trajectories
    sample_traj: int = 100          # per-lambda sampling trajectories
    n_leapfrog: int = 100
    retune_every_lambdas: int = 10  # every k-th window's burn-in adapts dt
    fit_burn_in_traj: int = 1000    # stiffness fit; adapts dt from dt0 (0: samples at dt0)
    fit_sample_traj: int = 1000
    dt0: float = 0.1


@dataclass
class TIResult:
    free_energy: float              # F = -log integral_box e^{-J}
    f0: float
    integral: float
    lambdas: np.ndarray
    integrand_mean: np.ndarray
    integrand_se: np.ndarray
    log_evidence: float = None      # -F - log prior volume; set by evidence()
    # what each window's sampling did, one entry per lambda
    dt: np.ndarray = None           # its step size (before the jitter)
    accept_rate: np.ndarray = None
    grad_calls: np.ndarray = None   # calls of the window's bridge potential
    kick_calls: np.ndarray = None   # of grad_calls, those to its kick


def fit_stiffness(value_grad, w0, cfg: TiConfig, rng,
                  box: PriorBox | None = None) -> StiffnessDiag:
    """Fit k_ii = 1 / <(w_i - w0_i)^2> by unbounded sampling at T = 1.

    No prior-box rejection is applied here, so the quadratic fit tracks the
    likelihood itself.  When a box is supplied it is only used for the
    diagnostic frac_outside_box: the fraction of the sampled states that
    PriorBox.inside puts outside the box.
    """
    w0 = np.asarray(w0, dtype=float)
    current = value_grad(w0)
    j0 = current[0]
    w, current, dt = adapt_step_size(w0, current, value_grad,
                                     HmcConfig(1.0, cfg.dt0, cfg.n_leapfrog),
                                     rng, None, cfg.fit_burn_in_traj)
    hmc_cfg = HmcConfig(1.0, dt, cfg.n_leapfrog)

    # accumulated in place; the samples (fit_sample_traj x n_params) are not kept
    sq_sum = np.zeros_like(w0)
    n_outside = 0

    def observe(out):
        nonlocal sq_sum, n_outside
        d = out.w - w0
        sq_sum += d * d
        if box is not None and not box.inside(out.w).all():
            n_outside += 1

    run_chain(w, current, value_grad, hmc_cfg, rng, None, cfg.fit_sample_traj,
              observe, DT_JITTER)
    mean_sq = sq_sum / cfg.fit_sample_traj
    if not np.all(np.isfinite(mean_sq)):
        raise DegenerateDirection("non-finite sampled variance")
    degenerate = np.flatnonzero(mean_sq < VARIANCE_FLOOR)
    mean_sq = np.maximum(mean_sq, VARIANCE_FLOOR)
    return StiffnessDiag(w0, 1.0 / mean_sq, j0,
                         n_outside / cfg.fit_sample_traj, degenerate)


def bridge_energy_fns(value_grad, stiff: StiffnessDiag, lam: float):
    """The interpolated potential at one lambda, as a value_grad closure.

    value = (1-lam) (J(w) - J(w0)) + lam * sum k (w - w0)^2 / 2 + J(w0),
    with value and gradient from one call of the underlying value_grad (none
    at lam = 1).  The bridged gradient is formed in place in the new
    gradient that value_grad returns.  When value_grad has a kick and
    lam < 1, the closure has one too: the same mixture with value_grad.kick
    in place of the gradient.
    """
    if not 0.0 <= lam <= 1.0:
        raise GridMismatch(f"lambda {lam} outside [0, 1]")
    w0, k, j0 = stiff.w0, stiff.k, stiff.j0

    def mixed(g, kd):
        g *= 1.0 - lam
        kd *= lam
        g += kd
        return g

    def bridge(w):
        d = w - w0
        kd = k * d
        quad = 0.5 * float(np.dot(kd, d))
        if lam == 1.0:
            return quad + j0, kd
        e, g = value_grad(w)
        return (1.0 - lam) * (e - j0) + lam * quad + j0, mixed(g, kd)

    kick = getattr(value_grad, "kick", None)
    if kick is not None and lam < 1.0:
        bridge.kick = lambda w: mixed(kick(w), k * (w - w0))
    return bridge


def ti_observable(energy_fn, stiff: StiffnessDiag, w) -> float:
    """The lambda-derivative of the bridge energy at a sampled state."""
    d = w - stiff.w0
    return 0.5 * float(np.dot(stiff.k * d, d)) - (energy_fn(w) - stiff.j0)


def simpson_uniform(lambdas, means) -> float:
    """Composite Simpson on a uniform grid, any number of intervals >= 2.

    An odd interval count is handled by Simpson's 3/8 rule on the final
    three intervals, keeping fourth-order accuracy throughout.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    means = np.asarray(means, dtype=float)
    if lambdas.shape != means.shape or lambdas.ndim != 1:
        raise GridMismatch("grid and values must be matching 1-D arrays")
    n = len(lambdas) - 1
    if n < 2:
        raise GridMismatch("need at least 2 intervals")
    h = (lambdas[-1] - lambdas[0]) / n
    if not np.allclose(np.diff(lambdas), h, rtol=1e-10, atol=1e-14):
        raise GridMismatch("grid is not uniform")
    m = n if n % 2 == 0 else n - 3      # Simpson over [0, m], 3/8 rule after it
    core = tail = 0.0
    if m:
        y = means[: m + 1]
        core = h / 3 * (y[0] + y[-1] + 4 * np.sum(y[1:-1:2]) + 2 * np.sum(y[2:-2:2]))
    if m < n:
        y = means[m:]
        tail = 3 * h / 8 * (y[0] + 3 * y[1] + 3 * y[2] + y[3])
    return float(core + tail)


_erfc = np.frompyfunc(math.erfc, 1, 1)
_SQRT1_2 = math.sqrt(0.5)


def _log_ndtr(x: np.ndarray) -> np.ndarray:
    """log Phi(x), the standard normal log CDF, elementwise.

    x > 0: log1p(-erfc(x/sqrt2)/2), which keeps the digits of Phi near 1;
    -20 <= x <= 0: log(erfc(-x/sqrt2)/2);
    x < -20 (and -inf, nan): the asymptotic series of Abramowitz & Stegun
    7.1.23, -x^2/2 - log(-x) - log(2 pi)/2 + log(1 - 1/x^2 + 3/x^4 - ...),
    to seven terms; the first omitted term is below 1e-13 at x = -20.
    """
    out = np.empty_like(x)
    upper = x > 0
    mid = (x <= 0) & (x >= -20)
    tail = ~(upper | mid)
    out[upper] = np.log1p(-0.5 * _erfc(x[upper] * _SQRT1_2).astype(float))
    out[mid] = np.log(0.5 * _erfc(x[mid] * -_SQRT1_2).astype(float))
    xt = x[tail]
    s = 1.0 / (xt * xt)
    series = 1 - s * (1 - 3 * s * (1 - 5 * s * (1 - 7 * s * (1 - 9 * s * (1 - 11 * s)))))
    out[tail] = -0.5 * xt * xt - np.log(-xt) - 0.5 * math.log(2 * math.pi) + np.log(series)
    return out


def log_z0(stiff: StiffnessDiag, box: PriorBox) -> float:
    """Log normalisation of the reference Gaussian truncated to the prior box.

    Per coordinate: 0.5 log(2 pi / k) + log(Phi(b) - Phi(a)) with
    a, b the box edges in standard-deviation units around w0, evaluated in
    log space so extreme tails stay finite.  log Phi is `_log_ndtr`: erfc
    from x = -20 up, the Abramowitz & Stegun 7.1.23 series below; it agrees
    with scipy.special.log_ndtr to 1e-13 relative (tests/test_ti.py).
    """
    root_k = np.sqrt(stiff.k)
    a = (-box.half_width - stiff.w0) * root_k
    b = (box.half_width - stiff.w0) * root_k
    # Work on the side with more mass: Phi(b) - Phi(a) = Phi(-a) - Phi(-b).
    flip = a + b > 0
    a_eff = np.where(flip, -b, a)
    b_eff = np.where(flip, -a, b)
    log_phi_b = _log_ndtr(b_eff)
    log_phi_a = _log_ndtr(a_eff)
    with np.errstate(divide="ignore"):
        log_mass = log_phi_b + np.log1p(-np.exp(log_phi_a - log_phi_b))
    if not np.all(np.isfinite(log_mass)):
        raise NonFiniteEnergy("reference Gaussian has vanishing mass inside the box")
    return float(np.sum(0.5 * np.log(2.0 * np.pi / stiff.k) + log_mass))


def run_ti(energy_fn, value_grad, stiff: StiffnessDiag, box: PriorBox,
           cfg: TiConfig, rng) -> TIResult:
    """Full thermodynamic integration pass.

    value_grad drives the chains; energy_fn, the value alone, feeds the
    per-sample observable, evaluated on each window's first sample and
    after each accepted trajectory; a rejected one repeats the last value.

    Lambda runs over a uniform inclusive [0, 1] grid with n_bridge interior
    points; chains warm-start sequentially from the previous lambda, with
    prior-box rejection active throughout.  The burn-in of every
    retune_every_lambdas-th window adapts dt, starting from the dt in use;
    the others run at it.  F = F0 - integral of the mean observable.  The
    result records each window's sampling dt, acceptance rate and calls.
    """
    lambdas = np.linspace(0.0, 1.0, cfg.n_bridge + 2)
    w = stiff.w0.copy()
    dt = cfg.dt0
    means = np.zeros_like(lambdas)
    ses = np.zeros_like(lambdas)
    dts = np.zeros_like(lambdas)
    accept_rate = np.zeros_like(lambdas)
    grad_calls = np.zeros(len(lambdas), dtype=int)
    kick_calls = np.zeros(len(lambdas), dtype=int)
    for idx, lam in enumerate(lambdas):
        bridge = bridge_energy_fns(value_grad, stiff, lam)
        n_adapt = cfg.burn_in_traj if idx % cfg.retune_every_lambdas == 0 else 0
        w, current, dt = adapt_step_size(w, bridge(w), bridge,
                                         HmcConfig(1.0, dt, cfg.n_leapfrog),
                                         rng, box, n_adapt)
        hmc_cfg = HmcConfig(1.0, dt, cfg.n_leapfrog)
        w, current, _ = run_chain(w, current, bridge, hmc_cfg, rng, box,
                                  cfg.burn_in_traj - n_adapt, None, DT_JITTER)
        samples = []

        def observe(out):
            grad_calls[idx] += out.n_calls
            kick_calls[idx] += out.n_kicks
            samples.append(ti_observable(energy_fn, stiff, out.w)
                           if out.accepted or not samples else samples[-1])

        w, _, n_acc = run_chain(w, current, bridge, hmc_cfg, rng, box,
                                cfg.sample_traj, observe, DT_JITTER)
        means[idx], ses[idx] = blocked_mean_se(samples)
        dts[idx], accept_rate[idx] = dt, n_acc / cfg.sample_traj

    # The bridge at lambda=1 is the reference quadratic shifted by J(w0), so
    # the total correction from F0 to F is J(w0) minus the quadrature of the
    # mean observable over [0, 1].  With a zero-energy minimum J(w0) drops out.
    correction = stiff.j0 - simpson_uniform(lambdas, means)
    f0 = -log_z0(stiff, box)
    return TIResult(f0 + correction, f0, correction, lambdas, means, ses,
                    dt=dts, accept_rate=accept_rate, grad_calls=grad_calls,
                    kick_calls=kick_calls)


def evidence(ti: TIResult, box: PriorBox) -> float:
    """Log evidence: box-restricted likelihood integral minus log prior volume."""
    ti.log_evidence = -ti.free_energy - box.log_volume
    return ti.log_evidence


def compare(log_evidence_1: float, log_evidence_2: float,
            log_model_prior_ratio: float = 0.0,
            dataset_1=None, dataset_2=None) -> float:
    """Log posterior odds of model 1 over model 2; the datasets must be equal."""
    if dataset_1 != dataset_2:
        raise DatasetMismatch(f"models evaluated on {dataset_1!r} vs {dataset_2!r}")
    return log_evidence_1 - log_evidence_2 + log_model_prior_ratio
