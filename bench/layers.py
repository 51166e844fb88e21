"""Per-layer metrics from one traced command.

Layers are temperhmc's modules.  Counts (calls, trajectories, probe
rounds, steps, swaps, round trips, computed FLOPs and bytes) do not depend
on the hardware and must repeat exactly for the same code and seed; the
times are medians, percentiles and totals of span durations.
"""

from __future__ import annotations

import numpy as np

from spans import self_times

LAYERS = ("network", "hmc", "minimize", "replica", "ti", "data", "cli", "harness")

CONVERGED_ENERGY = 1e-6   # criterion 11's target for one minimisation
BYTES = 8                 # float64

# Ancestor flags, inherited from parent to child span.
IN_TRAJ, IN_PROBE, IN_TUNE, IN_RMIN, IN_REMD = 1, 2, 4, 8, 16
_FLAG_OF = {"hmc_trajectory": IN_TRAJ, "measure_acceptance": IN_PROBE,
            "tune_step_size": IN_TUNE, "rmin": IN_RMIN, "run_remd": IN_REMD}


def network_cost(sizes, rows, head, gradient):
    """Computed (FLOPs, bytes) of one energy or energy_gradient call.

    Counts 2*m*n*k per matmul and one operation per element per elementwise
    step (bias add, 4 for a logistic, 5 per score for the log-softmax and
    the picked loss, 3 per hidden unit for the backward logistic).  Bytes
    count each operand read and each result written once, so they ignore
    caches: a computed lower bound, not a measurement.
    """
    flops = byts = 0
    n_layers = len(sizes) - 1
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        act = i < n_layers - 1 or head == "logistic-softmax"
        flops += 2 * rows * n_in * n_out + rows * n_out + (4 * rows * n_out if act else 0)
        byts += BYTES * (rows * n_in + n_in * n_out + n_out + rows * n_out)
        if gradient:
            flops += 2 * rows * n_in * n_out + rows * n_out        # weight, bias grads
            byts += BYTES * (rows * n_out + rows * n_in + n_in * n_out + n_out)
            if i > 0:
                flops += 2 * rows * n_in * n_out + 3 * rows * n_in  # backprop delta
                byts += BYTES * (rows * n_out + n_in * n_out + 2 * rows * n_in)
    flops += 5 * rows * sizes[-1]
    byts += BYTES * rows * sizes[-1]
    return flops, byts


def _pct(values, q, scale=1.0):
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def round_trips(identity_rows):
    """Replica round trips: bottom slot -> top slot -> bottom slot, per identity."""
    if not identity_rows:
        return 0
    top = len(identity_rows[0]) - 1
    heading_up = {}    # identity -> True after the bottom, False after the top
    trips = 0
    for row in identity_rows:
        for slot in (0, top):
            ident = row[slot]
            if slot == 0:
                trips += heading_up.get(ident) is False
                heading_up[ident] = True
            elif heading_up.get(ident):
                heading_up[ident] = False
    return trips


def analyse(spans, root):
    """(metrics, counters, details) for the command under the root span.

    metrics maps name -> (value, unit); counters holds the
    hardware-independent counts that must repeat exactly; details holds
    tables too wide for a metric (the per-pair swap acceptance).
    """
    flags = {}
    for s in spans:
        flags[s.id] = flags.get(s.parent, 0) | _FLAG_OF.get(s.name, 0)
    selfs = self_times(spans)
    wall = root.duration

    def named(name):
        return [s for s in spans if s.name == name]

    def total(items):
        return float(sum(s.duration for s in items))

    m = {}
    c = {}

    # network
    cost_cache = {}
    flops = byts = 0
    calls = {"energy": [], "energy_gradient": []}
    per_kind = {"energy": [0, 0], "energy_gradient": [0, 0]}
    for s in spans:
        if s.layer != "network":
            continue
        calls[s.name].append(s.duration)
        key = (s.attrs["sizes"], s.attrs["rows"], s.attrs["head"], s.name)
        if key not in cost_cache:
            cost_cache[key] = network_cost(*key[:3], gradient=s.name == "energy_gradient")
        f, b = cost_cache[key]
        flops += f
        byts += b
        per_kind[s.name][0] += f
        per_kind[s.name][1] += b
    busy = total(s for s in spans if s.layer == "network")
    n_grad, n_energy = len(calls["energy_gradient"]), len(calls["energy"])
    c.update({"network.grad_calls": n_grad, "network.energy_calls": n_energy,
              "network.flops": flops, "network.bytes": byts})
    m["network.grad_calls"] = (n_grad, "count")
    m["network.energy_calls"] = (n_energy, "count")
    m["network.grad_us_p50"] = (_pct(calls["energy_gradient"], 50, 1e6), "us")
    m["network.grad_us_p90"] = (_pct(calls["energy_gradient"], 90, 1e6), "us")
    m["network.energy_us_p50"] = (_pct(calls["energy"], 50, 1e6), "us")
    m["network.energy_us_p90"] = (_pct(calls["energy"], 90, 1e6), "us")
    m["network.busy_s"] = (busy, "s")
    m["network.share"] = (_ratio(busy, wall), "ratio")
    m["network.gflops_computed"] = (_ratio(flops, busy) / 1e9, "GFLOP/s")
    m["network.flops_per_grad_computed"] = (_ratio(per_kind["energy_gradient"][0], n_grad), "FLOP")
    m["network.bytes_per_grad_computed"] = (_ratio(per_kind["energy_gradient"][1], n_grad), "B")
    m["network.flops_per_energy_computed"] = (_ratio(per_kind["energy"][0], n_energy), "FLOP")
    m["network.bytes_per_energy_computed"] = (_ratio(per_kind["energy"][1], n_energy), "B")

    # hmc
    trajs = named("hmc_trajectory")
    prod = [s for s in trajs if not flags[s.id] & IN_PROBE]
    probes = len(trajs) - len(prod)
    accepted = sum(s.attrs["accepted"] for s in prod)
    prod_grads = prod_energies = tune_grads = 0
    for s in spans:
        if s.layer != "network":
            continue
        f = flags[s.id]
        if f & IN_TRAJ and not f & IN_PROBE:
            prod_grads += s.name == "energy_gradient"
            prod_energies += s.name == "energy"
        if f & IN_TUNE and s.name == "energy_gradient":
            tune_grads += 1
    tunes = named("tune_step_size")
    tune_failures = sum(1 for s in tunes if s.attrs and s.attrs.get("error") == "FailedToTune")
    rounds = sum(1 for s in named("measure_acceptance") if flags[s.id] & IN_TUNE)
    c.update({"hmc.trajectories": len(prod), "hmc.probe_trajectories": probes,
              "hmc.accepted": accepted, "hmc.tune_calls": len(tunes),
              "hmc.tune_rounds": rounds, "hmc.tune_failures": tune_failures,
              "hmc.production_grads": prod_grads, "hmc.tune_grads": tune_grads})
    m["hmc.trajectories"] = (len(prod), "count")
    m["hmc.probe_trajectories"] = (probes, "count")
    m["hmc.accept_ratio"] = (_ratio(accepted, len(prod)), "ratio")
    m["hmc.grads_per_traj"] = (_ratio(prod_grads, len(prod)), "count")
    m["hmc.energies_per_traj"] = (_ratio(prod_energies, len(prod)), "count")
    m["hmc.traj_self_s"] = (float(sum(selfs[s.id] for s in trajs)), "s")
    m["hmc.tune_calls"] = (len(tunes), "count")
    m["hmc.tune_rounds"] = (rounds, "count")
    m["hmc.tune_failures"] = (tune_failures, "count")
    m["hmc.tune_s"] = (total(tunes), "s")
    m["hmc.grads_per_tune"] = (_ratio(tune_grads, len(tunes)), "count")

    # minimize
    rmins = named("rmin")
    steps = sum(s.attrs["steps"] for s in rmins)
    uphill = sum(s.attrs["uphill"] for s in rmins)
    converged = sum(s.attrs["energy"] < CONVERGED_ENERGY for s in rmins)
    rmin_grads = sum(1 for s in spans if s.name == "energy_gradient" and flags[s.id] & IN_RMIN)
    rmin_energies = sum(1 for s in spans if s.name == "energy" and flags[s.id] & IN_RMIN)
    c.update({"minimize.rmin_calls": len(rmins), "minimize.steps": steps,
              "minimize.uphill": uphill, "minimize.converged": converged,
              "minimize.grads": rmin_grads, "minimize.energies": rmin_energies})
    m["minimize.rmin_calls"] = (len(rmins), "count")
    m["minimize.steps"] = (steps, "count")
    m["minimize.uphill_ratio"] = (_ratio(uphill, steps), "ratio")
    m["minimize.converged_ratio"] = (_ratio(converged, len(rmins)), "ratio")
    m["minimize.grads_per_step"] = (_ratio(rmin_grads, steps), "count")
    m["minimize.energies_per_step"] = (_ratio(rmin_energies, steps), "count")
    m["minimize.rmin_s_p50"] = (_pct([s.duration for s in rmins], 50), "s")

    # replica
    remd = named("run_remd")
    sweeps = named("RunTrace.append_sweep")
    sweep_ms = []
    if remd:
        ends = [remd[0].t0] + [s.t1 for s in sweeps]
        sweep_ms = list(np.diff(ends) * 1e3)
    retune = total(s for s in tunes if flags[s.id] & IN_REMD)
    remd_ids = {r.id for r in remd}
    evals = total(s for s in spans if s.name == "energy" and s.parent in remd_ids)
    swaps = named("attempt_swap")
    n_pairs = max((s.attrs["pair"] for s in swaps), default=-1) + 1
    attempts, accepts = [0] * n_pairs, [0] * n_pairs
    for s in swaps:
        attempts[s.attrs["pair"]] += 1
        accepts[s.attrs["pair"]] += s.attrs["accepted"]
    pair_rates = [_ratio(a, n) for a, n in zip(accepts, attempts)]
    trips = round_trips([s.attrs["identities"] for s in sweeps])
    ckpts = named("save_checkpoint")
    c.update({"replica.sweeps": len(sweeps), "replica.swap_attempts": attempts,
              "replica.swap_accepts": accepts, "replica.round_trips": trips,
              "replica.checkpoints": len(ckpts)})
    m["replica.init_s"] = (total(named("init_replica")), "s")
    m["replica.sample_s"] = (total(remd), "s")
    m["replica.sweep_ms_p50"] = (_pct(sweep_ms, 50), "ms")
    m["replica.sweep_ms_p90"] = (_pct(sweep_ms, 90), "ms")
    m["replica.retune_s"] = (retune, "s")
    m["replica.eval_s"] = (evals, "s")
    m["replica.swap_accept_min"] = (min(pair_rates, default=0.0), "ratio")
    m["replica.round_trips"] = (trips, "count")
    m["replica.checkpoint_s"] = (total(ckpts), "s")
    m["replica.checkpoint_bytes"] = (ckpts[-1].attrs["bytes"] if ckpts else 0, "B")

    # ti
    fits = named("fit_stiffness")
    ti_runs = named("run_ti")
    windows = []
    for run in ti_runs:
        starts = [s.t0 for s in named("bridge_energy_fns") if run.t0 <= s.t0 <= run.t1]
        windows += list(np.diff(starts + [run.t1]))
    c.update({"ti.windows": len(windows),
              "ti.degenerate": sum(s.attrs["degenerate"] for s in fits)})
    m["ti.fit_s"] = (total(fits), "s")
    m["ti.integrate_s"] = (total(ti_runs), "s")
    m["ti.window_s_p50"] = (_pct(windows, 50), "s")
    m["ti.observable_s"] = (total(named("ti_observable")), "s")
    m["ti.frac_outside_box"] = (float(np.mean([s.attrs["frac_outside_box"] for s in fits]))
                                if fits else 0.0, "ratio")
    m["ti.degenerate"] = (c["ti.degenerate"], "count")

    # data, cli, harness
    m["data.load_s"] = (total(named("DatasetStore.load")), "s")
    m["cli.write_s"] = (total(s for s in spans if s.layer == "cli"), "s")
    m["harness.baseline_s"] = (total(named("baseline_optimize")), "s")

    # self time per layer; with the root's own self time they add up to the wall
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (float(sum(selfs[s.id] for s in spans
                                          if s.layer == layer)), "s")
    m["trace.root_self_s"] = (selfs[root.id], "s")
    m["trace.spans"] = (len(spans), "count")
    c["trace.spans"] = len(spans)
    details = {"swap_pairs": [{"pair": i, "attempts": a, "accepts": n}
                              for i, (a, n) in enumerate(zip(attempts, accepts))]}
    return m, c, details
