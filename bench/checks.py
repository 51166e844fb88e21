"""Structural checks of each workload's CLI outputs.

They check shapes and invariants, not statistics: at benchmark length a
ladder has not equilibrated, so a distribution check would be flaky.  Each
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from temperhmc.errors import ShapeMismatch
from temperhmc.harness import UNINFORMED_PER_EXAMPLE
from temperhmc.network import energy, get_arch, load_params
from temperhmc.replica import load_checkpoint


def check_remd(out_dir, n_sweeps, n_temps):
    problems = []
    with open(os.path.join(out_dir, "remd_trace.csv")) as fh:
        rows = list(csv.DictReader(fh))
    keys = [(int(r["sweep"]), int(r["slot"])) for r in rows]
    if sorted(keys) != [(s, i) for s in range(n_sweeps) for i in range(n_temps)]:
        return [f"trace has {len(rows)} rows, not one per (sweep, rung) "
                f"for {n_sweeps} sweeps x {n_temps} rungs"]
    for r in rows:
        for key in ("e_train", "e_test"):
            e = float(r[key])
            if not (math.isfinite(e) and e >= 0):
                problems.append(f"sweep {r['sweep']} slot {r['slot']}: {key}={r[key]}")
        if not 0.0 <= float(r["accept_rate"]) <= 1.0:
            problems.append(f"sweep {r['sweep']}: acceptance {r['accept_rate']}")
    for s in range(n_sweeps):
        ids = sorted(int(r["identity"]) for r in rows if int(r["sweep"]) == s)
        if ids != list(range(n_temps)):
            problems.append(f"sweep {s}: identities {ids} are not a permutation")
    replicas, sweep = load_checkpoint(os.path.join(out_dir, "remd_checkpoint.npz"))
    if sweep != n_sweeps:
        problems.append(f"checkpoint is at sweep {sweep}, trace ends at {n_sweeps}")
    last = {int(r["slot"]): r["e_train"] for r in rows if int(r["sweep"]) == n_sweeps - 1}
    for rep in replicas:
        if f"{rep.energy:.10g}" != last.get(rep.index):
            problems.append(f"checkpoint energy {rep.energy!r} of slot {rep.index} "
                            f"!= trace {last.get(rep.index)}")
    return problems


def check_ti(out_dir, n_bridge):
    with open(os.path.join(out_dir, "ti_run.json")) as fh:
        run = json.load(fh)
    problems = []
    f, log_ev = run["free_energy"], run["log_evidence"]
    if not (math.isfinite(f) and math.isfinite(log_ev)):
        return [f"free energy {f} or log evidence {log_ev} is not finite"]
    lambdas = np.asarray(run["per_lambda"]["lambdas"], dtype=float)
    if len(lambdas) != n_bridge + 2 or not np.allclose(
            lambdas, np.linspace(0.0, 1.0, n_bridge + 2), rtol=0, atol=1e-12):
        problems.append(f"lambda grid {lambdas.tolist()} is not uniform on [0, 1] "
                        f"with {n_bridge + 2} points")
    expected = -f - run["log_prior_volume"]
    if not math.isclose(log_ev, expected, rel_tol=1e-12, abs_tol=1e-9):
        problems.append(f"log evidence {log_ev} != -F - log V = {expected}")
    se = np.asarray(run["per_lambda"]["se"], dtype=float)
    if len(se) != len(lambdas) or not np.all(np.isfinite(se)):
        problems.append(f"per-lambda standard errors {se.tolist()} are not all finite")
    return problems


def check_minimize(out_dir, model, train):
    with open(os.path.join(out_dir, "baseline.csv")) as fh:
        recorded = min(float(r["e_train"]) for r in csv.DictReader(fh))
    try:
        arch, w = load_params(os.path.join(out_dir, "baseline_best.params"))
    except (ShapeMismatch, ValueError, OSError) as exc:
        return [f"baseline_best.params does not reload: {exc}"]
    if arch != get_arch(model):
        return [f"params hold {arch}, not {model}"]
    e = energy(arch, w, train.inputs, train.labels)
    problems = []
    if not math.isclose(e, recorded, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"reloaded params give E={e!r}, baseline.csv records {recorded!r}")
    level = len(train) * UNINFORMED_PER_EXAMPLE
    if not e < level:
        problems.append(f"best training energy {e} is not below the uninformed level {level}")
    return problems
