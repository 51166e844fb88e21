#!/usr/bin/env python3
"""Peak resident memory of each data step and command, each in a new process.

Synthesises a corpus, prepares D_n from it and finds an M1 reference
minimum for ti (the set-up of the benchmark's inputs), then runs the
benchmark's three commands with its flags: minimize on M3, remd and ti on
M1.  Each step runs in a fresh Python process, and the peak RSS that
wait4 reports for that process is printed, so no step's peak hides
another's.  The default corpus is bench-shaped (1000 + 1000 images);
--train 60000 --test 10000 gives an MNIST-sized stand-in.

ti refuses a w0 outside the prior box, and minimize's unboxed rmin can
end outside it on a small D_n.  So the w0 step runs the minimisation that
`minimize --mode best-of --restarts 1 --n-steps 400` runs, from the same
start, but with the prior box given to rmin: its minimum lies inside the
box by construction, and equals minimize's wherever that one does.

Usage:
    python demos/peak_memory.py [--train 1000] [--test 1000] [--size 500] [--seed 0]
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

REMD_FLAGS = ["--nt", "2", "--tmin", "1e-2", "--tmax", "1e2", "--sweeps", "51",
              "--ntraj", "2", "--L", "5", "--burn-in-traj", "50",
              "--eval-subset", "1000", "--checkpoint-every", "10"]
TI_FLAGS = ["--repeats", "1", "--n-bridge", "4", "--burn-in-traj", "5",
            "--sample-traj", "10", "--L", "5", "--fit-burn-in-traj", "20",
            "--fit-sample-traj", "40"]

# ti's w0: minimize's first best-of start and rmin run, with the prior box
W0_CODE = """\
import numpy as np
from temperhmc.data import DatasetStore
from temperhmc.minimize import RMinConfig, rmin
from temperhmc.network import (dataset_energy_fns, get_arch, init_standard,
                               prior_box, save_params)
arch = get_arch("M1")
train, _ = DatasetStore({data!r}).load({size}, {seed}, test_rows=None)
_, value_grad = dataset_energy_fns(arch, train.inputs, train.labels)
rng = np.random.default_rng(np.random.SeedSequence({seed}).spawn(1)[0])
res = rmin(init_standard(arch, rng), value_grad, RMinConfig(n_steps=400),
           box=prior_box(arch))
save_params({path!r}, arch, res.w)
"""


def steps(work, args):
    """(name, python argv) of each step, in the order they must run."""
    raw, data = str(work / "raw"), str(work / "data")
    w0 = str(work / "w0.params")

    def cli(command, model, out, *flags):
        return ["-m", "temperhmc.cli", command, "--model", model,
                "--data", f"D{args.size}", "--data-dir", data,
                "--data-seed", str(args.seed), "--seed", str(args.seed),
                "--out-dir", str(work / out), *flags]

    return [
        ("synth", ["-c", "from temperhmc import synth; synth.write_corpus("
                         f"{raw!r}, n_train={args.train}, n_test={args.test}, "
                         f"seed={args.seed})"]),
        ("prepare-data", ["-m", "temperhmc.cli", "prepare-data", "--mnist-dir", raw,
                          "--data-dir", data, "--size", str(args.size),
                          "--seed", str(args.seed)]),
        ("rmin M1 (ti w0)", ["-c", W0_CODE.format(data=data, size=args.size,
                                                  seed=args.seed, path=w0)]),
        ("minimize M3", cli("minimize", "M3", "minimize", "--mode", "best-of",
                            "--restarts", "1", "--n-steps", "1000")),
        ("remd M1", cli("remd", "M1", "remd", *REMD_FLAGS)),
        ("ti M1", cli("ti", "M1", "ti", *TI_FLAGS, "--w0", w0)),
    ]


def run(argv, env, log):
    """Run python argv to its end; returns (peak RSS in MB, wall seconds)."""
    t0 = time.perf_counter()
    with open(log, "w") as err:
        proc = subprocess.Popen([sys.executable, *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{argv} exited {proc.returncode}:\n{Path(log).read_text()}")
    return usage.ru_maxrss / 1024, time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--train", type=int, default=1000, help="training images")
    ap.add_argument("--test", type=int, default=1000, help="test images")
    ap.add_argument("--size", type=int, default=500, help="n of D_n")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    # one BLAS thread, as the benchmark runs; the checkout's sources first
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    print(f"corpus {args.train} + {args.test} images, D{args.size}, "
          f"seed {args.seed}; each step in a fresh process")
    print(f"{'step':<22}{'peak MB':>9}{'wall s':>9}")
    with tempfile.TemporaryDirectory(prefix="temperhmc_demo_") as tmp:
        work = Path(tmp)
        for name, argv in steps(work, args):
            peak, wall = run(argv, env, work / "stderr.log")
            print(f"{name:<22}{peak:>9.1f}{wall:>9.2f}", flush=True)


if __name__ == "__main__":
    main()
