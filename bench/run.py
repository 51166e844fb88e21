"""temperhmc benchmark: seeded workloads run through ``temperhmc.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload remd-m1-d50 --seed 1 --seconds 20 --trace 0

Each run sets up N_INPUTS inputs (a corpus synthesised with
``temperhmc.synth`` and a dataset prepared with the CLI), then runs the
workload's CLI command in-process once per input, in rounds, until
``--seconds`` are used.  With ``--trace 0`` it prints the end-to-end
metrics (set-up time, command wall time, peak resident memory); with
``--trace 1`` it alternates untraced and traced runs of the command on the
first input and prints the per-layer metrics from the spans.  Every CLI command and
every output check is one attempted operation.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import uuid
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))

# One BLAS thread: on products no larger than 2500 x 256 by 256 x 40 a
# second thread buys a few percent of wall time for 1.8x the CPU time, and
# its spinning competes with the rest of a shared machine, which makes the
# figures unsteady.  Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

N_INPUTS = 3            # seeded inputs per run, each set up and timed
N_TRAIN = N_TEST = 1000 # synthetic corpus: enough for D500 and the eval subset
MIN_TRACED_PAIRS = 2    # traced runs needed to show the counters repeat
W0_STEPS = 400          # rmin budget for the TI reference minimum


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # CLI subcommand
    model: str
    size: int               # training-set size n of D_n
    args: tuple             # the command's sizing flags

    def input_seeds(self, seed):
        """Seeds of the run's inputs (corpus, dataset and CLI seed).

        The step-size tuner's probe rounds are a random walk, so the work of
        one remd or ti command changes with any change to its inputs, and a
        change in float rounding that flips one accept decision sends the
        walk elsewhere.  Those workloads therefore run the same fixed set
        of inputs whatever the seed, and wall_s averages over the set, so
        that a new walk on one input moves it by a third as much.
        minimize does a fixed number of steps on any input, so its inputs
        come from the seed.
        """
        if self.command == "minimize":
            return [seed * N_INPUTS + j for j in range(N_INPUTS)]
        return list(range(N_INPUTS))


WORKLOADS = {w.name: w for w in [
    Workload("remd-m1-d50", "remd", "M1", 50,
             ("--nt", "2", "--tmin", "1e-2", "--tmax", "1e2", "--sweeps", "51",
              "--ntraj", "2", "--L", "5", "--burn-in-traj", "50",
              "--eval-subset", "1000", "--checkpoint-every", "10")),
    Workload("ti-m1-d500", "ti", "M1", 500,
             ("--repeats", "1", "--n-bridge", "4", "--burn-in-traj", "5",
              "--sample-traj", "10", "--L", "5", "--fit-burn-in-traj", "20",
              "--fit-sample-traj", "40")),
    Workload("minimize-m3-d500", "minimize", "M3", 500,
             ("--mode", "best-of", "--restarts", "1", "--n-steps", "1000")),
]}


def import_program():
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "temperhmc" / "cli.py").is_file():
        raise SystemExit(f"bench: no temperhmc sources under {src}")
    sys.path.insert(0, str(src))


def flag_value(args, flag):
    return args[args.index(flag) + 1]


@dataclass(frozen=True)
class Input:
    seed: int
    base: Path      # the corpus (raw/), the dataset (data/) and, for ti, w0/


class Run:
    """Counts operations and keeps what one benchmark run produced."""

    def __init__(self, workload, seed, work_dir):
        self.w = workload
        self.seeds = workload.input_seeds(seed)
        self.dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def cli(self, argv, log_name, tracer=None):
        """One CLI command in-process; returns (ok, wall seconds).

        With a tracer, temperhmc is patched and the command runs under the
        root span.
        """
        from temperhmc.cli import main

        out = io.StringIO()
        patch = tracer.patched() if tracer else contextlib.nullcontext()
        root = tracer.span("command", "root") if tracer else contextlib.nullcontext()
        with patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            t0 = time.perf_counter()
            try:
                with root:
                    rc = main([str(a) for a in argv])
            except Exception:       # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                rc = -1
            wall = time.perf_counter() - t0
        (self.dir / f"{log_name}.log").write_text(out.getvalue())
        return self.op(rc == 0, f"{argv[0]} exited {rc}; see {log_name}.log"), wall

    def setup(self, seed):
        """Corpus synthesis, prepare-data and, for TI, the w0 minimum."""
        from temperhmc import synth

        inp = Input(seed, self.dir / f"input{seed}")
        shutil.rmtree(inp.base, ignore_errors=True)
        t0 = time.perf_counter()
        synth.write_corpus(inp.base / "raw", n_train=N_TRAIN, n_test=N_TEST, seed=seed)
        t1 = time.perf_counter()
        ok, _ = self.cli(["prepare-data", "--mnist-dir", inp.base / "raw",
                          "--data-dir", inp.base / "data", "--size", self.w.size,
                          "--seed", seed], f"setup{seed}-prepare")
        t2 = time.perf_counter()
        if self.w.command == "ti" and ok:
            self.cli(["minimize", *self.common(inp, inp.base / "w0"), "--mode", "best-of",
                      "--restarts", "1", "--n-steps", W0_STEPS], f"setup{seed}-w0")
        t3 = time.perf_counter()
        return inp, {"setup_s": t3 - t0, "synth_s": t1 - t0, "prepare_s": t2 - t1,
                     "w0_s": t3 - t2}

    def common(self, inp, out_dir):
        return ["--model", self.w.model, "--data", f"D{self.w.size}",
                "--data-dir", inp.base / "data", "--data-seed", inp.seed,
                "--seed", inp.seed, "--out-dir", out_dir]

    def argv(self, inp, out_dir):
        argv = [self.w.command, *self.common(inp, out_dir), *self.w.args]
        if self.w.command == "ti":
            argv += ["--w0", inp.base / "w0" / "baseline_best.params"]
        return argv

    def check(self, inp, out_dir):
        import checks
        from temperhmc.data import DatasetStore

        w = self.w
        try:
            if w.command == "remd":
                problems = checks.check_remd(out_dir, int(flag_value(w.args, "--sweeps")),
                                             int(flag_value(w.args, "--nt")))
            elif w.command == "ti":
                problems = checks.check_ti(out_dir, int(flag_value(w.args, "--n-bridge")))
            else:
                train, _ = DatasetStore(inp.base / "data").load(w.size, inp.seed)
                problems = checks.check_minimize(out_dir, w.model, train)
        except Exception as exc:    # unreadable output fails the check
            problems = [f"{type(exc).__name__}: {exc}"]
        return self.op(not problems, f"{w.name} input {inp.seed} output check: {problems}")


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def end_to_end(run, seconds):
    """Set up every input, then time rounds of one command per input.

    setup_s is the median set-up; wall_s is the mean over the inputs of
    each input's median command wall.  Rounds repeat while the next one
    fits in the measuring time.
    """
    setups = [run.setup(seed) for seed in run.seeds]
    walls = {inp.seed: [] for inp, _ in setups}
    t_start = time.perf_counter()
    while True:
        for inp, _ in setups:
            out_dir = fresh(run.dir / "out")
            ok, wall = run.cli(run.argv(inp, out_dir), f"command{inp.seed}")
            if ok:
                run.check(inp, out_dir)
            walls[inp.seed].append(wall)
        per_input = [statistics.median(w) for w in walls.values()]
        if time.perf_counter() - t_start + sum(per_input) > seconds:
            break
    metrics = {
        "setup_s": (statistics.median(t["setup_s"] for _, t in setups), "s"),
        "wall_s": (statistics.mean(per_input), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"setups": {inp.seed: t for inp, t in setups}, "walls": walls}


def traced(run, seconds):
    """Alternate untraced and traced commands on the run's first input."""
    import layers
    from spans import Tracer

    inp, setup = run.setup(run.seeds[0])
    untraced_walls, traced_walls, analyses = [], [], []
    t_start = time.perf_counter()
    while True:
        out_dir = fresh(run.dir / "out")
        ok, wall = run.cli(run.argv(inp, out_dir), "untraced")
        untraced_walls.append(wall)
        if ok:
            run.check(inp, out_dir)

        out_dir = fresh(run.dir / "out")
        tracer = Tracer(f"{run.w.name}-input{inp.seed}-{uuid.uuid4().hex[:12]}")
        ok, wall = run.cli(run.argv(inp, out_dir), "traced", tracer)
        root = tracer.spans[0]
        traced_walls.append(wall)
        if ok and run.check(inp, out_dir):
            output_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
            analyses.append((tracer, root, wall, output_bytes,
                             *layers.analyse(tracer.spans, root)))
        pair = statistics.median(untraced_walls) + statistics.median(traced_walls)
        if (len(traced_walls) >= MIN_TRACED_PAIRS
                and time.perf_counter() - t_start + pair > seconds):
            break
    if not analyses:
        return None, {}
    tracer, root, wall, output_bytes, metrics, counters, details = analyses[-1]
    run.op(all(a[5] == counters for a in analyses),
           f"counters differ between traced runs: {[a[5] for a in analyses]}")
    self_sum = metrics["trace.root_self_s"][0] + sum(
        metrics[f"{layer}.self_s"][0] for layer in layers.LAYERS)
    run.op(abs(self_sum - root.duration) <= 1e-6 * root.duration
           and 0 <= wall - root.duration <= 1e-3 * wall,
           f"self times sum to {self_sum}, root span {root.duration}, traced wall {wall}")
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (statistics.median(untraced_walls), "s"),
        "trace.overhead_s": (statistics.median(traced_walls)
                             - statistics.median(untraced_walls), "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "synth.write_corpus_s": (setup["synth_s"], "s"),
        "data.prepare_s": (setup["prepare_s"], "s"),
        "cli.output_bytes": (output_bytes, "B"),
    })
    spans_path = WORK / "spans" / f"{run.w.name}-input{inp.seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    return metrics, dict(details, counters=counters, untraced_walls=untraced_walls,
                         traced_walls=traced_walls, spans_file=str(spans_path))


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": NPROC, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "python": sys.version.split()[0]}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def benchmark(workload, seed, seconds, trace):
    """One run; returns the result object printed as the last output line."""
    work_dir = fresh(WORK / f"{workload.name}-seed{seed}-{os.getpid()}")
    run = Run(workload, seed, work_dir)
    try:
        metrics, details = (traced if trace else end_to_end)(run, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": run.failed == 0 and metrics is not None,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()},
    }
    record = dict(result, workload=workload.name, seed=seed, input_seeds=run.seeds,
                  trace=trace, problems=run.problems, environment=environment(), **details)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    result, record = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps({"environment": record["environment"], "problems": record["problems"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
