"""Benchmark of the ortholat CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: the CLI runs once per child process, one
invocation at a time, from this process. BLAS and OpenMP thread counts are
pinned to 1 in every child. Inputs come from --seed alone, and every report is
checked (workloads.py). The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 runs instances 0, 1, 2, ... of the workload (each with its own
input drawn from the seed) until --seconds have passed, times set-up with
import-only children spread over that time, and reports set-up and peak
memory as medians and CPU time as the mean per instance.
--trace 1 runs instance 0 once untraced, then traced (child.py, tracing.py)
until --seconds have passed, and reports the per-layer metrics. The line
before the result holds the seed, the input digests, machine details and the
raw samples, wall-clock times included. README.md says why the gated times
are CPU times, and what each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9          # import-only children per run, after one warm-up
RUN_BUDGET_S = 170.0      # a run must end within 180 s; slower children are killed

END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SUITE_KEYS = ("lemma1", "prop2", "prop3", "theorem4", "corollary5", "prop6",
              "theorem7", "axioms", "bridge", "infty")
PER_LAYER = {
    "linalg.eig_calls": "count",
    "linalg.eig_s": "s",
    "linalg.eigh_calls": "count",
    "linalg.eig_matrices_per_call": "matrices/call",
    "linalg.psd_defect.calls": "count",
    "linalg.psd_defect.self_s": "s",
    "linalg.jordan_decompose.calls": "count",
    "orthogonality.infty_orth.calls": "count",
    "orthogonality.infty_orth.self_s": "s",
    "orthogonality.kgrid_points": "count",
    "orthogonality.sampler_draws": "count",
    "orthogonality.sampler_draw.self_s": "s",
    "orthogonality.abs_infty.useful_sample_ratio": "ratio",
    "orthogonality.inconsistencies": "count",
    "lattice.prop6_check.self_s": "s",
    "lattice.sup_norm.calls": "count",
    "axioms.check_theorem7.self_s": "s",
    "axioms.check_axioms.self_s": "s",
    "axioms.infty_deviation.calls": "count",
    "ortholattice.verify_theorem4.self_s": "s",
    "ortholattice.verify_theorem4.eig_calls_per_call": "calls/call",
    "ortholattice.uniqueness_falsify.self_s": "s",
    "ortholattice.uniqueness_falsify.survivors": "count",
    "ortholattice.witness.eig_calls": "count",
    "ortholattice.witness.self_s": "s",
    "ortholattice.witness.margin": "1",
    **{f"suites.{key}.wall_s": "s" for key in SUITE_KEYS},
    "trace.overhead_s": "s",
}


@dataclass
class Invocation:
    code: int
    stdout: bytes
    wall_s: float
    cpu_s: float       # user + system time of the child
    peak_rss_mb: float
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env.pop("ORTHOLAT_SEED", None)
    return env


def invoke(cli_args, workdir: Path, trace_path: Path | None = None,
           timeout: float = RUN_BUDGET_S) -> Invocation:
    """Runs child.py once and waits for it, killing it after `timeout`
    seconds; with no `cli_args` the child only imports ortholat.cli."""
    errlog = workdir / "stderr"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"),
           str(trace_path) if trace_path else "-", *cli_args]
    with open(errlog, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, out, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0,
                      errlog.read_text(encoding="utf-8", errors="replace")[-2000:])


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": PINNED_THREADS}


class Tally:
    """Operations attempted and failed over a run, and the run's time budget."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.end = time.monotonic() + RUN_BUDGET_S

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())

    def check(self, workload, inputs, inv: Invocation):
        outcome = workload.check(inputs, inv.code, inv.stdout)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if outcome.problems:
            print(f"check failed: {outcome.problems}; stderr: {inv.stderr}",
                  file=sys.stderr)
        return outcome


def measure(workload, seed: int, seconds: float, workdir: Path, tally: Tally):
    """Untraced run: instances until `seconds` pass, with the set-up probes
    spread over the run. Probe i is due `i * seconds / SETUP_PROBES` after
    the start and runs before the next instance; probes not yet run when the
    last instance ends run after it."""
    # warm-up: fills the bytecode and file caches
    invoke([], workdir, timeout=tally.left())
    probes, runs, digests, margins = [], [], [], []
    start = time.monotonic()
    deadline = start + seconds

    def probe_due() -> bool:
        due = start + len(probes) * seconds / SETUP_PROBES
        return len(probes) < SETUP_PROBES and time.monotonic() >= due

    while True:
        while probe_due():
            probes.append(invoke([], workdir, timeout=tally.left()))
        inputs = workload.prepare(seed, len(runs), workdir)
        inv = invoke(inputs.argv, workdir, timeout=tally.left())
        runs.append(inv)
        digests.append(inputs.digest)
        outcome = tally.check(workload, inputs, inv)
        if outcome.witness_margin is not None:
            margins.append(outcome.witness_margin)
        # start another instance only if it should end before the deadline
        if time.monotonic() + inv.wall_s > deadline:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(invoke([], workdir, timeout=tally.left()))
    metrics = {
        "setup_s": statistics.median(p.cpu_s for p in probes),
        # all instances of the run as one unit of work: the host's slow and
        # fast stretches average out, where a median of a few instances
        # jumps between them
        "cpu_s": sum(r.cpu_s for r in runs) / len(runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    info = {
        "input_sha256": digests,
        "samples": {
            "setup_s": [p.cpu_s for p in probes],
            "setup_wall_s": [p.wall_s for p in probes],
            "cpu_s": [r.cpu_s for r in runs],
            "wall_s": [r.wall_s for r in runs],
            "peak_rss_mb": [r.peak_rss_mb for r in runs],
        },
        "witness_margin": statistics.median(margins) if margins else None,
    }
    return metrics, info


def traced(workload, seed: int, seconds: float, workdir: Path, tally: Tally,
           trace_path: Path):
    """Traced run of instance 0: once untraced, then traced until `seconds`
    pass; per-layer values are medians over the traced invocations, and the
    overhead is traced minus untraced CPU time."""
    inputs = workload.prepare(seed, 0, workdir)
    plain = invoke(inputs.argv, workdir, timeout=tally.left())
    tally.check(workload, inputs, plain)
    samples = {name: [] for name in PER_LAYER}
    cpus, walls = [], []
    deadline = time.monotonic() + seconds
    while True:
        trace_path.unlink(missing_ok=True)
        inv = invoke(inputs.argv, workdir, trace_path, timeout=tally.left())
        cpus.append(inv.cpu_s)
        walls.append(inv.wall_s)
        outcome = tally.check(workload, inputs, inv)
        if inv.stdout != plain.stdout and not outcome.failed:
            print("traced report differs from the untraced report", file=sys.stderr)
            tally.failed += outcome.attempted
        try:
            layer = json.loads(trace_path.read_text(encoding="utf-8"))["metrics"]
        except (OSError, ValueError, KeyError):
            layer = {}
        for name, values in samples.items():
            if name in layer:
                values.append(layer[name])
        if time.monotonic() + inv.wall_s > deadline:
            break
    samples["trace.overhead_s"] = [c - plain.cpu_s for c in cpus]
    missing = [name for name, values in samples.items() if not values]
    if missing:
        print(f"trace lacks metrics: {missing}", file=sys.stderr)
        tally.failed = tally.attempted
    metrics = {name: statistics.median(values) if values else 0.0
               for name, values in samples.items()}
    info = {"input_sha256": [inputs.digest],
            "untraced": {"cpu_s": plain.cpu_s, "wall_s": plain.wall_s},
            "traced": {"cpu_s": cpus, "wall_s": walls},
            "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, info


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ortholat" / "cli.py").is_file():
        print(f"error: no ortholat sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
            metrics, info = traced(workload, args.seed, args.seconds, workdir, tally,
                                   trace_path)
            units = PER_LAYER
        else:
            metrics, info = measure(workload, args.seed, args.seconds, workdir, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "machine": machine(),
        "ops_failed_ratio": tally.failed / tally.attempted, **info,
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    os.environ.update(PINNED_THREADS)   # before this process loads numpy
    sys.exit(main())
