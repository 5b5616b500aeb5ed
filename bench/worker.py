"""One pass of one workload, in a fresh process.

Run by run.py once per pass, so that every pass imports shadowlab anew,
starts with empty caches (`cached_property` values such as `edge_masks`
live on the input graphs) and has its own peak resident memory. Prints one
JSON object on stdout:

    setup_s      importing shadowlab plus building the inputs, host-scaled
    wall_s       the summed time of the job calls, checks excluded, host-scaled
    job_s        each job's host-scaled time, in job order
    raw_setup_s, raw_wall_s, raw_job_s  the same times unscaled, ticks taken out
    calibration_s  the median time of the calibration loop in this pass
    peak_rss_mb  the pass's peak resident memory
    jobs         the number of jobs attempted
    failures     job name -> reason, for each job that missed its reference
    known_defects  job name -> reason, for the known defects of the program
    layers       per-layer metrics (traced passes only)
    counts       work counts, which must repeat exactly (traced passes only)

With --traced the trace is also written to .bench_out/trace-<workload>-<seed>.json.

Host scaling: the host's speed drifts by tens of percent over seconds to
minutes, and pure-Python work slows with it in step. So set-up and every
job are timed on a HostClock, which runs a fixed calibration loop right
before, right after and every TICK_S during each of these stretches, and
scales the stretch by the loop's reference speed over its speed in those
calibrations. A scaled time is the time the stretch would take on a host
where the loop takes CALIBRATION_REF_S.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

CALIBRATION_ROUNDS = 120_000
CALIBRATION_REF_S = 0.010   # the reference host runs CALIBRATION_ROUNDS in this time
STALE_S = 0.005             # a calibration older than this is redone before the next stretch
TICK_S = 0.1                # during a stretch, a short calibration runs this often
TICK_ROUNDS = 12_000


def calibrate(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Time a fixed loop of pure-Python integer arithmetic. It allocates
    nothing that outlives it, so its time depends on the host's speed and
    not on the state of this process's heap."""
    start = time.perf_counter()
    total = 0
    for i in range(rounds):
        total += i * i
    return time.perf_counter() - start


class HostClock:
    """Times stretches of work and scales each to the reference host speed.

    A stretch is timed between two calibrations, and a timer signal runs a
    short calibration every TICK_S inside it, so that a long job is scaled
    by the speed the host had while it ran. The ticks' own time is taken
    out of the stretch's time."""

    def __init__(self) -> None:
        calibrate()     # the first loop in a fresh process runs cold
        self.calibrations = [calibrate()]
        self.calibrated_at = time.perf_counter()
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._tick_s = 0.0
        self._ticks = 0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        self._tick_s += calibrate(TICK_ROUNDS)
        self._ticks += 1

    def time(self, stretch):
        if time.perf_counter() - self.calibrated_at > STALE_S:
            self.calibrations.append(calibrate())
        before = self.calibrations[-1]
        self._tick_s, self._ticks = 0.0, 0
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            return stretch()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.calibrations.append(calibrate())
            self.calibrated_at = time.perf_counter()
            raw = elapsed - self._tick_s
            round_s = ((before + self.calibrations[-1] + self._tick_s)
                       / (2 * CALIBRATION_ROUNDS + self._ticks * TICK_ROUNDS))
            self.raw.append(raw)
            self.scaled.append(raw * CALIBRATION_REF_S / CALIBRATION_ROUNDS / round_s)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    clock = HostClock()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)

    def setup():
        sys.path.insert(0, str(ROOT / "src"))
        import shadowlab  # noqa: F401  (the import is part of set-up)
        tracer = None
        if args.traced:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        import workloads    # binds the wrapped functions when traced
        build = lambda: workloads.WORKLOADS[args.workload](args.seed)
        return tracer, workloads, tracer.job(-1, build) if tracer else build()

    try:
        tracer, workloads, jobs = clock.time(setup)
        failures = run_jobs(jobs, tracer, clock)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "setup_s": clock.scaled[0],
        "wall_s": sum(clock.scaled[1:]),
        "raw_setup_s": clock.raw[0],
        "raw_wall_s": sum(clock.raw[1:]),
        "calibration_s": statistics.median(clock.calibrations),
        "job_s": clock.scaled[1:],
        "raw_job_s": clock.raw[1:],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": len(jobs),
        "failures": failures,
        "known_defects": workloads.KNOWN_DEFECTS[args.workload],
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["counts"] = tracer.work_counts()
        write_trace(tracer, args.workload, args.seed, [job.name for job in jobs])
    print(json.dumps(result))
    return 0


def run_jobs(jobs, tracer, clock: HostClock) -> dict[str, str]:
    """Run each job on the clock and check it; return the failures."""
    failures: dict[str, str] = {}
    for index, job in enumerate(jobs):
        try:
            result = clock.time(lambda: tracer.job(index, job.run) if tracer else job.run())
        except Exception as exc:  # a job that raises is a failed op, not a crash
            failures[job.name] = f"raised {type(exc).__name__}: {exc}"
            continue
        try:
            problem = job.check(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures[job.name] = problem
        if tracer and job.report and os.path.exists(job.report):
            tracer.count("cli.report_bytes", report_bytes(job.report))
    return failures


def report_bytes(path: str) -> int:
    """Size of a report, not counting the digits of its runtime_ms field,
    so that the count repeats exactly between runs."""
    with open(path, "rb") as fh:
        data = fh.read()
    runtime = json.loads(data).get("runtime_ms")
    return len(data) - len(str(runtime)) if runtime is not None else len(data)


def write_trace(tracer, workload: str, seed: int, job_names: list[str]) -> None:
    table = {
        name: {"calls": calls, "total_s": total, "self_s": self_s}
        for name, (calls, total, self_s) in sorted(tracer.stats.items())
    }
    document = {
        "workload": workload,
        "seed": seed,
        "jobs": job_names,      # a span's job indexes this list; -1 is set-up
        "spans_columns": ["id", "parent", "job", "name", "start", "end"],
        "by_name": table,
        "counts": tracer.counts,
        "spans": tracer.spans,
    }
    with open(OUT / f"trace-{workload}-{seed}.json", "w") as fh:
        json.dump(document, fh)


if __name__ == "__main__":
    sys.exit(main())
