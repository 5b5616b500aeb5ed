"""The shadowlab benchmark.

    python3 bench/run.py --workload certify --seed 1 --seconds 60 --trace 0

Runs passes of one workload, each in a fresh process (bench/worker.py),
until the next pass would end after --seconds, and prints every metric by
name and unit. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: the medians over the passes of
wall_s, setup_s and peak_rss_mb. The times are scaled to a reference host
speed by a calibration loop timed around each job (see worker.py); the
clock's own readings are printed beside them and kept in runs.jsonl. --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of the traced passes (medians)
plus trace_overhead_s, the traced minus the untraced median wall_s.

`attempted` is the number of jobs in the workload's fixed list and `failed`
the number that missed their reference in any pass. A run is `correct`
when every failure is a known defect listed in workloads.KNOWN_DEFECTS and,
when traced, every work count repeated exactly across the traced passes.

The host context (CPUs, Python, load average, the median time of the
calibration loop) is printed with every run and appended, with every
pass's times, to .bench_out/runs.jsonl.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("certify", "sweep", "classify", "pipeline")

PASS_TIMEOUT_S = 150
MIN_PASSES = {0: 3, 1: 2}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PASS_FIELDS = ("wall_s", "setup_s", "raw_wall_s", "raw_setup_s", "calibration_s", "job_s", "raw_job_s")


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def median(values: list):
    """The median, keeping a count that every pass agrees on as it is."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def host_context(passes: list[dict]) -> dict:
    try:
        with open("/proc/loadavg") as fh:
            loadavg = fh.read().split()[:3]
    except OSError:
        loadavg = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": loadavg,
        "calibration_s": median([r["calibration_s"] for r in passes]),
    }


def run_pass(workload: str, seed: int, traced: bool) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pass of {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src" / "shadowlab"
    if not (src / "__init__.py").is_file():
        sys.stderr.write(f"error: no shadowlab sources under {src.parent}\n")
        return 2
    # The build: byte-compile once, so no pass pays for it inside setup_s.
    if not compileall.compile_dir(str(src), quiet=1):
        sys.stderr.write("error: shadowlab does not compile\n")
        return 2
    OUT.mkdir(exist_ok=True)

    modes = [False] if args.trace == 0 else [False, True]
    passes: list[tuple[bool, dict]] = []
    longest = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    while True:
        traced = modes[len(passes) % len(modes)]
        result, elapsed = run_pass(args.workload, args.seed, traced)
        passes.append((traced, result))
        longest[traced] = max(longest[traced], elapsed)
        now = time.perf_counter() - start
        upcoming = longest[modes[len(passes) % len(modes)]] or elapsed
        if len(passes) >= MIN_PASSES[args.trace] and now + upcoming > args.seconds:
            break

    plain = [r for t, r in passes if not t]
    traced_runs = [r for t, r in passes if t]
    known = passes[0][1]["known_defects"]
    failures: dict[str, str] = {}
    for _, r in passes:
        for name, reason in r["failures"].items():
            if failures.get(name) in (None, known.get(name)):
                failures[name] = reason     # a reason other than the known one sticks
    attempted = {r["jobs"] for _, r in passes}
    counts_repeat = all(r["counts"] == traced_runs[0]["counts"] for r in traced_runs)
    correct = (all(known.get(name) == reason for name, reason in failures.items())
               and len(attempted) == 1 and counts_repeat)

    if args.trace == 0:
        metrics = {
            name: {"value": median([r[name] for r in plain]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": median([r["layers"][name] for r in traced_runs]),
                   "unit": layer_unit(name)}
            for name in traced_runs[0]["layers"]
        }
        overhead = (median([r["wall_s"] for r in traced_runs])
                    - median([r["wall_s"] for r in plain]))
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}

    host = host_context([r for _, r in passes])
    print(f"host {json.dumps(host)}")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced_runs)} traced passes in {time.perf_counter() - start:.1f} s")
    for name, failure in sorted(failures.items()):
        tag = "known defect" if known.get(name) == failure else "FAILED"
        print(f"  {tag}: {name}: {failure}")
    if not counts_repeat:
        print("  FAILED: work counts differ between traced passes")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    if args.trace == 0:
        for name in ("raw_wall_s", "raw_setup_s"):
            print(f"  ({name} {median([r[name] for r in plain]):.6g} s, as the clock read it)")
    line = {
        "correct": correct,
        "attempted": max(attempted),
        "failed": len(failures),
        "metrics": metrics,
    }
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "host": host, "failures": failures,
                             "passes": [{"traced": t, **{k: r[k] for k in PASS_FIELDS}}
                                        for t, r in passes],
                             **line}) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
