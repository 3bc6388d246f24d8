"""Run one benchmark workload on this checkout and print its metrics.

    python3 bench/run.py --workload many-small --seed 1 --seconds 20 --trace 0

Workloads: certify-grid, large-families, many-small (see workloads.py for
what each runs and why).  Every run starts fresh single-threaded worker
processes from this checkout's src/: two that only set up, so that set-up
time is the median of three, then the measured one.  The measured worker runs
whole passes until their timed work reaches --seconds, checks every output
against values computed without the package, and with --trace 1 adds one
traced pass for the per-module metrics.  Times are reference seconds: raw
seconds scaled by the host speed measured alongside them (see worker.py).

Prints each metric with its unit, writes the full record (environment,
samples, failures) to .bench_results/<workload>/seed<seed>-trace<t>.json,
and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1.  Exits 1 without that line
when the run cannot finish, and 2 when the checkout has no setfam source.
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
import time
from importlib import metadata
from pathlib import Path

from workloads import REPEATS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 2
DEADLINE_S = 170


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_start": os.getloadavg(),
    }


def run_worker(args, workdir: Path, started: float, extra: list[str]) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("SETFAM_NODE_BUDGET", None)  # the CLI ops must see the CLI's own default budget
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
        *extra,
    ]
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise RuntimeError(f"no time left within {DEADLINE_S} s")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, started: float, spans: Path) -> tuple[dict, list[float]]:
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [run_worker(args, workdir, started, ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
        extra = ["--spans", str(spans)] if args.trace else []
        result = run_worker(args, workdir, started, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result, setups + [result["setup_s"]]


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed work per run; whole passes repeat until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "setfam" / "__init__.py").is_file():
        print(f"run.py: no setfam source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args.seed)
    out_dir = ROOT / ".bench_results" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"seed{args.seed}-trace{args.trace}"
    try:
        result, setups = measure(args, started, out_dir / f"{stem}-spans.npz")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"run.py: {args.workload} seed {args.seed} did not finish: {exc}", file=sys.stderr)
        return 1

    measured = {
        "wall_s": statistics.median(result["pass_wall_s"]),
        "setup_s": statistics.median(setups),
        "op_p50_ms": result["op_p50_ms"],
        "op_p75_ms": result["op_p75_ms"],
        "certified": result["certified"],
        "peak_rss_mb": result["peak_rss_mb"],
        **result.get("trace", {}),
    }
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "setup_samples_s": setups,
        "worker": result,
        **line,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"{args.workload} seed={args.seed} trace={args.trace} | nproc {env['nproc']} | {env['cpu_model']} | "
        f"Python {env['python']} | numpy {env['numpy']} | load {' '.join(f'{x:.2f}' for x in env['loadavg_start'])}"
    )
    latency_note = f"{result['op_samples']} ops, each its median over {result['passes']} passes"
    if args.workload in REPEATS:
        latency_note += f" or, under 20 ms, over {REPEATS[args.workload]} timings"
    notes = {
        "wall_s": f"median of {result['passes']} passes, host speed factors {', '.join(f'{x:.3f}' for x in result['pass_speed_factors'])}",
        "setup_s": f"median of {len(setups)} set-ups",
        "op_p50_ms": latency_note,
        "op_p75_ms": latency_note,
    }
    for name, m in metrics.items():
        print(f"  {name:28} {m['value']:<22} {m['unit']:8} {notes.get(name, '')}")
    print(f"  ops attempted {result['attempted']}, failed {result['failed']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
