"""One measured workload process: set up, run whole passes, check every output.

run.py starts this script as a fresh process, once per set-up sample
(--setup-only) and once for the measured run.  The last line of its standard
output is one JSON object that run.py reads.

Set-up is the import of setfam from this checkout's src/ plus building the
workload's inputs.  Passes then repeat, untraced, until their timed work
reaches --seconds; with --trace 1 one traced pass follows.  Outputs are
checked after each pass, outside the timed region.

Every time is reported in reference seconds.  The speed of the host drifts,
by up to 2x over minutes on a shared 2-vCPU guest, and swings by a quarter
within milliseconds, so the worker times a fixed pure-Python loop between
ops (about 5% of the op time).  A pass, and each op timing in it, is scaled
by CAL_REF_S over the median of the loop's times during the pass; an op's
latency is the median of its scaled timings over the passes, or over the
extra rounds of a workload that repeats its fast ops (see run_pass).
Set-up is scaled by loop samples taken just before and after it.  The raw
seconds and the factors are kept in the record.
"""

from __future__ import annotations

import argparse
import json
import resource
from array import array
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

from tracing import Tracer, bind  # noqa: E402

KEPT_FAILURES = 20
CAL_LOOP = 25_000  # iterations of one calibration sample
CAL_REF_S = 0.0070  # median calibration sample on the reference host (Intel Xeon KVM guest, Python 3.11.7)
CAL_EVERY_S = 0.12  # op time per calibration sample
CAL_BURST = 50  # most samples taken at once, after a long op
SETUP_CAL = 15  # samples before and after set-up
REPEAT_BELOW_S = 0.02  # ops faster than this are timed again when a workload asks for repeats
ROUND_CAL = 25  # ops per calibration sample in those extra rounds


def calibration_sample() -> float:
    """Seconds one fixed pure-Python loop takes now: the host's current speed."""
    clock = time.perf_counter
    start = clock()
    x = 0
    seen = {}
    for i in range(CAL_LOOP):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        seen[x & 1023] = i
    return clock() - start


def speed_factor(samples) -> float:
    """What turns seconds measured alongside `samples` into reference seconds.

    The median, not the mean: single samples jitter by a quarter back to
    back, and the median tracks the program's own timings best.
    """
    return CAL_REF_S / statistics.median(samples)


def setup(workload: str, seed: int, workdir: Path, tracer: Tracer | None):
    """Import setfam and build the inputs.

    Returns (api, traced api, ops, import s, build s, speed factor).  setfam
    is imported before anything else that loads numpy, so the import time
    includes its dependencies.
    """
    calibration_sample()  # the first loop of a fresh process runs cold
    cal = [calibration_sample() for _ in range(SETUP_CAL)]
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import setfam
    import setfam.cli  # noqa: F401

    import_s = time.perf_counter() - start
    if not Path(setfam.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"setfam was imported from {setfam.__file__}, not from {SRC}")
    import workloads
    api = bind()
    traced = bind(tracer) if tracer else None
    if tracer:
        tracer.begin_op("setup")
    start = time.perf_counter()
    ops = workloads.WORKLOADS[workload](seed, traced or api, workdir)
    build_s = time.perf_counter() - start
    if tracer:
        tracer.end_op()
    cal += [calibration_sample() for _ in range(SETUP_CAL)]
    return api, traced, ops, import_s, build_s, speed_factor(cal)


def run_pass(ops, api, refs, tracer: Tracer | None = None, repeats: int = 1):
    """Run every op once, then check them.

    Returns (pass s, op latencies, failures, certified, calibration samples,
    speed factor).  The pass time is the sum of the ops' first timings, in
    raw seconds; the speed factor turns it into reference seconds.  The
    latencies are in reference seconds: an op's first timing scaled by the
    pass's factor.  With repeats > 1, the ops faster than REPEAT_BELOW_S run
    again in repeats - 1 further rounds after the pass, with a calibration
    sample every ROUND_CAL ops; such an op's latency is the median of its
    timings scaled by the factor of those samples.  A timing that short
    swings with the host's speed by a quarter from one to the next, so a
    single one per op would make a percentile over few ops unsteady.  Only
    the first output of an op is checked.
    """
    clock = time.perf_counter
    latency = array("d", bytes(8 * len(ops)))  # no float objects, so memory does not grow with passes
    outputs = [None] * len(ops)
    errors = {}
    cal = [calibration_sample()]
    since = 0.0

    def calibrate(op_s: float) -> None:
        """Keep calibration near CAL_EVERY_S of op time apart."""
        nonlocal since
        since += op_s
        if since >= CAL_EVERY_S:
            cal.extend(calibration_sample() for _ in range(min(int(since / CAL_EVERY_S), CAL_BURST)))
            since = 0.0

    for i, op in enumerate(ops):
        if tracer:
            tracer.begin_op(op.kind)
        t0 = clock()
        try:
            outputs[i] = op.run(api, op.arg)
        except Exception as exc:  # an op that raises counts as failed; the pass goes on
            errors[i] = f"raised {type(exc).__name__}: {exc}"
        latency[i] = clock() - t0
        if tracer:
            tracer.end_op()
        calibrate(latency[i])
    wall = sum(latency)

    cal.append(calibration_sample())

    fast = [i for i in range(len(ops)) if repeats > 1 and latency[i] < REPEAT_BELOW_S and i not in errors]
    timings = {i: [latency[i]] for i in fast}
    round_cal = []
    for _ in range(repeats - 1):
        for j, i in enumerate(fast):
            if j % ROUND_CAL == 0:
                round_cal.append(calibration_sample())
            t0 = clock()
            ops[i].run(api, ops[i].arg)
            timings[i].append(clock() - t0)
    factor = speed_factor(cal)
    for i in range(len(ops)):
        latency[i] *= factor
    if fast:
        round_factor = speed_factor(round_cal)
        for i in fast:
            latency[i] = statistics.median(timings[i]) * round_factor

    failures = []
    certified = 0
    for i, op in enumerate(ops):
        if i in errors:
            problems, certs = [errors[i]], 0
        else:
            try:
                problems, certs = op.check(op.arg, refs[i], outputs[i])
            except Exception as exc:  # malformed output that the check cannot parse
                problems, certs = [f"check raised {type(exc).__name__}: {exc}"], 0
        if problems:
            failures.append(f"{op.kind}: {'; '.join(problems)}")
        else:
            certified += certs
    return wall, latency, failures, certified, cal, factor


def layer_metrics(tracer: Tracer, factor: float, traced_wall: float, untraced_wall: float) -> dict:
    """Per-module metrics of the traced pass (set-up spans are left out).

    `factor` turns the pass's raw seconds into reference seconds; both walls
    are reference seconds already.
    """
    out = {}
    for module, (calls, busy) in tracer.module_totals().items():
        out[f"{module}.calls"] = calls
        out[f"{module}.busy_s"] = busy * factor
    c = tracer.counts

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out["counting.pair_tests"] = c["counting.pair_tests"]
    out["counting.pair_tests_per_s"] = ratio("counting.pair_tests", "counting.pair_busy_s") / factor
    out["search.nodes"] = c["search.nodes"]
    out["search.nodes_per_s"] = ratio("search.nodes", "search.node_busy_s") / factor
    out["search.complete_ratio"] = ratio("search.complete", "search.certificates")
    out["search.budget_exhausted"] = c["search.budget_exhausted"]
    out["search.local_moves"] = c["search.local_moves"]
    out["search.lemma_configs"] = c["search.lemma_configs"]
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    api, traced, ops, import_s, build_s, factor = setup(args.workload, args.seed, args.workdir, tracer)
    result = {
        "setup_s": (import_s + build_s) * factor,
        "setup_speed_factor": factor,
        "raw_import_s": import_s,
        "raw_build_s": build_s,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import workloads

    ctx = workloads.Context()
    refs = [op.reference(op.arg, ctx) for op in ops]
    walls, raw_walls, factors, samples, latencies, failures, certified = [], [], [], [], [], [], []
    while not walls or sum(raw_walls) < args.seconds:
        wall, t, f, c, cal, factor = run_pass(ops, api, refs, repeats=workloads.REPEATS.get(args.workload, 1))
        walls.append(wall * factor)
        raw_walls.append(wall)
        factors.append(factor)
        samples.append(cal)
        latencies.append(t)
        failures.extend(f)
        certified.append(c)
    times = [statistics.median(per_op) for per_op in zip(*latencies)]  # each op's median over the passes
    passes = len(walls)
    if tracer:
        wall, _, f, c, cal, factor = run_pass(ops, traced, refs, tracer)
        failures.extend(f)
        certified.append(c)
        result["trace"] = layer_metrics(tracer, factor, wall * factor, statistics.median(walls))
        result["traced_wall_s"] = wall * factor
        result["traced_speed_factor"] = factor
        if args.spans:
            tracer.write(str(args.spans))
    if len(set(certified)) > 1:
        failures.append(f"certified count differs between passes: {certified}")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        passes=passes,
        pass_wall_s=walls,
        raw_pass_wall_s=raw_walls,
        pass_speed_factors=factors,
        calibration_samples_s=samples,
        attempted=len(ops) * len(certified),
        failed=len(failures),
        failures=failures[:KEPT_FAILURES],
        certified=certified[0],
        op_samples=len(times),
        op_p50_ms=statistics.median(times) * 1e3,
        op_p75_ms=statistics.quantiles(times, n=4, method="inclusive")[2] * 1e3,
        peak_rss_mb=peak_rss_mb,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
