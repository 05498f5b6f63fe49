"""One benchmark process: import and warm the library, then (unless only
set-up is measured) run one workload as a closed loop.

One client on one thread sends each request only after the previous one
returned.  Requests are timed with this process's own perf_counter;
preparing a round and checking each answer happen outside the timed
calls (and, in a traced run, with tracing paused).  Before each request
the worker also times a fixed calibration kernel, so that run.py can
take the machine's drifting speed out of the request times.

    python3 perfbench/worker.py --root . --workload pg-search --seed 1 \\
        --workdir DIR --out FILE --seconds S [--trace]

Writes a JSON result to --out; with --setup-only it measures set-up and
prints that result instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

MIN_REQUESTS = 100  # so that at least 10 samples lie beyond the 90th percentile
CALIBRATION_SAMPLES = 9  # kernel timings per set-up measurement
CALIBRATION_REF_MS = 1.4  # the kernel's time at the reported machine speed
SPEED_WINDOW = 10  # calibrations on each side of a request that set its speed


def calibration_ms() -> float:
    """Time of a fixed piece of pure-Python work that never calls the
    library (about 1.4 ms on the machine the benchmark was tuned on,
    1.0 to 1.8 ms as that shared machine's speed drifted).  It mixes a
    tight integer loop with allocation, calls and sorting, which together
    tracked the speed of all three workloads' library code better than
    either part alone."""
    start = perf_counter()
    row = list(range(64))
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        k = i & 63
        acc += row[k] * (i % 7)
        table[k] = acc & 0xFFFF
        if table.get((k + 1) & 63, 0) > 30000:
            acc -= 1
    rows = [[(i * j) % 7 - 3 for j in range(12)] for i in range(12)]
    for t in range(12):
        pivots = [r for r in range(t, 12) if rows[r][t]]
        if not pivots:
            continue
        p = min(pivots, key=lambda r: abs(rows[r][t]))
        rows[t], rows[p] = rows[p], rows[t]
        for r in range(t + 1, 12):
            q = rows[r][t] // rows[t][t]
            if q:
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[t])]
    counts: dict[tuple[int, int], int] = {}
    for i in range(300):
        key = (i % 23, (i * 31 + 7) % 97)
        counts[key] = counts.get(key, 0) + len([x for x in range(i % 9)])
    sorted(counts.items())
    return 1000.0 * (perf_counter() - start)


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workdir")
    p.add_argument("--out")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--deadline", type=float, default=150.0,
                   help="stop at the next request once this many seconds have passed")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def set_up(root: Path, workload) -> dict:
    """Import tilingcalc.cli and warm the workload's per-process state."""
    start = perf_counter()
    sys.path.insert(0, str(root / "src"))
    import tilingcalc.cli  # noqa: F401

    imported = perf_counter()
    workload.warm()
    done = perf_counter()
    calibration = sorted(calibration_ms() for _ in range(CALIBRATION_SAMPLES))
    return {
        "import_ms": 1000.0 * (imported - start),
        "setup_s": done - start,
        "calibration_ms": calibration[CALIBRATION_SAMPLES // 2],
    }


def run_loop(workload, args, tracer) -> dict:
    """Whole rounds until the timed calls add up to --seconds at the
    reference machine speed and at least MIN_REQUESTS were sent, so that
    the amount of work does not follow the machine's speed.  With a
    tracer, even rounds are traced and odd ones are not, and the run ends
    after an even number of rounds: rounds share one request mix, so the
    two halves time the same work and tracing's overhead shows."""
    wall_start = time.monotonic()
    latencies, calibrations, statuses, errors = [], [], [], []
    traced_flags = []
    busy = scaled_busy = 0.0
    rounds = 0
    while True:
        requests = workload.round(rounds)
        traced = tracer is not None and rounds % 2 == 0
        for req in requests:
            if time.monotonic() - wall_start > args.deadline:
                break
            calibrations.append(calibration_ms())
            traced_flags.append(traced)
            if traced:
                tracer.request = len(latencies)
                tracer.enabled = True
            t0 = perf_counter()
            try:
                raw, failure = workload.execute(req), None
            except Exception as exc:  # a raising request is a failed one; keep going
                raw, failure = None, exc
            elapsed = perf_counter() - t0
            if tracer:
                tracer.enabled = False
            if failure is not None:
                status = workloads.RAISED
                errors.append(f"{req.label}: {''.join(traceback.format_exception(failure, limit=3))}")
            else:
                try:
                    status = workload.check(req, raw)
                except Exception:  # an answer the check cannot read is wrong
                    status = workloads.WRONG
                    errors.append(f"{req.label}: check: {traceback.format_exc(limit=3)}")
                else:
                    if status == workloads.WRONG:
                        errors.append(f"{req.label}: wrong answer")
            busy += elapsed
            recent = sorted(calibrations[-(2 * SPEED_WINDOW + 1):])
            scaled_busy += elapsed * CALIBRATION_REF_MS / recent[len(recent) // 2]
            latencies.append(1000.0 * elapsed)
            statuses.append(status)
        else:
            rounds += 1
            enough = scaled_busy >= args.seconds and len(latencies) >= MIN_REQUESTS
            if enough and not (tracer and rounds % 2):
                break
            continue
        break  # the deadline cut a round short
    return {
        "latencies_ms": latencies,
        "calibrations_ms": calibrations,
        "traced": traced_flags,
        "statuses": statuses,
        "busy_s": busy,
        "rounds": rounds,
        "errors": errors[:20],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    workload_cls = workloads.WORKLOADS[args.workload]
    setup = set_up(root, workload_cls)
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    workdir = Path(args.workdir)
    workload = workload_cls(args.seed, workdir, root)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        result = run_loop(workload, args, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    result.update(setup)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        spans_path = workdir / "spans.json"
        spans_path.write_text(json.dumps(tracer.spans))
        result["spans_file"] = str(spans_path)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
