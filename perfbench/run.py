"""tilingcalc benchmark: one seeded workload, its checked verdicts, and
its end-to-end (--trace 0) or per-layer (--trace 1) metrics.

    python3 perfbench/run.py --workload pg-search --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout.  The library is used from its
``src/`` tree as it stands; nothing is built or installed.  Inputs are
written to a private directory under ``.perfbench_work/``, which is
removed at the end.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit and sample count.  The exit
code is 0 when every answer was correct, 1 when one was not, and 2 when
the benchmark could not run.  See perfbench/README.md for the workloads,
the known answers and the metric-to-layer map.

Times are reported at a fixed machine speed: each measured time is
multiplied by CALIBRATION_REF_MS over the time a fixed calibration
kernel took around it (worker.calibration_ms).  On a shared machine,
whose speed drifts by tens of percent over minutes, this removes most of
the drift and leaves changes in the library's own speed; the raw times
are printed too.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads
from worker import CALIBRATION_REF_MS, SPEED_WINDOW

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8  # fresh processes that only set up; each worker adds one more sample
TIME_LIMIT = 170.0  # a run must end within 180 s


def speed_factors(calibrations_ms: list[float]) -> list[float]:
    """Per request: the reference kernel time over the median kernel time
    in a window of neighbouring requests."""
    out = []
    for i in range(len(calibrations_ms)):
        window = sorted(calibrations_ms[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1])
        out.append(CALIBRATION_REF_MS / window[len(window) // 2])
    return out


def scaled_latencies(result: dict) -> list[float]:
    factors = speed_factors(result["calibrations_ms"])
    return [ms * f for ms, f in zip(result["latencies_ms"], factors)]


def scaled_setup(setup: dict, key: str) -> float:
    return setup[key] * CALIBRATION_REF_MS / setup["calibration_ms"]


class BenchmarkError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    def __init__(self, args, root: Path, workdir: Path):
        self.args = args
        self.root = root
        self.workdir = workdir
        self.started = time.monotonic()

    def remaining(self) -> float:
        return TIME_LIMIT - (time.monotonic() - self.started)

    def worker(self, *extra: str, out: str | None = None) -> dict:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--root", str(self.root),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--workdir", str(self.workdir),
            *extra,
        ]
        if out:
            cmd += ["--out", str(self.workdir / out)]
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchmarkError("out of time")
        try:
            done = subprocess.run(
                cmd, cwd=self.root, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchmarkError(f"worker overran the {TIME_LIMIT:.0f} s limit") from exc
        if done.returncode != 0:
            raise BenchmarkError(f"worker exited {done.returncode}:\n{done.stderr}")
        if out:
            return json.loads((self.workdir / out).read_text())
        return json.loads(done.stdout)

    def probes(self) -> list[dict]:
        return [self.worker("--setup-only") for _ in range(SETUP_PROBES)]


def summarize(result: dict) -> dict:
    statuses = result["statuses"]
    counts = {s: statuses.count(s) for s in sorted(set(statuses))}
    attempted = len(statuses)
    failed = sum(counts.get(s, 0) for s in (workloads.WRONG, workloads.RAISED, workloads.EXIT_CONTRACT))
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and attempted > 0,
        "counts": counts,
    }


def latency_metrics(lat: list[float], busy_s: float) -> dict:
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "throughput_rps": (len(lat) / busy_s, "requests/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
    }


def end_to_end(result: dict, setups: list[dict], summary: dict) -> dict:
    lat = scaled_latencies(result)
    return {
        **latency_metrics(lat, sum(lat) / 1000.0),
        "decided_ratio": (summary["counts"].get(workloads.OK, 0) / len(lat), "fraction"),
        "setup_s": (statistics.median(scaled_setup(s, "setup_s") for s in setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result: dict, setups: list[dict]) -> dict:
    spans = json.loads(Path(result["spans_file"]).read_text())
    traced = result["traced"]
    speed = CALIBRATION_REF_MS / statistics.median(result["calibrations_ms"])
    metrics = tracing.per_layer_metrics(tracing.layer_totals(spans), sum(traced), speed)
    metrics["cli.import_ms"] = (
        statistics.median(scaled_setup(s, "import_ms") for s in setups), "ms"
    )
    lat = scaled_latencies(result)
    on = [ms for ms, t in zip(lat, traced) if t]
    off = [ms for ms, t in zip(lat, traced) if not t]
    if not off:
        raise BenchmarkError("the run ended before an untraced round")
    metrics["trace.overhead_ratio"] = (statistics.fmean(on) / statistics.fmean(off) - 1.0, "ratio")
    return metrics


def report_lines(name: str, metrics: dict, result: dict, setups: list[dict], summary: dict):
    lat = scaled_latencies(result)
    p90 = metrics.get("latency_p90_ms", (None,))[0]
    raw = latency_metrics(result["latencies_ms"], result["busy_s"])
    raw_setup = statistics.median(s["setup_s"] for s in setups)
    notes = {
        "latency_p50_ms": f"n={len(lat)}; raw {raw['latency_p50_ms'][0]:.6g}",
        "latency_p90_ms": f"n={len(lat)}, {sum(x > p90 for x in lat) if p90 else 0} above; "
        f"raw {raw['latency_p90_ms'][0]:.6g}",
        "setup_s": f"median of {len(setups)} fresh processes; raw {raw_setup:.6g}",
        "throughput_rps": f"{result['rounds']} rounds, {result['busy_s']:.2f} s busy; "
        f"raw {raw['throughput_rps'][0]:.6g}",
    }
    calibration = statistics.median(result["calibrations_ms"])
    yield f"# {name}: {summary['attempted']} requests, outcomes {summary['counts']}"
    yield f"# calibration kernel: median {calibration:.4g} ms per call (reference {CALIBRATION_REF_MS} ms)"
    attempted = summary["attempted"]
    undecided = summary["counts"].get(workloads.UNDECIDED, 0)
    if "decided_ratio" in metrics:
        yield (
            f"# failed_ratio = {(attempted - summary['counts'].get(workloads.OK, 0)) / attempted:.4f} fraction"
            f" (undecided {undecided}, wrong/raised/exit-contract {summary['failed']})"
        )
    for metric, (value, unit) in metrics.items():
        note = notes.get(metric, "")
        yield f"# {metric} = {value:.6g} {unit}" + (f"  ({note})" if note else "")
    for err in result["errors"][:5]:
        yield "# error: " + err.strip().replace("\n", "\n#   ")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tilingcalc" / "cli.py").is_file():
        print("error: run from the root of a tilingcalc checkout (no src/tilingcalc)", file=sys.stderr)
        return 2
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        run = Run(args, root, workdir)
        sys.path.insert(0, str(root / "src"))
        workloads.prepare_inputs(args.workload, root, workdir)
        setups = run.probes()
        trace = ["--trace"] if args.trace else []
        result = run.worker(*trace, "--seconds", str(args.seconds), "--deadline",
                            str(run.remaining() - 5.0), out="result.json")
        setups.append(result)
        summary = summarize(result)
        metrics = per_layer(result, setups) if args.trace else end_to_end(result, setups, summary)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another run is still using it
            pass
    for line in report_lines(args.workload, metrics, result, setups, summary):
        print(line)
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
