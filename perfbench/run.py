"""solitonlab benchmark: one workload, run as a closed loop from this process.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Operations run one after another, each one's outputs checked,
until the next one would end more than ``--seconds`` after the first began.
The first operation also has the few wrappers installed that the
deterministic counts are read from; its counts, verdicts and CSV digests are
compared with ``perfbench/expected.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates traced and untraced operations, starting traced,
and reports the per-layer metrics; the spans go to ``.perfbench_out/``.
The last line of standard output is the JSON result; the lines before it are
for people.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5

# Runs in a fresh interpreter: import numpy, then the package, and load the
# workload's configs; prints both intervals.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from solitonlab import cli, runio
for path in sys.argv[2:]:
    runio.load_config(path)
print(repr(t1 - t0), repr(time.perf_counter() - t1))
"""
# numpy's import is a fixed cost of the one runtime dependency and swings with
# the host's file and loader state, which the calibration below does not
# follow; it reads as this constant.  The package's own import and config
# loading are interpreter work and are scaled like the operations.
SETUP_NUMPY_REF_S = 0.12


# Host speed on a shared machine drifts by tens of per cent within minutes.
# A fixed calibration loop (this file's own code, never the package's) runs
# before the first operation and after every operation, for about a twentieth
# of the last operation's time.  Each operation's wall time is scaled by
# CALIBRATION_REF_S over the mean calibration time on either side of it.  The
# loop is plain interpreter work, because that is what tracks the workloads'
# slow-downs on such a host: a small-array numpy loop did not.
# CALIBRATION_REF_S is the loop's time on a 2-core Intel Xeon VM (Python
# 3.11.7) in its faster state, so reported times are seconds at that speed.
CALIBRATION_STEPS = 250_000
CALIBRATION_REF_S = 0.0175
CALIBRATION_SHARE = 0.05


def calibrate(budget: float) -> float:
    """Mean seconds per pass of a fixed pure-Python arithmetic loop, over
    as many passes as fit in ``budget`` seconds (at least one)."""
    t0 = time.perf_counter()
    passes = 0
    while not passes or time.perf_counter() - t0 < budget:
        s = 0
        for i in range(CALIBRATION_STEPS):
            s += i * i
        passes += 1
    return (time.perf_counter() - t0) / passes


class HostClock:
    """Scales intervals by the host speed measured around them."""

    def __init__(self):
        self.last = calibrate(0.1)
        self.samples = [self.last]

    def scale(self, seconds: float) -> float:
        """Scale an interval that ended just now; calibrates again."""
        now = calibrate(max(0.05, CALIBRATION_SHARE * seconds))
        self.samples.append(now)
        factor = CALIBRATION_REF_S / (0.5 * (self.last + now))
        self.last = now
        return seconds * factor


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail(walls):
    """Highest of p99.9, p99, p95 and p90 with at least ten samples beyond
    it; the maximum when there are too few samples for p90.  Lower
    percentiles are not candidates: a run whose count crossed twenty would
    jump from the maximum to the median."""
    n = len(walls)
    for q in (99.9, 99.0, 95.0, 90.0):
        if n - math.ceil(q / 100 * n) >= 10:
            return q, nearest_rank(walls, q)
    return 100.0, max(walls)


def run_record(workload) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in sorted((SRC / "solitonlab").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "inputs": workload.inputs(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_lines": src_lines,
    }


def setup_times(workload, clock) -> list[float]:
    """Fresh-interpreter set-up times: numpy's import at its reference time
    plus the host-speed-scaled time of the package's import and config load."""
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *workload.config_paths()],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        t_package = float(done.stdout.split()[1])
        times.append(SETUP_NUMPY_REF_S + clock.scale(t_package))
    return times


def one_op(workload, work: str, index: int, tracer=None, full: bool = True):
    """Run, time and check one operation, with the tracer installed if one is
    given.  Returns (wall seconds, outcome, per-layer metrics or None)."""
    from workloads import Outcome

    out = os.path.join(work, f"op{index:04d}")
    os.makedirs(out)
    if tracer is not None:
        tracer.begin(index)
        tracer.install(full)
    gc.collect()  # the previous operation's garbage is not collected on this one's time
    t0 = time.perf_counter()
    try:
        result = workload.run(out)
        error = None
    except Exception as exc:  # an operation that raises is a failed operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if error is None:
        try:
            outcome = workload.check(result, out, tracer)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            outcome = Outcome()
            outcome.problems.append(f"output check failed: {type(exc).__name__}: {exc}")
    else:
        outcome = Outcome()
        outcome.problems.append(error)
    layers = tracer.op_metrics() if tracer is not None else None
    shutil.rmtree(out)
    return wall, outcome, layers


def observed_counts(outcome, layers) -> dict:
    counts = dict(outcome.counts)
    if layers is not None and "integrator.per_cell" not in counts:
        for name in (
            "integrator.n_accepted",
            "integrator.n_rejected",
            "integrator.n_rhs",
            "integrator.calls",
            "monitors.probe_solves",
            "rescaled.integrate_calls",
        ):
            counts[name] = layers[name]
        counts["integrator.per_call"] = layers["integrator.per_call"]
    return counts


def compare_expected(workload, outcome, counts, expected):
    """Count mismatches (reported only; None where the record does not
    apply), verdict mismatches (added to the outcome's problems), and the
    number of CSVs equal to the recorded digest out of those recorded."""
    if not workload.seed_free and workload.seed != 0:
        return None, 0, 0  # the record holds seed 0 only
    mine = expected[workload.name]
    mismatches = []
    for name, want in mine["counts"].items():
        got = counts.get(name)
        if got != want:
            mismatches.append(f"{name}: expected {want}, got {got}")
    for label, want in mine["verdicts"].items():
        got = outcome.verdicts.get(label)
        if got != want:
            outcome.problems.append(f"{label}: expected {want}, got {got}")
    digests = mine["digests"]
    same = sum(outcome.digests.get(k) == v for k, v in digests.items())
    return mismatches, same, len(digests)


def gate_summary(mismatches) -> str:
    if mismatches is None:
        return "not applied (the record holds seed 0)"
    return f"{len(mismatches)} mismatches" if mismatches else "ok"


def load_modules():
    from solitonlab import cli, integrator, launch, monitors, rescaled, runio, systems, trajectory

    return {
        "cli": cli,
        "runio": runio,
        "monitors": monitors,
        "rescaled": rescaled,
        "trajectory": trajectory,
        "launch": launch,
        "integrator": integrator,
        "systems": systems,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "solitonlab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'solitonlab'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](str(ROOT), args.seed)
    tracer = Tracer(load_modules())
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work")
    try:
        return measure(args, workload, tracer, work, bench, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass  # another run is still using it


def measure(args, workload, tracer, work, bench, expected) -> int:
    record = run_record(workload)
    print("record " + json.dumps(record, sort_keys=True))

    deadline = time.perf_counter() + args.seconds
    clock = HostClock()
    ops = []  # (traced, wall, scaled wall, outcome, layers)
    estimate = 0.0
    while not ops or time.perf_counter() + estimate <= deadline:
        first = not ops
        traced = bool(args.trace) and len(ops) % 2 == 0
        wall, outcome, layers = one_op(
            workload, work, len(ops), tracer if traced or first else None, full=traced
        )
        if first:
            counts = observed_counts(outcome, layers)
            mismatches, same_csv, n_csv = compare_expected(workload, outcome, counts, expected)
            for line in mismatches or ():
                print("count mismatch " + line)
        ops.append((traced, wall, clock.scale(wall), outcome, layers))
        estimate = (1.0 + CALIBRATION_SHARE) * statistics.median(op[1] for op in ops)

    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    # read before the set-up interpreters run, so the only children so far are pool workers
    peak_rss = rss_self + workload.pool_workers * rss_children
    setups = setup_times(workload, clock)

    outcomes = [op[3] for op in ops]
    failed = sum(bool(o.problems) for o in outcomes)
    for i, o in enumerate(outcomes):
        for problem in o.problems[:5]:
            print(f"op {i} failed: {problem}")
    attempted = len(outcomes)
    print(
        f"{workload.name} seed {workload.seed}: {attempted} operations, {failed} failed, "
        f"count gate {gate_summary(mismatches)}, "
        f"csv identical {same_csv}/{n_csv}"
    )
    print("scaled walls " + " ".join(f"{op[2]:.3f}" for op in ops))
    print(
        f"host calibration median {statistics.median(clock.samples):.4f} s "
        f"(reference {CALIBRATION_REF_S} s); "
        f"unscaled median wall {statistics.median(op[1] for op in ops):.4f} s"
    )

    untraced = [scaled for traced, _, scaled, _, _ in ops if not traced]
    if args.trace:
        metrics = per_layer(workload, ops)
        metrics["runio.csv_identical"] = same_csv
        metrics["gate.count_mismatches"] = len(mismatches or ())
        spec = bench["per_layer"]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload.name}-seed{workload.seed}.jsonl"
        tracer.dump(str(spans), record)
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        q, tail_value = tail(untraced)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(untraced),
            "wall_tail_s": tail_value,
            "peak_rss_mb": peak_rss,
            "max_conservation_rel": max(o.conservation_rel for o in outcomes),
        }
        spec = bench["end_to_end"]
        print(f"wall_tail_s is p{q:g} of {len(untraced)} operations")
        print(f"failed_share {failed / attempted!r} share ({failed}/{attempted})")
        chart = max(o.chart_deviation for o in outcomes)
        if chart > 0.0:
            print(f"max_chart_deviation {chart!r} ratio")

    units = {m["name"]: m["unit"] for m in spec}
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def per_layer(workload, ops) -> dict:
    """Medians over the traced operations, plus values read from the
    operations' outputs.  Times here are not scaled for host speed."""
    traced = [(layers, outcome) for t, _, _, outcome, layers in ops if t]
    metrics = {}
    for name, value in traced[0][0].items():
        values = [layers[name] for layers, _ in traced]
        if isinstance(value, int):
            metrics[name] = statistics.median_low(values)  # counts stay whole numbers
        elif isinstance(value, float):
            metrics[name] = statistics.median(values)
    ratios = [o.extra["monitors.probe_useful_ratio"] for _, o in traced
              if "monitors.probe_useful_ratio" in o.extra]
    metrics["monitors.probe_useful_ratio"] = ratios[0] if ratios else 0.0
    walls = {True: [], False: []}
    for t, wall, _, _, _ in ops:
        walls[t].append(wall)
    metrics["trace.overhead_s"] = (
        statistics.median(walls[True]) - statistics.median(walls[False]) if walls[False] else 0.0
    )
    # untraced operations only: forked pool workers inherit the tracer's wrappers
    cells = [(wall, o.extra) for t, wall, _, o, _ in ops if not t and "cli.cell_s_sum" in o.extra]
    metrics["cli.cell_s_sum"] = statistics.median(e["cli.cell_s_sum"] for _, e in cells) if cells else 0.0
    metrics["cli.cells_failed"] = max((e["cli.cells_failed"] for _, e in cells), default=0)
    metrics["cli.pool_overhead_s"] = (
        statistics.median(w - e["cli.cell_s_sum"] / workload.pool_workers for w, e in cells)
        if cells else 0.0
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
