#!/usr/bin/env python3
"""stockdim benchmark: deterministic inputs, real CLI calls, checked outputs.

Run from the repository root, where the program's source is under src/:

    python3 stockbench/run.py --workload deep-history --seed 1 --seconds 36 --trace 0

`--trace 0` measures end to end. Each iteration makes the workload's
`stockdim` CLI calls one after another, each in a fresh interpreter that
this process starts and waits for; no threads, one client (closed loop).
It prints wall_s, rows_per_s, peak_rss_mb, setup_s and failed_frac, with
times scaled to reference seconds (REFERENCE_PROBE below) and the measured
seconds next to them.

`--trace 1` makes the same CLI calls inside this process, alternating an
untraced and a traced iteration (see tracer.py), and prints per-layer
self times and counts, trace.overhead_frac and trace.coverage. The spans
of the last traced iteration are written to .stockbench/trace-<workload>.json.

`--workload all` runs every benchmark workload in turn.

Every iteration's outputs are checked: each report's sha256 against the
first iteration and, for seed 1, against pinned.json; summary.json's
totals against the sums of plan.csv and volume.csv. A failed check counts
in failed_frac and makes `correct` false. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Without ./src/stockdim the benchmark exits nonzero and prints
no result.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from tracer import Tracer, durations, self_times
from workloads import WORKLOADS, cli_calls, generate

DEFAULT_SEED = 1  # output hashes are pinned for this seed; seed 2 is held out (README.md)
DEFAULT_SECONDS = 36
BENCHMARK_WORKLOADS = ("deep-history", "wide-catalog", "per-artifact")
SETUP_PROBES = 2  # fresh-interpreter imports of stockdim.cli before each iteration
# Times are reported in seconds of a machine on which this program-independent
# probe, a fresh interpreter importing what stockdim imports from outside
# itself, takes REFERENCE_SECONDS. The probe runs before each iteration, so the
# scale follows the machine's speed drift during the run (README.md).
REFERENCE_PROBE = "import click, configparser, csv, dataclasses, fractions, json, logging"
REFERENCE_PROBES = 3
REFERENCE_SECONDS = 0.1
# Layer self times must add up to the traced wall time within this share;
# the rest is the benchmark's own code between the root spans.
COVERAGE_TOLERANCE = 0.02

WORK_DIR = Path(".stockbench")
PINNED = Path(__file__).resolve().parent / "pinned.json"
CLI_ENTRY = "from stockdim.cli import main; main()"

SUMMARY = "summary.json"
OUTPUTS = {
    "classify": ("classification.csv",),
    "forecast": ("forecast.csv",),
    "backtest": ("backtest.csv",),
    "plan": ("plan.csv",),
    "volume": ("volume.csv",),
    "report": ("classification.csv", "forecast.csv", "plan.csv", "volume.csv", "gap.csv", SUMMARY),
}

END_TO_END = {"wall_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "ingestion.parse_s": "s",
    "ingestion.aggregate_s": "s",
    "ingestion.self_s": "s",
    "ingestion.us_per_row": "us",
    "ingestion.rss_mb": "MB",
    "ingestion.rows": "count",
    "classification.self_s": "s",
    "classification.products": "count",
    "classification.class_a": "count",
    "forecasting.self_s": "s",
    "forecasting.fit_s": "s",
    "forecasting.forecast_s": "s",
    "forecasting.backtest_s": "s",
    "forecasting.calls": "count",
    "dimensioning.self_s": "s",
    "dimensioning.plans": "count",
    "volumetric.self_s": "s",
    "volumetric.plans": "count",
    "reporting.self_s": "s",
    "reporting.gaps_s": "s",
    "reporting.render_s": "s",
    "reporting.gap_rows": "count",
    "reporting.output_bytes": "bytes",
    "reporting.loads": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


def _max_rss_mb(_result):
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# What the traced run reads from return values, keyed "layer.function".
OBSERVE = {
    "ingestion.parse_inputs": lambda result: len(result[0]),
    "classification.score_products": len,
    "classification.rank_and_cut": lambda result: sum(r.strategic for r in result),
    "dimensioning.plan_products": len,
    "reporting.build_gaps": len,
    "reporting.load_inputs": _max_rss_mb,
}


class NoResult(Exception):
    """The benchmark cannot measure the program here; it prints no result."""


class OutputCheck:
    """Checks one iteration's output directory; returns a list of problems."""

    def __init__(self, files, pinned):
        self.files = files
        self.pinned = pinned
        self.first = None
        self.output_bytes = 0

    def __call__(self, out_dir: Path):
        problems, hashes, size = [], {}, 0
        for name in self.files:
            path = out_dir / name
            if not path.is_file():
                problems.append(f"{name} is missing")
                continue
            data = path.read_bytes()
            size += len(data)
            hashes[name] = hashlib.sha256(data).hexdigest()
        if self.first is None and not problems:
            self.first = hashes
        for reference, label in ((self.first, "the first iteration"), (self.pinned, "pinned.json")):
            for name, digest in hashes.items():
                if reference is not None and reference.get(name) != digest:
                    problems.append(f"{name} sha256 {digest} differs from {label}")
        if {SUMMARY, "plan.csv", "volume.csv"} <= hashes.keys():
            problems.extend(_summary_problems(out_dir))
        self.output_bytes = size
        return problems


def _read_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _summary_problems(out_dir: Path):
    """summary.json totals recomputed from plan.csv and volume.csv, in file order."""
    try:
        summary = json.loads((out_dir / SUMMARY).read_text(encoding="utf-8"))
        plan = _read_rows(out_dir / "plan.csv")
        volume = _read_rows(out_dir / "volume.csv")
        expected = {
            "products_planned": len(plan),
            "total_qc_boxes": sum(float(row["QC"]) for row in plan),
            "total_pallets": sum(int(row["pallets"]) for row in volume),
            "total_volume_m3": sum(float(row["total_volume_m3"]) for row in volume),
        }
    except (ValueError, KeyError) as exc:
        return [f"cannot recompute the summary.json totals: {exc!r}"]
    return [
        f"summary.json {key} = {summary.get(key)!r}, but the columns sum to {value!r}"
        for key, value in expected.items()
        if summary.get(key) != value
    ]


def _clear(out_dir: Path):
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)


def _spawn(args, env, log: Path):
    """Run the interpreter with `args` to completion.

    Returns (exit code, seconds from start to exit, peak RSS in KiB).
    """
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ])
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss


def _log_tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


def _probe(code, env, log: Path) -> float:
    """Seconds for a fresh interpreter to run `code`."""
    status, elapsed, _ = _spawn(["-c", code], env, log)
    if status != 0:
        raise NoResult(f"`python -c {code!r}` exited with {status}: {_log_tail(log)}")
    return elapsed


def _check_child_import(src: Path, env) -> None:
    probe = subprocess.run(
        [sys.executable, "-c", "import stockdim.cli; print(stockdim.cli.__file__)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if probe.returncode != 0:
        raise NoResult(f"cannot import stockdim.cli from {src}: {probe.stderr.strip()}")
    if not Path(probe.stdout.strip()).resolve().is_relative_to(src.resolve()):
        raise NoResult(f"stockdim.cli imported from {probe.stdout.strip()}, not from {src}")


def _window(seconds, minimum=1):
    """Yield once per iteration for `seconds`.

    The first `minimum` iterations always run; another starts only if one
    of the median length so far still ends inside the window.
    """
    start = last = time.perf_counter()
    lengths = []
    while True:
        yield
        now = time.perf_counter()
        lengths.append(now - last)
        last = now
        if len(lengths) >= minimum and now + statistics.median(lengths) > start + seconds:
            return


class Measurement:
    """Iteration counts and the samples of iterations that ran to completion."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples = []

    def record(self, problems, sample):
        """Count one iteration and keep its sample, if it has one."""
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"stockbench: iteration {self.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        if sample is not None:
            self.samples.append(sample)


def measure_end_to_end(calls, src: Path, work: Path, check, seconds, rows):
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    _check_child_import(src, env)
    log = work / "cli.log"
    out_dir = Path(calls[0][calls[0].index("--out-dir") + 1])
    result, setup, reference = Measurement(), [], []
    # The import above compiled the bytecode, so no warm-up iteration is needed.
    # The machine's speed drifts over seconds, so set-up and the reference are
    # sampled before every iteration rather than all at once.
    for _ in _window(seconds):
        setup.extend(_probe("import stockdim.cli", env, log) for _ in range(SETUP_PROBES))
        reference.extend(_probe(REFERENCE_PROBE, env, log) for _ in range(REFERENCE_PROBES))
        _clear(out_dir)
        wall, peak_kib, problems = 0.0, 0, []
        for call in calls:
            code, elapsed, max_rss = _spawn(["-c", CLI_ENTRY, *call], env, log)
            wall += elapsed
            peak_kib = max(peak_kib, max_rss)
            if code != 0:
                problems.append(f"`stockdim {call[0]}` exited with {code}: {_log_tail(log)}")
                break
        sample = None if problems else (wall, peak_kib / 1024)
        problems = problems or check(out_dir)
        result.record(problems, sample)
    if not result.samples:
        raise NoResult("no iteration ran to completion")

    walls = [wall for wall, _ in result.samples]
    measured_wall, measured_setup = statistics.median(walls), statistics.median(setup)
    measured_reference = statistics.median(reference)
    scale = REFERENCE_SECONDS / measured_reference
    metrics = {
        "wall_s": measured_wall * scale,
        "rows_per_s": rows / (measured_wall * scale),
        "peak_rss_mb": statistics.median(peak for _, peak in result.samples),
        "setup_s": measured_setup * scale,
    }
    n = len(walls)
    notes = {
        "wall_s": f"median of {n}; {measured_wall:.6g} s measured",
        "rows_per_s": f"median of {n}; {rows / measured_wall:.6g} rows/s measured",
        "peak_rss_mb": f"median of {n}",
        "setup_s": f"median of {len(setup)}; {measured_setup:.6g} s measured",
    }
    print(f"  reference probe: median {measured_reference:.6g} s of {len(reference)}, "
          f"nominal {REFERENCE_SECONDS} s, so times are scaled by {scale:.4f}")
    return result, metrics, notes


def layer_metrics(tracer: Tracer, wall: float, output_bytes: int):
    """Per-layer metrics of one traced iteration (trace.overhead_frac aside)."""
    spans = tracer.spans
    own = self_times(spans)
    took, calls = durations(spans)
    observed = tracer.observed
    layer_calls = Counter(span[1] for span in spans)
    rows = sum(observed["ingestion.parse_inputs"])
    return {
        "ingestion.parse_s": took["ingestion.parse_inputs"],
        "ingestion.aggregate_s": took["ingestion.aggregate_monthly"],
        "ingestion.self_s": own["ingestion"],
        "ingestion.us_per_row": own["ingestion"] / rows * 1e6 if rows else 0.0,
        "ingestion.rss_mb": max(observed["reporting.load_inputs"], default=0.0),
        "ingestion.rows": rows,
        "classification.self_s": own["classification"],
        "classification.products": max(observed["classification.score_products"], default=0),
        "classification.class_a": max(observed["classification.rank_and_cut"], default=0),
        "forecasting.self_s": own["forecasting"],
        "forecasting.fit_s": took["forecasting.fit_seasonal_indices"],
        "forecasting.forecast_s": took["forecasting.forecast"],
        "forecasting.backtest_s": took["forecasting.backtest"],
        "forecasting.calls": layer_calls["forecasting"],
        "dimensioning.self_s": own["dimensioning"],
        "dimensioning.plans": sum(observed["dimensioning.plan_products"]),
        "volumetric.self_s": own["volumetric"],
        "volumetric.plans": calls["volumetric.volumetric_plan"],
        "reporting.self_s": own["reporting"],
        "reporting.gaps_s": took["reporting.build_gaps"],
        "reporting.render_s": sum(
            t for key, t in took.items() if key.startswith("reporting.") and key.endswith("_csv")
        ),
        "reporting.gap_rows": sum(observed["reporting.build_gaps"]),
        "reporting.output_bytes": output_bytes,
        "reporting.loads": calls["reporting.load_inputs"],
        "cli.self_s": own["cli"],
        "trace.coverage": sum(own.values()) / wall,
    }


def measure_traced(calls, src: Path, check, seconds, trace_file: Path, sink):
    if str(src.resolve()) not in sys.path:
        sys.path.insert(0, str(src.resolve()))
    try:
        import stockdim
        import stockdim.cli
    except ImportError as exc:
        raise NoResult(f"cannot import stockdim.cli from {src}: {exc}") from exc
    if not Path(stockdim.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise NoResult(f"stockdim.cli imported from {stockdim.cli.__file__}, not from {src}")
    group = stockdim.cli.main
    tracer = Tracer(stockdim, OBSERVE)
    out_dir = Path(calls[0][calls[0].index("--out-dir") + 1])

    def iteration(traced):
        # The CLI's output goes to the sink, as a child's goes to its log. Its
        # logging handler keeps the first stderr it sees: the sink, open for the run.
        wall = 0.0
        for call in calls:
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if traced:
                    tracer.root(call[0], "cli", group.main, call,
                                prog_name="stockdim", standalone_mode=False)
                else:
                    group.main(call, prog_name="stockdim", standalone_mode=False)
            wall += time.perf_counter() - start
        return wall

    result = Measurement()
    plain_walls, traced_walls, last_spans = [], [], []
    traced = False
    for _ in _window(seconds, minimum=2):  # one untraced and one traced iteration
        _clear(out_dir)
        tracer.clear()
        if traced:
            tracer.install()
        try:
            wall, problems = iteration(traced), []
        except Exception:  # noqa: BLE001 - a failing CLI call is counted, not fatal
            wall, problems = None, [traceback.format_exc().strip().splitlines()[-1]]
        finally:
            tracer.uninstall()
        problems = problems or check(out_dir)
        sample = None
        if wall is not None and traced:
            sample = layer_metrics(tracer, wall, check.output_bytes)
            if abs(sample["trace.coverage"] - 1) > COVERAGE_TOLERANCE:
                problems.append(f"layer self times cover {sample['trace.coverage']:.4f} "
                                f"of the traced wall time, beyond ±{COVERAGE_TOLERANCE}")
            traced_walls.append(wall)
            last_spans = list(tracer.spans)
        elif wall is not None:
            plain_walls.append(wall)
        result.record(problems, sample)
        traced = not traced
    if not result.samples or not plain_walls:
        raise NoResult("no traced and untraced iteration pair ran to completion")
    for error in sorted(set(tracer.observer_errors)):
        print(f"stockbench: observer failed, its metric reads 0: {error}", file=sys.stderr)

    metrics = {}
    for name in result.samples[0]:
        # Counts repeat in every iteration; the low median keeps them whole.
        pick = statistics.median_low if PER_LAYER[name] in ("count", "bytes") else statistics.median
        metrics[name] = pick(sample[name] for sample in result.samples)
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    notes = dict.fromkeys(metrics, f"median of {len(result.samples)}")
    _write_spans(trace_file, last_spans)
    return result, {name: metrics[name] for name in PER_LAYER}, notes


def _write_spans(path: Path, spans):
    origin = spans[0][2] if spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "fields": ["name", "layer", "start_s", "end_s", "parent"],
        "spans": [[name, layer, start - origin, end - origin, parent]
                  for name, layer, start, end, parent in spans],
    }) + "\n", encoding="utf-8")


def run_workload(name, seed, seconds, trace, root: Path, sink):
    workload = WORKLOADS[name]
    shape = workload.shape
    work = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    try:
        stats = generate(name, seed, work / "inputs")
        calls = cli_calls(workload, work / "inputs", work / "out")
        files = sorted({f for command, *_ in workload.commands for f in OUTPUTS[command]})
        pinned = None
        if seed == DEFAULT_SEED:
            pinned = json.loads(PINNED.read_text(encoding="utf-8"))["hashes"].get(name)
        check = OutputCheck(files, pinned)
        print(f"{name}, seed {seed}: {stats['products']} products, {stats['rows']} delivery rows, "
              f"{shape.start_year}..{shape.start_year + shape.years - 1}")
        for call in calls:
            print("  stockdim " + " ".join(call))
        src = root / "src"
        if trace:
            result, metrics, notes = measure_traced(
                calls, src, check, seconds, WORK_DIR / f"trace-{name}.json", sink)
            units = PER_LAYER
        else:
            result, metrics, notes = measure_end_to_end(
                calls, src, work, check, seconds, stats["rows"])
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for metric, value in metrics.items():
        print(f"  {metric:<24} {value:>14.6g} {units[metric]:<6}  {notes[metric]}")
    print(f"  {'failed_frac':<24} {result.failed / result.attempted:>14.6g} ratio   "
          f"{result.failed} of {result.attempted} iterations failed")
    return result, {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="stockdim benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        if not (Path.cwd() / "src" / "stockdim" / "cli.py").is_file():
            raise NoResult("no stockdim source under ./src; run from the repository root")
        with open(os.devnull, "w", encoding="utf-8") as sink:
            for name in names:
                result, workload_metrics = run_workload(
                    name, args.seed, args.seconds, args.trace, Path.cwd(), sink)
                attempted += result.attempted
                failed += result.failed
                if len(names) == 1:
                    metrics = workload_metrics
                else:
                    metrics.update({f"{name}/{m}": v for m, v in workload_metrics.items()})
    except NoResult as exc:
        print(f"stockbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
