"""End-to-end and per-layer benchmark of the qinterro CLI.

Usage, from the root of a source checkout:

    python3 benchmark/run.py --workload fringe-dense --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload calls qinterro.cli.main(argv) in this process, one call at a
time (a closed loop with one client), single-threaded. Every call is checked
against the closed forms its inputs were drawn from; a non-zero exit, an
exception or a failed check counts as a failed call. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are end-to-end and tracing is off.
With --trace 1 each call is made twice, plain and traced, and the metrics are
per layer: self time and counts from spans recorded around each layer's
public functions where the caller looks them up (see TARGETS).

The host is shared and has slow spells of a few seconds, so call_p50_ms,
call_tail_ms and points_per_s are taken over the calls in the quieter half of
the run (see quiet_calls), and setup_s is the median of fresh interpreters
started at even intervals through the run rather than all at its start.

Every call writes to a new output path that is removed after its check.
Rewriting an existing file truncates it, and on ext4 the close after a
truncate-and-rewrite waits for the data to reach disk (tens of ms against
0.01 ms for a new file), which would hide every layer behind the disk. Real
disk behaviour is out of scope here.
"""
from __future__ import annotations

import os

# One thread: numpy's BLAS must not fan out over the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracer import Tracer, summarize
from workloads import WORKLOADS, Invocation

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# The metrics a run reports, with their units: BENCHMARK.json's end_to_end
# list without tracing, its per_layer list with it.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_SAMPLES = 21
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qinterro.cli; qinterro.cli.build_parser(); "
    "print(time.perf_counter() - t)"
)
WARMUP_CALLS = 2
# The width of the windows over which quiet_calls judges the host's speed.
WINDOW_S = 0.5

def _windows_fringe(args: dict, result) -> dict:
    return {"sources.windows_drawn": len(args["phase_grid"]) * args["windows_per_point"]}


def _windows_iprob(args: dict, result) -> dict:
    return {"sources.windows_drawn": 2 * args["windows"]}


def _fit(args: dict, result) -> dict:
    return {"analysis.fit.fallbacks": int(result.used_fallback),
            "analysis.fit.points": len(args["scan"])}


# (module, attribute the caller looks up, span name, counter hook)
TARGETS = [
    ("qinterro.cli", "simulate_fringe_scan", "sources.simulate_fringe_scan", _windows_fringe),
    ("qinterro.cli", "simulate_interrogation_prob", "sources.simulate_interrogation_prob", _windows_iprob),
    ("qinterro.cli", "fit_fringe", "analysis.fit_fringe", _fit),
    ("qinterro.cli", "estimate_mu", "analysis.estimate_mu", None),
    ("qinterro.cli", "i_prob", "bench.i_prob", None),
    ("qinterro.cli", "i_prob_reflectivity", "noise.i_prob_reflectivity", None),
    ("qinterro.cli", "i_prob_jitter", "noise.i_prob_jitter", None),
    ("qinterro.cli", "load_calibration", "calibration.load_calibration", None),
    ("qinterro.cli", "mu_at", "calibration.mu_at", None),
    ("qinterro.sources", "detection_prob", "bench.detection_prob", None),
    ("qinterro.sources", "derived_rng", "sources.derived_rng", None),
] + [
    ("qinterro.jones", name, f"jones.{name}", None)
    for name in ("initial_state", "half_wave_plate", "relative_phase", "absorber",
                 "two_arm_absorber", "polarizer", "apply_operator")
]

class Runner:
    """Draws invocations, calls the CLI and checks each output."""

    def __init__(self, workload, seed: int, workdir: Path, cli_main):
        self.workload = workload
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.cli_main = cli_main
        self.drawn = 0
        self.outputs = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def draw(self) -> Invocation:
        inv = self.workload.draw(self.rng, self.workdir, self.drawn)
        self.drawn += 1
        return inv

    def call(self, inv: Invocation, cli_main=None) -> tuple[float, str]:
        """Time one CLI call on a new output path; return (seconds, output text)."""
        out = self.workdir / f"out-{self.outputs}{self.workload.suffix}"
        self.outputs += 1
        argv = inv.args + ["-o", str(out)]
        sink = io.StringIO()
        error = None
        # Collect the benchmark's own garbage so that it is not collected,
        # and timed, inside the call.
        gc.collect()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = (cli_main or self.cli_main)(argv)
            except Exception as exc:  # a crash is a failed call, not a stopped run
                code, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        text = out.read_text() if out.exists() else ""
        out.unlink(missing_ok=True)
        self.attempted += 1
        if error is None and code != 0:
            error = f"exit code {code}: {sink.getvalue().strip()[-200:]}"
        if error is None:
            try:
                error = self.workload.check(inv, text)
            except (ValueError, IndexError, KeyError, TypeError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is not None:
            self.fail(error)
        return elapsed, text

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def release(self, inv: Invocation) -> None:
        for path in inv.inputs:
            path.unlink(missing_ok=True)

    def prepare(self) -> None:
        """Warm up, then require byte-identical output from a repeated call."""
        for _ in range(WARMUP_CALLS):
            inv = self.draw()
            self.call(inv)
            self.release(inv)
        inv = self.draw()
        _, first = self.call(inv)
        _, second = self.call(inv)
        self.release(inv)
        if first != second:
            self.fail("rerun with the same inputs gave different output bytes")


def setup_sample() -> float:
    """Time for a fresh interpreter to import the CLI and build its parser."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def quiet_calls(calls: list[tuple]) -> list[tuple]:
    """The calls, as (start, seconds, points), in the quieter half of the run.

    The host is shared: for spells of one to three seconds every call runs
    about 1.6 times slower, whatever the program does. A whole-run p90 lands
    in those spells and spread 0.2-0.4 of its median across runs of the same
    code. Ranking WINDOW_S windows by their median call time and keeping the
    faster half drops the spells, while a slow call the program itself makes
    now and then stays inside its window and still raises the percentile.
    """
    windows: dict[int, list[tuple]] = {}
    for call in calls:
        windows.setdefault(int((call[0] - calls[0][0]) // WINDOW_S), []).append(call)
    ranked = sorted(windows.values(), key=lambda w: statistics.median(c[1] for c in w))
    return [call for window in ranked[: (len(ranked) + 1) // 2] for call in window]


def run_plain(runner: Runner, seconds: float) -> dict:
    calls, setups = [], []
    begin = time.perf_counter()
    deadline = begin + seconds
    while (now := time.perf_counter()) < deadline:
        # Set-up samples are spread evenly over the run, so that a slow spell
        # of the host (see quiet_calls) meets only a few of them.
        if len(setups) < SETUP_SAMPLES * (now - begin) / seconds:
            setups.append(setup_sample())
            continue
        inv = runner.draw()
        start = time.perf_counter()
        elapsed, _ = runner.call(inv)
        runner.release(inv)
        calls.append((start, elapsed, inv.points))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    quiet = quiet_calls(calls)
    durations = [c[1] for c in quiet]
    pct = runner.workload.tail_pct
    tail = float(np.percentile(durations, pct))
    beyond = sum(d > tail for d in durations)
    print(f"# {runner.workload.name}: {len(calls)} timed calls, {len(quiet)} of them in "
          f"the quieter half of {WINDOW_S} s windows; call_tail_ms is their p{pct}, "
          f"with {beyond} calls beyond it")
    return {
        "setup_s": statistics.median(setups),
        "call_p50_ms": statistics.median(durations) * 1e3,
        "call_tail_ms": tail * 1e3,
        "points_per_s": sum(c[2] for c in quiet) / sum(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(runner: Runner, seconds: float, cli_main) -> dict:
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli_main)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < runner.workload.trace_pairs and time.perf_counter() < deadline:
        inv = runner.draw()
        plain.append(runner.call(inv)[0])
        tracer.invocation = len(traced)
        with tracer.patched(TARGETS):
            elapsed, text = runner.call(inv, traced_main)
        traced.append(elapsed)
        tracer.count("cli.bytes_written", len(text.encode()))
        tracer.count("cli.bytes_read", sum(p.stat().st_size for p in inv.inputs))
        tracer.count("cli.rows_read", inv.rows_read)
        runner.release(inv)
    tracer.write(OUT / f"spans-{runner.workload.name}.json")
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(plain)) * 1e3
    print(f"# {runner.workload.name}: {len(traced)} traced calls, "
          f"{len(tracer.spans)} spans")
    return metrics


def layer_metrics(tracer: Tracer) -> dict:
    """Per-invocation means of layer self times and counts."""
    per_invocation = summarize(tracer.spans)
    totals: Counter = Counter()
    for by_name in per_invocation.values():
        for name, (own, calls) in by_name.items():
            for key in (name, name.split(".")[0]):
                totals[f"{key}.self"] += own
                totals[f"{key}.calls"] += calls
    totals["cli.main"] = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    for counters in tracer.counters.values():
        totals.update(counters)
    n = len(per_invocation)

    def ms(key):
        return totals[key] / n * 1e3

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "jones.self_ms": ms("jones.self"),
        "jones.calls": totals["jones.calls"] / n,
        "bench.self_ms": ms("bench.self"),
        "bench.detection_prob.calls": totals["bench.detection_prob.calls"] / n,
        "bench.us_per_point": 1e6 * ratio(
            totals["bench.self"] + totals["jones.self"], totals["bench.detection_prob.calls"]
        ),
        "sources.seed_ms": ms("sources.derived_rng.self"),
        "sources.seed.calls": totals["sources.derived_rng.calls"] / n,
        "sources.draw_ms": ms("sources.simulate_fringe_scan.self")
        + ms("sources.simulate_interrogation_prob.self"),
        "sources.windows_drawn": totals["sources.windows_drawn"] / n,
        "analysis.fit_ms": ms("analysis.fit_fringe.self"),
        "analysis.fit.calls": totals["analysis.fit_fringe.calls"] / n,
        "analysis.fallback_ratio": ratio(
            totals["analysis.fit.fallbacks"], totals["analysis.fit_fringe.calls"]
        ),
        "analysis.estimate_ms": ms("analysis.estimate_mu.self"),
        "noise.self_ms": ms("noise.self"),
        "calibration.load_ms": ms("calibration.load_calibration.self"),
        "calibration.mu_at.calls": totals["calibration.mu_at.calls"] / n,
        "cli.self_ms": ms("cli.main.self"),
        "cli.main_ms": ms("cli.main"),
        "cli.bytes_written": totals["cli.bytes_written"] / n,
        "cli.bytes_read": totals["cli.bytes_read"] / n,
        "cli.scan_rows_used_ratio": ratio(totals["analysis.fit.points"], totals["cli.rows_read"]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import qinterro.cli

    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__}")
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workload, seed, workdir, qinterro.cli.main)
        runner.prepare()
        if trace:
            metrics = run_traced(runner, seconds, qinterro.cli.main)
        else:
            metrics = run_plain(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for reason in runner.reasons:
        print(f"# {name}: failed call: {reason}")
    error_rate = runner.failed / runner.attempted
    print(f"# {name}: error_rate = {error_rate:.6g} ({runner.failed}/{runner.attempted})")
    for key, unit in units.items():
        print(f"{name:14s} {key:28s} {metrics[key]:14.6g} {unit}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Run every workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            raise SystemExit(f"error: workload {name} exited {done.returncode}: {done.stderr}")
        *lines, last = done.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "qinterro" / "cli.py").is_file():
        print(f"error: qinterro sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
