"""Benchmark of quasih's scan, geometry and certify workloads.

    python3 perfbench/run.py --workload {scan,geometry,certify} --seed N \
        --seconds S --trace {0,1}

Each workload is a closed loop: one caller in this single-threaded process
sends one request, waits for it, checks the output against reference.py
and sends the next.  Inputs come from --seed alone (workloads.py).  A run
of the calibration kernel (calibrate.py) precedes every item, and each
item's time is divided by the mean kernel time around it; the
calibrated figures are gated, the raw ones are printed beside them.
Checks run outside the timed spans.  Spread through the run, N_LAUNCHES
fresh interpreters each import the workload's entry points and complete
one warm-up item (setup_probe.py); their median wall time is setup_s.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 rounds alternate between traced and untraced, and the last line
carries the per-layer metrics and the tracing overhead.  Spans are written
to perfbench/out/trace-<workload>-<seed>.jsonl.  Lines starting with "#"
are notes for a reader.  Exit status 2 means bad arguments or no quasih
source next to the benchmark; 1 means the warm-up item or a set-up launch
failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("scan", "geometry", "certify")

#: Set-up launches per run, spread evenly over the measured time.
N_LAUNCHES = 6
LAUNCH_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """A failure that leaves no result to report."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 120:
        p.error("--seconds must lie in (0, 120]")
    return args


def scipy_import_ms(importtime_log: str) -> float:
    """Self time of every scipy module in a ``-X importtime`` log, in ms."""
    total_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        name = fields[-1].strip()
        if (name == "scipy" or name.startswith("scipy.")) and fields[0].strip().isdigit():
            total_us += int(fields[0])
    return total_us / 1e3


def launch(workload: str, item: dict, out_path: str, traced: bool) -> dict:
    """One set-up launch; returns its report with setup_s added."""
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "setup_probe.py"), workload, str(SRC), json.dumps(item), out_path]
    spawn = perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up launch took over {LAUNCH_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up launch exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["done"] - spawn
    if traced:
        report["import_scipy_ms"] = scipy_import_ms(proc.stderr)
    return report


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def timing_summary(ms: list[float]) -> tuple[float, float, float]:
    """items_per_s, p50 and p90 of item times in ms."""
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
    return len(ms) / (sum(ms) / 1e3), median(ms), p90


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    import calibrate
    import items
    import workloads
    from tracer import Tracer

    items.import_entry(workload)
    gen = workloads.rounds(workload, seed)
    pending = next(gen)
    first_item = pending[0]
    out_path = str(scratch / "item.out")
    launch_path = str(scratch / "launch.out")

    # Untimed warm-up; its output is the one every repeat must reproduce.
    try:
        warm = items.run_item(workload, first_item, out_path)
    except Exception as exc:  # the program cannot serve the first request
        raise BenchError(f"warm-up item raised {exc!r}") from exc
    first_digest = items.digest(items.output_text(workload, warm, out_path))
    calibrate.kernel_ms()

    tracer = Tracer() if trace else None
    kernel_log = []  # (midpoint, ms) of every kernel run
    records = []  # (start, end, traced) of every item
    launches = []
    wrong = []
    overshoots = []
    attempted = failed = 0
    round_index = 0

    def run_kernel():
        start = perf_counter()
        ms = calibrate.kernel_ms()
        kernel_log.append((start + ms / 2e3, ms))

    loop_start = perf_counter()
    paused = 0.0
    while True:
        elapsed = perf_counter() - loop_start - paused
        while len(launches) < N_LAUNCHES and elapsed >= len(launches) * seconds / N_LAUNCHES:
            t = perf_counter()
            report = launch(workload, first_item, launch_path, trace)
            if report["digest"] != first_digest:
                wrong.append(f"set-up launch {len(launches)}: output differs from this process's")
            launches.append(report)
            paused += perf_counter() - t
            elapsed = perf_counter() - loop_start - paused
        if elapsed >= seconds and len(launches) == N_LAUNCHES:
            break
        batch = pending if pending is not None else next(gen)
        pending = None
        traced = tracer is not None and round_index % 2 == 1
        if traced:
            tracer.install()
        for item in batch:
            run_kernel()
            if traced:
                tracer.begin_item(attempted, f"{workload}.item")
            t0 = perf_counter()
            try:
                result = items.run_item(workload, item, out_path)
            except Exception as exc:  # a fault in the program: counted, the run goes on
                result = exc
            t1 = perf_counter()
            if traced:
                tracer.end_item()
            records.append((t0, t1, traced))

            if isinstance(result, Exception):
                problems = [("wrong", f"raised {result!r}")]
            else:
                problems = workloads.check(workload, item, result, out_path)
                if attempted == 0:
                    text = items.output_text(workload, result, out_path)
                    if items.digest(text) != first_digest:
                        problems.append(("wrong", "repeating the first request changed its output"))
            attempted += 1
            if problems:
                failed += 1
                for kind, msg in problems:
                    (overshoots if kind == "overshoot" else wrong).append(msg)
        if traced:
            tracer.uninstall()
        round_index += 1
    run_kernel()
    factors = calibrate.factors(kernel_log, [(t0, t1) for t0, t1, _ in records])
    raw_all = [(t1 - t0) * 1e3 for t0, t1, _ in records]
    cal_all = [ms * f for ms, f in zip(raw_all, factors)]

    # -- report -------------------------------------------------------------
    setup = [r["setup_s"] for r in launches]
    print(f"# {workload} seed {seed}: {attempted} items attempted, {failed} failed")
    if overshoots:
        print(
            f"# {len(overshoots)} rays in failed items overshot an earlier exit "
            f"(boundary_trace_ray march fault); first: {overshoots[0]}"
        )
    for msg in wrong[:5]:
        print(f"# WRONG: {msg}")
    kernels = [ms for _, ms in kernel_log]
    print(
        f"# calibration kernel: median {median(kernels):.4f} ms, "
        f"IQR {100 * spread(kernels):.1f}% of median, "
        f"range {min(kernels):.4f}-{max(kernels):.4f} ms, "
        f"{len(kernels)} runs; nominal {calibrate.NOMINAL_MS} ms"
    )
    print("# set-up launches (s): " + ", ".join(f"{s:.3f}" for s in setup))
    untraced = [i for i, (_, _, traced) in enumerate(records) if not traced]
    raw = timing_summary([raw_all[i] for i in untraced])
    cal = timing_summary([cal_all[i] for i in untraced])
    print(
        f"# untraced items: {len(untraced)}; raw items_per_s {raw[0]:.3f} p50 {raw[1]:.3f} ms "
        f"p90 {raw[2]:.3f} ms; calibrated items_per_s {cal[0]:.3f} p50 {cal[1]:.3f} ms "
        f"p90 {cal[2]:.3f} ms"
    )
    if len(untraced) < 100:
        print(f"# p90 rests on {len(untraced)} items, fewer than the 100 that put ten beyond it")

    if not trace:
        metrics = {
            "setup_s": (median(setup), "s"),
            "items_per_s": (cal[0], "1/s"),
            "item_p50_ms": (cal[1], "ms"),
            "item_p90_ms": (cal[2], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced = [i for i, (_, _, is_traced) in enumerate(records) if is_traced]
        traced_ips = timing_summary([cal_all[i] for i in traced])[0]
        metrics = {
            "setup.import_scipy_ms": (median(r["import_scipy_ms"] for r in launches), "ms"),
            "setup.import_quasih_ms": (
                median(1e3 * (r["imported"] - r["import_start"]) for r in launches),
                "ms",
            ),
            "setup.warmup_ms": (median(1e3 * (r["done"] - r["imported"]) for r in launches), "ms"),
            **tracer.per_layer([factors[i] for i in traced]),
            "trace.items_per_s": (traced_ips, "1/s"),
            "trace.items_per_s_untraced": (cal[0], "1/s"),
            "trace.overhead_pct": (100.0 * (cal[0] / traced_ips - 1.0), "%"),
        }
        trace_path = OUT / f"trace-{workload}-{seed}.jsonl"
        tracer.write_jsonl(trace_path, loop_start)
        print(
            f"# trace: {len(tracer.spans)} spans of {len(traced)} traced items written to "
            f"{trace_path.relative_to(ROOT)}; {tracer.dropped} more spans counted but not kept"
        )
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quasih" / "__init__.py").is_file():
        print(f"run.py: no quasih source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
