"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/ and
BENCHMARK.json).  Each pass runs the workload in a fresh interpreter,
because qmhs's fields, backends and zbar values are cached per process
and a command-line user pays for them on every run.  Passes repeat, at
parallelism 1, until the next one would end after S seconds (at least
three with --trace 0).  Every pass makes the same calls.  Times are
scaled to a reference speed by a speed probe that runs between the
calls, and reported as medians over the passes (see README.md).

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported.
With --trace 1, untraced and traced passes alternate and the per-layer
metrics are reported, from the traced passes.

A header line (commit, Python, nproc, CPU, seed, src/ line count, sample
counts, failures) precedes the result, which is the last line of
standard output.  The full record of the run, and the spans of the last
traced pass, are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
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
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("cli-verify", "genfun", "exact-high-degree", "numeric-limits")

# A run ends well inside the 180 s a run may take: no pass starts after
# this many seconds, and a pass still running then is stopped.
HARD_LIMIT_S = 150.0
MIN_UNTRACED = 3
MIN_TRACED = 2
# The speed probe's time (ms) at the reference speed: about its time on
# an idle 2-core Xeon VM.  Times are reported as if the machine ran at it.
PROBE_REF_MS = 10.0
# Count-type layer metrics must repeat exactly between passes of a seed.
COUNT_SUFFIXES = (".calls", ".misses", ".coef_products", ".term_products",
                  ".cache_hits", ".cache_misses", ".cache_size", "trace.spans")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    stem = OUT / f"spans-{workload}"
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           "1" if traced else "0", "", str(stem)]
    started = time.monotonic()
    cmd[5] = repr(started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass did not end within {timeout:.0f} s",
                "duration_s": time.monotonic() - started}
    duration = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "duration_s": duration}
    out = json.loads(lines[-1])
    out["duration_s"] = duration
    out["traced"] = traced
    return out


def schedule(traced_run: bool):
    """Pass kinds in order: all untraced, or untraced then traced twice,
    then alternating."""
    if not traced_run:
        while True:
            yield False
    yield False
    yield True
    while True:
        yield True
        yield False


def enough(passes, traced_run: bool) -> bool:
    untraced = sum(not p.get("traced") for p in passes)
    traced = len(passes) - untraced
    if traced_run:
        return untraced >= 1 and traced >= MIN_TRACED
    return untraced >= MIN_UNTRACED


def speed(p: dict) -> float:
    """How much faster than the reference the pass ran: PROBE_REF_MS over
    the mean of its speed probes."""
    return PROBE_REF_MS / statistics.fmean(p["probe_ms"])


def scaled_calls(p: dict) -> list[float]:
    """The pass's call times (ms) at the reference speed."""
    s = speed(p)
    return [ms * s for ms in p["item_ms"]]


def typical_calls(passes: list[dict]) -> list[float]:
    """Each call's median scaled time over the passes; every pass makes the
    same calls in the same order."""
    return [statistics.median(times)
            for times in zip(*(scaled_calls(p) for p in passes))]


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    calls = typical_calls(passes)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] * speed(p) for p in passes),
        "wall_s": sum(calls) / 1e3,
        "item_ms.p50": statistics.median(calls),
        # a pass has fewer than eleven calls: the tail is the slowest one
        "item_ms.tail": max(calls),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }
    return metrics, {
        "calls_per_pass": len(calls),
        "unscaled_wall_s": [sum(p["item_ms"]) / 1e3 for p in passes],
        "unscaled_setup_s": [p["setup_s"] for p in passes],
        "speed": [speed(p) for p in passes],
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Layer metrics, medians over the traced passes; times at the
    reference speed."""
    layers = [{k: v * speed(p) if k.endswith("_s") else v
               for k, v in p["layers"].items()} for p in traced]
    names = sorted(set().union(*layers))
    counted = [k for k in names if k.endswith(COUNT_SUFFIXES)]
    mismatches = [k for k in counted if len({lay.get(k, 0) for lay in layers}) > 1]
    metrics = {k: statistics.median(lay.get(k, 0) for lay in layers) for k in names}
    metrics["trace.overhead_ratio"] = sum(typical_calls(traced)) / sum(typical_calls(untraced))
    metrics["trace.count_mismatches"] = len(mismatches)
    return metrics, {"counts_not_repeated": mismatches}


def header(args, passes: list[dict]) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no commit
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "src_lines": src_lines,
        "passes_untraced": sum(not p.get("traced") for p in passes),
        "passes_traced": sum(bool(p.get("traced")) for p in passes),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qmhs" / "__init__.py").is_file():
        print(f"error: no qmhs sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    OUT.mkdir(exist_ok=True)
    # Compile the package once, so that no pass pays for writing bytecode.
    # A package that fails to import fails in the passes, where it is counted.
    try:
        subprocess.run([sys.executable, "-c",
                        "import sys; sys.path.insert(0, 'src'); import qmhs, qmhs.cli"],
                       cwd=ROOT, capture_output=True, timeout=60)
    except subprocess.TimeoutExpired:
        pass

    start = time.monotonic()
    passes, crashed = [], []
    durations = {False: [], True: []}
    for traced in schedule(bool(args.trace)):
        elapsed = time.monotonic() - start
        est = statistics.median(durations[traced]) if durations[traced] else 0.0
        if enough(passes, bool(args.trace)) and elapsed + est > args.seconds:
            break
        if elapsed + est > HARD_LIMIT_S:
            break
        p = run_pass(args.workload, args.seed, traced, HARD_LIMIT_S - elapsed)
        durations[traced].append(p["duration_s"])
        if "crashed" in p:
            crashed.append(p["crashed"])
            print(f"error: pass failed: {p['crashed']}", file=sys.stderr)
            break
        passes.append(p)

    attempted = sum(p["attempted"] for p in passes) + len(crashed)
    failed = sum(p["failed"] for p in passes) + len(crashed)
    problems = {}
    for p in passes:
        for key, found in p["problems"].items():
            problems.setdefault(key, found)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    extra: dict = {}
    metrics: dict = {}
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    if enough(passes, bool(args.trace)):
        if args.trace:
            metrics, extra = per_layer(untraced, traced)
        else:
            metrics, extra = end_to_end(untraced)
    head = header(args, passes)
    head.update(extra)
    head["failed_ratio"] = failed / attempted if attempted else 1.0
    head["reference_compared"] = sum(p["reference_compared"] for p in passes)
    head["problems"] = dict(list(problems.items())[:20])
    head["crashed"] = crashed

    result = {
        "correct": bool(passes) and failed == 0 and not crashed
        and enough(passes, bool(args.trace)),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in spec},
    }
    record = {"header": head, "result": result, "passes": passes}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"header": head}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
