"""One benchmark pass, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE SPAWNED SPANS_STEM

Builds the workload's inputs from the seed, calls every item once (timed,
traced when TRACE is 1), then checks every output and prints one JSON
object on the last line of standard output.  SPAWNED is the parent's
time.monotonic() just before it started this interpreter, so the set-up
time covers interpreter start, `import qmhs` and input generation.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src/ on the path)


def speed_probe() -> float:
    """Milliseconds for a fixed piece of interpreter-bound exact arithmetic
    (a 12 x 12 product of small Fractions, the shape of a field
    multiplication), independent of qmhs.  Taken after set-up and after
    every call, it tells how fast the machine ran during the pass."""
    coeffs = [Fraction(j + 1, j + 2) for j in range(12)]
    start = time.perf_counter()
    for _ in range(20):
        out = [0] * 23
        for i, a in enumerate(coeffs):
            for j, b in enumerate(coeffs):
                out[i + j] += a * b
    return (time.perf_counter() - start) * 1e3


def load_reference(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, raw: dict, problems: dict, reference: dict) -> int:
    """Add every problem found in the outputs to `problems` (by item key);
    return how many outputs were compared with a reference."""
    compared = 0
    for key, result in raw.items():
        try:
            got, found = workloads.canonical(workload, key, result)
        except Exception as exc:  # an unreadable output is a failed item
            problems.setdefault(key, []).append(f"unreadable output: {exc!r}")
            continue
        if found:
            problems.setdefault(key, []).extend(found)
        expected = reference.get(key)
        if expected is not None:
            compared += 1
            if not workloads.matches_reference(expected, got):
                problems.setdefault(key, []).append("differs from the reference")
    for key, found in workloads.identities(workload, raw).items():
        problems.setdefault(key, []).extend(found)
    return compared


def main(argv: list[str]) -> int:
    workload, seed, traced, spawned, spans_stem = argv
    source = Path(workloads.qmhs.__file__).resolve()
    if not source.is_relative_to(HERE.parent / "src"):
        print(f"qmhs was imported from {source}, not from this checkout",
              file=sys.stderr)
        return 2
    items = workloads.items_for(workload, int(seed))
    setup_s = time.monotonic() - float(spawned)

    tracer = None
    if traced == "1":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    raw, problems, item_ms, probe_ms = {}, {}, [], [speed_probe()]
    clock = time.perf_counter
    for item in items:
        t = clock()
        try:
            raw[item.key] = item.call()
        except Exception as exc:  # a call that raises is a failed item
            problems[item.key] = [f"raised {type(exc).__name__}: {exc}"]
        item_ms.append((clock() - t) * 1e3)
        probe_ms.append(speed_probe())
    if tracer is not None:
        tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    compared = check(workload, raw, problems, load_reference(workload))
    out = {
        "setup_s": setup_s,
        "item_ms": item_ms,
        "probe_ms": probe_ms,
        "peak_rss_kb": peak_rss_kb,
        "attempted": len(items),
        "failed": len(problems),
        "problems": problems,
        "reference_compared": compared,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.write(spans_stem)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
