"""Record the reference outputs that every pass is compared with.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Evaluates every item that any seed can draw (each workload's pool), checks
each output against the identities the benchmark knows, and writes
perfbench/reference/WORKLOAD.json: for an exact output the SHA-256 of its
rendering, for a float output its values.  Recording refuses to write
when any check fails.  Re-record only when a change is meant to alter
outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src/ on the path)


def record(workload: str) -> int:
    raw, reference, problems = {}, {}, {}
    for item in workloads.pool_for(workload):
        raw[item.key] = item.call()
        got, found = workloads.canonical(workload, item.key, raw[item.key])
        if found:
            problems[item.key] = found
        reference[item.key] = workloads.reference_entry(got)
    problems.update(workloads.identities(workload, raw))
    if problems:
        for key, found in problems.items():
            print(f"{workload}: {key}: {'; '.join(found)}", file=sys.stderr)
        return 1
    path = HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {len(reference)} outputs -> {path.relative_to(HERE.parent)}")
    return 0


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    return max(record(name) for name in names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
