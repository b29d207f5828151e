"""Command-line interface: compute values, run verification suites,
emit tables, and probe the conjectured identities.

Exit codes: 0 all passed, 1 verification failure, 2 invalid input (an
exact `compute` above `EXACT_N_MAX`, `EXACT_WEIGHT_MAX` or `EXACT_COST_MAX`,
a numeric one above `NUMERIC_N_MAX` or `NUMERIC_COST_MAX`, `verify`,
`conjecture` and `table` above their ceilings included) or a numeric
overflow, 3 output I/O failure, 4 out of memory, 130 interrupted.
Each error prints one `error:` line to stderr and no traceback.  Exact
values are always serialized as strings; JSON numbers cannot carry big
rationals losslessly.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .closedforms import conjecture_check, depth_one_bar, kkk_general
from .cyclotomic import render_cyclo
from .mhs import Index, numeric_backend, zbar, zbar_star, z, z_star
from .report import FAIL, VerificationReport
from .suites import POLYLOG_CAP_MAX, SUITES, default_parallelism, run_suite
from .xi import tilde_u

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_IO_FAIL = 3
EXIT_OUT_OF_MEMORY = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

# The largest level `compute` evaluates exactly.  Each exact weight row
# holds about n^2 integers: at n = 769, z of (3, 2, 1) took 2.1 s and
# 94 MB, growing as n^2 in memory and faster in time.
EXACT_N_MAX = 1000

# The largest weight, and n^2 * weight * depth, `compute` evaluates exactly.
# Memory grows with the weight, which bounds both the largest part and the
# depth: at --n 1000, (64) took 6.5 s and 211 MB, (200) 27 s and 485 MB,
# and (21, 21, 22), the most of the weight-64 shapes measured, 41 s and
# 502 MB.  Time grows with the cost n^2 * weight * depth, 1.0-2.3e-7 s a
# unit at --n 1000; at its ceiling, {8}^8 at --n 1000 took 100 s.
EXACT_WEIGHT_MAX = 64
EXACT_COST_MAX = 1000**2 * 64 * 8

# The largest level, and n * depth, `compute` evaluates in double precision.
# The numeric backend holds about 120 bytes a level: --n 2^22 took 8.6 s
# and 498 MB.  Time grows with n * depth: at --n 2^20, depth 8 took 6.0 s
# and depth 32 17.5 s; at the ceiling, depth 8 at --n 2^22 took 18.5 s.
NUMERIC_N_MAX = 2**22
NUMERIC_COST_MAX = 8 * NUMERIC_N_MAX

# The largest `--n-max`, `--cap` and `--k-max` that `verify` takes.  A
# suite's cost grows polynomially in n: `thm11 --n-max 100` took 10 s,
# `thm12 --n-max 64 --cap 8` 5 s.  `polylog` stops at
# `suites.POLYLOG_CAP_MAX`, and `all` runs its polylog rows at no more.
# `--k-max` is the series cap of `sumformula` and stops at thm11's default
# 12: `sumformula --n-max 100 --k-max 12` took 138 s.  Each sits at or above
# every default (n <= 20, cap <= 8, k_max <= 12) and every documented range
# (levels to 39 at cap 8, `thm12 --n-max 14 --cap 12`).
VERIFY_N_MAX = 100
VERIFY_CAP_MAX = 16
VERIFY_K_MAX = 12

# The largest `--ab-max` that `conjecture` takes (its `--n-max` stops at
# VERIFY_N_MAX): at `--n-max 100 --ab-max 6`, family 2 took 30 s and family 1
# 22 s.  Family 2's a, b <= 3 probes need a + b up to 6.
CONJECTURE_AB_MAX = 6

# The largest value of each `table` range flag; at the others' ceilings `zbar` took 8-10 s,
# `tildeU` 1.3-1.7 s, `depth1` 5-6 s and `kkk` 0.6 s.
TABLE_CEILINGS = {"--n": EXACT_N_MAX, "--k": 4, "--k-max": 1000, "--n-max": VERIFY_N_MAX,
                  "--r-max": 8, "--cap": 80}


def render_complex(v: complex) -> str:
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real:.12g}{sign}{abs(v.imag):.12g}i"


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFailure(str(exc))


class _IOFailure(Exception):
    pass


def _csv(header: list, rows) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _format_reports(reports: list[VerificationReport], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.as_dict() for r in reports], indent=2)
    if fmt == "csv":
        rows = ([r.suite, json.dumps(r.params, sort_keys=True), r.status, r.lhs, r.rhs,
                 r.micros] for r in reports)
        return _csv(["suite", "params", "status", "lhs", "rhs", "micros"], rows)
    lines = []
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in r.params.items())
        lines.append(f"[{r.status}] {r.suite} {params} ({r.micros} us)")
        if r.status == FAIL:
            lines.append(f"    lhs: {r.lhs}")
            lines.append(f"    rhs: {r.rhs}")
    return "".join(f"{line}\n" for line in lines)


def cmd_compute(args) -> int:
    index = Index.parse(args.index)
    if args.backend == "numeric":
        if args.modified:
            raise ValueError("modified values are exact; use the exact backend")
        if args.n > NUMERIC_N_MAX:
            raise ValueError(f"--n {args.n} is above {NUMERIC_N_MAX}, the largest level "
                             "of the numeric backend")
        cost = args.n * index.depth
        if cost > NUMERIC_COST_MAX:
            raise ValueError(f"n * depth is {cost}, above {NUMERIC_COST_MAX}, the most the "
                             "numeric backend takes")
        fn = z_star if args.star else z
        value = fn(index, args.n, numeric_backend(args.n))
        print(render_complex(value))
        return EXIT_OK
    if args.n > EXACT_N_MAX:
        raise ValueError(f"--n {args.n} is above {EXACT_N_MAX}, the largest level of the "
                         "exact backend; use --backend numeric")
    if index.weight > EXACT_WEIGHT_MAX:
        raise ValueError(f"weight {index.weight} is above {EXACT_WEIGHT_MAX}, the largest "
                         "the exact backend takes")
    cost = max(args.n, 0) ** 2 * index.weight * index.depth
    if cost > EXACT_COST_MAX:
        raise ValueError(f"n^2 * weight * depth is {cost}, above {EXACT_COST_MAX}, the most "
                         "the exact backend takes")
    if args.modified:
        value = (zbar_star if args.star else zbar)(index, args.n)
    else:
        value = (z_star if args.star else z)(index, args.n)
    print(render_cyclo(value))
    return EXIT_OK


def _refuse_above(args, ceilings: dict) -> None:
    for flag, ceiling in ceilings.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value > ceiling:
            raise ValueError(f"{flag} {value} is above {ceiling}, "
                             f"the largest `{args.command}` takes")


def _refuse_negative(args, *flags: str) -> None:
    for flag in flags:
        if (value := getattr(args, flag[2:].replace("-", "_"))) < 0:
            raise ValueError(f"{flag} {value} is negative")


def cmd_verify(args) -> int:
    cap_max = POLYLOG_CAP_MAX if args.suite == "polylog" else VERIFY_CAP_MAX
    _refuse_above(args, {"--n-max": VERIFY_N_MAX, "--cap": cap_max, "--k-max": VERIFY_K_MAX})
    parallelism = default_parallelism(args.parallelism)
    reports = run_suite(
        args.suite,
        n_max=args.n_max,
        cap=args.cap,
        k_max=args.k_max,
        r_max=args.r_max,
        parallelism=parallelism,
    )
    _write_output(_format_reports(reports, args.format), args.output)
    failed = [r for r in reports if r.status == FAIL]
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_conjecture(args) -> int:
    _refuse_above(args, {"--n-max": VERIFY_N_MAX, "--ab-max": CONJECTURE_AB_MAX})
    _refuse_negative(args, "--n-max", "--ab-max")
    reports = [conjecture_check(args.family, n, a, total - a)
               for n in range(2, args.n_max + 1)
               for total in range(min(args.ab_max, n - 2) + 1)  # a + b + 1 < n
               for a in range(total + 1)]
    _write_output(_format_reports(reports, args.format), args.output)
    return EXIT_OK


def _table_rows(args) -> tuple[list[str], list[list]]:
    kind = args.kind
    if kind == "depth1":
        values = depth_one_bar(args.n, args.k_max)
        header = ["n", "k", "numerator", "denominator"]
        rows = [
            [args.n, k, v.numerator, v.denominator]
            for k, v in enumerate(values, start=1)
        ]
        return header, rows
    if kind == "kkk":
        table = kkk_general(args.k, args.n_max, args.r_max)
        header = ["n", "r", "numerator", "denominator"]
        rows = [
            [n, r, table[(n, r)].numerator, table[(n, r)].denominator]
            for n in range(1, args.n_max + 1)
            for r in range(1, args.r_max + 1)
        ]
        return header, rows
    if kind == "zbar":
        header = ["n", "r", "numerator", "denominator"]
        rows = []
        for n in range(1, args.n_max + 1):
            for r in range(1, args.r_max + 1):
                v = zbar(Index.repeat(args.k, r), n).rational_part()
                rows.append([n, r, v.numerator, v.denominator])
        return header, rows
    # tildeU, the last kind argparse's choices let through
    kernel = tilde_u(args.cap)
    header = ["k", "r", "s", "numerator", "denominator"]
    rows = []
    for (ex, ey, ez) in sorted(kernel.coeffs):
        k, r, s = ex + ey + 2 * ez, ey + ez, ez
        v = kernel.coeffs[(ex, ey, ez)]
        rows.append([k, r, s, v.numerator, v.denominator])
    rows.sort()
    return header, rows


def cmd_table(args) -> int:
    _refuse_above(args, TABLE_CEILINGS)
    _refuse_negative(args, "--n-max", "--r-max")
    header, rows = _table_rows(args)
    if args.format == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2)
    elif args.format == "text":
        widths = [max(len(str(c)) for c in column) for column in zip(header, *rows)]
        text = "\n".join("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
                         for row in [header, *rows])
    else:
        text = _csv(header, rows)
    _write_output(text, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmhs",
        description="Finite multiple harmonic q-series at roots of unity: "
        "exact computation and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate one nested sum")
    p.add_argument("--index", required=True,
                   help="comma-separated positive integers, e.g. 2,1,1")
    p.add_argument("--n", type=int, required=True, help="level (root order)")
    p.add_argument("--backend", choices=("exact", "numeric"), default="exact")
    p.add_argument("--star", action="store_true", help="non-strict chains")
    p.add_argument("--modified", action="store_true",
                   help="scale by (1 - zeta)^(-weight) (exact backend only)")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--r-max", type=int, default=None)
    p.add_argument("--parallelism", type=int, default=1,
                   help="worker count; QMHS_PARALLELISM overrides")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", default=None, help="file path, default stdout")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("conjecture",
                       help="report both sides of the conjectured identities")
    p.add_argument("family", type=int, choices=(1, 2))
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--ab-max", type=int, default=3)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_conjecture)

    p = sub.add_parser("table", help="emit a table of exact rationals")
    p.add_argument("kind", choices=("zbar", "depth1", "kkk", "tildeU"))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--r-max", type=int, default=4)
    p.add_argument("--cap", type=int, default=6)
    p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _IOFailure as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO_FAIL
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
