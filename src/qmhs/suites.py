"""Named verification suites driven by the command line.

A suite is a list of `(fn, args)` tasks in report order, one per level
wherever a level's rows share work (its field, backend and `f_series`),
and `all` concatenates the other suites' lists.  A run evaluates one
list, in order or on at most one worker pool, which preserves order.
Workers share nothing mutable; per-process caches are rebuilt on demand.

`_timed` is the one place that reads a clock.  A row's `micros` is its
lap within its task: the wall time since the task's previous row was
produced, or since the task began for its first row, measured in
the process that evaluated it.  Rows from direct library calls
(`verify_theorem_1_2`, `verify_prop_3_3`, ...) and the conjecture probes
carry 0.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator

from .closedforms import depth_one_bar, kkk_closed
from .mhs import Index, zbar
from .ohno_zagier import (
    lemma_3_2_rows, prop_3_3_rows, sum_formula_check, to_star, verify_theorem_1_2,
    weight_depth_sum,
)
from .report import FAIL, PASS, VerificationReport, compare
from .xi import convergence_study, tilde_u, xi_closed_depth1, xi_kkk, xi_sum_formula

SUITES = ("thm11", "thm12", "sumformula", "phi", "polylog", "xi", "all")

# The largest polylog cap, its default: 2^cap indices per level, and at
# `--n-max 100` cap 4 took 46 s, cap 6 224 s.  `all` runs polylog at most at it.
POLYLOG_CAP_MAX = 4

# xi-numeric instances: (index, bound on the final error); the limit is
# the index's closed form.  The bounds are sized to the measured 1/n decay
# at n = 2^14, the end of the schedule.  The (2) row applies 2e-3 at
# n = 2^14, where acceptance criterion 9 applies 1e-3 at n = 2^15: its
# error is 2 pi^3 / (3n), 1.26e-3 at 2^14, and 1e-3 first holds at n = 20671.
_XI_TARGETS = (
    (Index((2,)), 2e-3),
    (Index((1, 1)), 1e-2),
    (Index((3,)), 1e-2),
)


def _thm11_level(n, k_max, r_max) -> Iterator[VerificationReport]:
    for k in range(1, k_max + 1):
        for r in range(1, min(r_max, n - 1) + 1):
            lhs = zbar(Index.repeat(k, r), n).rational_part()
            yield compare("thm-kkk", {"n": n, "k": k, "r": r}, lhs, kkk_closed(k, r, n))


def _depth1_instance(n, k_max) -> list[VerificationReport]:
    table = depth_one_bar(n, k_max)
    ok = all(
        zbar(Index((k,)), n).rational_part() == table[k - 1]
        for k in range(1, k_max + 1)
    )
    return [VerificationReport(
        suite="depth-one",
        params={"n": n, "k_max": k_max},
        status=PASS if ok else FAIL,
        lhs="direct sums",
        rhs=";".join(str(c) for c in table),
    )]


def _thm12_instance(n, cap) -> list[VerificationReport]:
    return [verify_theorem_1_2(n, cap)]


def _sumformula_level(n, k_max, r_max) -> Iterator[VerificationReport]:
    for r in range(1, min(n - 1, r_max) + 1):
        for k in range(r, k_max + 1):
            yield sum_formula_check(n, k, r, k_max)


def _xi_kernel_rows(cap: int) -> Iterator[VerificationReport]:
    kernel = tilde_u(cap)
    # depth-one profiles: coefficient -B_k/k! at x^(k-2) z (and y for k=1)
    depth_one = [(0, 1, 0) if k == 1 else (k - 2, 0, 1) for k in range(1, cap + 1)]
    for k, e in enumerate(depth_one, start=1):
        yield compare("xi-kernel-depth1", {"k": k}, kernel.coefficient(*e),
                      xi_closed_depth1(k).coeff)
    # {2}^r profiles are singletons: coefficient of z^r
    for r in range(1, cap // 2 + 1):
        got = kernel.coefficient(0, 0, r)
        yield compare("xi-kernel-2r", {"r": r}, got, xi_kkk(2, r).coeff)
    # aggregated sums over weight and depth
    for k in range(1, cap + 1):
        for r in range(1, k + 1):
            yield compare("xi-kernel-sum", {"k": k, "r": r},
                          weight_depth_sum(kernel, k, r), xi_sum_formula(k, r).coeff)
    # star kernel agrees with the plain kernel on depth-one profiles
    star = to_star(kernel)  # tilde_u_star(cap)
    for k, e in enumerate(depth_one, start=1):
        yield compare("xi-kernel-star-depth1", {"k": k}, star.coefficient(*e),
                      kernel.coefficient(*e))


def _xi_numeric_instance(index, threshold) -> list[VerificationReport]:
    study = convergence_study(index, [2**e for e in range(8, 15)])
    errs = study.errors()
    ok = all(a > b for a, b in zip(errs, errs[1:])) and errs[-1] < threshold
    return [VerificationReport(
        suite="xi-numeric",
        params={
            "index": str(index),
            "threshold": threshold,
            "rate": round(study.rate, 3),
        },
        status=PASS if ok else FAIL,
        lhs=";".join(f"{e:.3e}" for e in errs),
        rhs=f"{study.target.real + 0.0:.6f}",  # + 0.0 prints (3)'s -0.0 limit as 0.000000
    )]


def worker_count(parallelism: int, instances: int) -> int:
    """Pool size: the requested parallelism, but never more workers than
    CPUs or instances, and at least one."""
    return max(1, min(parallelism, os.cpu_count() or 1, instances))


def _timed(fn, args) -> list[VerificationReport]:
    """Run one task, `fn(*args)`, and set each row's `micros` to its
    lap: the time since the previous row, or since the start for the
    first."""
    rows = []
    last = time.perf_counter_ns()
    for row in fn(*args):
        now = time.perf_counter_ns()
        row.micros = (now - last) // 1000
        last = now
        rows.append(row)
    return rows


# The pool class, None for concurrent.futures.ProcessPoolExecutor, which
# is imported only where a pool starts: a serial run never loads
# multiprocessing.
ProcessPoolExecutor = None


def _run(tasks, parallelism: int) -> list[VerificationReport]:
    """The rows of every task, in task order."""
    workers = worker_count(parallelism, len(tasks))
    columns = [fn for fn, _ in tasks], [args for _, args in tasks]
    if workers > 1:
        pool_type = ProcessPoolExecutor
        if pool_type is None:
            from concurrent.futures import ProcessPoolExecutor as pool_type
        with pool_type(max_workers=workers) as pool:
            results = list(pool.map(_timed, *columns))
    else:
        results = map(_timed, *columns)
    return [row for rows in results for row in rows]


def _given(value: int | None, default: int) -> int:
    return default if value is None else value


def _tasks(name, n_max, cap, k_max, r_max) -> list:
    """A suite's tasks in report order; a range left as None takes the
    suite's default."""
    if name == "all":
        polylog_cap = None if cap is None else min(cap, POLYLOG_CAP_MAX)
        return [task for sub in SUITES[:-1] for task in _tasks(
            sub, n_max, polylog_cap if sub == "polylog" else cap, k_max, r_max)]
    if name == "thm11":
        nm, rm = _given(n_max, 20), _given(r_max, 6)
        km = min(_given(k_max, 3), 3)
        return ([(_thm11_level, (n, km, rm)) for n in range(2, nm + 1)]
                + [(_depth1_instance, (n, _given(k_max, 12))) for n in range(1, nm + 1)])
    if name == "thm12":
        nm, c = _given(n_max, 10), _given(cap, 6)
        return [(_thm12_instance, (n, c)) for n in range(1, nm + 1)]
    if name == "sumformula":
        nm, km, rm = _given(n_max, 15), _given(k_max, 8), _given(r_max, 5)
        return [(_sumformula_level, (n, km, rm)) for n in range(2, nm + 1)]
    if name == "phi":
        nm, c = _given(n_max, 6), _given(cap, 4)
        return [(prop_3_3_rows, (n, c)) for n in range(2, nm + 1)]
    if name == "polylog":
        nm, c = _given(n_max, 8), _given(cap, 4)
        return [(lemma_3_2_rows, (n, c)) for n in range(2, nm + 1)]
    if name == "xi":
        return ([(_xi_kernel_rows, (_given(cap, 8),))]
                + [(_xi_numeric_instance, target) for target in _XI_TARGETS])
    raise ValueError(f"unknown suite: {name}")


def run_suite(
    name: str,
    n_max: int | None = None,
    cap: int | None = None,
    k_max: int | None = None,
    r_max: int | None = None,
    parallelism: int = 1,
) -> list[VerificationReport]:
    """Run one named suite over its configured ranges.  A range left as
    None takes the suite's default; an explicit 0 is not a default."""
    for flag, value, low in (("n_max", n_max, 1), ("k_max", k_max, 1),
                             ("r_max", r_max, 1), ("cap", cap, 0)):
        if value is not None and value < low:
            raise ValueError(f"{flag} must be at least {low}")
    return _run(_tasks(name, n_max, cap, k_max, r_max), parallelism)


def default_parallelism(flag_value: int) -> int:
    """Worker count: the QMHS_PARALLELISM variable overrides the flag, and
    either below 1 is an error."""
    value = flag_value
    env = os.environ.get("QMHS_PARALLELISM")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"QMHS_PARALLELISM is not an integer: {env!r}")
    if value < 1:
        raise ValueError("parallelism must be at least 1")
    return value
