import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qmhs.cli import main
from qmhs.cyclotomic import get_field, parse_cyclo


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_exact(capsys):
    code, out, _ = run_cli(capsys, "compute", "--index", "2", "--n", "4")
    assert code == 0
    assert out.strip() == "5/2*z"


def test_compute_modified(capsys):
    code, out, _ = run_cli(capsys, "compute", "--index", "1,1", "--n", "3", "--modified")
    assert code == 0
    assert out.strip() == "1/3"


def test_compute_star(capsys):
    code, out, _ = run_cli(capsys, "compute", "--index", "1,1", "--n", "3", "--star")
    assert code == 0
    assert out.strip() == "-2*z"


def test_compute_numeric(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--index", "2", "--n", "1024", "--backend", "numeric"
    )
    assert code == 0
    text = out.strip()
    assert text.endswith("i")
    # crude parse of re<sign>im i
    body = text[:-1]
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "eE":
            re_part, im_part = float(body[:pos]), float(body[pos:])
            break
    import math

    value = complex(re_part, im_part)
    assert abs(value - math.pi**2 / 3) < 5e-2  # drift at n = 1024 is ~0.02


def test_compute_rejects_numeric_modified(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--index", "2", "--n", "8", "--backend", "numeric",
        "--modified",
    )
    assert code == 2
    assert "exact" in err


@pytest.mark.parametrize("n", ("-3", "0"))
def test_compute_numeric_rejects_non_positive_n(capsys, n):
    code, out, err = run_cli(
        capsys, "compute", "--index", "2", "--n", n, "--backend", "numeric"
    )
    assert code == 2
    assert out == ""
    assert err == "error: n must be a positive integer\n"


@pytest.mark.parametrize("flags", ((), ("--modified",), ("--star",)))
def test_exact_compute_above_the_ceiling_is_input_error(capsys, flags):
    """Refused before any field or backend is built."""
    from qmhs import cli
    from qmhs.mhs import exact_backend

    n = cli.EXACT_N_MAX + 1
    built = get_field.cache_info().misses, exact_backend.cache_info().misses
    code, out, err = run_cli(capsys, "compute", "--index", "2", "--n", str(n), *flags)
    assert code == 2
    assert out == ""
    assert err == (f"error: --n {n} is above {cli.EXACT_N_MAX}, the largest level "
                   "of the exact backend; use --backend numeric\n")
    assert (get_field.cache_info().misses, exact_backend.cache_info().misses) == built


def test_exact_compute_ceiling_is_inclusive(capsys, monkeypatch):
    from qmhs import cli

    monkeypatch.setattr(cli, "EXACT_N_MAX", 4)
    code, out, _ = run_cli(capsys, "compute", "--index", "2", "--n", "4")
    assert code == 0 and out.strip() == "5/2*z"
    code, out, _ = run_cli(capsys, "compute", "--index", "2", "--n", "5")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "compute", "--index", "2", "--n", "5", "--backend", "numeric")
    assert code == 0


@pytest.mark.parametrize("flags", ((), ("--modified",), ("--star",)))
def test_exact_compute_above_the_weight_ceiling_is_input_error(capsys, flags):
    """Refused before any field or backend is built; the parts need not
    be large, since the weight also bounds the depth."""
    from qmhs import cli
    from qmhs.mhs import exact_backend

    w = cli.EXACT_WEIGHT_MAX + 1
    index = ",".join(["1"] * (w - 2) + ["2"])
    built = get_field.cache_info().misses, exact_backend.cache_info().misses
    code, out, err = run_cli(capsys, "compute", "--index", index, "--n", "997", *flags)
    assert code == 2
    assert out == ""
    assert err == (f"error: weight {w} is above {cli.EXACT_WEIGHT_MAX}, the largest "
                   "the exact backend takes\n")
    assert (get_field.cache_info().misses, exact_backend.cache_info().misses) == built


def test_exact_compute_weight_ceiling_is_inclusive(capsys, monkeypatch):
    from qmhs import cli

    monkeypatch.setattr(cli, "EXACT_WEIGHT_MAX", 2)
    code, out, _ = run_cli(capsys, "compute", "--index", "1,1", "--n", "3", "--modified")
    assert code == 0 and out.strip() == "1/3"
    code, out, _ = run_cli(capsys, "compute", "--index", "1,2", "--n", "3")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "compute", "--index", "1,2", "--n", "3", "--backend", "numeric")
    assert code == 0


def test_numeric_compute_above_the_ceiling_is_input_error(capsys):
    """Refused before the backend's tables are built."""
    from qmhs import cli
    from qmhs.mhs import numeric_backend

    n = cli.NUMERIC_N_MAX + 1
    built = numeric_backend.cache_info().misses
    code, out, err = run_cli(capsys, "compute", "--index", "1,2", "--n", str(n),
                             "--backend", "numeric")
    assert (code, out) == (2, "")
    assert err == (f"error: --n {n} is above {cli.NUMERIC_N_MAX}, the largest level "
                   "of the numeric backend\n")
    assert numeric_backend.cache_info().misses == built


def test_numeric_compute_ceiling_is_inclusive(capsys, monkeypatch):
    from qmhs import cli

    monkeypatch.setattr(cli, "NUMERIC_N_MAX", 1024)
    code, out, _ = run_cli(capsys, "compute", "--index", "2", "--n", "1024", "--backend", "numeric")
    assert code == 0 and out.strip().endswith("i")
    code, out, _ = run_cli(capsys, "compute", "--index", "2", "--n", "1025", "--backend", "numeric")
    assert code == 2 and out == ""


@pytest.mark.parametrize("flags", ((), ("--modified",), ("--star",)))
@pytest.mark.parametrize("index,n", (("8,8,8,8,8,8,8,7,1", 1000), (",".join(["1"] * 64), 400)))
def test_exact_compute_above_the_cost_ceiling_is_input_error(capsys, flags, index, n):
    """Inside the level and weight ceilings, refused before any field or
    backend is built."""
    from qmhs import cli
    from qmhs.mhs import exact_backend

    parts = [int(p) for p in index.split(",")]
    cost = n**2 * sum(parts) * len(parts)
    assert n <= cli.EXACT_N_MAX and sum(parts) <= cli.EXACT_WEIGHT_MAX < cost
    built = get_field.cache_info().misses, exact_backend.cache_info().misses
    code, out, err = run_cli(capsys, "compute", "--index", index, "--n", str(n), *flags)
    assert (code, out) == (2, "")
    assert err == (f"error: n^2 * weight * depth is {cost}, above {cli.EXACT_COST_MAX}, "
                   "the most the exact backend takes\n")
    assert (get_field.cache_info().misses, exact_backend.cache_info().misses) == built


def test_exact_compute_cost_ceiling_is_inclusive(capsys, monkeypatch):
    from qmhs import cli

    monkeypatch.setattr(cli, "EXACT_COST_MAX", 4**2 * 2 * 1)
    code, out, _ = run_cli(capsys, "compute", "--index", "2", "--n", "4")
    assert code == 0 and out.strip() == "5/2*z"
    for argv in (("2", "--n", "5"), ("1,2", "--n", "4"), ("3", "--n", "4", "--modified")):
        code, out, _ = run_cli(capsys, "compute", "--index", *argv)
        assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "compute", "--index", "2", "--n", "5", "--backend", "numeric")
    assert code == 0


@pytest.mark.parametrize("star", ((), ("--star",)))
def test_numeric_compute_above_the_cost_ceiling_is_input_error(capsys, star):
    """Inside the level ceiling, refused before the backend's tables are
    built."""
    from qmhs import cli
    from qmhs.mhs import numeric_backend

    n = cli.NUMERIC_N_MAX
    depth = cli.NUMERIC_COST_MAX // n + 1
    built = numeric_backend.cache_info().misses
    code, out, err = run_cli(capsys, "compute", "--index", ",".join(["2"] * depth),
                             "--n", str(n), "--backend", "numeric", *star)
    assert (code, out) == (2, "")
    assert err == (f"error: n * depth is {n * depth}, above {cli.NUMERIC_COST_MAX}, the most "
                   "the numeric backend takes\n")
    assert numeric_backend.cache_info().misses == built


def test_numeric_compute_cost_ceiling_is_inclusive(capsys, monkeypatch):
    from qmhs import cli

    monkeypatch.setattr(cli, "NUMERIC_COST_MAX", 2048)
    code, out, _ = run_cli(capsys, "compute", "--index", "1,2", "--n", "1024", "--backend", "numeric")
    assert code == 0 and out.strip().endswith("i")
    for argv in (("1,2", "--n", "1025"), ("1,1,2", "--n", "1024")):
        code, out, _ = run_cli(capsys, "compute", "--index", *argv, "--backend", "numeric")
        assert code == 2 and out == ""


@pytest.mark.parametrize("index", ("2,,1", ",", "2,", ",2", " , "))
@pytest.mark.parametrize("backend", ("exact", "numeric"))
def test_index_with_an_empty_part_is_input_error(capsys, index, backend):
    code, out, err = run_cli(capsys, "compute", "--index", index, "--n", "5",
                             "--backend", backend)
    assert (code, out) == (2, "")
    empty = next(p for p in index.split(",") if not p.strip())
    assert err == f"error: invalid literal for int() with base 10: {empty!r}\n"


@pytest.mark.parametrize("index", ("", " ", "  "))
def test_blank_index_is_the_empty_index(capsys, index):
    code, out, _ = run_cli(capsys, "compute", "--index", index, "--n", "5", "--star")
    assert (code, out) == (0, "1\n")


def _readme_ceiling_rows():
    """(flag, ceiling, constants) of each row of README.md's ceilings table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = []
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and re.fullmatch(r"`(cli|suites)\.\w+`.*", cells[3]):
            flag = re.search(r"`([^`]*)`", cells[1])
            ceiling = int(re.match(r"\d+", cells[2]).group())
            names = re.findall(r"`((?:cli|suites)\.\w+)`", cells[3])
            rows.append((flag and flag.group(1), ceiling, names))
    return rows


def test_readme_ceilings_table_shows_each_constant():
    """Every row that names `cli.X` or `suites.X` shows that constant's
    value (for `cli.TABLE_CEILINGS`, the value of the row's flag), and
    every ceiling constant has a row."""
    from qmhs import cli, suites

    modules = {"cli": cli, "suites": suites}
    rows = _readme_ceiling_rows()
    named = set()
    for flag, ceiling, names in rows:
        for name in names:
            module, attr = name.split(".")
            value = getattr(modules[module], attr)
            if isinstance(value, dict):
                value = value[flag]
            assert value == ceiling, (name, flag, ceiling)
            named.add(name)
    ceilings = {f"{name}.{a}" for name, m in modules.items() for a in vars(m)
                if a.endswith("_MAX") and not (m is cli and hasattr(suites, a))}
    assert ceilings | {"cli.TABLE_CEILINGS"} <= named
    assert {flag for flag, _, names in rows if "cli.TABLE_CEILINGS" in names} == set(
        cli.TABLE_CEILINGS)


@pytest.mark.parametrize("suite,flag,ceiling", [
    pytest.param("all", "--n-max", "VERIFY_N_MAX", id="--n-max-VERIFY_N_MAX"),
    pytest.param("thm12", "--cap", "VERIFY_CAP_MAX", id="--cap-VERIFY_CAP_MAX"),
    pytest.param("all", "--k-max", "VERIFY_K_MAX", id="--k-max-VERIFY_K_MAX"),
    pytest.param("polylog", "--cap", "POLYLOG_CAP_MAX", id="polylog---cap-POLYLOG_CAP_MAX"),
    pytest.param("all", "--cap", "VERIFY_CAP_MAX", id="all---cap-VERIFY_CAP_MAX"),
])
def test_verify_above_a_ceiling_is_input_error(capsys, suite, flag, ceiling):
    """Refused before any field or backend is built.  `all` takes the cap
    ceiling of the other suites, not the lower one of `polylog`."""
    from qmhs import cli
    from qmhs.mhs import exact_backend

    value = getattr(cli, ceiling) + 1
    built = get_field.cache_info().misses, exact_backend.cache_info().misses
    code, out, err = run_cli(capsys, "verify", suite, flag, str(value))
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} {value} is above {value - 1}, the largest `verify` takes\n"
    assert (get_field.cache_info().misses, exact_backend.cache_info().misses) == built


def test_verify_ceilings_are_inclusive(capsys, monkeypatch):
    from qmhs import cli

    monkeypatch.setattr(cli, "VERIFY_N_MAX", 3)
    monkeypatch.setattr(cli, "VERIFY_CAP_MAX", 3)
    monkeypatch.setattr(cli, "POLYLOG_CAP_MAX", 2)
    monkeypatch.setattr(cli, "VERIFY_K_MAX", 3)
    code, out, _ = run_cli(capsys, "verify", "thm12", "--n-max", "3", "--cap", "3")
    assert code == 0 and out.count("[pass]") == 3
    code, out, _ = run_cli(capsys, "verify", "polylog", "--n-max", "3", "--cap", "2")
    assert code == 0 and "[fail]" not in out and out.count("[pass]") > 0
    code, out, _ = run_cli(capsys, "verify", "sumformula", "--n-max", "3", "--k-max", "3")
    assert code == 0 and "[fail]" not in out and out.count("[pass]") > 0
    for suite, argv in (("thm12", ("--n-max", "4", "--cap", "3")),
                        ("thm12", ("--n-max", "3", "--cap", "4")),
                        ("polylog", ("--n-max", "3", "--cap", "3")),
                        ("all", ("--n-max", "3", "--cap", "4")),
                        ("sumformula", ("--n-max", "3", "--k-max", "4"))):
        code, out, _ = run_cli(capsys, "verify", suite, *argv)
        assert code == 2 and out == ""


def test_verify_all_above_the_polylog_cap_runs_polylog_at_its_ceiling(capsys):
    """`all --cap 6` gives every other suite's rows at cap 6 and the
    polylog rows at `POLYLOG_CAP_MAX`, in the order of the suites."""
    from qmhs.suites import POLYLOG_CAP_MAX, SUITES

    def rows(*argv):
        code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
        assert code == 0
        return [{k: v for k, v in r.items() if k != "micros"} for r in json.loads(out)]

    assert POLYLOG_CAP_MAX == 4
    expected = []
    for suite in SUITES[:-1]:
        expected += rows(suite, "--cap", str(POLYLOG_CAP_MAX if suite == "polylog" else 6))
    assert rows("phi", "--cap", "6") != rows("phi")  # the cap reaches the other suites
    assert rows("all", "--cap", "6") == expected


@pytest.mark.parametrize("flag,ceiling", [("--n-max", "VERIFY_N_MAX"), ("--ab-max", "CONJECTURE_AB_MAX")])
def test_conjecture_above_a_ceiling_is_input_error(capsys, flag, ceiling):
    """Refused before any field or backend is built."""
    from qmhs import cli
    from qmhs.mhs import exact_backend

    value = getattr(cli, ceiling) + 1
    built = get_field.cache_info().misses, exact_backend.cache_info().misses
    code, out, err = run_cli(capsys, "conjecture", "1", flag, str(value))
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} {value} is above {value - 1}, the largest `conjecture` takes\n"
    assert (get_field.cache_info().misses, exact_backend.cache_info().misses) == built


@pytest.mark.parametrize("flag, value", [("--n-max", "-5"), ("--ab-max", "-1")])
def test_conjecture_negative_range_is_input_error(capsys, flag, value):
    """Refused before any field or backend is built."""
    from qmhs.mhs import exact_backend

    built = get_field.cache_info().misses, exact_backend.cache_info().misses
    code, out, err = run_cli(capsys, "conjecture", "1", flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} {value} is negative\n"
    assert (get_field.cache_info().misses, exact_backend.cache_info().misses) == built


@pytest.mark.parametrize("n_max", ["0", "1"])
def test_conjecture_below_level_two_is_empty_report(capsys, n_max):
    code, out, _ = run_cli(capsys, "conjecture", "1", "--n-max", n_max, "--format", "json")
    assert code == 0
    assert json.loads(out) == []
    code, out, _ = run_cli(capsys, "conjecture", "1", "--n-max", n_max, "--format", "text")
    assert (code, out) == (0, "")


@pytest.mark.parametrize("argv", [("sumformula", "--n-max", "1"), ("phi", "--n-max", "1"),
                                  ("polylog", "--cap", "0", "--n-max", "2")])
def test_empty_verify_report_prints_nothing_as_text(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert (code, out) == (0, "")
    code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
    assert (code, json.loads(out)) == (0, [])


def test_conjecture_ceilings_are_inclusive(capsys, monkeypatch):
    from qmhs import cli

    monkeypatch.setattr(cli, "VERIFY_N_MAX", 4)
    monkeypatch.setattr(cli, "CONJECTURE_AB_MAX", 1)
    code, out, _ = run_cli(capsys, "conjecture", "1", "--n-max", "4", "--ab-max", "1",
                           "--format", "json")
    # a + b <= min(1, n - 2): one instance at n = 2, three at n = 3 and at n = 4
    assert code == 0 and len(json.loads(out)) == 7
    for argv in (("--n-max", "5", "--ab-max", "1"), ("--n-max", "4", "--ab-max", "2")):
        code, out, _ = run_cli(capsys, "conjecture", "1", *argv)
        assert code == 2 and out == ""


TABLE_RANGES = [("depth1", "--n"), ("depth1", "--k-max"), ("kkk", "--k"), ("kkk", "--n-max"),
                ("kkk", "--r-max"), ("zbar", "--k"), ("zbar", "--n-max"), ("zbar", "--r-max"),
                ("tildeU", "--cap")]


@pytest.mark.parametrize("kind,flag", TABLE_RANGES)
def test_table_above_a_ceiling_is_input_error(capsys, kind, flag):
    """Refused before any field or backend is built."""
    from qmhs import cli
    from qmhs.mhs import exact_backend

    value = cli.TABLE_CEILINGS[flag] + 1
    built = get_field.cache_info().misses, exact_backend.cache_info().misses
    code, out, err = run_cli(capsys, "table", kind, flag, str(value))
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} {value} is above {value - 1}, the largest `table` takes\n"
    assert (get_field.cache_info().misses, exact_backend.cache_info().misses) == built


def test_table_ceilings_cover_every_range_flag():
    from qmhs import cli

    assert set(cli.TABLE_CEILINGS) == {flag for _, flag in TABLE_RANGES}
    assert cli.TABLE_CEILINGS["--n-max"] == cli.VERIFY_N_MAX


def test_table_ceilings_are_inclusive(capsys, monkeypatch):
    from qmhs import cli

    for flag in ("--k", "--n-max", "--r-max"):
        monkeypatch.setitem(cli.TABLE_CEILINGS, flag, 3)
    code, out, _ = run_cli(capsys, "table", "zbar", "--k", "3", "--n-max", "3", "--r-max", "3",
                           "--format", "json")
    assert code == 0 and len(json.loads(out)) == 9
    for flag in ("--k", "--n-max", "--r-max"):
        code, out, _ = run_cli(capsys, "table", "zbar", flag, "4")
        assert code == 2 and out == ""


def test_bad_index_is_input_error(capsys):
    code, _, _ = run_cli(capsys, "compute", "--index", "0,1", "--n", "4")
    assert code == 2


def test_unknown_suite_is_input_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "nope")
    assert code == 2


def test_verify_small_suite_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "thm12", "--n-max", "3", "--cap", "3", "--format", "json"
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 3
    for rep in reports:
        assert set(rep) == {"suite", "params", "status", "lhs", "rhs", "micros"}
        assert rep["status"] == "pass"


def test_verify_csv_has_header(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "sumformula", "--n-max", "4", "--k-max", "3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "params", "status", "lhs", "rhs", "micros"]
    assert all(row[2] == "pass" for row in rows[1:])


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "out" / "reports.json"
    code, _, _ = run_cli(
        capsys, "verify", "thm11", "--n-max", "4", "--k-max", "2", "--r-max", "2",
        "--format", "json", "--output", str(target),
    )
    assert code == 0
    reports = json.loads(target.read_text())
    assert reports and all(r["status"] == "pass" for r in reports)


def test_io_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    # a path that treats an existing file as a directory cannot be created
    code, _, err = run_cli(
        capsys, "verify", "thm12", "--n-max", "2", "--cap", "2",
        "--output", str(blocker / "sub" / "o.json"),
    )
    assert code == 3
    assert "cannot write" in err


def test_parallel_output_is_deterministic(capsys):
    code1, out1, _ = run_cli(
        capsys, "verify", "thm12", "--n-max", "4", "--cap", "4", "--format", "json",
        "--parallelism", "1",
    )
    code2, out2, _ = run_cli(
        capsys, "verify", "thm12", "--n-max", "4", "--cap", "4", "--format", "json",
        "--parallelism", "2",
    )
    assert code1 == code2 == 0
    strip = lambda reports: [
        {k: v for k, v in r.items() if k != "micros"} for r in json.loads(reports)
    ]
    assert strip(out1) == strip(out2)


def test_env_var_overrides_parallelism_flag(capsys, monkeypatch):
    monkeypatch.setenv("QMHS_PARALLELISM", "2")
    code, out, _ = run_cli(
        capsys, "verify", "thm12", "--n-max", "3", "--cap", "3", "--format", "json",
        "--parallelism", "1",
    )
    assert code == 0
    assert all(r["status"] == "pass" for r in json.loads(out))
    monkeypatch.setenv("QMHS_PARALLELISM", "zebra")
    code, _, _ = run_cli(capsys, "verify", "thm12", "--n-max", "2", "--cap", "2")
    assert code == 2


@pytest.mark.parametrize("flag, env", [("-3", None), ("0", None), ("1", "0"), ("1", "-2")])
def test_parallelism_below_one_is_rejected(capsys, monkeypatch, flag, env):
    if env is None:
        monkeypatch.delenv("QMHS_PARALLELISM", raising=False)
    else:
        monkeypatch.setenv("QMHS_PARALLELISM", env)
    code, out, err = run_cli(
        capsys, "verify", "thm12", "--n-max", "2", "--cap", "2", "--parallelism", flag
    )
    assert code == 2
    assert out == ""
    assert err == "error: parallelism must be at least 1\n"


def test_worker_count_is_clamped(monkeypatch):
    from qmhs import suites

    monkeypatch.setattr(suites.os, "cpu_count", lambda: 4)
    assert suites.worker_count(500, 100) == 4
    assert suites.worker_count(500, 3) == 3
    assert suites.worker_count(2, 100) == 2
    assert suites.worker_count(1, 100) == 1
    assert suites.worker_count(0, 5) == 1
    assert suites.worker_count(8, 0) == 1
    monkeypatch.setattr(suites.os, "cpu_count", lambda: None)
    assert suites.worker_count(500, 100) == 1


@pytest.fixture
def counting_pool(monkeypatch):
    """Two CPUs, and in place of the process pool a serial stand-in that
    records, per pool built, how many tasks each `map` call receives."""
    from qmhs import suites

    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.maps = []
            pools.append(self.maps)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            columns = [list(column) for column in columns]
            self.maps.append(len(columns[0]))
            return map(fn, *columns)

    monkeypatch.setattr(suites.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(suites, "ProcessPoolExecutor", SerialPool)
    return pools


def test_all_runs_on_one_pool(counting_pool):
    from qmhs.suites import run_suite

    strip = lambda rows: [{**row.as_dict(), "micros": 0} for row in rows]
    serial = run_suite("all")
    assert counting_pool == []
    parallel = run_suite("all", parallelism=2)
    assert len(counting_pool) == 1
    assert strip(parallel) == strip(serial)


@pytest.mark.parametrize("suite, n_max, tasks", [
    ("sumformula", 7, 6),  # n = 2..7
    ("thm11", 10, 9 + 10),  # thm-kkk at n = 2..10, depth-one at n = 1..10
])
def test_a_task_is_a_level(counting_pool, suite, n_max, tasks):
    from qmhs.suites import run_suite

    run_suite(suite, n_max=n_max, parallelism=2)
    assert counting_pool == [[tasks]]


def test_cli_import_loads_no_process_pool():
    """A serial run needs no pool, so importing the CLI loads neither
    multiprocessing nor the process-pool module."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = ("import sys, qmhs.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_huge_parallelism_on_one_cpu_starts_no_pool(capsys, monkeypatch):
    from qmhs import suites

    argv = ("verify", "thm12", "--n-max", "3", "--cap", "3", "--format", "json")
    code, serial, _ = run_cli(capsys, *argv, "--parallelism", "1")

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(suites.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(suites, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("QMHS_PARALLELISM", "500")
    code2, clamped, _ = run_cli(capsys, *argv)
    assert code == code2 == 0
    strip = lambda reports: [
        {k: v for k, v in r.items() if k != "micros"} for r in json.loads(reports)
    ]
    assert strip(serial) == strip(clamped)


def test_verify_failure_exit_code(capsys, monkeypatch):
    from qmhs import cli
    from qmhs.report import FAIL, VerificationReport

    monkeypatch.setattr(
        cli,
        "run_suite",
        lambda *a, **kw: [VerificationReport(suite="stub", status=FAIL)],
    )
    code, _, _ = run_cli(capsys, "verify", "thm12")
    assert code == 1


@pytest.mark.parametrize(
    "exc, code, message",
    [
        (OverflowError("non-finite value in numeric evaluation"), 2,
         "error: non-finite value in numeric evaluation"),
        (MemoryError(), 4, "error: out of memory"),
        (KeyboardInterrupt(), 130, "error: interrupted"),
    ],
    ids=["overflow", "memory", "interrupt"],
)
def test_resource_errors_map_to_exit_codes(capsys, monkeypatch, exc, code, message):
    from qmhs import cli

    def raising(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_compute", raising)
    got, out, err = run_cli(capsys, "compute", "--index", "2", "--n", "4")
    assert got == code
    assert out == ""
    assert err.splitlines() == [message]


def test_conjecture_reports(tmp_path, capsys):
    target = tmp_path / "family1.json"
    code, _, _ = run_cli(
        capsys, "conjecture", "1", "--n-max", "3", "--ab-max", "0",
        "--format", "json", "--output", str(target),
    )
    assert code == 0
    reports = json.loads(target.read_text())
    assert len(reports) == 2  # n in {2, 3} with a = b = 0
    assert all(r["status"] == "report-only" for r in reports)
    assert all(r["params"]["equal"] for r in reports)


def test_conjecture_family2_exit_zero_despite_disagreement(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "2", "--n-max", "4", "--ab-max", "1", "--format", "json"
    )
    assert code == 0  # report-only never affects the exit code
    reports = json.loads(out)
    assert any(not r["params"]["equal"] for r in reports)
    assert all(r["lhs"] and r["rhs"] for r in reports)


def test_table_depth1(capsys):
    code, out, _ = run_cli(
        capsys, "table", "depth1", "--n", "3", "--k-max", "4", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "k", "numerator", "denominator"]
    k4 = [r for r in rows[1:] if r[1] == "4"][0]
    assert Fraction(int(k4[2]), int(k4[3])) == Fraction(-1, 9)


def test_table_kkk_matches_closed_form(capsys):
    from qmhs.closedforms import kkk_closed

    code, out, _ = run_cli(
        capsys, "table", "kkk", "--k", "2", "--n-max", "5", "--r-max", "3",
        "--format", "json",
    )
    assert code == 0
    for row in json.loads(out):
        expect = kkk_closed(2, row["r"], row["n"])
        assert Fraction(row["numerator"], row["denominator"]) == expect


BAD_TABLE_RANGES = [("--n-max", "-1"), ("--r-max", "-2"), ("--k", "0")]


@pytest.mark.parametrize("kind, flag, value", [
    *(pytest.param("kkk", flag, value, id=f"{flag}-{value}") for flag, value in BAD_TABLE_RANGES),
    *(pytest.param("zbar", flag, value, id=f"zbar-{flag}-{value}")
      for flag, value in BAD_TABLE_RANGES),
])
def test_table_kkk_bad_range_is_input_error(capsys, kind, flag, value):
    """Refused before any field or backend is built."""
    from qmhs.mhs import exact_backend

    built = get_field.cache_info().misses, exact_backend.cache_info().misses
    code, out, err = run_cli(capsys, "table", kind, flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    if flag != "--k":
        assert err == f"error: {flag} {value} is negative\n"
    assert (get_field.cache_info().misses, exact_backend.cache_info().misses) == built


def test_table_kkk_empty_range_is_empty_table(capsys):
    code, out, _ = run_cli(capsys, "table", "kkk", "--k", "3", "--n-max", "0",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == []


def test_verify_takes_zero_cap_as_given(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm12", "--n-max", "2", "--cap", "0",
                           "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["params"] for r in reports] == [{"n": 1, "cap": 0}, {"n": 2, "cap": 0}]
    assert all(r["status"] == "pass" for r in reports)


@pytest.mark.parametrize("suite", ["sumformula", "thm11"])
def test_r_max_includes_its_own_depth(capsys, suite):
    """`--r-max R` runs every depth r <= R that a level n > r allows."""
    for r_max in (1, 2):
        code, out, _ = run_cli(capsys, "verify", suite, "--n-max", "4", "--k-max", "3",
                               "--r-max", str(r_max), "--format", "json")
        assert code == 0
        depths = {(row["params"]["n"], row["params"]["r"])
                  for row in json.loads(out) if "r" in row["params"]}
        assert depths == {(n, r) for n in range(2, 5) for r in range(1, min(n - 1, r_max) + 1)}


@pytest.mark.parametrize(
    "flag, value",
    [("--n-max", "0"), ("--k-max", "0"), ("--r-max", "0"), ("--cap", "-1")],
)
def test_verify_range_below_minimum_is_input_error(capsys, flag, value):
    code, out, err = run_cli(capsys, "verify", "thm11", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_table_zbar_matches_kkk_table(capsys):
    code, out, _ = run_cli(
        capsys, "table", "zbar", "--k", "2", "--n-max", "4", "--r-max", "2",
        "--format", "json",
    )
    assert code == 0
    from qmhs.closedforms import kkk_closed

    for row in json.loads(out):
        assert Fraction(row["numerator"], row["denominator"]) == kkk_closed(
            2, row["r"], row["n"]
        )


def test_table_tilde_u(capsys):
    code, out, _ = run_cli(capsys, "table", "tildeU", "--cap", "6", "--format", "json")
    assert code == 0
    rows = {(r["k"], r["r"], r["s"]): Fraction(r["numerator"], r["denominator"])
            for r in json.loads(out)}
    assert rows[(2, 1, 1)] == Fraction(-1, 12)


def test_table_tilde_u_negative_cap_is_input_error(capsys):
    code, out, err = run_cli(capsys, "table", "tildeU", "--cap", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: cap must be non-negative\n"


def test_table_text_is_aligned_without_trailing_spaces(capsys):
    code, out, _ = run_cli(capsys, "table", "depth1", "--n", "3", "--k-max", "4",
                           "--format", "text")
    assert code == 0
    assert out == (
        "n  k  numerator  denominator\n"
        "3  1  1          1\n"
        "3  2  -2         3\n"
        "3  3  1          3\n"
        "3  4  -1         9\n"
    )


def test_rendered_values_reparse():
    from qmhs.cyclotomic import render_cyclo
    from qmhs.mhs import Index, z

    for n in (3, 4, 5, 12):
        field = get_field(n)
        for parts in [(1,), (2,), (1, 1), (2, 1)]:
            value = z(Index(parts), n)
            assert parse_cyclo(render_cyclo(value), field) == value
    assert Fraction("5/2") == Fraction(5, 2)  # rational strings reparse natively
