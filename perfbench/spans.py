"""Per-layer tracing of qmhs from outside the package.

`Tracer.install()` replaces chosen qmhs functions and methods with
wrappers that record a span (layer name, start, end, parent span) for
every call, plus the work counts named in `_layers()`; `uninstall()` puts the
originals back.  Nothing under src/ is changed: module-level functions
are replaced in every loaded qmhs module that holds them, methods on
their class.

Spans are kept in memory in flat arrays and written out once, at the end
of the pass.  A layer's self time is its spans' durations minus the time
their child spans cover; its busy time is the duration of its outermost
spans, children included.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

import qmhs

_clock = time.perf_counter


def _nnz(coeffs) -> int:
    return sum(1 for c in coeffs if c)


def _term_products(a, b) -> int:
    """Pairs of monomials a MultiSeries product multiplies: those whose
    weights sum to at most the cap, counted from weight histograms."""
    from qmhs.multiseries import monomial_weight

    cap = a.cap
    hist = [0] * (cap + 1)
    for e in b.coeffs:
        hist[monomial_weight(e)] += 1
    below = list(hist)
    for w in range(1, cap + 1):
        below[w] += below[w - 1]
    return sum(below[cap - monomial_weight(e)] for e in a.coeffs)


def _series_kind(series) -> str:
    return "q" if isinstance(series.field, qmhs.multiseries.RationalField) else "cyclo"


# (span name, owner, attribute, how the call is counted).  The owner is a
# module (the function is replaced wherever qmhs holds it) or a class (the
# method is replaced on the class).  A span name ending in "." takes the
# rest from the call: the series field for MultiSeries, the suite name for
# run_suite.
def _layers():
    from qmhs import cyclotomic, exactnum, mhs, multiseries, ohno_zagier
    from qmhs import closedforms, xi

    layers = [
        ("cyclotomic.mul", cyclotomic.CycloElem, "__mul__", "coef_products"),
        ("cyclotomic.inverse", cyclotomic.CycloElem, "inverse", None),
        ("cyclotomic.add", cyclotomic.CycloElem, "__add__", None),
        ("cyclotomic.get_field", cyclotomic, "get_field", "key"),
        ("exactnum.poly_xgcd", exactnum, "poly_xgcd", None),
        ("mhs.backend_build", mhs.ExactBackend, "__init__", None),
        ("mhs.weight", mhs.ExactBackend, "weight", "key"),
        ("mhs.zbar", mhs, "_zbar_cached", "key"),
        ("mhs.z", mhs, "_evaluate", None),
        ("mhs.profile_sum", mhs, "profile_sum", None),
        ("multiseries.mul.", multiseries.MultiSeries, "__mul__", "term_products"),
        ("multiseries.invert.", multiseries.MultiSeries, "invert", None),
        ("multiseries.substitute", multiseries, "ms_substitute", None),
        ("multiseries.divide", multiseries, "ms_divide_xy_minus_z", None),
        ("ohno_zagier.f_bruteforce", ohno_zagier, "f_bruteforce", None),
        ("ohno_zagier.u_kernel", ohno_zagier, "u_kernel", None),
        ("ohno_zagier.phi_product", ohno_zagier, "phi_product", None),
        ("ohno_zagier.phi_recurrence", ohno_zagier, "phi_recurrence", None),
        ("ohno_zagier.polylog", ohno_zagier, "polylog", None),
        ("closedforms.kkk_closed", closedforms, "kkk_closed", None),
        ("closedforms.depth_one_bar", closedforms, "depth_one_bar", None),
        ("xi.z_numeric", xi, "z_numeric", None),
        ("xi.convergence_study", xi, "convergence_study", None),
        ("xi.tilde_u", xi, "tilde_u", None),
        ("cli.render", cyclotomic, "render_cyclo", None),
        ("cli.render", multiseries, "render_series", None),
    ]
    if "qmhs.cli" in sys.modules:
        from qmhs import cli, suites

        layers += [
            ("suites.run_suite.", suites, "run_suite", None),
            ("cli.render", cli, "_format_reports", None),
        ]
    return layers


# Caches read through their own cache_info() at the end of a pass.
def _lru_caches():
    from qmhs import cyclotomic, mhs

    return {
        "mhs.exact_backend": mhs.exact_backend,
        "cyclotomic.get_field": cyclotomic.get_field,
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self._restore: list[tuple] = []
        self._caches = {}

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, name: str, fn, counting):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counts, keys = self.counts, self.keys
        fixed_id = None if name.endswith(".") else self._name_id(name)
        name_id = self._name_id

        def wrapper(*args, **kwargs):
            if fixed_id is not None:
                nid = fixed_id
            elif name == "suites.run_suite.":
                nid = name_id(name + args[0])
            else:
                nid = name_id(name + _series_kind(args[0]))
            if counting == "coef_products":
                counts["cyclotomic.mul.coef_products"] += (
                    _nnz(args[0].coeffs) * _nnz(args[1].coeffs))
            elif counting == "term_products":
                counts["multiseries.mul.term_products"] += _term_products(*args)
            elif counting == "key":
                keys[name].add((args[0].n, *args[1:]) if name == "mhs.weight" else args)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = _clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        self._caches = _lru_caches()
        modules = [m for name, m in sys.modules.items()
                   if (name == "qmhs" or name.startswith("qmhs.")) and m is not None]
        for name, owner, attr, counting in _layers():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counting)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Counts and times per layer, from the recorded spans."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        busy = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            # busy time counts a span only when no ancestor has its name
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != nid:
                p = self.span_parent[p]
            if p < 0:
                busy[nid] += dur[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            out[f"{name}.busy_s"] = busy[nid]
        for name, seen in self.keys.items():
            total = out.get(f"{name}.calls", 0)
            out[f"{name}.misses"] = len(seen)
            out[f"{name}.hit_ratio"] = 1 - len(seen) / total if total else 0.0
        out.update(self.counts)
        for name, cache in self._caches.items():
            info = cache.cache_info()
            out[f"{name}.cache_hits"] = info.hits
            out[f"{name}.cache_misses"] = info.misses
            out[f"{name}.cache_size"] = info.currsize
        out["trace.spans"] = n
        return out

    def write(self, path_stem) -> None:
        """Spans as four arrays, one after the other, in one binary file in
        the machine's byte order, with a JSON index naming the layers and
        giving the layout."""
        arrays = (self.span_name, self.span_parent, self.span_start, self.span_end)
        with open(f"{path_stem}.bin", "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)
        index = {
            "spans": len(self.span_start),
            "names": self.names,
            "layout": [["name", "i4"], ["parent", "i4"], ["start_s", "f8"],
                       ["end_s", "f8"]],
            "byteorder": sys.byteorder,
        }
        with open(f"{path_stem}.json", "w", encoding="utf-8") as fh:
            json.dump(index, fh)

