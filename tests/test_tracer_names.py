"""The tracer in perfbench/spans.py wraps qmhs functions and reads qmhs
caches by name; a refactor that renames one breaks `--trace 1`."""

import importlib.util
from pathlib import Path

import qmhs.cli  # noqa: F401  (the tracer adds the CLI layers once it is loaded)
from qmhs.multiseries import RATIONALS, MultiSeries, RationalField

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    spans = _load_spans()
    for name, owner, attr, _ in spans._layers():
        assert callable(getattr(owner, attr, None)), (name, owner, attr)
    for name, cache in spans._lru_caches().items():
        assert callable(getattr(cache, "cache_info", None)), name
    assert isinstance(RATIONALS, RationalField)
    assert spans._series_kind(MultiSeries.constant(1, 2)) == "q"
