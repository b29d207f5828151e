"""Every name that `qmhs.__all__` exports resolves, so a module that loses
a function cannot leave a stale export behind."""

import qmhs


def test_all_names_resolve():
    missing = [name for name in qmhs.__all__ if not hasattr(qmhs, name)]
    assert not missing
    assert len(set(qmhs.__all__)) == len(qmhs.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from qmhs import *", namespace)
    assert set(qmhs.__all__) <= set(namespace)
