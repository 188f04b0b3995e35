"""The package's import surface: every exported name exists, once."""

import twistcode


def test_all_names_resolve_once():
    names = twistcode.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(twistcode, name)
    namespace: dict = {}
    exec("from twistcode import *", namespace)
    assert set(names) <= set(namespace)
