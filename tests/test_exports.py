"""The package's public names: every export exists, once."""

import tagtopics


def test_every_export_resolves_once():
    names = tagtopics.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    assert [name for name in names if not hasattr(tagtopics, name)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from tagtopics import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(tagtopics.__all__)
