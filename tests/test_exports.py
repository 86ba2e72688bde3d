"""The public export list names only what the package defines."""

import lcl


def test_every_exported_name_resolves():
    missing = [name for name in lcl.__all__ if not hasattr(lcl, name)]
    assert missing == []
    assert len(set(lcl.__all__)) == len(lcl.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lcl import *", namespace)
    assert set(lcl.__all__) <= set(namespace)
