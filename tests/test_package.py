"""The package's exported names."""

import dispersim


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from dispersim import *", namespace)
    assert len(set(dispersim.__all__)) == len(dispersim.__all__)
    for name in dispersim.__all__:
        assert namespace[name] is getattr(dispersim, name)
