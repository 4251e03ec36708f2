import types


def test_homology_submodule_is_not_shadowed():
    import graphconf.homology as H

    assert isinstance(H, types.ModuleType)
    assert callable(H.homology)


def test_every_listed_name_resolves():
    import graphconf

    assert len(set(graphconf.__all__)) == len(graphconf.__all__)
    assert [name for name in graphconf.__all__ if not hasattr(graphconf, name)] == []


def test_star_import():
    namespace = {}
    exec("from graphconf import *", namespace)
    import graphconf

    assert set(graphconf.__all__) <= set(namespace)
