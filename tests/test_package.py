import types


def test_homology_submodule_is_not_shadowed():
    import graphconf.homology as H

    assert isinstance(H, types.ModuleType)
    assert callable(H.homology)
