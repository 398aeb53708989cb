import importlib

import pytest

import catmat


def test_every_exported_name_is_its_home_modules_object():
    for name in catmat.__all__:
        home = importlib.import_module(f"catmat.{catmat._HOME[name]}")
        assert getattr(catmat, name) is getattr(home, name), name
    assert set(catmat.__all__) <= set(dir(catmat))


def test_star_import_and_submodule_import():
    namespace = {}
    exec("from catmat import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(catmat.__all__)
    assert namespace["decide"] is importlib.import_module("catmat.decider").decide
    from catmat import decider, witness

    assert decider.__name__ == "catmat.decider" and witness.__name__ == "catmat.witness"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'catmat' has no attribute 'no_such_name'"):
        catmat.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from catmat import no_such_name  # noqa: F401
