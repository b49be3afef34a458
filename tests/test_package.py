import importlib
import subprocess
import sys

import pytest

import insets


def test_every_export_resolves_to_its_submodule_object():
    for name in insets.__all__:
        value = getattr(insets, name)
        if name != "__version__":
            source = importlib.import_module(f"insets.{insets._MODULE_OF[name]}")
            assert value is getattr(source, name), name
            assert vars(insets)[name] is value, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from insets import *", namespace)
    assert set(insets.__all__) <= set(namespace)
    assert namespace["inset"](1, 3, 2) == 18


def test_dir_lists_every_export_before_it_is_resolved():
    # a fresh interpreter, since other tests here resolve every name
    code = "import insets; print(sorted(set(insets.__all__) - set(dir(insets))))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_unknown_name_is_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="'insets'.*'no_such_name'"):
        insets.no_such_name
    assert not hasattr(insets, "no_such_name")


def test_version_is_eager():
    assert insets.__version__ == "0.1.0"
    assert "__version__" in vars(insets)
