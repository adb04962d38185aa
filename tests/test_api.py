import importlib

import pytest

MODULES = ["almgren", "channel", "cli", "cross_section", "fem", "mesh",
           "pipeline", "profiles", "scaled"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"dumbbell.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing
