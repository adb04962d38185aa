import importlib

import pytest

MODULES = ["almgren", "channel", "cli", "cross_section", "fem", "mesh",
           "pipeline", "profiles", "scaled"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"dumbbell.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing


def test_benchmark_span_targets_resolve():
    """Every function the benchmark tracer patches exists where it looks
    for it, so a rename cannot silently break `perfbench/run.py --trace 1`."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for mod_name, attr, _ in spans.TARGETS:
        owner = importlib.import_module(f"dumbbell.{mod_name}")
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{mod_name}.{attr}")
    assert not missing
