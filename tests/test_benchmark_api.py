"""The package API that the benchmark in `perfbench/` drives.

`perfbench/spans.py` patches the functions named in `TARGETS`, and
`perfbench/run.py` builds each workload's meshes through `problem_size`.
A package change that drops or renames one of these names breaks the
benchmark, so the calls are exercised here against the real package.
"""

import importlib
import os
import sys
from pathlib import Path

import pytest

import dumbbell
from dumbbell import cross_section, fem, mesh, pipeline  # noqa: F401

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def bench():
    """perfbench's `run` and `spans` modules.  Importing `run` sets the
    BLAS thread variables; the environment is restored afterwards."""
    environ = dict(os.environ)
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("run"), importlib.import_module("spans")
    finally:
        sys.path.remove(PERFBENCH)
        os.environ.clear()
        os.environ.update(environ)


def _owner(mod_name, attr):
    owner = importlib.import_module(f"dumbbell.{mod_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def test_tracer_installs_on_every_target_and_uninstalls(bench):
    _, spans = bench
    targets = [_owner(mod_name, attr) for mod_name, attr, _ in spans.TARGETS]
    originals = [vars(owner)[name] for owner, name in targets]
    tracer = spans.Tracer()
    try:
        # raises KeyError if a target is gone from the package
        tracer.install(dumbbell)
        for (owner, name), original in zip(targets, originals):
            assert vars(owner)[name] is not original, name
    finally:
        tracer.uninstall()
    for (owner, name), original in zip(targets, originals):
        assert vars(owner)[name] is original, name


@pytest.mark.parametrize("workload", ["profiles", "sweep_direct"])
def test_problem_size(bench, workload, tmp_path):
    run, _ = bench
    sizes = run.Workload(workload, dumbbell, tmp_path).problem_size()
    assert sizes
    for label, size in sizes.items():
        assert size["cells"] > 0 and size["free_dofs"] > 0, label
