"""The package API that the benchmark in `perfbench/` drives.

`perfbench/spans.py` patches the functions named in `TARGETS`, and
`perfbench/run.py` builds each workload's meshes through `problem_size`.
A package change that drops or renames one of these names breaks the
benchmark, so the calls are exercised here against the real package.
"""

import importlib
import os
import sys
import threading
from pathlib import Path

import pytest

import dumbbell
from dumbbell import cross_section, fem, mesh, pipeline, profiles  # noqa: F401
from test_pipeline import COARSE

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



def test_traced_sweep_keeps_its_spans_nested(bench, tmp_path, monkeypatch):
    # the tracer keeps one span stack, so while the main thread makes
    # traced calls the sweep's worker thread must make none.  Barriers
    # hold the worker's factorization open across the main thread's traced
    # one in the restricted reference; a traced call around the worker's
    # factorization or its iteration then closes out of order, which
    # raises in it and fails the entry
    _, spans = bench
    cfg = pipeline.RunConfig(cache=False, jobs=1, out_dir=str(tmp_path),
                             **COARSE)
    pset = pipeline.run_profiles(cfg, return_fields=True)
    plain = pipeline.run_sweep(cfg, pset)
    meet = threading.Barrier(2, timeout=60).wait
    factor, reference = fem.factor, pipeline._restricted_reference

    def gated_factor(A):
        if threading.current_thread() is not threading.main_thread():
            meet()  # the main thread has begun the reference
            meet()  # the main thread is inside its traced factorization
            lu = factor(A)
            meet()  # the main thread may factor now
            return lu
        meet()
        meet()
        return factor(A)

    def gated_reference(*args):
        meet()
        return reference(*args)

    monkeypatch.setattr(fem, "factor", gated_factor)
    monkeypatch.setattr(pipeline, "_restricted_reference", gated_reference)
    tracer = spans.Tracer()
    tracer.install(dumbbell)
    try:
        traced = pipeline.run_sweep(cfg, pset)
    finally:
        tracer.uninstall()
    assert [e.get("error") for e in traced.sweep] == [None, None]
    assert all(end is not None for _, _, end, _, _ in tracer.spans)
    # the restricted reference's eigen solve and its polish, one per
    # entry, are traced; the full pair's iteration on the worker is not
    names = [s[0] for s in tracer.spans]
    assert names.count("fem.eigsh") == names.count("fem.polish") == 2
    assert ([e["ratios"] for e in traced.sweep]
            == [e["ratios"] for e in plain.sweep])


def test_traced_profile_stage_keeps_its_spans_nested(bench, tmp_path,
                                                     monkeypatch):
    # the profile stage's worker thread factors and solves Phi, PhiHat
    # and Ubar while the main thread makes traced calls, so it must make
    # none.  Barriers hold the worker's Phi factorization open across the
    # main thread's traced u0 factorization, as in the sweep test above
    _, spans = bench
    cfg = pipeline.RunConfig(cache=False, jobs=1, out_dir=str(tmp_path),
                             **COARSE)
    plain = pipeline.run_profiles(cfg)
    meet = threading.Barrier(2, timeout=60).wait
    factor, u0 = fem.factor, profiles.compute_u0
    on_worker, on_main = [], []

    def gated_factor(A):
        if threading.current_thread() is threading.main_thread():
            on_main.append(A.shape)
            meet()
            meet()
            return factor(A)
        on_worker.append(A.shape)
        if len(on_worker) > 1:  # PhiHat's and Ubar's
            return factor(A)
        meet()  # the main thread has begun u0
        meet()  # the main thread is inside its traced factorization
        lu = factor(A)
        meet()  # the main thread may factor now
        return lu

    def gated_u0(*args):
        meet()
        return u0(*args)

    monkeypatch.setattr(fem, "factor", gated_factor)
    monkeypatch.setattr(profiles, "compute_u0", gated_u0)
    tracer = spans.Tracer()
    tracer.install(dumbbell)
    try:
        traced = pipeline.run_profiles(cfg)
    finally:
        tracer.uninstall()
    assert len(on_main) == 1 and len(on_worker) == 3
    assert all(end is not None for _, _, end, _, _ in tracer.spans)
    names = [s[0] for s in tracer.spans]
    assert [names.count(f"profiles.{p}") for p in
            ("u0", "phi", "phihat", "ubar")] == [1, 1, 1, 1]
    assert traced.to_dict() == plain.to_dict()
