import importlib
import re
from pathlib import Path

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


def test_only_fem_reduces_factors_and_solves():
    """Dirichlet reduction, factorization and solves live in
    `fem.AssembledSystem`: no other module calls splu, eliminates nodes,
    builds a system by hand or solves on a factor."""
    src = Path(__file__).resolve().parents[1] / "src" / "dumbbell"
    pattern = re.compile(r"splu|eliminate\(|AssembledSystem\(|lu\.solve\(")
    offenders = [f"{path.name}:{i}"
                 for path in sorted(src.glob("*.py")) if path.name != "fem.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert not offenders


def test_one_eigen_algorithm():
    """Every ground pair comes from inverse iteration in `fem`
    (`eigen_smallest`, `refine_eigenpair`): no module runs ARPACK, builds
    an implicit operator for it or calls another iterative eigensolver."""
    src = Path(__file__).resolve().parents[1] / "src" / "dumbbell"
    pattern = re.compile(r"eigsh|LinearOperator|lobpcg")
    offenders = [f"{path.name}:{i}"
                 for path in sorted(src.glob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert not offenders
