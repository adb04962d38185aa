import ast
import importlib
import re
from pathlib import Path

import pytest

MODULES = ["almgren", "channel", "cli", "cross_section", "fem", "mesh",
           "pipeline", "profiles", "record", "scaled"]


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
    """Every ground pair comes from `fem` (`eigen_smallest`'s Rayleigh-Ritz
    cold start, `refine_eigenpair`'s inverse iteration): no module runs
    ARPACK, builds an implicit operator for it or calls another iterative
    eigensolver, and the one dense `eigh` is the projection in
    `eigen_smallest`."""
    import inspect

    from dumbbell import fem

    src = Path(__file__).resolve().parents[1] / "src" / "dumbbell"
    pattern = re.compile(r"eigsh|LinearOperator|lobpcg")
    offenders = [f"{path.name}:{i}"
                 for path in sorted(src.glob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert not offenders
    dense = re.compile(r"\beigh\(")
    calls = sum(len(dense.findall(path.read_text()))
                for path in src.glob("*.py"))
    assert calls == 1
    assert dense.search(inspect.getsource(fem.eigen_smallest))


def _references(path):
    """Names, attributes and imported names a source file uses, and its
    string constants (the benchmark tracer names its targets by string),
    leaving out the file's own `__all__` list."""
    tree = ast.parse(path.read_text())
    exported = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in stmt.targets)
                for node in ast.walk(stmt.value)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in exported:
            yield node.value


def test_public_names_have_a_caller_outside_tests():
    """Every name a module exports is used by package or benchmark code,
    not only by tests: a public helper that only tests call belongs in
    the tests."""
    root = Path(__file__).resolve().parents[1]
    paths = [*(root / "src" / "dumbbell").glob("*.py"),
             *(root / "perfbench").glob("*.py")]
    used = {ref for path in paths if not path.name.startswith("test_")
            for ref in _references(path)}
    unused = [f"{name}.{export}" for name in MODULES
              for export in importlib.import_module(f"dumbbell.{name}").__all__
              if export not in used]
    assert not unused
