"""The names the benchmark harness in perfbench/ reaches into macdlab for.

The tracer wraps the functions its TARGETS list, and checks.py imports
its references from the package; a refactor that removes or renames
one of them fails here rather than when the benchmark runs.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_every_traced_target_is_a_function_of_its_module(perfbench_path):
    tracer = importlib.import_module("tracer")
    assert tracer.TARGETS
    for module, name, _counts in tracer.TARGETS:
        fn = getattr(importlib.import_module(f"macdlab.{module}"), name, None)
        assert callable(fn), f"macdlab.{module}.{name}"


def test_checks_imports(perfbench_path):
    importlib.import_module("checks")
