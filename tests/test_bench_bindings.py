"""The benchmark under perfbench/ binds circlebreak names by string.

``perfbench/trace_launcher.py`` wraps each ``(module, attribute)`` of its
``SPANS`` and ``COUNTED`` tables, and ``perfbench/kernels.py`` imports
names from circlebreak modules.  A renamed or deleted name would only
break the traced benchmark pass, so these tests read both files with
``ast`` (without running them) and check every name still resolves.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_tables(path, names):
    """Literal values of the top-level assignments to ``names``."""
    tables = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    tables[target.id] = ast.literal_eval(node.value)
    return tables


def _traced_names():
    tables = _module_tables(PERFBENCH / "trace_launcher.py", ("SPANS", "COUNTED"))
    assert set(tables) == {"SPANS", "COUNTED"}
    return sorted(
        ("circlebreak." + mod, attr)
        for table in tables.values()
        for mod, attr in table
    )


def _kernel_imports():
    tree = ast.parse((PERFBENCH / "kernels.py").read_text())
    return sorted(
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "circlebreak"
        for alias in node.names
    )


def test_benchmark_binds_some_names():
    assert len(_traced_names()) >= 20
    assert ("circlebreak.maps", "step_with_winding") in _kernel_imports()


@pytest.mark.parametrize("module, attr", _traced_names() + _kernel_imports())
def test_benchmark_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"{module}.{attr} is bound by perfbench/ but no longer exists"
    )
