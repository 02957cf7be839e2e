"""The demos are not run by the test suite (CI runs each one after it), so
check statically that each one compiles and that every aecomm name it imports
or reads off an imported aecomm object (``harness.run_sweep``,
``nn.codebook``, ...) still exists."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def aecomm_bindings(tree):
    """Local name -> the aecomm object it is bound to by an import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "aecomm" or node.module.startswith("aecomm.")):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{node.module}.{alias.name} is gone")
                bound[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "aecomm":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = module
                    else:
                        bound["aecomm"] = importlib.import_module("aecomm")
    return bound


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_reads_only_existing_names(path):
    source = path.read_text()
    compile(source, str(path), "exec")
    tree = ast.parse(source, str(path))
    bound = aecomm_bindings(tree)
    assert bound, f"{path.name} imports nothing from aecomm"
    missing = [f"{node.value.id}.{node.attr} (line {node.lineno})"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name)
               and node.value.id in bound
               and not hasattr(bound[node.value.id], node.attr)]
    assert not missing, f"{path.name} reads missing names: {missing}"
