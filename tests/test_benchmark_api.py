"""The names the benchmark workloads import from quadprimes must keep
resolving, so that no deletion in the package breaks the benchmark."""

import ast
import importlib
import pathlib

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_workload_imports_resolve():
    tree = ast.parse(WORKLOADS.read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module and node.module.split(".")[0] == "quadprimes"
    ]
    assert imports
    missing = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if not hasattr(importlib.import_module(node.module), alias.name)
    ]
    assert missing == []
