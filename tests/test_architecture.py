"""Module boundaries that no single behaviour test would notice breaking."""

import ast
from pathlib import Path

import relayauction

PACKAGE = Path(relayauction.__file__).resolve().parent


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_numerics_imports_nothing_from_the_package():
    # Its solvers are the oracles the kernel is checked against.
    tree = _trees()["numerics"]
    relative, absolute = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).append(node.module)
        elif isinstance(node, ast.Import):
            absolute += [alias.name for alias in node.names]
    assert "math" in absolute
    assert relative == []
    assert not [name for name in absolute if name.split(".")[0] == "relayauction"]


def test_one_module_defines_the_lambert_solver():
    defining = [
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("lambert_w0", "_lambert_core")
    ]
    assert sorted(set(defining)) == ["kernel"]


def test_one_function_assembles_scenario_instances():
    # Two assembly paths in scenario would have to be held bit-identical by tests.
    tree = _trees()["scenario"]

    def calls(root):
        return [
            node
            for node in ast.walk(root)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "ScenarioInstance"
        ]

    builders = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and calls(node)]
    assert len(calls(tree)) == 1
    assert builders == ["_instance"]


def test_the_power_rule_stays_in_the_kernel():
    # kernel.min_power is the one scalar rule for (2^(D/t) - 1)*z: mechanisms
    # neither borrows the kernel's private constants nor takes expm1 itself.
    tree = _trees()["mechanisms"]
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "kernel"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    private += [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "kernel"
        and node.attr.startswith("_")
    ]
    expm1 = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "expm1" or isinstance(node, ast.Name) and node.id == "expm1"
    ]
    assert private == []
    assert expm1 == []
