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


def test_no_module_borrows_the_kernels_private_names():
    # kernel is the one home of the schedule math: no other module imports
    # its private names or looks them up on it.
    borrowed = [
        (name, node.lineno)
        for name, tree in _trees().items()
        if name != "kernel"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "kernel"
        and any(alias.name.startswith("_") for alias in node.names)
        or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "kernel"
        and node.attr.startswith("_")
    ]
    assert borrowed == []


def test_schedule_keeps_no_schedule_math():
    # kernel is the one home of the value map and its inverse: schedule
    # checks its inputs and calls the kernel, and calls a math function only
    # in its input checks, SystemParams.__post_init__ and _check_z.
    tree = _trees()["schedule"]
    checks = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              and node.name in ("__post_init__", "_check_z")]
    assert len(checks) == 2
    in_checks = {id(node) for check in checks for node in ast.walk(check)}
    math_calls = [
        (node.func.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "math" and id(node) not in in_checks
    ]
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "math"
        for alias in node.names
    ]
    assert math_calls == []
    assert imported == []


def test_the_power_rule_stays_in_the_kernel():
    # kernel.min_power is the one scalar rule for (2^(D/t) - 1)*z: mechanisms
    # takes neither expm1 nor a power itself. The one power it keeps is
    # 10.0**u, the log-uniform factor of a misreported channel.
    tree = _trees()["mechanisms"]
    expm1 = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "expm1" or isinstance(node, ast.Name) and node.id == "expm1"
    ]
    powers = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "pow" or isinstance(node, ast.Name) and node.id == "pow"
        or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and not (isinstance(node.left, ast.Constant) and node.left.value == 10.0)
    ]
    assert expm1 == []
    assert powers == []


def test_every_field_is_typed_by_the_reader():
    # One typing rule, jsonio.read: jsonio keeps no second copy of it, no
    # other module borrows its number test, and the records, like the config
    # dataclasses, send their fields through check_fields.
    trees = _trees()
    assert "plain" not in [node.name for node in ast.walk(trees["jsonio"]) if isinstance(node, ast.FunctionDef)]
    borrowed = [
        (name, node.lineno)
        for name, tree in trees.items()
        if name != "jsonio"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and getattr(node, "id", getattr(node, "attr", getattr(node, "name", None))) in ("plain", "is_finite_number")
    ]
    assert borrowed == []
    owners = {
        "mechanisms": ["Bid"],
        "scenario": ["GeometryConfig", "ChannelConfig", "ScenarioInstance"],
        "schedule": ["SystemParams"],
        "montecarlo": ["SweepConfig"],
    }
    for module, classes in owners.items():
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.ClassDef) and node.name in classes:
                (post_init,) = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
                called = [
                    call.func.id
                    for call in ast.walk(post_init)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                ]
                assert "check_fields" in called, node.name
                classes.remove(node.name)
        assert classes == [], module
