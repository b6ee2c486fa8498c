"""Checks on the library source itself."""

import ast
from collections import Counter
from pathlib import Path

import nielsen_forge


def _library_trees() -> dict:
    paths = sorted(Path(nielsen_forge.__file__).parent.glob("*.py"))
    assert paths
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements; invariants raise typed errors
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _library_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _names_used(node) -> Counter:
    """Names read in node: bare names, attribute names and imported names."""
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def test_every_definition_is_used_or_exported():
    # a function, class or method that the library never names outside its
    # own body, and that __init__ does not export, is reached only by tests;
    # matching is by name, so a name used anywhere keeps every definition of it
    trees = _library_trees()
    exported = {
        alias.asname or alias.name
        for path, tree in trees.items()
        if path.name == "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    dead = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in exported
        and (path.name, node.name) != ("cli.py", "main")
        and used[node.name] == _names_used(node)[node.name]
    ]
    assert dead == []


def test_only_groups_decides_how_a_product_is_formed():
    # the table-or-compose choice lives in FiniteGroup.mul_table; everything
    # else reads mul_table rows and never asks whether a table exists
    trees = _library_trees()
    private = {"MUL_TABLE_MAX", "_mul", "_rows"}
    named = [
        f"{path.name} {name}"
        for path, tree in trees.items()
        if path.name != "groups.py"
        for name in _names_used(tree)
        if name in private
    ]
    groups = next(t for p, t in trees.items() if p.name == "groups.py")
    owner = next(
        n for n in ast.walk(groups)
        if isinstance(n, ast.FunctionDef) and n.name == "mul_table"
    )
    reads = [
        n
        for n in ast.walk(groups)
        if isinstance(n, ast.Name) and n.id == "MUL_TABLE_MAX"
        and isinstance(n.ctx, ast.Load)
    ]
    inside = set(map(id, ast.walk(owner)))

    def table_name(node) -> bool:
        return (isinstance(node, ast.Name) and node.id in ("tab", "mul_table")) or (
            isinstance(node, ast.Attribute) and node.attr == "mul_table"
        )

    none_tests = [
        f"{path.name}:{node.lineno}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(table_name(x) for x in [node.left, *node.comparators])
        and any(
            isinstance(x, ast.Constant) and x.value is None
            for x in [node.left, *node.comparators]
        )
    ]
    assert named == []
    assert reads and all(id(n) in inside for n in reads)
    assert none_tests == []


def test_one_orbit_record_for_every_rank():
    # r = 3 and r = 4 orbits on classes are both BraidOrbits, built by one
    # helper; MiddleTwistOrbit holds the twist lengths of one pair of entries
    trees = _library_trees()
    records = sorted(
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("Orbit")
    )
    built = [
        f"{path.name}:{node.lineno}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "BraidOrbit"
    ]
    assert records == ["BraidOrbit", "CuspOrbit", "MiddleTwistOrbit"]
    assert len(built) == 1


def test_orbits_on_classes_and_tuples_are_partitions_of_index_arrays():
    # every orbit on conjugacy classes, inner classes or raw tuples goes
    # through partition_orbits; orbit_of is kept for elements and points
    named = [
        path.name
        for path, tree in _library_trees().items()
        if path.name in ("nielsen.py", "braid.py")
        and "orbit_of" in _names_used(tree)
    ]
    assert named == []


def _calls(tree) -> set:
    """Names called in tree, as bare names or as attributes."""
    return {
        n.func.id if isinstance(n.func, ast.Name) else n.func.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))
    }


def test_every_level_is_built_by_run_pipeline():
    # a report and each tower level go enumerate -> reduce -> orbits ->
    # dossiers through report.run_pipeline alone
    trees = {path.name: tree for path, tree in _library_trees().items()}
    stages = {"nielsen_inner_classes", "reduced_classes", "braid_orbits", "component_dossier"}
    assert _calls(trees["tower.py"]) & stages == set()
    assert "run_pipeline" in _calls(trees["tower.py"])
    dossier_callers = [
        name for name, tree in trees.items() if "component_dossier" in _calls(tree)
    ]
    assert dossier_callers == ["report.py"]
