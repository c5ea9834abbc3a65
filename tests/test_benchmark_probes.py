"""The benchmark's traced run swaps program attributes for timing wrappers.
A renamed or deleted attribute would only fail there, so its probe list is
read here and checked against the package."""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).parent.parent / "benchmarks" / "layers.py"


def _loop_values(tree):
    """The values each loop variable takes in a `for` over a module-level
    literal, such as fn in `for kind, fn in SWEEPS`."""
    literals = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                literals[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    values = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Name) and node.iter.id in literals:
            items = literals[node.iter.id]
            if isinstance(node.target, ast.Name):
                values.setdefault(node.target.id, set()).update(items)
            else:
                for i, elt in enumerate(node.target.elts):
                    values.setdefault(elt.id, set()).update(item[i] for item in items)
    return values


def _probed_attributes():
    """(module name, attribute) for every probes.wrap(name, [modules], attr)
    in the layer file, plus every attribute read off an imported module."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "degpow"
        for alias in node.names
    }
    loop_values = _loop_values(tree)
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"):
            _, targets, attr = node.args[:3]
            names = {attr.value} if isinstance(attr, ast.Constant) else loop_values[attr.id]
            found.update((t.id, name) for t in targets.elts for name in names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            found.add((node.value.id, node.attr))
    return found


def test_every_probed_attribute_exists():
    found = _probed_attributes()
    assert ("search", "_prefixes") in found
    assert ("search", "canonical_relabel") in found
    assert ("search", "sweep_observations") in found
    missing = [
        f"{module}.{attr}" for module, attr in sorted(found)
        if not hasattr(importlib.import_module(f"degpow.{module}"), attr)
    ]
    assert missing == []
