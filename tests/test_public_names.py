"""Every public name of the package has a caller outside the unit tests.

A public top-level function or class of ``src/frostsim``, or a public
method of a public class, must be referenced from the package itself,
``scripts/``, ``perfbench/`` or the acceptance tests. A name that only
unit tests call is a wrapper to delete, with its tests moved to what it
wraps. A reference is the name as a variable, an attribute, an import or
an identifier string; the last because ``perfbench/spans.py`` wraps its
seams by attribute name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "frostsim"
CALLERS = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").rglob("*.py"),
           *(ROOT / "perfbench").rglob("*.py"),
           ROOT / "tests" / "test_acceptance.py"]


def public(name):
    return not name.startswith("_")


def definitions():
    """(module, qualified name, bare name) of every public definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(node, kinds) and public(node.name)):
                continue
            yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds[:2]) and public(item.name):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def references(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def test_every_public_name_has_a_caller_outside_unit_tests():
    used = set().union(*(references(path) for path in CALLERS))
    found = list(definitions())
    assert len(found) > 50
    orphans = [f"{module}.{qualname}" for module, qualname, name in found
               if name not in used]
    assert not orphans, f"only unit tests call {orphans}"
