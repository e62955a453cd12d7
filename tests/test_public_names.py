"""Every name of the package has a caller outside the unit tests.

A public top-level function or class of ``src/frostsim``, or a public
method of a public class, must be referenced from the package itself,
``scripts/``, ``perfbench/`` or the acceptance tests. So must a private
top-level function, class or constant. A name that only unit tests
call is a wrapper to delete, with its tests moved to what it wraps. A
reference is the name as an attribute, an import or an identifier
string, the last because ``perfbench/spans.py`` wraps its seams by
attribute name; a top-level name may also be a bare variable that is
read, not only assigned. A method is never called by a bare name, so a
local variable that shares its name does not count. A module of the
package other than ``__init__.py`` reads every name it imports; listing
a name in ``__all__`` is not reading it.
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
    """(module, qualified name, bare name, is a method) of every public
    definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(node, kinds) and public(node.name)):
                continue
            yield path.stem, node.name, node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds[:2]) and public(item.name):
                        yield (path.stem, f"{node.name}.{item.name}",
                               item.name, True)


def references(path):
    """The bare variable names and the other references of ``path``."""
    variables, others = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            variables.add(node.id)
        elif isinstance(node, ast.Attribute):
            others.add(node.attr)
        elif isinstance(node, ast.alias):
            others.update(filter(None, (node.name, node.asname)))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            others.add(node.value)
    return variables, others


def private_definitions():
    """(module, name) of every private top-level function, class and
    constant, a name that a top-level statement assigns."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [leaf.id for target in targets
                         for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name)]
            else:
                names = [getattr(node, "name", None)]
            for name in names:
                if (name and name.startswith("_")
                        and not name.startswith("__")):
                    yield path.stem, name


def all_references():
    variables, others = set(), set()
    for path in CALLERS:
        v, o = references(path)
        variables |= v
        others |= o
    return variables, others


def test_every_public_name_has_a_caller_outside_unit_tests():
    variables, others = all_references()
    found = list(definitions())
    assert len(found) > 50
    orphans = [f"{module}.{qualname}"
               for module, qualname, name, method in found
               if name not in others and (method or name not in variables)]
    assert not orphans, f"only unit tests call {orphans}"


def test_every_private_name_has_a_reader():
    variables, others = all_references()
    found = list(private_definitions())
    assert len(found) > 50
    orphans = [f"{module}.{name}" for module, name in found
               if name not in variables | others]
    assert not orphans, f"nothing outside the unit tests reads {orphans}"


def unread_imports(path):
    """The names ``path`` imports, ``from __future__`` aside, and never
    reads as a bare variable, which a string in ``__all__`` is not."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield name


def test_every_import_is_read():
    orphans = [f"{path.stem}.{name}"
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"
               for name in unread_imports(path)]
    assert not orphans, f"imported and never read: {orphans}"
