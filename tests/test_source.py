"""Source checks on the package that need only the standard library."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twistlab"
# package __init__ files import names to re-export them
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _top_level_imports(tree: ast.Module) -> dict[str, int]:
    """Each name bound by a top-level import, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _top_level_imports(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _subclasses(roots: set[str], *modules: str) -> set[str]:
    """The classes of `modules` that derive from one of `roots`, the roots included."""
    bases = {}
    for name in modules:
        for node in ast.parse((PACKAGE / name).read_text()).body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
    found = set(roots)
    while more := {c for c, bs in bases.items() if bs & found} - found:
        found |= more
    return found


def test_verdicts_names_no_group_family_or_cocycle_class():
    """The deciders reach a family's closed forms through their table keyed
    by (family, cocycle kind), so they import only the shared names and test
    no object against a group or cocycle class."""
    tree = ast.parse((PACKAGE / "verdicts.py").read_text())
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in ("groups", "cocycles"):
            imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
    assert imported == {
        "groups": {"DEFAULT_NODE_BUDGET", "Element", "Group", "Subgroup", "resolve_subgroup"},
        "cocycles": {"Cocycle", "stream_bit"},
    }
    classes = _subclasses({"Group", "Cocycle"}, "groups.py", "cocycles.py")
    assert {"SumZ", "WreathZ", "FreeTimesZ", "LiftCocycle", "AntisymThetaCocycle"} <= classes
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            named += [(node.lineno, k.id) for k in kinds if isinstance(k, ast.Name) and k.id in classes]
    assert not named, f"verdicts.py tests objects against group or cocycle classes: {named}"
