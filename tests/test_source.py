"""Source checks on the package that need only the standard library."""

import ast
from pathlib import Path

import pytest

import line_trace

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


# Each decider module's exact imports from the family modules: the shared
# names only, no family class and no single-family helper.
BOUNDARY = {
    "verdicts.py": {
        "groups": {"DEFAULT_NODE_BUDGET", "Element", "Group", "Subgroup", "resolve_subgroup"},
        "cocycles": {"Cocycle", "stream_bit"},
    },
    "regularity.py": {
        "groups": {"DEFAULT_NODE_BUDGET", "Element", "Subgroup", "commuting_ball", "resolve_subgroup"},
        "cocycles": {"Cocycle", "nth_prime"},
    },
}


@pytest.mark.parametrize("module", sorted(BOUNDARY))
def test_deciders_name_no_group_family_or_cocycle_class(module):
    """The deciders reach a family's closed forms through the structural
    cocycle's kind (`verdicts` by its table keyed by (family, kind),
    `regularity` by testing the kind in place), so they import only the
    shared names and test no object against a group or cocycle class."""
    tree = ast.parse((PACKAGE / module).read_text())
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in ("groups", "cocycles"):
            imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
    assert imported == BOUNDARY[module]
    classes = _subclasses({"Group", "Cocycle"}, "groups.py", "cocycles.py")
    assert {"SumZ", "WreathZ", "FreeTimesZ", "LiftCocycle", "AntisymThetaCocycle"} <= classes
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            named += [(node.lineno, k.id) for k in kinds if isinstance(k, ast.Name) and k.id in classes]
    assert not named, f"{module} tests objects against group or cocycle classes: {named}"


def _strings(node: ast.expr) -> set[str]:
    """The string constants of an expression or of its tuple, list or set."""
    parts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {p.value for p in parts if isinstance(p, ast.Constant) and isinstance(p.value, str)}


def test_every_kind_a_decider_names_is_a_cocycle_kind():
    """A misspelt kind string fails silently, where a misspelt class name
    fails loudly: the rule just stops firing.  So every string compared
    with a `.kind` in `regularity` and `verdicts`, and every kind in the
    `DECIDERS` keys, is the `kind` of a class in `cocycles`."""
    kinds = {
        stmt.value.value
        for node in ast.parse((PACKAGE / "cocycles.py").read_text()).body
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.Assign)
        and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["kind"]
        and isinstance(stmt.value, ast.Constant)
    }
    assert {"theta", "bitstream", "antisym_theta", "half_skew", "f2xz", "sanov"} <= kinds
    named: dict[str, set[str]] = {}
    for module in ("regularity.py", "verdicts.py"):
        tree = ast.parse((PACKAGE / module).read_text())
        for node in ast.walk(tree):
            operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
            if any(isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands):
                named.setdefault(module, set()).update(*map(_strings, operands))
            if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "DECIDERS":
                named.setdefault("DECIDERS", set()).update(*(_strings(k.elts[1]) for k in node.value.keys))
    unknown = {where: found - kinds for where, found in named.items() if found - kinds}
    assert not unknown, f"kind strings that no cocycle class has: {unknown}"
    assert set(named) == {"regularity.py", "verdicts.py", "DECIDERS"}
    assert {"theta", "f2xz", "sanov", "lift"} <= named["regularity.py"]


@pytest.mark.parametrize("module, text", sorted(line_trace.ALLOWLIST), ids=lambda v: v[:40])
def test_line_trace_allowlist_names_exactly_one_executable_line(module, text):
    """Each deliberate exception of `tests/line_trace.py` still exists, once,
    as a line some instruction of its module maps to."""
    lines = line_trace.allowlisted(PACKAGE / module)[text]
    assert len(lines) == 1, f"{module}: {text!r} is on executable lines {lines}"


def test_line_trace_allowlist_stays_short():
    """At most 20 lines may stay unreached on purpose; any other line is
    reached by a pinned test or deleted."""
    assert len(line_trace.ALLOWLIST) <= 20
