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


# the family modules, relative to PACKAGE
FAMILY_MODULES = sorted(p.relative_to(PACKAGE).as_posix() for p in (PACKAGE / "families").glob("*.py") if p.name != "__init__.py")


# Each decider module's exact imports from `groups` and `cocycles`: the shared
# names only, no family class and no single-family helper.
BOUNDARY = {
    "verdicts.py": {
        "groups": {"DEFAULT_NODE_BUDGET", "Element", "Group", "Subgroup", "resolve_subgroup"},
        "cocycles": {"Cocycle", "stream_bit"},
    },
    "regularity.py": {
        "groups": {"DEFAULT_NODE_BUDGET", "Element", "Subgroup", "commuting_ball", "intern", "resolve_subgroup"},
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
    classes = _subclasses({"Group", "Cocycle"}, "groups.py", "cocycles.py", *FAMILY_MODULES)
    assert {"SumZ", "WreathZ", "FreeTimesZ", "LiftCocycle", "AntisymThetaCocycle"} <= classes
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            named += [(node.lineno, k.id) for k in kinds if isinstance(k, ast.Name) and k.id in classes]
    assert not named, f"{module} tests objects against group or cocycle classes: {named}"


# what `ZExtension` owns for every (x, k) family: the group law, the
# generators, the sort key and the JSON form
Z_EXTENSION_SHARED = {"_identity_data", "_mul", "_inv", "_generators", "sort_key", "element_to_json"}


def test_z_extension_families_inherit_the_shared_law():
    """A family deriving from `ZExtension` gives its action, base generators
    and base size, and defines none of what the class shares, by a method or
    a class-level assignment; F2 x Z is one, with the trivial action."""
    extensions = _subclasses({"ZExtension"}, *FAMILY_MODULES)
    assert {"WreathZ", "ZnSemidirectZ", "FreeTimesZ"} <= extensions
    defined = []
    for name in FAMILY_MODULES:
        for node in ast.parse((PACKAGE / name).read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in extensions:
                for item in node.body:
                    targets = [*getattr(item, "targets", ()), getattr(item, "target", None)]
                    names = {item.name} if isinstance(item, ast.FunctionDef) else {t.id for t in targets if isinstance(t, ast.Name)}
                    defined += [(node.name, n) for n in names & Z_EXTENSION_SHARED]
    assert not defined, f"Z-extension families redefine the shared law: {defined}"


def test_regularity_reads_no_diagonal_data_of_a_family():
    """How far the rows of a bilinear sum-family cocycle reach is fixed by
    the cocycle when built (`row_reach`), so `regularity` reads none of the
    fields that the rule is computed from."""
    tree = ast.parse((PACKAGE / "regularity.py").read_text())
    fields = {"window", "diagonals", "period", "pre", "epsilon"}
    read = [(node.lineno, node.attr) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in fields]
    assert not read, f"regularity.py reads family fields: {read}"


def test_regularity_keeps_one_table_on_a_cocycle():
    """Everything `regularity` derives from a cocycle lives in one table
    on it (``_row_table``): one ``vars(...).setdefault`` of one constant
    name, and no other `vars`, no `setattr` and no `__dict__`."""
    tree = ast.parse((PACKAGE / "regularity.py").read_text())
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    tables = [
        c.args[0].value
        for c in calls
        if isinstance(c.func, ast.Attribute)
        and c.func.attr == "setdefault"
        and getattr(c.func.value, "func", None) is not None
        and getattr(c.func.value.func, "id", None) == "vars"
        and isinstance(c.args[0], ast.Constant)
    ]
    assert len(tables) == 1, f"regularity.py keeps tables {tables} on a cocycle"
    assert sum(getattr(c.func, "id", None) == "vars" for c in calls) == 1
    assert not [c.lineno for c in calls if getattr(c.func, "id", None) == "setattr"]
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "__dict__"]


# what a cocycle's angles are read over, fixed by its constructor, and the
# helpers of `Cocycle` that set them for constructors
ANGLE_FIELDS = {"symbols", "basis", "den"}
ANGLE_SETTERS = {"_fix", "_share"}


def _self_attributes_assigned(node: ast.AST) -> set[str]:
    """The attributes of `self` that one statement assigns."""
    targets = [*getattr(node, "targets", ()), getattr(node, "target", None)]
    names = set()
    while targets:
        t = targets.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            targets += t.elts
        elif isinstance(t, ast.Starred):
            targets.append(t.value)
        elif isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self":
            names.add(t.attr)
    return names


def test_a_cocycle_fixes_its_angle_fields_when_built():
    """A cocycle is shared by every build of its spec (`build_cocycle`), so
    the symbols, basis and denominator its angles are read over are fixed
    when it is built: no function of the package assigns them on `self`
    but an `__init__` and `Cocycle._fix` and `_share`, and only an
    `__init__` calls those two."""
    setters = {f"Cocycle.{name}" for name in ANGLE_SETTERS}
    assigned, called = [], []
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name == "__init__":
                continue
            where = (path.relative_to(PACKAGE).as_posix(), f"{owner.get(fn, '')}.{fn.name}".lstrip("."))
            for node in ast.walk(fn):
                if _self_attributes_assigned(node) & ANGLE_FIELDS and where[1] not in setters:
                    assigned.append((*where, node.lineno))
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ANGLE_SETTERS:
                    called.append((*where, node.lineno))
    assert not assigned, f"functions that change a cocycle's angle fields after it is built: {assigned}"
    assert not called, f"functions other than constructors that call {sorted(ANGLE_SETTERS)}: {called}"


def _module_name(path: Path) -> str:
    """The dotted name of a package file, relative to the package."""
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_package_module_is_imported_or_named_in_a_spec_table():
    """The package holds no module for tests alone: each module is imported
    by another package module, is named by a "module:name" entry of
    `FAMILIES` or `KINDS`, or holds the console script."""
    import tomllib

    from twistlab.cocycles import KINDS
    from twistlab.groups import FAMILIES

    reached = {where.split(":")[0] for where, _ in FAMILIES.values()}
    reached |= {where.split(":")[0] for _, _, where in KINDS.values()}
    scripts = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml").read_text())["project"]["scripts"]
    reached |= {where.split(":")[0].removeprefix("twistlab.") for where in scripts.values()}
    for path in PACKAGE.rglob("*.py"):
        name = _module_name(path)
        package = name.split(".") if path.name == "__init__.py" else name.split(".")[:-1]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                target = package[: len(package) - node.level + 1] + (node.module.split(".") if node.module else [])
                found = {".".join(target)} | {".".join(target + [alias.name]) for alias in node.names}
                reached |= found - {name}
    unreached = sorted(name for name in map(_module_name, MODULES) if name not in reached)
    assert not unreached, f"no package module imports {unreached}, and no spec table names them"


def _strings(node: ast.expr) -> set[str]:
    """The string constants of an expression or of its tuple, list or set."""
    parts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {p.value for p in parts if isinstance(p, ast.Constant) and isinstance(p.value, str)}


def _module_path(where: str) -> Path:
    """The file of the module that a spec table entry "module:name" names."""
    return PACKAGE / (where.split(":")[0].replace(".", "/") + ".py")


def test_every_kind_a_decider_names_is_a_cocycle_kind():
    """A misspelt kind string fails silently, where a misspelt class name
    fails loudly: the rule just stops firing.  So every string compared
    with a `.kind` in `regularity` and `verdicts`, and every kind in the
    `DECIDERS` keys, is the `kind` of a class in a module that
    `cocycles.KINDS` names (`cocycles` itself among them)."""
    from twistlab.cocycles import KINDS

    paths = {_module_path(where) for _, _, where in KINDS.values()}
    assert PACKAGE / "cocycles.py" in paths
    kinds = {
        stmt.value.value
        for path in paths
        for node in ast.parse(path.read_text()).body
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


def test_the_spec_tables_name_every_family_module_and_only_existing_names():
    """Each family is one module under `families`, named after it: every
    "module:name" in `FAMILIES` and `KINDS` is a top-level definition of an
    existing module, and every module under `families` is a family's."""
    from twistlab.cocycles import KINDS
    from twistlab.groups import FAMILIES

    for where in [where for where, _ in FAMILIES.values()] + [where for _, _, where in KINDS.values()]:
        path = _module_path(where)
        assert path.is_file(), where
        defined = {n.name for n in ast.parse(path.read_text()).body if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
        assert where.split(":")[1] in defined, where
    assert {family: where.split(":")[0] for family, (where, _) in FAMILIES.items()} == {
        family: f"families.{family}" for family in FAMILIES
    }
    assert sorted(f"families/{family}.py" for family in FAMILIES) == FAMILY_MODULES


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


def test_readme_spec_formats_name_every_table_field():
    """README's "Spec formats" section names, in quotes, every group family,
    every cocycle kind and every field of the spec tables."""
    from twistlab.cocycles import KINDS
    from twistlab.groups import FAMILIES

    readme = (PACKAGE.parent.parent / "README.md").read_text()
    section = readme.split("### Spec formats", 1)[1].split("\n## ", 1)[0]
    names = {*FAMILIES, *KINDS, "family", "kind"}
    names |= {field for table in (FAMILIES, KINDS) for entry in table.values() for field in entry[1]}
    assert {"modulus", "acting", "A", "diagonals", "lambda", "left"} <= names
    missing = sorted(name for name in names if f'`"{name}"`' not in section)
    assert not missing, f"README's Spec formats section does not name {missing}"


# where each call of `verdicts` takes its rule: the position among its
# arguments (a keyword `rule=` counts too)
RULE_ARGUMENT = {"Verdict": 1, "shared": 0, "note": 0, "_first_witness": 2}


def test_every_rule_verdicts_name_is_a_cited_rule():
    """A misspelt rule string fails silently: the report just carries an
    empty cite, and only a pinned pair that fires the rule would notice.
    So every string that `verdicts` passes as a rule (to `Verdict`,
    `_Chain.shared`, `_Chain.note` and `_first_witness`), every `relk_rule`
    in `DECIDERS` and every rule that `_refutation_rule` returns is a key
    of `CITES`."""
    tree = ast.parse((PACKAGE / "verdicts.py").read_text())
    cites: set[str] = set()
    named: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CITES"]:
            cites = set().union(*map(_strings, node.value.keys))
        elif isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "DECIDERS":
            for entry in ast.walk(node.value):
                if isinstance(entry, ast.Dict):
                    for key, value in zip(entry.keys, entry.values):
                        if isinstance(key, ast.Constant) and key.value == "relk_rule":
                            named.setdefault("DECIDERS", set()).update(_strings(value))
        elif isinstance(node, ast.FunctionDef) and node.name == "_refutation_rule":
            returns = [r.value for r in ast.walk(node) if isinstance(r, ast.Return)]
            named["_refutation_rule"] = set().union(*map(_strings, returns))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in RULE_ARGUMENT:
                at = RULE_ARGUMENT[name]
                args = node.args[at : at + 1] + [k.value for k in node.keywords if k.arg == "rule"]
                named.setdefault(name, set()).update(*map(_strings, args))
    assert {"kernel_scan", "f2xz_relk", "kleppner_necessary"} <= cites
    assert set(named) == {*RULE_ARGUMENT, "DECIDERS", "_refutation_rule"}
    assert {"bs_relk", "f2xz_relk", "wreath_relk"} <= named["DECIDERS"]
    unknown = {where: found - cites for where, found in named.items() if found - cites}
    assert not unknown, f"rules that CITES does not name: {unknown}"
