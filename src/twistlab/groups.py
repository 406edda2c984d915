"""Groups: elements, balls, subgroups and the spec table of the families.

Every element is stored in a canonical normal form (sparse maps without zero
entries, reduced words, the one-relator normal form for the Baumslag-Solitar
family), and equality is identity of normal forms.  Balls are enumerated
shell by shell with a hard node budget: breadth-first over the family's
standard generating set with normal-form deduplication, or by weight over
the index window for the abelian sum families.  Each family lives in its
own module under `families`, which `get_group` imports on first use.
"""

from __future__ import annotations

import json
from functools import cache
from importlib import import_module
from itertools import count
from typing import Callable, Iterable, Iterator

from .errors import BudgetExceededError, FamilyMismatchError, SpecError

DEFAULT_NODE_BUDGET = 10**6
TABLE_SIZE = 256  # entries kept in each spec table (groups, and each group's cocycles)


class Element:
    """A group element: a family-tagged normal-form payload."""

    __slots__ = ("group", "data", "_hash")

    def __init__(self, group: Group, data):
        self.group = group
        self.data = data
        self._hash = None  # computed on the first __hash__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Element)
            and self.group.key == other.group.key
            and self.data == other.data
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.group.key, self.data))
        return self._hash

    def __repr__(self) -> str:
        return f"<{self.group.family}:{self.group.describe(self.data)}>"

    def is_identity(self) -> bool:
        return self.data == self.group.identity().data


class _BallCache:
    """The balls of one group by radius, each with the radius at which each
    of its elements enters the balls.

    The largest enumerated ball serves every smaller radius without a new
    enumeration: the smaller ball is the elements that have entered by
    then, in the same order, with their entry radii.  A smaller ball over
    the node budget is not served, so that its enumeration raises the
    budget error.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._balls: dict[int, tuple[tuple[Element, ...], tuple[int, ...]]] = {}
        self._top = -1  # the largest radius stored

    def __contains__(self, radius: int) -> bool:
        return radius in self._balls or 0 <= radius <= self._top

    def get(self, radius: int, node_budget: int) -> tuple[tuple[Element, ...], tuple[int, ...]] | None:
        found = self._balls.get(radius)
        if (found is not None and len(found[0]) <= node_budget) or radius not in self:
            return found
        ball, entries = self._balls[self._top]
        inside = [i for i, e in enumerate(entries) if e <= radius]
        if len(inside) > node_budget:
            return None
        return self.store(radius, tuple(ball[i] for i in inside), tuple(entries[i] for i in inside))

    def store(
        self, radius: int, ball: tuple[Element, ...], entries: tuple[int, ...]
    ) -> tuple[tuple[Element, ...], tuple[int, ...]]:
        found = self._balls[radius] = (ball, entries)
        self._top = max(self._top, radius)
        return found


class Group:
    """Base class: one instance per family/parameter choice."""

    family = "abstract"
    abelian = False
    icc: bool | None = None
    finite = False
    _center: Subgroup | None = None
    base_names: tuple[str, ...] = ()  # what `resolve_subgroup` calls the normal subgroup `base_group()`

    def __init__(self):
        self.key = self.family
        self._ball_cache = _BallCache()
        self._cocycles: dict = {}  # the cocycles built from specs on this group, by `cocycles.build_cocycle`

    # family-specific primitives -------------------------------------------

    def _identity_data(self):
        raise NotImplementedError("Group._identity_data")

    def _mul(self, a, b):
        raise NotImplementedError("Group._mul")

    def _inv(self, a):
        raise NotImplementedError("Group._inv")

    def _generators(self) -> list:
        """Generator payloads including inverses."""
        raise NotImplementedError("Group._generators")

    def sort_key(self, data):
        raise NotImplementedError("Group.sort_key")

    def describe(self, data) -> str:
        return repr(data)

    def length(self, g: Element) -> int:
        """Proper length function used by the growth probes (documented per family)."""
        raise NotImplementedError("Group.length")

    def element_to_json(self, g: Element):
        raise NotImplementedError("Group.element_to_json")

    def element_from_json(self, obj) -> Element:
        raise NotImplementedError("Group.element_from_json")

    # shared API -------------------------------------------------------------

    def element(self, data) -> Element:
        return Element(self, data)

    def sorted_elements(self, payloads: Iterable) -> list[Element]:
        """The payloads as Elements in ``sort_key`` order."""
        return [Element(self, d) for d in sorted(payloads, key=self.sort_key)]

    def center(self) -> Subgroup | None:
        """The family's designated central subgroup, a copy of the integers
        whose conjugacy classes are singletons, or None."""
        return self._center

    def identity(self) -> Element:
        return Element(self, self._identity_data())

    def generators(self) -> list[Element]:
        return [Element(self, d) for d in self._generators()]

    def check(self, g: Element) -> None:
        if g.group.key != self.key:
            raise FamilyMismatchError(
                f"element of family {g.group.key!r} used with {self.key!r}"
            )

    def compose(self, g: Element, h: Element) -> Element:
        self.check(g)
        self.check(h)
        return Element(self, self._mul(g.data, h.data))

    def invert(self, g: Element) -> Element:
        self.check(g)
        return Element(self, self._inv(g.data))

    def conjugate(self, g: Element, h: Element) -> Element:
        """g h g^{-1}."""
        self.check(g)
        self.check(h)
        return Element(self, self._mul(self._mul(g.data, h.data), self._inv(g.data)))

    def _nodes(self, radius: int | None) -> Iterator[tuple[int, object]]:
        """(shell, payload) pairs of the radius ball, shell after shell.

        Breadth-first layers over the generators by default; a radius of
        None walks a finite group to its last layer.
        """
        seen = {self._identity_data()}
        frontier = list(seen)
        yield 0, frontier[0]
        gens = self._generators()
        for r in count(1) if radius is None else range(1, radius + 1):
            nxt = []
            for a in frontier:
                for s in gens:
                    b = self._mul(a, s)
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
                        yield r, b
            if not nxt:
                return
            frontier = nxt

    def _shells(self, radius: int | None, node_budget: int) -> Iterator[list]:
        """The payloads of each shell of the ball in turn, counted against
        the node budget as they are enumerated."""
        shell, layer = 0, []
        for nodes, (r, data) in enumerate(self._nodes(radius), start=1):
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"ball enumeration exceeded {node_budget} nodes at radius {r}",
                    nodes=nodes,
                    radius=r,
                )
            if r != shell:
                yield layer
                shell, layer = r, []
            layer.append(data)
        yield layer

    def _entry_radius(self, shell: int, data) -> int:
        """The least radius whose ball holds `data`, found in `shell` of a
        larger ball: the shell itself for breadth-first layers."""
        return shell

    def ball(self, radius: int, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[Element, ...]:
        """All elements of word length <= radius, sorted canonically."""
        found = self._ball_cache.get(radius, node_budget)
        if found is None:
            found = self.ball_entries(radius, node_budget)
        return found[0]

    def ball_entries(
        self, radius: int, node_budget: int = DEFAULT_NODE_BUDGET
    ) -> tuple[tuple[Element, ...], tuple[int, ...]]:
        """`ball(radius)` and the radius at which each of its elements enters
        the balls: for r <= radius, ball(r) is the elements whose entry is at
        most r, in the same order."""
        if radius < 0:
            raise SpecError("ball radius must be nonnegative", path="radius")
        found = self._ball_cache.get(radius, node_budget)
        if found is not None:
            return found
        nodes = [(d, r) for r, layer in enumerate(self._shells(radius, node_budget)) for d in layer]
        key = self.sort_key
        nodes.sort(key=lambda node: key(node[0]))
        out = tuple(Element(self, d) for d, _ in nodes)
        return self._ball_cache.store(radius, out, tuple(self._entry_radius(r, d) for d, r in nodes))

    def central_candidates(self, radius: int, node_budget: int = DEFAULT_NODE_BUDGET) -> Iterator[Element]:
        """Nontrivial elements of the ball whose full conjugacy class is
        certified finite by a rule, in ``sort_key`` order.

        On an abelian family every class is a singleton and the key leads
        with the shell, so the shells are enumerated and sorted one at a
        time and a search can stop in the first shell that holds a witness.
        Otherwise they are the nontrivial elements of `center()` of length
        at most the radius.  Its c-th element has length at least |c| in
        both central families, so c runs over [-radius, radius].
        """
        if self.abelian:
            shells = self._shells(radius, node_budget)
            next(shells)  # the identity
            for layer in shells:
                yield from self.sorted_elements(layer)
        elif (center := self.center()) is not None:
            powers = (center.embed(center.inner.element((c,))) for c in range(-radius, radius + 1) if c)
            yield from self.sorted_elements(g.data for g in powers if self.length(g) <= radius)

    def _finite_diameter(self, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
        """The radius of the largest shell; for finite groups only."""
        return sum(1 for _ in self._shells(None, node_budget)) - 1

    def check_lift_base(self, base) -> None:
        """Refuse a cocycle on `base_group()` whose lift to this group is
        not a cocycle; only the semidirect families take lifts."""
        raise SpecError("lift target must be a wreath or semidirect family", path="cocycle")


def _index_key(i: int) -> tuple[int, int]:
    """The order of indices in the sum families' keys: 0, 1, -1, 2, -2, ..."""
    return (abs(i), 0 if i >= 0 else 1)


# ---------------------------------------------------------------------------
# spec tables, module-level operation helpers
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a spec field that must be given


def _int(value, path: str, *_) -> int:
    """A JSON integer, not a bool or a float: the spec tables' integer parser."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"must be an integer, got {value!r}", path=path)
    return value


def _positive(value, path: str, *_) -> int:
    if _int(value, path) < 1:
        raise SpecError(f"must be at least 1, got {value}", path=path)
    return value


def _list(value, path: str, *_) -> list:
    if not isinstance(value, list):
        raise SpecError(f"must be a list, got {value!r}", path=path)
    return value


def _as_is(value, path: str, *_):  # a field that its constructor checks
    return value


def read_spec(spec, tag: str, table: dict, path: str, on: Group | None = None, context: tuple = ()):
    """The `table` entry that the `tag` field of a JSON spec names, and its
    field values: parser(value, path, *context) for each (parser, default or
    REQUIRED) of the entry's second item, or the default if absent.

    A missing or unknown tag, a group `on` off the entry's first item (the
    families a cocycle kind lives on, None for every family), an unknown key
    or a null (the first in sorted order) and a missing required field are
    each refused, in that order, as a SpecError at the JSON path.
    """
    if not isinstance(spec, dict) or tag not in spec:
        raise SpecError(f"must be an object with a {tag!r} field", path=f"{path}.{tag}")
    name = spec[tag]
    if not isinstance(name, str) or name not in table:
        raise SpecError(f"unknown {tag} {name!r}; choose one of {', '.join(table)}", path=f"{path}.{tag}")
    entry = table[name]
    if on is not None and entry[0] is not None and on.family not in entry[0]:
        raise SpecError(f"{name} lives on {' or '.join(entry[0])}, not {on.key}", path=f"{path}.{tag}")
    fields = entry[1]
    bad = sorted(k for k, v in spec.items() if k != tag and (k not in fields or v is None))
    if bad:
        if bad[0] in fields:
            raise SpecError("must not be null; leave an optional field out for its default", path=f"{path}.{bad[0]}")
        raise SpecError(f"unknown field; {name} takes {', '.join(fields) or 'no field'}", path=f"{path}.{bad[0]}")
    missing = [f for f, (_, default) in fields.items() if default is REQUIRED and f not in spec]
    if missing:
        raise SpecError(f"{name} needs a {missing[0]!r} field", path=f"{path}.{missing[0]}")
    return entry, [parse(spec[f], f"{path}.{f}", *context) if f in spec else d for f, (parse, d) in fields.items()]


@cache  # a warm process resolves each table entry once
def load(where: str):
    """The object that a spec table names as "module:name", where the module
    is relative to the package; a family's module is imported on first use."""
    module, name = where.split(":")
    return getattr(import_module(f"{__package__}.{module}"), name)


FAMILIES = {  # family: ("module:class", {field: (parser, default or REQUIRED)} in constructor order)
    "sum_z": ("families.sum_z:SumZ", {}),
    "sum_z2": ("families.sum_z2:SumZ2", {"modulus": (_positive, None)}),
    "zn": ("families.zn:Zn", {"n": (_positive, 2)}),
    "wreath": ("families.wreath:WreathZ", {"base": (_as_is, "Z"), "acting": (_positive, None)}),
    "zn_semidirect": ("families.zn_semidirect:ZnSemidirectZ", {"A": (_as_is, REQUIRED)}),
    "sanov": ("families.sanov:Sanov", {}),
    "bs_nn": ("families.bs_nn:BaumslagSolitarNN", {"n": (_int, 2)}),
    "free": ("families.free:FreeGroup", {"rank": (_int, 2)}),
    "free_times_z": ("families.free_times_z:FreeTimesZ", {}),
}
_GROUP_CACHE: dict[str, Group] = {}  # keyed by the family and its field values, defaults filled in
_SPEC_KEYS: dict[str, str] = {}  # the `_GROUP_CACHE` key of each spec read, by ``repr(spec)``


def intern(table: dict, key, build: Callable[[], object]):
    """The entry of a spec table under `key`, built and stored on a miss.

    A table keeps at most `TABLE_SIZE` entries and evicts the oldest first;
    an evicted entry is rebuilt on its next use.  A build that raises
    stores nothing."""
    found = table.get(key)
    if found is None:
        found = build()
        if len(table) >= TABLE_SIZE:
            del table[next(iter(table))]
        table[key] = found
    return found


def get_group(spec: dict) -> Group:
    """Build (or fetch) the group described by a family spec dict.

    The group table is keyed by the family and its field values, so every
    spec of one group gives one object.  A spec read before is answered
    from its ``repr`` without a new read: ``repr`` tells ``True``, ``1``
    and ``1.0`` apart, where ``json.dumps`` would not.  That memo holds
    table keys, not groups, so a group evicted from the table is rebuilt
    as before; a spec that raises stores nothing."""
    seen = _SPEC_KEYS.get(text := repr(spec))
    if seen is not None and (group := _GROUP_CACHE.get(seen)) is not None:
        return group
    (where, _), values = read_spec(spec, "family", FAMILIES, "group")
    key = json.dumps([spec["family"], *values])
    group = intern(_GROUP_CACHE, key, lambda: load(where)(*values))
    intern(_SPEC_KEYS, text, lambda: key)
    return group


def conjugacy_class_partial(
    g: Element, radius: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[Element, ...]:
    """{h g h^{-1} : h in ball(radius)} -- a lower bound for the class."""
    if radius < 0:
        raise SpecError("ball radius must be nonnegative", path="radius")
    G = g.group
    if G.abelian:
        return (g,)
    mul, inv, x = G._mul, G._inv, g.data
    return tuple(G.sorted_elements({mul(mul(h.data, x), inv(h.data)) for h in G.ball(radius, node_budget)}))


def commuting_ball(
    g: Element, radius: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[Element, ...]:
    """Elements of ball(radius) commuting with g."""
    G = g.group
    if G.abelian:
        return G.ball(radius, node_budget)
    mul, x = G._mul, g.data
    return tuple(h for h in G.ball(radius, node_budget) if mul(x, h.data) == mul(h.data, x))


# ---------------------------------------------------------------------------
# recognized subgroups
# ---------------------------------------------------------------------------


class Subgroup:
    """A recognized subgroup: its own group representation, an embedding
    into the ambient group and the projection back, None outside it."""

    def __init__(self, name: str, ambient: Group, inner: Group | None, embed, project):
        self.name = name
        self.ambient = ambient
        self.inner = inner
        self.embed = embed
        self.project = project

    def ball(self, radius: int, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[Element, ...]:
        """Subgroup elements as ambient-group elements."""
        if self.inner is None:
            return (self.ambient.identity(),)
        return tuple(self.embed(h) for h in self.inner.ball(radius, node_budget))

    def contains(self, g: Element) -> bool:
        self.ambient.check(g)
        return self.project(g) is not None


def resolve_subgroup(group: Group, name: str) -> Subgroup:
    """Look up one of the recognized subgroups of a family."""
    if name == "trivial":
        identity = group.identity()
        return Subgroup("trivial", group, None, lambda h: identity, lambda g: identity if g.is_identity() else None)
    if name == "full":
        return Subgroup("full", group, group, lambda h: h, lambda g: g)
    if name in group.base_names:
        # the normal subgroup of a semidirect family: payloads (x, e) over the acting identity e
        inner, e = group.base_group(), group.identity().data[1]
        return Subgroup(
            "base", group, inner,
            lambda h: group.element((h.data, e)),
            lambda g: inner.element(g.data[0]) if g.data[1] == e else None,
        )
    center = group.center()
    if center is not None and name in ("center", center.name):
        return center
    raise SpecError(f"family {group.family!r} has no recognized subgroup {name!r}", path="subgroup")
