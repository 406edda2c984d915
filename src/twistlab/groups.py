"""Group families: normal forms, multiplication, conjugation, balls and lengths.

Every element is stored in a canonical normal form (sparse maps without zero
entries, reduced words, the one-relator normal form for the Baumslag-Solitar
family), and equality is identity of normal forms.  Balls are enumerated
shell by shell with a hard node budget: breadth-first over the family's
standard generating set with normal-form deduplication, or by weight over
the index window for the abelian sum families.
"""

from __future__ import annotations

import json
from itertools import combinations, count, product
from typing import Iterable, Iterator

from . import _kernels
from .errors import BudgetExceededError, FamilyMismatchError, SpecError

DEFAULT_NODE_BUDGET = 10**6

_LETTERS = "abcdefgh"


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
    """The balls of one group by radius.

    The largest enumerated ball keeps the radius at which each of its
    elements enters the balls, so it serves every smaller radius without a
    new enumeration: the smaller ball is the elements that have entered by
    then, in the same order.  A smaller ball over the node budget is not
    served, so that its enumeration raises the budget error.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._balls: dict[int, tuple[Element, ...]] = {}
        self._top: tuple[int, tuple[Element, ...], list[int]] | None = None

    def __contains__(self, radius: int) -> bool:
        return radius in self._balls or (self._top is not None and radius <= self._top[0])

    def get(self, radius: int, node_budget: int) -> tuple[Element, ...] | None:
        ball = self._balls.get(radius)
        if (ball is not None and len(ball) <= node_budget) or radius not in self:
            return ball
        _, elements, entries = self._top
        inside = [i for i, e in enumerate(entries) if e <= radius]
        if len(inside) > node_budget:
            return None
        ball = self._balls[radius] = tuple(elements[i] for i in inside)
        return ball

    def store(self, radius: int, ball: tuple[Element, ...], entries: list[int]) -> None:
        self._balls[radius] = ball
        if self._top is None or radius > self._top[0]:
            self._top = (radius, ball, entries)


class Group:
    """Base class: one instance per family/parameter choice."""

    family = "abstract"
    abelian = False
    icc: bool | None = None
    finite = False
    _center: Subgroup | None = None

    def __init__(self):
        self.key = self.family
        self._ball_cache = _BallCache()

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
        if radius < 0:
            raise SpecError("ball radius must be nonnegative", path="radius")
        cached = self._ball_cache.get(radius, node_budget)
        if cached is not None:
            return cached
        found = [(d, r) for r, layer in enumerate(self._shells(radius, node_budget)) for d in layer]
        key = self.sort_key
        found.sort(key=lambda node: key(node[0]))
        out = tuple(Element(self, d) for d, _ in found)
        self._ball_cache.store(radius, out, [self._entry_radius(r, d) for d, r in found])
        return out

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


# ---------------------------------------------------------------------------
# abelian sum families
# ---------------------------------------------------------------------------


def _index_key(i: int) -> tuple[int, int]:
    return (abs(i), 0 if i >= 0 else 1)


class SumZ(Group):
    """Free abelian group of countable rank: finitely supported integer sequences.

    Balls use the generating set {e_k} restricted to the index window
    [-R, R]; this convention is what makes the balls finite.
    """

    family = "sum_z"
    abelian = True
    icc = False

    def _identity_data(self):
        return ()

    def _mul(self, a, b):
        d = dict(a)
        for i, v in b:
            w = d.get(i, 0) + v
            if w:
                d[i] = w
            elif i in d:
                del d[i]
        return tuple(sorted(d.items()))

    def _inv(self, a):
        return tuple((i, -v) for i, v in a)

    def basis_element(self, index: int, value: int = 1) -> Element:
        return self.element(((index, value),) if value else ())

    def shift(self, x, n: int):
        """The payload x moved n places along the index line (a translation
        keeps the index order)."""
        return tuple((i + n, v) for i, v in x)

    def _nodes(self, radius: int) -> Iterator[tuple[int, tuple]]:
        """Weight shells over the window [-radius, radius]: a support of k
        indices, k magnitudes adding up to the weight, and k signs."""
        window = range(-radius, radius + 1)
        yield 0, ()
        for weight in range(1, radius + 1):
            for k in range(1, weight + 1):
                for cuts in combinations(range(1, weight), k - 1):
                    sizes = [b - a for a, b in zip((0, *cuts), (*cuts, weight))]
                    for support in combinations(window, k):
                        for signs in product((1, -1), repeat=k):
                            yield weight, tuple(zip(support, (s * v for s, v in zip(signs, sizes))))

    def _entry_radius(self, shell: int, data) -> int:
        # the window [-r, r] must also hold the support
        return max(shell, max((abs(i) for i, _ in data), default=0))

    def sort_key(self, data):
        return (
            sum(abs(v) for _, v in data),
            tuple(sorted(_index_key(i) + (abs(v), 0 if v > 0 else 1) for i, v in data)),
        )

    def length(self, g: Element) -> int:
        return sum(abs(v) for _, v in g.data)

    def describe(self, data) -> str:
        return "+".join(f"{v}e{i}" for i, v in data) or "0"

    def element_to_json(self, g: Element):
        return {str(i): v for i, v in g.data}

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, dict):
            raise SpecError("sum_z element must be a {index: value} map")
        return self.element(tuple(sorted((int(k), int(v)) for k, v in obj.items() if int(v))))


class SumZ2(Group):
    """Countable direct sum of order-two cyclic groups: finite index sets."""

    family = "sum_z2"
    abelian = True
    icc = False

    def __init__(self, modulus: int | None = None):
        self.modulus = modulus
        super().__init__()
        if modulus is not None:
            self.key = f"sum_z2[{modulus}]"
            self.finite = True

    def _identity_data(self):
        return ()

    def _mul(self, a, b):
        return tuple(sorted(set(a) ^ set(b)))

    def _inv(self, a):
        return a

    def basis_element(self, index: int) -> Element:
        if self.modulus is not None:
            index %= self.modulus
        return self.element((index,))

    def shift(self, x, n: int):
        """The payload x moved n places, around the modulus when there is one."""
        if self.modulus is None:
            return tuple(i + n for i in x)
        return tuple(sorted((i + n) % self.modulus for i in x))

    def _nodes(self, radius: int | None) -> Iterator[tuple[int, tuple]]:
        """Shells of index sets by size, over the window [-radius, radius]
        or over the modulus; a radius of None runs to the full modulus."""
        if self.modulus is not None:
            indices = range(self.modulus)
            top = self.modulus if radius is None else min(radius, self.modulus)
        else:
            indices = range(-radius, radius + 1)
            top = radius
        for size in range(top + 1):
            for support in combinations(indices, size):
                yield size, support

    def _entry_radius(self, shell: int, data) -> int:
        if self.modulus is not None:
            return shell
        return max(shell, max(map(abs, data), default=0))

    def sort_key(self, data):
        return (len(data), tuple(sorted(_index_key(i) for i in data)))

    def length(self, g: Element) -> int:
        return len(g.data)

    def describe(self, data) -> str:
        return "+".join(f"e{i}" for i in data) or "0"

    def element_to_json(self, g: Element):
        return list(g.data)

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, list):
            raise SpecError("sum_z2 element must be a list of indices")
        idx = [int(i) for i in obj]
        if self.modulus is not None:
            idx = [i % self.modulus for i in idx]
        if len(set(idx)) != len(idx):
            raise SpecError("sum_z2 element has repeated indices")
        return self.element(tuple(sorted(idx)))


class Zn(Group):
    """Free abelian group of finite rank n (integer vectors)."""

    family = "zn"
    abelian = True
    icc = False

    def __init__(self, n: int):
        self.n = n
        super().__init__()
        self.key = f"zn[{n}]"

    def _identity_data(self):
        return (0,) * self.n

    def _mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _inv(self, a):
        return tuple(-x for x in a)

    def _generators(self):
        gens = []
        for i in range(self.n):
            e = [0] * self.n
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return gens

    def vector(self, *coords: int) -> Element:
        if len(coords) != self.n:
            raise SpecError(f"expected {self.n} coordinates")
        return self.element(tuple(int(c) for c in coords))

    def sort_key(self, data):
        return (sum(abs(x) for x in data), tuple((abs(x), 0 if x >= 0 else 1) for x in data))

    def length(self, g: Element) -> int:
        return sum(abs(x) for x in g.data)

    def element_to_json(self, g: Element):
        return list(g.data)

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, list) or len(obj) != self.n:
            raise SpecError(f"zn element must be a list of {self.n} integers")
        return self.element(tuple(int(v) for v in obj))


# ---------------------------------------------------------------------------
# wreath products N wr Z (and the finite N wr Z_m used by the fixtures)
# ---------------------------------------------------------------------------


class WreathZ(Group):
    """Wreath product (sum of base over the acting group) x| acting group.

    base is "Z" or "Z2"; acting is the integers, or Z_m when a modulus is
    given.  The lamp group is the matching sum family (`base_group`), and
    the action shifts its support: shifting by n sends the basis element at
    k to the one at k+n.
    """

    family = "wreath"

    def __init__(self, base: str = "Z", acting_modulus: int | None = None):
        if base not in ("Z", "Z2"):
            raise SpecError(f"wreath base must be Z or Z2, got {base!r}", path="group.base")
        self.base = base
        self.m = acting_modulus
        super().__init__()
        self.key = f"wreath[{base},{acting_modulus or 'Z'}]"
        lamps = {"family": "sum_z" if base == "Z" else "sum_z2"}
        if acting_modulus is not None:
            if base != "Z2":
                raise SpecError("finite wreath fixtures only support base Z2", path="group.acting")
            self.finite = True
            self.icc = False
            lamps["modulus"] = acting_modulus
        else:
            self.icc = True  # acting group is infinite
        self._lamps = get_group(lamps)

    def base_group(self) -> Group:
        return self._lamps

    def act(self, k: int, y):
        """The lamp payload y shifted by k."""
        return self._lamps.shift(y, k)

    def _identity_data(self):
        return ((), 0)

    def _mul(self, a, b):
        (x, k), (y, l) = a, b
        kk = k + l
        if self.m is not None:
            kk %= self.m
        return (self._lamps._mul(x, self.act(k, y)), kk)

    def _inv(self, a):
        x, k = a
        kk = -k if self.m is None else (-k) % self.m
        return (self.act(kk, self._lamps._inv(x)), kk)

    def _generators(self):
        shift = ((), 1)
        shift_inv = ((), -1 if self.m is None else (self.m - 1))
        if self.base == "Z":
            return [(((0, 1),), 0), (((0, -1),), 0), shift, shift_inv]
        return [((0,), 0), shift, shift_inv]

    def pair(self, base_elem: Element, shift: int) -> Element:
        """Assemble (x, k) from a base-group element and a shift."""
        if self.m is not None:
            shift %= self.m
        return self.element((base_elem.data, shift))

    def sort_key(self, data):
        x, k = data
        if self.base == "Z":
            xkey = (sum(abs(v) for _, v in x), tuple(sorted(x)))
        else:
            xkey = (len(x), tuple(x))
        return (xkey[0] + abs(k), abs(k), 0 if k >= 0 else 1, xkey[1])

    def length(self, g: Element) -> int:
        """Exact word length for the standard generators (lamp at 0, shift).

        Walk cost on the line: visit the support starting at 0, ending at the
        final shift position, sweeping left or right first, plus the lamp
        costs.  On the m-cycle of a finite acting group, see `_cycle_walk`.
        """
        x, k = g.data
        positions = [i for i, _ in x] if self.base == "Z" else list(x)
        lamps = self._lamps.length(Element(self._lamps, x))
        if self.m is not None:
            return lamps + self._cycle_walk(positions, k)
        pts = positions + [0, k]
        lo, hi = min(pts), max(pts)
        left_first = (0 - lo) + (hi - lo) + abs(hi - k)
        right_first = (hi - 0) + (hi - lo) + abs(k - lo)
        return lamps + min(left_first, right_first)

    def _cycle_walk(self, positions: list[int], k: int) -> int:
        """The shortest walk on the m-cycle from 0 to k through `positions`.

        A walk over every edge costs at least a full turn back to 0 and then
        the short way to k.  Any other walk misses an edge, so it stays on
        the arc left by skipping one gap between consecutive points of
        positions + {0, k}, and walks that arc like the line.
        """
        m = self.m
        best = m + min(k, m - k)
        pts = sorted({0, k, *positions})
        for i, start in enumerate(pts):
            span = (pts[i - 1] - start) % m  # the arc from start forward to the point before it
            s, e = -start % m, (k - start) % m
            best = min(best, span + min(s + span - e, span - s + e))
        return best

    def describe(self, data) -> str:
        x, k = data
        return f"({x}, t^{k})"

    def element_to_json(self, g: Element):
        x, k = g.data
        return {"x": self._lamps.element_to_json(Element(self._lamps, x)), "k": k}

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, dict) or "x" not in obj or "k" not in obj:
            raise SpecError('wreath element must be {"x": ..., "k": int}')
        return self.pair(self._lamps.element_from_json(obj["x"]), int(obj["k"]))


# ---------------------------------------------------------------------------
# Z^n x| Z via a GL(n, Z) matrix
# ---------------------------------------------------------------------------


def _mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_vec(A, v):
    return tuple(sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A)))


def _det(A) -> int:
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        return A[0][0] * A[1][1] - A[0][1] * A[1][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in A[1:])
        total += (-1) ** j * A[0][j] * _det(minor)
    return total


def _int_inverse(A):
    n = len(A)
    d = _det(A)
    if d not in (1, -1):
        raise SpecError(f"matrix determinant must be +-1, got {d}", path="group.A")
    cof = [
        [
            (-1) ** (i + j)
            * _det(tuple(row[:j] + row[j + 1 :] for k, row in enumerate(A) if k != i))
            for j in range(n)
        ]
        for i in range(n)
    ]
    adj = tuple(tuple(cof[j][i] for j in range(n)) for i in range(n))
    return tuple(tuple(x * d for x in row) for row in adj)


class ZnSemidirectZ(Group):
    """Z^n x| Z, the integers acting through powers of an integer matrix."""

    family = "zn_semidirect"

    def __init__(self, matrix):
        if not (
            isinstance(matrix, list)
            and matrix
            and all(isinstance(row, list) and len(row) == len(matrix) for row in matrix)
            and all(isinstance(x, int) and not isinstance(x, bool) for row in matrix for x in row)
        ):
            raise SpecError(
                f"matrix must be a nonempty square list of integer rows, got {matrix!r}", path="group.A"
            )
        A = tuple(tuple(row) for row in matrix)
        n = len(A)
        self.n = n
        self.A = A
        self.A_inv = _int_inverse(A)
        self._powers: dict[int, tuple] = {0: tuple(tuple(int(i == j) for j in range(n)) for i in range(n))}
        super().__init__()
        self.key = f"zn_semidirect[{A}]"
        if n == 2:
            trace = A[0][0] + A[1][1]
            self.icc = abs(trace) > 1 + _det(A)
        else:
            self.icc = None
        self._lattice = get_group({"family": "zn", "n": n})

    def base_group(self) -> Group:
        return self._lattice

    def act(self, k: int, y):
        """The lattice payload y moved by A^k."""
        return _mat_vec(self.matrix_power(k), y)

    def matrix_power(self, k: int):
        if k not in self._powers:
            if k > 0:
                self._powers[k] = _mat_mul(self.matrix_power(k - 1), self.A)
            else:
                self._powers[k] = _mat_mul(self.matrix_power(k + 1), self.A_inv)
        return self._powers[k]

    def _identity_data(self):
        return ((0,) * self.n, 0)

    def _mul(self, a, b):
        (x, k), (y, l) = a, b
        return (self._lattice._mul(x, self.act(k, y)), k + l)

    def _inv(self, a):
        x, k = a
        return (self.act(-k, self._lattice._inv(x)), -k)

    def _generators(self):
        zero = self._lattice._identity_data()
        return [(e, 0) for e in self._lattice._generators()] + [(zero, 1), (zero, -1)]

    def pair(self, vector, k: int) -> Element:
        return self.element((tuple(int(v) for v in vector), int(k)))

    def sort_key(self, data):
        x, k = data
        return (sum(abs(v) for v in x) + abs(k), abs(k), 0 if k >= 0 else 1, x)

    def length(self, g: Element) -> int:
        # documented proxy: translation part in the L1 norm plus the shift
        x, k = g.data
        return sum(abs(v) for v in x) + abs(k)

    def describe(self, data) -> str:
        return f"({data[0]}, t^{data[1]})"

    def element_to_json(self, g: Element):
        return {"v": list(g.data[0]), "k": g.data[1]}

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, dict) or "v" not in obj or "k" not in obj:
            raise SpecError('zn_semidirect element must be {"v": [...], "k": int}')
        return self.pair(obj["v"], obj["k"])


# ---------------------------------------------------------------------------
# words: free groups, the Sanov semidirect product, BS(n,n), F2 x Z
# ---------------------------------------------------------------------------


def word_to_string(word: Iterable[int]) -> str:
    out = []
    for x in word:
        letter = _LETTERS[abs(x) - 1]
        out.append(letter if x > 0 else letter.upper())
    return " ".join(out)


def word_from_string(s: str, rank: int) -> tuple[int, ...]:
    word = []
    for tok in s.split():
        if len(tok) != 1 or tok.lower() not in _LETTERS[:rank]:
            raise SpecError(f"bad word letter {tok!r}")
        idx = _LETTERS.index(tok.lower()) + 1
        word.append(idx if tok.islower() else -idx)
    return _kernels.free_reduce(tuple(word))


# Letter x sorts by the byte 2|x| + (x < 0): a, A, b, B, ... in order.
_LETTER_CODE = {s * i: 2 * i + (s < 0) for i in range(1, len(_LETTERS) + 1) for s in (1, -1)}
_CODE_BYTE = [bytes((b,)) for b in range(2 * len(_LETTERS) + 2)]


def _word_key(word) -> tuple[int, bytes]:
    """Shortlex key of a word: its length, then its letter codes."""
    return (len(word), bytes(map(_LETTER_CODE.__getitem__, word)))


class FreeGroup(Group):
    """Free group of finite rank; elements are reduced words."""

    family = "free"
    _mul = staticmethod(_kernels.free_mul)

    def __init__(self, rank: int):
        if not 1 <= rank <= len(_LETTERS):
            raise SpecError(f"free group rank must be between 1 and {len(_LETTERS)}", path="group.rank")
        self.rank = rank
        super().__init__()
        self.key = f"free[{rank}]"
        self.abelian = rank == 1
        self.icc = rank >= 2

    def _identity_data(self):
        return ()

    def _inv(self, a):
        return tuple(-x for x in reversed(a))

    def _generators(self):
        out = []
        for i in range(1, self.rank + 1):
            out.append((i,))
            out.append((-i,))
        return out

    def word(self, s: str) -> Element:
        return self.element(word_from_string(s, self.rank))

    def sort_key(self, data):
        return _word_key(data)

    def length(self, g: Element) -> int:
        return len(g.data)

    def describe(self, data) -> str:
        return word_to_string(data) or "e"

    def element_to_json(self, g: Element):
        return word_to_string(g.data)

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, str):
            raise SpecError("free group element must be a word string")
        return self.element(word_from_string(obj, self.rank))


def sanov_act(word, v) -> tuple[int, int]:
    """The Sanov matrix of `word` applied to v, one letter at a time from
    the right: a^(+-1) maps (p, q) to (p +- 2q, q), b^(+-1) to (p, q +- 2p)."""
    p, q = v
    for x in reversed(word):
        if x == 1:
            p += 2 * q
        elif x == -1:
            p -= 2 * q
        elif x == 2:
            q += 2 * p
        else:
            q -= 2 * p
    return (p, q)


class Sanov(Group):
    """Z^2 x| F2 where the free group acts through the Sanov matrices."""

    family = "sanov"
    icc = True
    act = staticmethod(sanov_act)

    def base_group(self) -> Group:
        return get_group({"family": "zn", "n": 2})

    def _identity_data(self):
        return ((0, 0), ())

    def _mul(self, a, b):
        (u, x), (v, y) = a, b
        p, q = sanov_act(x, v)
        return ((u[0] + p, u[1] + q), _kernels.free_mul(x, y))

    def _inv(self, a):
        u, x = a
        xi = tuple(-t for t in reversed(x))
        return (sanov_act(xi, (-u[0], -u[1])), xi)

    def _generators(self):
        return [
            ((1, 0), ()),
            ((-1, 0), ()),
            ((0, 1), ()),
            ((0, -1), ()),
            ((0, 0), (1,)),
            ((0, 0), (-1,)),
            ((0, 0), (2,)),
            ((0, 0), (-2,)),
        ]

    def pair(self, vector, word: str | tuple) -> Element:
        if isinstance(word, str):
            word = word_from_string(word, 2)
        return self.element(((int(vector[0]), int(vector[1])), word))

    def sort_key(self, data):
        u, x = data
        return (abs(u[0]) + abs(u[1]) + len(x), _word_key(x), (abs(u[0]), abs(u[1]), u))

    def length(self, g: Element) -> int:
        # documented proxy: L1 of the vector part plus the word length
        u, x = g.data
        return abs(u[0]) + abs(u[1]) + len(x)

    def describe(self, data) -> str:
        return f"({data[0]}, {word_to_string(data[1]) or 'e'})"

    def element_to_json(self, g: Element):
        return {"v": list(g.data[0]), "w": word_to_string(g.data[1])}

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, dict) or "v" not in obj or "w" not in obj:
            raise SpecError('sanov element must be {"v": [a, b], "w": "word"}')
        return self.pair(obj["v"], word_from_string(obj["w"], 2))


def bs_exponent_sum(w: tuple, gen: int) -> int:
    """Exponent sum of generator `gen` (1 for a, 2 for b) in the syllables
    ``(gen, exp, gen, exp, ...)`` of a BS(n,n) normal form.  The syllables
    alternate generators, so one generator's exponents are every other
    syllable's: ``w[1::4]`` when the word starts with it, else ``w[3::4]``."""
    return sum(w[1::4] if w and w[0] == gen else w[3::4])


def free_exponents(w: tuple) -> tuple[int, int]:
    """Exponent sums of a and b in a free word of letters +-1, +-2."""
    return w.count(1) - w.count(-1), w.count(2) - w.count(-2)


class BaumslagSolitarNN(Group):
    """BS(n,n) = <a, b | a b^n = b^n a> for n >= 2.

    Normal form: a central power b^(n*c) followed by a reduced alternating
    word whose interior b-exponents lie in [1, n-1]; this is a Britton-reduced
    word and normal forms are unique.
    """

    family = "bs_nn"
    icc = False

    def __init__(self, n: int):
        if n < 2:
            raise SpecError("bs_nn parameter must be >= 2")
        self.n = n
        super().__init__()
        self.key = f"bs_nn[{n}]"
        inner = get_group({"family": "zn", "n": 1})
        self._center = Subgroup(  # <b^n>
            "center", self, inner,
            lambda h: self.b_power(n * h.data[0]),
            lambda g: inner.element((g.data[0],)) if g.data[1] == () else None,
        )

    def _identity_data(self):
        return (0, ())

    def _mul(self, a, b):
        return _kernels.bs_mul(a[0], a[1], b[0], b[1], self.n)

    def _inv(self, a):
        """Reversed syllables: a^e becomes a^-e and b^e becomes b^(n-e)
        times the central b^-n, so c drops by one per b-syllable."""
        c, w = a
        n = self.n
        out = []
        for i in range(len(w) - 2, -2, -2):
            gen, exp = w[i], w[i + 1]
            if gen == 2:
                c += 1
                exp = n - exp
            else:
                exp = -exp
            out.append(gen)
            out.append(exp)
        return (-c, tuple(out))

    def _generators(self):
        return [(0, (1, 1)), (0, (1, -1)), self._bpow(1), self._bpow(-1)]

    def _bpow(self, m: int):
        return _kernels.bs_normalize((2, m), self.n)

    def word(self, s: str) -> Element:
        letters = word_from_string(s, 2)
        flat = []
        for x in letters:
            flat.append(abs(x))
            flat.append(1 if x > 0 else -1)
        return self.element(_kernels.bs_normalize(tuple(flat), self.n))

    def b_power(self, m: int) -> Element:
        return self.element(self._bpow(m))

    def exponents(self, g: Element) -> tuple[int, int]:
        """Image under the abelianization sending a -> (1,0), b -> (0,1)."""
        c, w = g.data
        return (bs_exponent_sum(w, 1), self.n * c + bs_exponent_sum(w, 2))

    def to_letters(self, data) -> tuple[int, ...]:
        c, w = data
        letters = []
        m = self.n * c
        if m:
            letters.extend([2 if m > 0 else -2] * abs(m))
        for i in range(0, len(w), 2):
            gen, exp = w[i], w[i + 1]
            letters.extend([gen if exp > 0 else -gen] * abs(exp))
        return tuple(letters)

    def sort_key(self, data):
        """`_word_key` of `to_letters(data)`, built syllable by syllable."""
        c, w = data
        m = self.n * c
        key = _CODE_BYTE[4 if m > 0 else 5] * abs(m)
        for i in range(0, len(w), 2):
            exp = w[i + 1]
            key += _CODE_BYTE[2 * w[i] + (exp < 0)] * abs(exp)
        return (len(key), key)

    def length(self, g: Element) -> int:
        # letter count of the normal form (documented proxy for the word metric)
        c, w = g.data
        return abs(self.n * c) + sum(abs(w[i]) for i in range(1, len(w), 2))

    def describe(self, data) -> str:
        return word_to_string(self.to_letters(data)) or "e"

    def element_to_json(self, g: Element):
        return word_to_string(self.to_letters(g.data))

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, str):
            raise SpecError("bs_nn element must be a word string")
        return self.word(obj)


class FreeTimesZ(Group):
    """F2 x Z: pairs (reduced word, integer)."""

    family = "free_times_z"
    icc = False

    def __init__(self):
        super().__init__()
        inner = get_group({"family": "zn", "n": 1})
        self._center = Subgroup(  # the integer factor
            "z", self, inner,
            lambda h: self.pair((), h.data[0]),
            lambda g: inner.element((g.data[1],)) if g.data[0] == () else None,
        )

    def _identity_data(self):
        return ((), 0)

    def _mul(self, a, b):
        return (_kernels.free_mul(a[0], b[0]), a[1] + b[1])

    def _inv(self, a):
        return (tuple(-x for x in reversed(a[0])), -a[1])

    def _generators(self):
        return [((1,), 0), ((-1,), 0), ((2,), 0), ((-2,), 0), ((), 1), ((), -1)]

    def pair(self, word: str | tuple, k: int) -> Element:
        if isinstance(word, str):
            word = word_from_string(word, 2)
        return self.element((word, int(k)))

    def sort_key(self, data):
        w, k = data
        return (len(w) + abs(k), abs(k), 0 if k >= 0 else 1, _word_key(w))

    def length(self, g: Element) -> int:
        return len(g.data[0]) + abs(g.data[1])

    def describe(self, data) -> str:
        return f"({word_to_string(data[0]) or 'e'}, {data[1]})"

    def element_to_json(self, g: Element):
        return {"w": word_to_string(g.data[0]), "k": g.data[1]}

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, dict) or "w" not in obj or "k" not in obj:
            raise SpecError('free_times_z element must be {"w": "word", "k": int}')
        return self.pair(word_from_string(obj["w"], 2), obj["k"])


# ---------------------------------------------------------------------------
# registry, module-level operation helpers
# ---------------------------------------------------------------------------

_GROUP_CACHE: dict[str, Group] = {}


def _int_field(spec: dict, name: str, default: int | None, least: int | None = None) -> int | None:
    """The integer field `name` of a group spec, or `default` when absent
    (or null, for an optional field whose default is None); values below
    `least` are rejected."""
    value = spec.get(name, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{name} must be an integer, got {value!r}", path=f"group.{name}")
    if least is not None and value < least:
        raise SpecError(f"{name} must be at least {least}, got {value}", path=f"group.{name}")
    return value


def get_group(spec: dict) -> Group:
    """Build (or fetch) the group described by a family spec dict."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise SpecError("group spec must be an object with a 'family' field", path="group.family")
    fam = spec["family"]
    cache_key = json.dumps(spec, sort_keys=True)
    if cache_key in _GROUP_CACHE:
        return _GROUP_CACHE[cache_key]
    if fam == "sum_z":
        g: Group = SumZ()
    elif fam == "sum_z2":
        g = SumZ2(modulus=_int_field(spec, "modulus", None, least=1))
    elif fam == "zn":
        g = Zn(_int_field(spec, "n", 2, least=1))
    elif fam == "wreath":
        g = WreathZ(base=spec.get("base", "Z"), acting_modulus=_int_field(spec, "acting", None, least=1))
    elif fam == "zn_semidirect":
        if "A" not in spec:
            raise SpecError("zn_semidirect requires a matrix", path="group.A")
        g = ZnSemidirectZ(spec["A"])
    elif fam == "sanov":
        g = Sanov()
    elif fam == "bs_nn":
        g = BaumslagSolitarNN(_int_field(spec, "n", 2))
    elif fam == "free":
        g = FreeGroup(_int_field(spec, "rank", 2))
    elif fam == "free_times_z":
        g = FreeTimesZ()
    else:
        raise SpecError(f"unknown group family {fam!r}", path="group.family")
    _GROUP_CACHE[cache_key] = g
    return g


def compose(g: Element, h: Element) -> Element:
    return g.group.compose(g, h)


def invert(g: Element) -> Element:
    return g.group.invert(g)


def conjugate(g: Element, h: Element) -> Element:
    """g . h = g h g^{-1}."""
    return g.group.conjugate(g, h)


def ball(group: Group, radius: int, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[Element, ...]:
    return group.ball(radius, node_budget)


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
    if (name == "base" and isinstance(group, (WreathZ, ZnSemidirectZ, Sanov))) or (
        name == "z2" and isinstance(group, Sanov)
    ):
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
