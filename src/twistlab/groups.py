"""Group families: normal forms, multiplication, conjugation, balls and lengths.

Every element is stored in a canonical normal form (sparse maps without zero
entries, reduced words, the one-relator normal form for the Baumslag-Solitar
family), and equality is identity of normal forms.  Ball enumeration is
breadth-first over the family's standard generating set with normal-form
deduplication and a hard node budget.
"""

from __future__ import annotations

import json
from typing import Iterable

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
        self._hash = hash((group.key, data))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Element)
            and self.group.key == other.group.key
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<{self.group.family}:{self.group.describe(self.data)}>"

    def is_identity(self) -> bool:
        return self.data == self.group.identity().data


class Group:
    """Base class: one instance per family/parameter choice."""

    family = "abstract"
    abelian = False
    amenable = False
    icc: bool | None = None
    finite = False

    def __init__(self):
        self.key = self.family
        self._ball_cache: dict[int, tuple[Element, ...]] = {}

    # family-specific primitives -------------------------------------------

    def _identity_data(self):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _generators(self) -> list:
        """Generator payloads including inverses."""
        raise NotImplementedError

    def sort_key(self, data):
        raise NotImplementedError

    def describe(self, data) -> str:
        return repr(data)

    def length(self, g: Element) -> int:
        """Proper length function used by the growth probes (documented per family)."""
        raise NotImplementedError

    def element_to_json(self, g: Element):
        raise NotImplementedError

    def element_from_json(self, obj) -> Element:
        raise NotImplementedError

    # shared API -------------------------------------------------------------

    def element(self, data) -> Element:
        return Element(self, data)

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

    def ball(self, radius: int, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[Element, ...]:
        """All elements of word length <= radius, sorted canonically."""
        if radius < 0:
            raise SpecError("ball radius must be nonnegative", path="radius")
        cached = self._ball_cache.get(radius)
        if cached is not None:
            return cached
        seen = {self._identity_data()}
        frontier = list(seen)
        gens = self._generators()
        for r in range(1, radius + 1):
            nxt = []
            for a in frontier:
                for s in gens:
                    b = self._mul(a, s)
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
                        if len(seen) > node_budget:
                            raise BudgetExceededError(
                                f"ball enumeration exceeded {node_budget} nodes at radius {r}",
                                nodes=len(seen),
                                radius=r,
                            )
            if not nxt:
                break
            frontier = nxt
        out = tuple(Element(self, d) for d in sorted(seen, key=self.sort_key))
        self._ball_cache[radius] = out
        return out

    def central_candidates(self, radius: int) -> list[Element]:
        """Nontrivial elements whose full conjugacy class is certified finite.

        Only rule-based certification: abelian families (all classes are
        singletons), designated central subgroups, finite groups.
        """
        if self.abelian:
            return [g for g in self.ball(radius) if not g.is_identity()]
        if self.finite:
            full = self.ball(self._finite_diameter())
            return [g for g in full if not g.is_identity()]
        return []

    def _finite_diameter(self) -> int:
        if not self.finite:
            raise SpecError(f"{self.family} is not finite")
        r = 1
        while True:
            a = self.ball(r)
            b = self.ball(r + 1)
            if len(a) == len(b):
                return r + 1
            r += 1


# ---------------------------------------------------------------------------
# abelian sum families
# ---------------------------------------------------------------------------


def _sumz_mul(a, b):
    d = dict(a)
    for i, v in b:
        w = d.get(i, 0) + v
        if w:
            d[i] = w
        elif i in d:
            del d[i]
    return tuple(sorted(d.items()))


def _index_key(i: int) -> tuple[int, int]:
    return (abs(i), 0 if i >= 0 else 1)


class SumZ(Group):
    """Free abelian group of countable rank: finitely supported integer sequences.

    Balls use the generating set {e_k} restricted to the index window
    [-R, R]; this convention is what makes the balls finite.
    """

    family = "sum_z"
    abelian = True
    amenable = True
    icc = False

    def _identity_data(self):
        return ()

    def _mul(self, a, b):
        return _sumz_mul(a, b)

    def _inv(self, a):
        return tuple((i, -v) for i, v in a)

    def _generators(self):
        raise NotImplementedError("sum_z balls are enumerated directly")

    def basis_element(self, index: int, value: int = 1) -> Element:
        return self.element(((index, value),) if value else ())

    def ball(self, radius: int, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[Element, ...]:
        if radius < 0:
            raise SpecError("ball radius must be nonnegative", path="radius")
        cached = self._ball_cache.get(radius)
        if cached is not None:
            return cached
        indices = list(range(-radius, radius + 1))
        out: list[tuple] = []
        count = 0

        def rec(pos: int, weight: int, acc: list):
            nonlocal count
            if pos == len(indices):
                out.append(tuple(acc))
                count += 1
                if count > node_budget:
                    raise BudgetExceededError(
                        f"ball enumeration exceeded {node_budget} nodes",
                        nodes=count,
                        radius=radius,
                    )
                return
            i = indices[pos]
            rec(pos + 1, weight, acc)
            for v in range(1, weight + 1):
                for sv in (v, -v):
                    acc.append((i, sv))
                    rec(pos + 1, weight - v, acc)
                    acc.pop()

        rec(0, radius, [])
        balls = tuple(
            Element(self, tuple(sorted(d))) for d in sorted(out, key=self.sort_key)
        )
        self._ball_cache[radius] = balls
        return balls

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
    amenable = True
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

    def ball(self, radius: int, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[Element, ...]:
        if radius < 0:
            raise SpecError("ball radius must be nonnegative", path="radius")
        cached = self._ball_cache.get(radius)
        if cached is not None:
            return cached
        if self.modulus is not None:
            indices = list(range(self.modulus))
        else:
            indices = list(range(-radius, radius + 1))
        out: list[tuple] = []

        def rec(pos: int, left: int, acc: list):
            if pos == len(indices):
                out.append(tuple(acc))
                return
            rec(pos + 1, left, acc)
            if left > 0:
                acc.append(indices[pos])
                rec(pos + 1, left - 1, acc)
                acc.pop()

        rec(0, radius, [])
        if len(out) > node_budget:
            raise BudgetExceededError("ball enumeration exceeded budget", nodes=len(out))
        balls = tuple(
            Element(self, tuple(sorted(d))) for d in sorted(out, key=self.sort_key)
        )
        self._ball_cache[radius] = balls
        return balls

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
    amenable = True
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

    def describe(self, data) -> str:
        return str(tuple(data))

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
    given.  The shift action moves the support: shifting by n sends the
    basis element at k to the one at k+n.
    """

    family = "wreath"
    amenable = True

    def __init__(self, base: str = "Z", acting_modulus: int | None = None):
        if base not in ("Z", "Z2"):
            raise SpecError(f"wreath base must be Z or Z2, got {base!r}")
        self.base = base
        self.m = acting_modulus
        super().__init__()
        self.key = f"wreath[{base},{acting_modulus or 'Z'}]"
        if acting_modulus is not None:
            if base != "Z2":
                raise SpecError("finite wreath fixtures only support base Z2")
            self.finite = True
            self.icc = False
        else:
            self.icc = True  # acting group is infinite

    def base_group(self) -> Group:
        if self.base == "Z":
            return get_group({"family": "sum_z"})
        if self.m is None:
            return get_group({"family": "sum_z2"})
        return get_group({"family": "sum_z2", "modulus": self.m})

    def _shift(self, x, n: int):
        if self.base == "Z":
            if self.m is None:
                return tuple(sorted((i + n, v) for i, v in x))
            return tuple(sorted(((i + n) % self.m, v) for i, v in x))
        if self.m is None:
            return tuple(sorted(i + n for i in x))
        return tuple(sorted((i + n) % self.m for i in x))

    def _identity_data(self):
        return ((), 0)

    def _mul(self, a, b):
        (x, k), (y, l) = a, b
        ys = self._shift(y, k)
        if self.base == "Z":
            s = _sumz_mul(x, ys)
        else:
            s = tuple(sorted(set(x) ^ set(ys)))
        kk = k + l
        if self.m is not None:
            kk %= self.m
        return (s, kk)

    def _inv(self, a):
        x, k = a
        if self.base == "Z":
            neg = tuple((i, -v) for i, v in x)
        else:
            neg = x
        kk = -k if self.m is None else (-k) % self.m
        return (self._shift(neg, kk), kk)

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
        costs.  For the finite acting group the group is enumerated instead.
        """
        x, k = g.data
        if self.m is not None:
            return self._finite_length(g)
        if self.base == "Z":
            positions = [i for i, _ in x]
            lamps = sum(abs(v) for _, v in x)
        else:
            positions = list(x)
            lamps = len(x)
        pts = positions + [0, k]
        lo, hi = min(pts), max(pts)
        left_first = (0 - lo) + (hi - lo) + abs(hi - k)
        right_first = (hi - 0) + (hi - lo) + abs(k - lo)
        return lamps + min(left_first, right_first)

    def _finite_length(self, g: Element) -> int:
        if not hasattr(self, "_lengths"):
            table: dict = {self._identity_data(): 0}
            frontier = [self._identity_data()]
            r = 0
            gens = self._generators()
            while frontier:
                r += 1
                nxt = []
                for a in frontier:
                    for s in gens:
                        b = self._mul(a, s)
                        if b not in table:
                            table[b] = r
                            nxt.append(b)
                frontier = nxt
            self._lengths = table
        return self._lengths[g.data]

    def describe(self, data) -> str:
        x, k = data
        return f"({x}, t^{k})"

    def element_to_json(self, g: Element):
        x, k = g.data
        if self.base == "Z":
            return {"x": {str(i): v for i, v in x}, "k": k}
        return {"x": list(x), "k": k}

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, dict) or "x" not in obj or "k" not in obj:
            raise SpecError('wreath element must be {"x": ..., "k": int}')
        base = self.base_group().element_from_json(obj["x"])
        return self.pair(base, int(obj["k"]))


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
        raise SpecError(f"matrix determinant must be +-1, got {d}")
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
    amenable = True

    def __init__(self, matrix):
        A = tuple(tuple(int(x) for x in row) for row in matrix)
        n = len(A)
        if any(len(row) != n for row in A):
            raise SpecError("matrix must be square")
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
        Ay = _mat_vec(self.matrix_power(k), y)
        return (tuple(u + v for u, v in zip(x, Ay)), k + l)

    def _inv(self, a):
        x, k = a
        y = _mat_vec(self.matrix_power(-k), tuple(-u for u in x))
        return (y, -k)

    def _generators(self):
        gens = []
        for i in range(self.n):
            e = [0] * self.n
            e[i] = 1
            gens.append((tuple(e), 0))
            e[i] = -1
            gens.append((tuple(e), 0))
        gens.append(((0,) * self.n, 1))
        gens.append(((0,) * self.n, -1))
        return gens

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


def _word_key(word) -> tuple:
    return (len(word), tuple((abs(x), 0 if x > 0 else 1) for x in word))


class FreeGroup(Group):
    """Free group of finite rank; elements are reduced words."""

    family = "free"

    def __init__(self, rank: int):
        if not 1 <= rank <= len(_LETTERS):
            raise SpecError(f"free group rank must be between 1 and {len(_LETTERS)}", path="group.rank")
        self.rank = rank
        super().__init__()
        self.key = f"free[{rank}]"
        self.amenable = rank == 1
        self.abelian = rank == 1
        self.icc = rank >= 2

    def _identity_data(self):
        return ()

    def _mul(self, a, b):
        return _kernels.free_mul(a, b)

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


_SANOV_MATS = {
    1: ((1, 2), (0, 1)),
    -1: ((1, -2), (0, 1)),
    2: ((1, 0), (2, 1)),
    -2: ((1, 0), (-2, 1)),
}


def sanov_word_matrix(word) -> tuple:
    M = ((1, 0), (0, 1))
    for x in word:
        M = _mat_mul(M, _SANOV_MATS[x])
    return M


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
    amenable = False
    icc = True

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


class BaumslagSolitarNN(Group):
    """BS(n,n) = <a, b | a b^n = b^n a> for n >= 2.

    Normal form: a central power b^(n*c) followed by a reduced alternating
    word whose interior b-exponents lie in [1, n-1]; this is a Britton-reduced
    word and normal forms are unique.
    """

    family = "bs_nn"
    amenable = False  # contains free subgroups of infinite rank
    icc = False

    def __init__(self, n: int):
        if n < 2:
            raise SpecError("bs_nn parameter must be >= 2")
        self.n = n
        super().__init__()
        self.key = f"bs_nn[{n}]"

    def _identity_data(self):
        return (0, ())

    def _mul(self, a, b):
        return _kernels.bs_mul(a[0], a[1], b[0], b[1], self.n)

    def _inv(self, a):
        c, w = a
        flipped = []
        for i in range(len(w) - 2, -2, -2):
            flipped.append(w[i])
            flipped.append(-w[i + 1])
        c2, w2 = _kernels.bs_normalize(tuple(flipped), self.n)
        return (-c + c2, w2)

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

    def is_central(self, g: Element) -> bool:
        return g.data[1] == ()

    def central_candidates(self, radius: int) -> list[Element]:
        out = []
        c = 1
        while self.n * c <= radius:
            out.append(self.b_power(self.n * c))
            out.append(self.b_power(-self.n * c))
            c += 1
        return sorted(out, key=lambda e: self.sort_key(e.data))

    def exponents(self, g: Element) -> tuple[int, int]:
        """Image under the abelianization sending a -> (1,0), b -> (0,1)."""
        c, w = g.data
        ae = sum(w[i + 1] for i in range(0, len(w), 2) if w[i] == 1)
        be = sum(w[i + 1] for i in range(0, len(w), 2) if w[i] == 2)
        return (ae, self.n * c + be)

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
        letters = self.to_letters(data)
        return _word_key(letters)

    def length(self, g: Element) -> int:
        # letter count of the normal form (documented proxy for the word metric)
        return len(self.to_letters(g.data))

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
    amenable = False
    icc = False

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

    def word_exponents(self, g: Element) -> tuple[int, int]:
        w = g.data[0]
        oa = sum(1 if x == 1 else -1 if x == -1 else 0 for x in w)
        ob = sum(1 if x == 2 else -1 if x == -2 else 0 for x in w)
        return oa, ob

    def central_candidates(self, radius: int) -> list[Element]:
        out = []
        for m in range(1, radius + 1):
            out.append(self.pair((), m))
            out.append(self.pair((), -m))
        return sorted(out, key=lambda e: self.sort_key(e.data))

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


def _int_field(spec: dict, name: str, default: int, least: int | None = None) -> int:
    """The integer field `name` of a group spec, or `default` when absent;
    values below `least` are rejected."""
    value = spec.get(name, default)
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
        g = SumZ2(modulus=spec.get("modulus"))
    elif fam == "zn":
        g = Zn(_int_field(spec, "n", 2, least=1))
    elif fam == "wreath":
        g = WreathZ(base=spec.get("base", "Z"), acting_modulus=spec.get("acting"))
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
    G = g.group
    if G.abelian:
        return (g,)
    out = {G.conjugate(h, g) for h in G.ball(radius, node_budget)}
    return tuple(sorted(out, key=lambda e: G.sort_key(e.data)))


def commuting_ball(
    g: Element, radius: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[Element, ...]:
    """Elements of ball(radius) commuting with g."""
    G = g.group
    if G.abelian:
        return G.ball(radius, node_budget)
    out = [h for h in G.ball(radius, node_budget) if G.compose(g, h) == G.compose(h, g)]
    return tuple(out)


# ---------------------------------------------------------------------------
# recognized subgroups
# ---------------------------------------------------------------------------


class Subgroup:
    """A recognized subgroup: its own group representation plus an embedding."""

    def __init__(self, name: str, ambient: Group, inner: Group | None, embed):
        self.name = name
        self.ambient = ambient
        self.inner = inner
        self._embed = embed

    def embed(self, h: Element) -> Element:
        return self._embed(h)

    def ball(self, radius: int, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[Element, ...]:
        """Subgroup elements as ambient-group elements."""
        if self.inner is None:
            return (self.ambient.identity(),)
        return tuple(self._embed(h) for h in self.inner.ball(radius, node_budget))

    def contains(self, g: Element) -> bool:
        self.ambient.check(g)
        return self.project(g) is not None

    def project(self, g: Element) -> Element | None:
        """Inverse of embed where defined, else None."""
        raise NotImplementedError


def resolve_subgroup(group: Group, name: str) -> Subgroup:
    """Look up one of the recognized subgroups of a family."""
    if name == "trivial":
        sub = Subgroup("trivial", group, None, lambda h: group.identity())
        sub.project = lambda g: group.identity() if g.is_identity() else None
        return sub
    if name == "full":
        sub = Subgroup("full", group, group, lambda h: h)
        sub.project = lambda g: g
        return sub
    if isinstance(group, WreathZ) and name == "base":
        inner = group.base_group()
        sub = Subgroup("base", group, inner, lambda h: group.pair(h, 0))
        sub.project = lambda g: inner.element(g.data[0]) if g.data[1] == 0 else None
        return sub
    if isinstance(group, ZnSemidirectZ) and name == "base":
        inner = get_group({"family": "zn", "n": group.n})
        sub = Subgroup("base", group, inner, lambda h: group.pair(h.data, 0))
        sub.project = lambda g: inner.element(g.data[0]) if g.data[1] == 0 else None
        return sub
    if isinstance(group, Sanov) and name in ("base", "z2"):
        inner = get_group({"family": "zn", "n": 2})
        sub = Subgroup("base", group, inner, lambda h: group.pair(h.data, ()))
        sub.project = lambda g: inner.element(g.data[0]) if g.data[1] == () else None
        return sub
    if isinstance(group, BaumslagSolitarNN) and name == "center":
        inner = get_group({"family": "zn", "n": 1})
        sub = Subgroup("center", group, inner, lambda h: group.b_power(group.n * h.data[0]))
        sub.project = (
            lambda g: inner.element((g.data[0],)) if g.data[1] == () else None
        )
        return sub
    if isinstance(group, FreeTimesZ) and name in ("z", "center"):
        inner = get_group({"family": "zn", "n": 1})
        sub = Subgroup("z", group, inner, lambda h: group.pair((), h.data[0]))
        sub.project = lambda g: inner.element((g.data[1],)) if g.data[0] == () else None
        return sub
    raise SpecError(f"family {group.family!r} has no recognized subgroup {name!r}", path="subgroup")
