"""F2 x Z, its character-driven cocycles and the product of a cocycle on
each factor."""

from __future__ import annotations

from .. import _kernels
from ..cocycles import Cocycle, TrivialCocycle
from ..errors import SpecError
from ..groups import Element, Group, Subgroup, _int, get_group
from ..phase import Angle, Phase, _merge_bases
from ..words import CODE_BYTE, word_from_string, word_inverse, word_key, word_to_string


def free_exponents(w: bytes) -> tuple[int, int]:
    """Exponent sums of a and b in a code word of F2."""
    return w.count(2) - w.count(3), w.count(4) - w.count(5)


class FreeTimesZ(Group):
    """F2 x Z: pairs (reduced code word, integer)."""

    family = "free_times_z"
    icc = False

    def center(self) -> Subgroup:
        """The integer factor, built on first use."""
        if self._center is None:
            inner = get_group({"family": "zn", "n": 1})
            self._center = Subgroup(
                "z", self, inner,
                lambda h: self.pair(b"", h.data[0]),
                lambda g: inner.element((g.data[1],)) if g.data[0] == b"" else None,
            )
        return self._center

    def _identity_data(self):
        return (b"", 0)

    def _mul(self, a, b):
        return (_kernels.free_mul(a[0], b[0]), a[1] + b[1])

    def _inv(self, a):
        return (word_inverse(a[0]), -a[1])

    def _generators(self):
        return [(CODE_BYTE[c], 0) for c in (2, 3, 4, 5)] + [(b"", 1), (b"", -1)]

    def pair(self, word: str | bytes, k: int) -> Element:
        if isinstance(word, str):
            word = word_from_string(word, 2)
        return self.element((word, int(k)))

    def sort_key(self, data):
        w, k = data
        return (len(w) + abs(k), abs(k), 0 if k >= 0 else 1, word_key(w))

    def length(self, g: Element) -> int:
        return len(g.data[0]) + abs(g.data[1])

    def describe(self, data) -> str:
        return f"({word_to_string(data[0]) or 'e'}, {data[1]})"

    def element_to_json(self, g: Element):
        return {"w": word_to_string(g.data[0]), "k": g.data[1]}

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, dict) or set(obj) != {"w", "k"} or not isinstance(obj["w"], str):
            raise SpecError('free_times_z element must be {"w": "word", "k": int}')
        return self.pair(obj["w"], _int(obj["k"], "k"))


class FreeTimesZCharCocycle(Cocycle):
    """Character-driven cocycle on F2 x Z: sigma((x,m),(y,n)) = gamma^m(y)
    with gamma(a)=mu, gamma(b)=nu.
    """

    kind = "f2xz"

    def __init__(self, group: FreeTimesZ, mu: Phase, nu: Phase):
        super().__init__(group)
        self.mu = mu
        self.nu = nu
        self.mu_angle, self.nu_angle = self._fix([mu, nu])

    def character(self, word: bytes) -> Phase:
        """gamma on a code word: mu^(a-exponent) nu^(b-exponent)."""
        oa, ob = free_exponents(word)
        return self.mu.scale(oa) * self.nu.scale(ob)

    def _angle(self, a, b) -> Angle:
        m = a[1]
        oa, ob = free_exponents(b[0])
        ma, mb = m * oa, m * ob
        (ka, ca, D), (kb, cb, _) = self.mu_angle, self.nu_angle
        return (ka * ma + kb * mb) % D, tuple(x * ma + y * mb for x, y in zip(ca, cb)), D

    def _restriction(self, sub: Subgroup) -> Cocycle | None:
        # gamma^m(y) vanishes where y has no free part
        return TrivialCocycle(sub.inner) if sub is self.group.center() else None


class ProductCocycle(Cocycle):
    """Product cocycle on F2 x Z: a factor on each of the two direct factors."""

    kind = "product"

    def __init__(self, group: FreeTimesZ, left: Cocycle, right: Cocycle):
        super().__init__(group)
        if left.group.key != "free[2]":
            raise SpecError("product left factor must live on free[2]", path="cocycle.left")
        if right.group.key != "zn[1]":
            raise SpecError("product right factor must live on zn[1]", path="cocycle.right")
        self.left = left
        self.right = right
        self.den = None
        self.symbols = tuple(sorted({*left.symbols, *right.symbols}))
        self.basis = _merge_bases(left.basis, right.basis)

    def _angle(self, a, b) -> Angle:
        return self._own_angle(self.left._eval(a[0], b[0]) * self.right._eval((a[1],), (b[1],)))
