"""The Baumslag-Solitar groups BS(n,n) and the cocycles inflated from their
abelianization."""

from __future__ import annotations

from .. import _kernels
from ..cocycles import Cocycle, TrivialCocycle
from ..errors import SpecError
from ..groups import Element, Group, Subgroup, get_group
from ..phase import Angle, Phase, scale_angle
from ..words import CODE_BYTE, word_from_string, word_key, word_to_string


def bs_exponent_sum(w: tuple, gen: int) -> int:
    """Exponent sum of generator `gen` (1 for a, 2 for b) in the syllables
    ``(gen, exp, gen, exp, ...)`` of a BS(n,n) normal form.  The syllables
    alternate generators, so one generator's exponents are every other
    syllable's: ``w[1::4]`` when the word starts with it, else ``w[3::4]``."""
    return sum(w[1::4] if w and w[0] == gen else w[3::4])


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
            raise SpecError(f"bs_nn parameter must be at least 2, got {n}", path="group.n")
        self.n = n
        super().__init__()
        self.key = f"bs_nn[{n}]"

    def center(self) -> Subgroup:
        """<b^n>, built on first use."""
        if self._center is None:
            n, inner = self.n, get_group({"family": "zn", "n": 1})
            self._center = Subgroup(
                "center", self, inner,
                lambda h: self.b_power(n * h.data[0]),
                lambda g: inner.element((g.data[0],)) if g.data[1] == () else None,
            )
        return self._center

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
        flat = []
        for c in word_from_string(s, 2):
            flat.append(c >> 1)
            flat.append(-1 if c & 1 else 1)
        return self.element(_kernels.bs_normalize(tuple(flat), self.n))

    def b_power(self, m: int) -> Element:
        return self.element(self._bpow(m))

    def exponents(self, g: Element) -> tuple[int, int]:
        """Image under the abelianization sending a -> (1,0), b -> (0,1)."""
        c, w = g.data
        return (bs_exponent_sum(w, 1), self.n * c + bs_exponent_sum(w, 2))

    def to_letters(self, data) -> bytes:
        """The code word of a normal form, built syllable by syllable."""
        c, w = data
        m = self.n * c
        word = CODE_BYTE[4 if m > 0 else 5] * abs(m)
        for i in range(0, len(w), 2):
            exp = w[i + 1]
            word += CODE_BYTE[2 * w[i] + (exp < 0)] * abs(exp)
        return word

    def sort_key(self, data):
        return word_key(self.to_letters(data))

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


class BSInflationCocycle(Cocycle):
    """Inflation through the abelianization of BS(n,n): lambda^(b-exp(x) * a-exp(y))."""

    kind = "bs"

    def __init__(self, group: BaumslagSolitarNN, lam: Phase):
        super().__init__(group)
        self.lam = lam
        [self._lam] = self._fix([lam])

    def _angle(self, a, b) -> Angle:
        x2 = self.group.n * a[0] + bs_exponent_sum(a[1], 2)
        return scale_angle(self._lam, x2 * bs_exponent_sum(b[1], 1))

    def _restriction(self, sub: Subgroup) -> Cocycle | None:
        # lambda^(b-exp(x) a-exp(y)) vanishes where y is a power of b^n
        return TrivialCocycle(sub.inner) if sub is self.group.center() else None
