"""The Sanov semidirect product Z^2 x| F2 and its three-parameter cocycles."""

from __future__ import annotations

from .. import _kernels
from ..cocycles import Cocycle
from ..errors import SpecError
from ..groups import Element, Group, Subgroup, get_group
from ..phase import Angle, Phase, add_angles, scale_angle
from ..words import CODE_BYTE, word_from_string, word_inverse, word_key, word_to_string
from .zn import HalfSkewCocycle, halved


def sanov_act(word: bytes, v) -> tuple[int, int]:
    """The Sanov matrix of the code word `word` applied to v, one letter at
    a time from the right: a^(+-1) maps (p, q) to (p +- 2q, q), b^(+-1) to
    (p, q +- 2p)."""
    p, q = v
    for x in reversed(word):
        if x == 2:
            p += 2 * q
        elif x == 3:
            p -= 2 * q
        elif x == 4:
            q += 2 * p
        else:
            q -= 2 * p
    return (p, q)


class Sanov(Group):
    """Z^2 x| F2 where the free group acts through the Sanov matrices."""

    family = "sanov"
    icc = True
    base_names = ("base", "z2")
    act = staticmethod(sanov_act)

    def base_group(self) -> Group:
        return get_group({"family": "zn", "n": 2})

    def _identity_data(self):
        return ((0, 0), b"")

    def _mul(self, a, b):
        (u, x), (v, y) = a, b
        p, q = sanov_act(x, v)
        return ((u[0] + p, u[1] + q), _kernels.free_mul(x, y))

    def _inv(self, a):
        u, x = a
        xi = word_inverse(x)
        return (sanov_act(xi, (-u[0], -u[1])), xi)

    def _generators(self):
        vectors = [((1, 0), b""), ((-1, 0), b""), ((0, 1), b""), ((0, -1), b"")]
        return vectors + [((0, 0), CODE_BYTE[c]) for c in (2, 3, 4, 5)]

    def pair(self, vector, word: str | bytes) -> Element:
        if isinstance(word, str):
            word = word_from_string(word, 2)
        return self.element(((int(vector[0]), int(vector[1])), word))

    def sort_key(self, data):
        u, x = data
        return (abs(u[0]) + abs(u[1]) + len(x), word_key(x), (abs(u[0]), abs(u[1]), u))

    def length(self, g: Element) -> int:
        # documented proxy: L1 of the vector part plus the word length
        u, x = g.data
        return abs(u[0]) + abs(u[1]) + len(x)

    def describe(self, data) -> str:
        return f"({data[0]}, {word_to_string(data[1]) or 'e'})"

    def element_to_json(self, g: Element):
        return {"v": list(g.data[0]), "w": word_to_string(g.data[1])}

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, dict) or set(obj) != {"v", "w"} or not isinstance(obj["w"], str):
            raise SpecError('sanov element must be {"v": [a, b], "w": "word"}')
        return self.pair(self.base_group().element_from_json(obj["v"]).data, obj["w"])


class SanovCocycle(Cocycle):
    """Cocycle on Z^2 x| F2 determined by three circle parameters.

    sigma((u,x),(v,y)) = sigma0(u, x.v) * g(v, x) where sigma0 is the
    half-skew cocycle with parameter mu0 and g is the bihomomorphism fixed by
    g(e1,v1)=mu1, g(e2,v2)=mu2, g(e1,v2)=g(e2,v1)=1 together with the
    recursion g(a, wl) = g(l.a, w) g(a, l).
    """

    kind = "sanov"

    def __init__(self, group: Sanov, mu0: Phase, mu1: Phase, mu2: Phase):
        super().__init__(group)
        self.mu0 = mu0
        self.mu1 = mu1
        self.mu2 = mu2
        # sigma0 takes half the mu0 angle per unit of the skew form
        half0, self._mu1, self._mu2 = self._fix([mu0, mu1, mu2], factor=2)
        self._half0 = halved(half0)
        self._zero = (0, (0,) * len(self.symbols), self.den)
        self._memo: dict[tuple, Angle] = {}

    def g(self, a: tuple[int, int], word: bytes) -> Phase:
        """The twisting function, computed by a memoized right fold (`_g`)."""
        return self.phase(self._g(a, word))

    def _g(self, a: tuple[int, int], word: bytes) -> Angle:
        """g(a, word) folded from the right, g(a, w l) = g(l.a, w) g(a, l):
        the walk drops letters until it meets a prefix in the memo, then
        adds the letters' values back up, keeping each prefix's value."""
        if not word or a == (0, 0):
            return self._zero
        memo = self._memo
        val = memo.get((a, word))
        if val is not None:
            return val
        steps = []
        while val is None and word:
            steps.append((a, word))
            a, word = sanov_act(CODE_BYTE[word[-1]], a), word[:-1]
            val = memo.get((a, word))
        for a, word in reversed(steps):
            # g(a, l) for one letter; g(a, l^-1) = g(l^-1.a, l)^-1
            (p, q), last = a, word[-1]
            if last < 4:
                own = scale_angle(self._mu1, p if last == 2 else 2 * q - p)
            else:
                own = scale_angle(self._mu2, q if last == 4 else 2 * p - q)
            val = own if val is None else add_angles(val, own)
            memo[a, word] = val
        return val

    def _angle(self, a, b) -> Angle:
        (u, x), (v, _y) = a, b
        w = sanov_act(x, v)
        skew = u[0] * w[1] - u[1] * w[0]
        hk, hc, D = self._half0
        gk, gc, _ = self._g(v, x)
        return (hk * skew + gk) % D, tuple(h * skew + c for h, c in zip(hc, gc)), D

    def _restriction(self, sub: Subgroup) -> Cocycle | None:
        return HalfSkewCocycle(sub.inner, self.mu0) if sub.name == "base" else None
