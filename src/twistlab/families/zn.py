"""Free abelian groups of finite rank and the skew-form cocycles on rank two."""

from __future__ import annotations

from ..cocycles import Cocycle
from ..errors import SpecError
from ..groups import Element, Group, _int
from ..phase import Angle, Phase, scale_angle


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
        return self.element(tuple(_int(v, "") for v in obj))


class SkewFormCocycle(Cocycle):
    """A cocycle on Z^2 whose value is a power of the skew form x1 y2 - x2 y1.

    Each subclass defines ``skew_angle()``, the angle of sigma(x,y)/sigma(y,x)
    per unit of x1 y2 - x2 y1.
    """

    def __init__(self, group: Group):
        if not (isinstance(group, Zn) and group.n == 2):
            raise SpecError(f"{self.kind} requires a rank-2 lattice", path="cocycle")
        super().__init__(group)


class AntisymThetaCocycle(SkewFormCocycle):
    """theta * (x1 y2 - x2 y1) on rank-two integer vectors."""

    kind = "antisym_theta"

    def __init__(self, group: Zn, theta: Phase):
        super().__init__(group)
        self.theta = theta
        [self._theta] = self._fix([theta])

    def _angle(self, a, b) -> Angle:
        return scale_angle(self._theta, a[0] * b[1] - a[1] * b[0])

    def skew_angle(self) -> Phase:
        return self.theta.scale(2)


def halved(a: Angle) -> Angle:
    """Half of a parameter's angle over a denominator that doubles the
    parameter's own, so that every entry is even."""
    k, cs, D = a
    return k // 2, tuple(c // 2 for c in cs), D


class HalfSkewCocycle(SkewFormCocycle):
    """Half-integer skew power cocycle on rank-two vectors.

    The angle of the parameter is scaled by (x1 y2 - x2 y1)/2; half-integer
    exponents are handled by exact rational scaling of the angle.
    """

    kind = "half_skew"

    def __init__(self, group: Zn, mu0: Phase):
        super().__init__(group)
        self.mu0 = mu0
        self._half = halved(*self._fix([mu0], factor=2))

    def _angle(self, a, b) -> Angle:
        return scale_angle(self._half, a[0] * b[1] - a[1] * b[0])

    def skew_angle(self) -> Phase:
        return self.mu0
