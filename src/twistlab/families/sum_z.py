"""The countable free abelian group and its upper-triangular bilinear cocycles."""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator

from ..cocycles import Cocycle, nth_prime, stream_bit, stream_reach
from ..errors import SpecError
from ..groups import Element, Group, _index_key, _int
from ..phase import ZERO, Angle, Phase


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
        items = [(int(k), _int(v, k)) for k, v in obj.items()]
        if [str(i) for i, _ in items] != list(obj):  # "01" or "+1" would repeat an index
            raise SpecError(f"sum_z indices must be integers written plainly, got {list(obj)}")
        return self.element(tuple(sorted((i, v) for i, v in items if v)))


class ThetaCocycle(Cocycle):
    """Upper-triangular bilinear cocycle on the countable free abelian group.

    Three parameterizations: an explicit finite window of entries, a
    diagonal-constant sequence (finitely many nonzero diagonals, optionally
    followed by a repeating block), or the named prime-reciprocal rule.
    Diagonal-constant parameterizations are shift-invariant by construction.
    """

    kind = "theta"

    def __init__(
        self,
        group: SumZ,
        diagonals: tuple[Phase, ...] = (),
        period: tuple[Phase, ...] | None = None,
        rule: str | None = None,
        window: dict[tuple[int, int], Phase] | None = None,
    ):
        super().__init__(group)
        if rule is not None and rule != "prime_reciprocal":
            raise SpecError(f"unknown theta rule {rule!r}", path="cocycle.rule")
        self.diagonals = tuple(diagonals)
        self.period = tuple(period) if period else None
        self.rule = rule
        self.window = dict(window) if window else None
        if self.window:
            for (j, k) in self.window:
                if j >= k:
                    raise SpecError(
                        f"theta entry ({j},{k}) lies on or below the diagonal",
                        path="cocycle.entries",
                    )
        # rows within row_reach of a support hold its regularity constraints
        # (None: unbounded); finite_bandwidth is the last nonzero diagonal of
        # a stream whose period is zero, else None
        self.row_reach = self.finite_bandwidth = None
        if rule is not None:
            self.den = None
            return
        window = self.window or {}
        angles = iter(
            a if a[0] or any(a[1]) else None  # zero entries are skipped
            for a in self._fix([*self.diagonals, *(self.period or ()), *window.values()])
        )
        self._diag_angles = [next(angles) for _ in self.diagonals]
        self._period_angles = [next(angles) for _ in self.period or ()]
        self._window_angles = {jk: next(angles) for jk in window}
        if self.window is not None:
            self.row_reach = max(k - j for (j, k) in window)
        else:
            self.row_reach = stream_reach(self._diag_angles, self._period_angles)
            if not any(self._period_angles):
                self.finite_bandwidth = self.row_reach

    def diagonal_value(self, m: int) -> Phase:
        """Value on the m-th superdiagonal (diagonal-constant modes; ZERO for a window)."""
        return ZERO if self.window is not None else self.entry(0, m)

    def entry(self, j: int, k: int) -> Phase:
        angle = self.entry_angle(j, k)
        return ZERO if angle is None else self.phase(angle)

    def entry_angle(self, j: int, k: int) -> Angle | None:
        """``entry(j, k)`` as an angle, None when it is zero."""
        if j >= k:
            return None
        if self.window is not None:
            return self._window_angles.get((j, k))
        if self.rule is not None:
            return 1, (), nth_prime(k - j)
        return stream_bit(self._diag_angles, self._period_angles, k - j) or None

    @property
    def invariant(self) -> bool:
        return self.window is None

    def _angle(self, a, b) -> Angle:
        if self.rule is not None:
            return self._prime_angle(a, b)
        D = self.den
        k = 0
        cs = (0,) * len(self.symbols)
        for j, xj in a:
            for l, yl in b:
                if j < l:
                    t = self.entry_angle(j, l)
                    if t is not None:
                        n = xj * yl
                        k += t[0] * n
                        if cs:
                            cs = tuple(c + n * tc for c, tc in zip(cs, t[1]))
        return k % D, cs, D

    @staticmethod
    def _prime_angle(a, b) -> Angle:
        """The sum of x_j y_l / p_(l-j) over the product D of its primes."""
        k, D = 0, 1
        for j, xj in a:
            for l, yl in b:
                if j < l:
                    p = nth_prime(l - j)
                    if D % p:
                        k, D = k * p, D * p
                    k += xj * yl * (D // p)
        return k % D, (), D


def theta_rule(group: SumZ, rule: str) -> ThetaCocycle:
    """The ``theta_rule`` spec kind: a named rule for every diagonal."""
    return ThetaCocycle(group, rule=rule)


def theta_window(group: SumZ, window: dict[tuple[int, int], Phase]) -> ThetaCocycle:
    """The ``theta_window`` spec kind: finitely many entries above the diagonal."""
    return ThetaCocycle(group, window=window)
