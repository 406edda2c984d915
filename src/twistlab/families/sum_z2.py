"""The countable direct sum of order-two groups (or its finite quotient by a
modulus) and its plus/minus-one bitstream cocycles."""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from ..cocycles import Cocycle, stream_bit, stream_reach
from ..errors import SpecError
from ..groups import Element, Group, _index_key, _int
from ..phase import Angle


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
        idx = [_int(i, "") for i in obj]
        if self.modulus is not None:
            idx = [i % self.modulus for i in idx]
        if len(set(idx)) != len(idx):
            raise SpecError("sum_z2 element has repeated indices")
        return self.element(tuple(sorted(idx)))


class BitstreamCocycle(Cocycle):
    """Plus/minus-one valued bilinear cocycle on the sum of order-two groups.

    The defining data is the support bitstream (preperiod bits followed by a
    repeating block); bit m gives the sign on the m-th superdiagonal.
    """

    kind = "bitstream"
    invariant = True  # diagonal-constant by construction
    den = 2

    def __init__(self, group: SumZ2, pre: tuple[int, ...] = (), period: tuple[int, ...] = ()):
        super().__init__(group)
        for name, bits in (("pre", pre), ("period", period)):
            if any(bit not in (0, 1) for bit in bits):
                raise SpecError("bitstream entries must be 0 or 1", path=f"cocycle.{name}")
        self.pre = tuple(pre)
        self.period = tuple(period)
        self.row_reach = stream_reach(self.pre, self.period)

    def epsilon(self, m: int) -> int:
        return stream_bit(self.pre, self.period, m)

    def entry_angle(self, j: int, k: int) -> Angle | None:
        """The sign at row j, column k as an angle over 2, None when it is +1."""
        return (1, (), 2) if j < k and self.epsilon(k - j) else None

    def _angle(self, a, b) -> Angle:
        count = 0
        for j in a:
            for k in b:
                if j < k:
                    count += self.epsilon(k - j)
        return count % 2, (), 2
