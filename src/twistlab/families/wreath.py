"""Wreath products N wr Z (and the finite N wr Z_m used by the fixtures)."""

from __future__ import annotations

from ..errors import SpecError
from ..groups import Element, ZExtension, _int, get_group


class WreathZ(ZExtension):
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
        self._base = get_group(lamps)

    def act(self, k: int, y):
        """The lamp payload y shifted by k."""
        return self._base.shift(y, k)

    def _base_generators(self):
        return [((0, 1),), ((0, -1),)] if self.base == "Z" else [(0,)]

    def _base_size(self, x) -> int:
        return sum(abs(v) for _, v in x) if self.base == "Z" else len(x)

    def check_lift_base(self, base) -> None:
        """Refuse a base cocycle that lives off the lamp group or is not
        invariant under the shift, so that its lift would not be a cocycle."""
        if base.group.key != self._base.key:
            raise SpecError(
                f"lift base must live on {self._base.key}, got {base.group.key}",
                path="cocycle.base",
            )
        if base.kind in ("theta", "bitstream") and not base.invariant:
            raise SpecError(
                "lift base must be shift-invariant (diagonal-constant)",
                path="cocycle.base",
            )
        # around the m-cycle a diagonal-constant base need not be invariant;
        # a bilinear base is invariant exactly when every basis pair is, and
        # the shift keeps the order and difference of a pair below m - 1:
        # so only the pairs that touch m - 1 are compared, in lexicographic order
        last = (self.m or 0) - 1
        for j, k in [(j, last) for j in range(last)] + [(last, k) for k in range(last + 1)]:
            if base._angle((j,), (k,)) != base._angle(self.act(1, (j,)), self.act(1, (k,))):
                raise SpecError(
                    f"lift base is not invariant under the cyclic shift of {self._base.key}: "
                    f"it changes on the basis pair (e{j}, e{k})",
                    path="cocycle.base",
                )

    def pair(self, base_elem: Element, shift: int) -> Element:
        """Assemble (x, k) from a base-group element and a shift."""
        if self.m is not None:
            shift %= self.m
        return self.element((base_elem.data, shift))

    def length(self, g: Element) -> int:
        """Exact word length for the standard generators (lamp at 0, shift).

        Walk cost on the line: visit the support starting at 0, ending at the
        final shift position, sweeping left or right first, plus the lamp
        costs.  On the m-cycle of a finite acting group, see `_cycle_walk`.
        """
        x, k = g.data
        positions = [i for i, _ in x] if self.base == "Z" else list(x)
        lamps = self._base.length(Element(self._base, x))
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

    def element_from_json(self, obj) -> Element:
        if not isinstance(obj, dict) or set(obj) != {"x", "k"}:
            raise SpecError('wreath element must be {"x": ..., "k": int}')
        return self.pair(self._base.element_from_json(obj["x"]), _int(obj["k"], "k"))
