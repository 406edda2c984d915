"""Wreath products N wr Z (and the finite N wr Z_m used by the fixtures)."""

from __future__ import annotations

from ..errors import SpecError
from ..groups import Element, Group, _int, get_group


class WreathZ(Group):
    """Wreath product (sum of base over the acting group) x| acting group.

    base is "Z" or "Z2"; acting is the integers, or Z_m when a modulus is
    given.  The lamp group is the matching sum family (`base_group`), and
    the action shifts its support: shifting by n sends the basis element at
    k to the one at k+n.
    """

    family = "wreath"
    base_names = ("base",)

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

    def check_lift_base(self, base) -> None:
        """Refuse a base cocycle that lives off the lamp group or is not
        invariant under the shift, so that its lift would not be a cocycle."""
        expected = self._lamps
        if base.group.key != expected.key:
            raise SpecError(
                f"lift base must live on {expected.key}, got {base.group.key}",
                path="cocycle.base",
            )
        if base.kind in ("theta", "bitstream") and not base.invariant:
            raise SpecError(
                "lift base must be shift-invariant (diagonal-constant)",
                path="cocycle.base",
            )
        # around the m-cycle a diagonal-constant base need not be invariant;
        # a bilinear base is invariant exactly when every basis pair is
        for j in range(self.m or 0):
            for k in range(self.m):
                if base._angle((j,), (k,)) != base._angle(self.act(1, (j,)), self.act(1, (k,))):
                    raise SpecError(
                        f"lift base is not invariant under the cyclic shift of {expected.key}: "
                        f"it changes on the basis pair (e{j}, e{k})",
                        path="cocycle.base",
                    )

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
        if not isinstance(obj, dict) or set(obj) != {"x", "k"}:
            raise SpecError('wreath element must be {"x": ..., "k": int}')
        return self.pair(self._lamps.element_from_json(obj["x"]), _int(obj["k"], "k"))
