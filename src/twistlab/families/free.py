"""Free groups of finite rank."""

from __future__ import annotations

from .. import _kernels
from ..errors import SpecError
from ..groups import Element, Group
from ..words import CODE_BYTE, LETTERS, word_from_string, word_inverse, word_key, word_to_string


class FreeGroup(Group):
    """Free group of finite rank; elements are reduced code words."""

    family = "free"
    _mul = staticmethod(_kernels.free_mul)

    def __init__(self, rank: int):
        if not 1 <= rank <= len(LETTERS):
            raise SpecError(f"free group rank must be between 1 and {len(LETTERS)}", path="group.rank")
        self.rank = rank
        super().__init__()
        self.key = f"free[{rank}]"
        self.abelian = rank == 1
        self.icc = rank >= 2

    def _identity_data(self):
        return b""

    _inv = staticmethod(word_inverse)

    def _generators(self):
        return CODE_BYTE[2 : 2 * self.rank + 2]

    def word(self, s: str) -> Element:
        return self.element(word_from_string(s, self.rank))

    def sort_key(self, data):
        return word_key(data)

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
