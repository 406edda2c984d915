"""Free words shared by the word families (free, sanov, bs_nn, free_times_z).

A word is a tuple of nonzero integers: letter i is generator i, -i its
inverse.  Strings spell letter i as the i-th of `LETTERS` (upper case for
the inverse), separated by spaces.
"""

from __future__ import annotations

from typing import Iterable

from . import _kernels
from .errors import SpecError

LETTERS = "abcdefgh"


def word_to_string(word: Iterable[int]) -> str:
    out = []
    for x in word:
        letter = LETTERS[abs(x) - 1]
        out.append(letter if x > 0 else letter.upper())
    return " ".join(out)


def word_from_string(s: str, rank: int) -> tuple[int, ...]:
    word = []
    for tok in s.split():
        if len(tok) != 1 or tok.lower() not in LETTERS[:rank]:
            raise SpecError(f"bad word letter {tok!r}")
        idx = LETTERS.index(tok.lower()) + 1
        word.append(idx if tok.islower() else -idx)
    return _kernels.free_reduce(tuple(word))


# Letter x sorts by the byte 2|x| + (x < 0): a, A, b, B, ... in order.
_LETTER_CODE = {s * i: 2 * i + (s < 0) for i in range(1, len(LETTERS) + 1) for s in (1, -1)}
CODE_BYTE = [bytes((b,)) for b in range(2 * len(LETTERS) + 2)]


def word_key(word) -> tuple[int, bytes]:
    """Shortlex key of a word: its length, then its letter codes."""
    return (len(word), bytes(map(_LETTER_CODE.__getitem__, word)))
