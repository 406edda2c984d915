"""Free words shared by the word families (free, sanov, bs_nn, free_times_z).

A word is a `bytes` object of letter codes: generator k (1-based) is the
byte 2k and its inverse is 2k + 1, so a letter's inverse is ``c ^ 1`` and
the byte order a, A, b, B, ... is the shortlex letter order.  Words hash by
content and sort by ``(len(w), w)``.  Strings spell generator k as the k-th
of `LETTERS` (upper case for the inverse), separated by spaces.  Library
callers build words with `word_from_string` or, from signed letters ±k,
with `_kernels.free_reduce`.
"""

from __future__ import annotations

from . import _kernels
from .errors import SpecError

LETTERS = "abcdefgh"

CODE_BYTE = [bytes((b,)) for b in range(2 * len(LETTERS) + 2)]  # code -> one-letter word
_SPELLING = ["", ""] + [s for x in LETTERS for s in (x, x.upper())]  # code -> letter
_INVERSE = bytes(c ^ 1 for c in range(256))  # translate table: each code to its inverse


def word_to_string(word: bytes) -> str:
    return " ".join(map(_SPELLING.__getitem__, word))


def word_from_string(s: str, rank: int) -> bytes:
    word = []
    for tok in s.split():
        if len(tok) != 1 or tok.lower() not in LETTERS[:rank]:
            raise SpecError(f"bad word letter {tok!r}")
        idx = LETTERS.index(tok.lower()) + 1
        word.append(idx if tok.islower() else -idx)
    return _kernels.free_reduce(word)


def word_inverse(word: bytes) -> bytes:
    """The inverse word: the letters reversed, each inverted."""
    return word[::-1].translate(_INVERSE)


def word_key(word: bytes) -> tuple[int, bytes]:
    """Shortlex key of a word: its length, then its letter codes."""
    return (len(word), word)
