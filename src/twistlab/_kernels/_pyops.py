"""Pure-Python word kernels: free reduction and the one-relator normal form.

A free word is `bytes` of letter codes: generator k is 2k and its inverse
2k + 1, so a letter and its inverse differ in the lowest bit.
"""

from __future__ import annotations

IMPL = "python"


def free_reduce(letters) -> bytes:
    """The reduced code word of a sequence of signed letters: +k and -k
    are the k-th generator and its inverse."""
    out = bytearray()
    for x in letters:
        c = 2 * x if x > 0 else 1 - 2 * x
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return bytes(out)


def free_mul(a: bytes, b: bytes) -> bytes:
    """Product of two reduced code words: only the junction cancels."""
    if not (a and b and a[-1] == b[0] ^ 1):
        return a + b
    m = min(len(a), len(b))
    k = 1
    while k < m and a[-1 - k] == b[k] ^ 1:
        k += 1
    return a[: len(a) - k] + b[k:]


def bs_normalize(syllables, n: int) -> tuple:
    """Normal form in <a, b | a b^n = b^n a>.

    Input is a flat (gen, exp, gen, exp, ...) sequence with gen 1 = a and
    gen 2 = b.  Central powers of b^n slide freely past a, so they are
    extracted into a counter; what remains is the reduced alternating word of
    the quotient free product with interior b-exponents in [1, n-1].

    Returns (c, flat_word): the element equals b^(n*c) * flat_word.
    """
    c = 0
    out: list[int] = []  # flat (gen, exp) pairs
    for i in range(0, len(syllables), 2):
        gen = syllables[i]
        exp = syllables[i + 1]
        if gen == 2:
            q, exp = divmod(exp, n)
            c += q
            if exp == 0:
                continue
        # out stays strictly alternating, so one merge step per level suffices
        while exp != 0:
            if out and out[-2] == gen:
                exp += out[-1]
                del out[-2:]
                if gen == 2:
                    q, exp = divmod(exp, n)
                    c += q
                continue
            out.append(gen)
            out.append(exp)
            break
    return c, tuple(out)


def bs_mul(ca: int, wa: tuple, cb: int, wb: tuple, n: int) -> tuple:
    """Multiply two normal forms (c, word) in <a, b | a b^n = b^n a>.

    Both words are already reduced (Britton normal forms), so only their
    junction can change: the end syllables merge when they have the same
    generator, a b-exponent sheds its multiples of n into the counter, and
    a syllable that cancels exposes the next junction.
    """
    c = ca + cb
    i, j = len(wa), 0  # the product is wa[:i] + (merged syllable) + wb[j:]
    while i and j < len(wb) and wa[i - 2] == wb[j]:
        gen, exp = wb[j], wa[i - 1] + wb[j + 1]
        i -= 2
        j += 2
        if gen == 2:
            q, exp = divmod(exp, n)
            c += q
        if exp:
            return c, wa[:i] + (gen, exp) + wb[j:]
    return c, wa[:i] + wb[j:]
