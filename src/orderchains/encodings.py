"""Structure-preserving encodings between word domains and the rationals.

``word_to_bits`` embeds nat-words into bit-words so that the prefix
order is preserved and reflected; ``word_to_dyadic`` embeds nat-words
into dyadic rationals so that the reverse-entry lexicographic order is
preserved and reflected.  All rational arithmetic is exact.

Both encoders take O(runs) Python steps, walking a word by runs of
equal entries, so a filler ``1^n 0`` of the reduction takes O(1) of
them at any n; the C work of ``word_to_dyadic`` grows as runs times
digits, since each run shifts the whole numerator built so far.

The encoders read a word's entries by value: a list reads as its tuple
and a bool entry as 0 or 1, so ``word_to_dyadic([1, 2])`` is
``word_to_dyadic((1, 2))`` and ``word_to_dyadic((True, 0))`` is
``word_to_dyadic((1, 0))``.  ``Element`` and ``index_of`` refuse both.
The encoders do not, since ``Element``'s check would cost as much as
the encoding, and a check per run would miss a bool that ``groupby``
folds into a run of 1s.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from .errors import ArgumentOrderError, DomainMismatchError, echo
from .limits import MAX_DYADIC_DIGITS
from .words import Word, is_prefix


def _doubled(n: int) -> Word:
    return tuple(format(n, "b").encode().replace(b"0", b"\x00\x00").replace(b"1", b"\x01\x01"))


# double_bits of each n below 256, built once at import (about 0.2 ms):
# word_to_bits asks for one code per run, and most entries are small.
_SMALL_DOUBLED = tuple(map(_doubled, range(256)))


def double_bits(n: int) -> Word:
    """Binary digits of n with every bit doubled; 0 encodes to (0, 0)."""
    if n < 0:
        raise DomainMismatchError("double_bits is defined on the naturals")
    return _SMALL_DOUBLED[n] if n < 256 else _doubled(n)


def word_to_bits(word: Word) -> Word:
    """Encode a nat-word as doubled-bit entry codes joined by 01 markers.

    The marker can never occur inside a doubled-bit block, so decoding
    is unambiguous and prefixes map exactly to prefixes.  A run of k
    equal entries is its code repeated k times.
    """
    # A tuple built from bytes is allocated once at its final size.
    try:
        return tuple(b"".join([(bytes(double_bits(e)) + b"\x00\x01") * len([*run]) for e, run in groupby(word)]))
    except TypeError:
        raise DomainMismatchError("word_to_bits is defined on words of naturals") from None


_NAT_WORDS_ONLY = "word_to_dyadic is defined on words of naturals"


def word_to_dyadic(word: Word) -> Fraction:
    """Encode a nat-word as the dyadic rational 0.0^{a_0}1 0^{a_1}1 ...

    in binary: each entry contributes that many zeros and then a one.
    The empty word encodes to 0.  Larger entries push the next one
    further right, which realises the reverse-entry comparison, and
    extending a word only adds smaller binary digits, which keeps
    prefixes below their extensions.  Words needing more than
    ``MAX_DYADIC_DIGITS`` digits raise before any shift.  A word with a
    negative entry raises too, having written no more digits than its
    ``len + sum`` counts, and so does one with an entry that is not an
    int, at its first shift.

    A run of k entries e writes k copies of the block ``0^e 1``, which
    is the repunit ``(2^(k(e+1)) - 1) / (2^(e+1) - 1)`` in base 2^(e+1):
    one division, cheap while the divisor has no more bits than there
    are copies.  Fewer copies than the block is wide take one shift
    each.
    """
    try:
        digits = len(word) + sum(word)
        if digits > MAX_DYADIC_DIGITS:
            raise DomainMismatchError(
                f"word_to_dyadic writes at most {MAX_DYADIC_DIGITS} binary digits; this word needs more"
            )
        num = written = 0
        for entry, run in groupby(word):
            step = entry + 1
            count = len([*run])
            written += step * count
            # The runs so far need no more digits than the whole word unless
            # a negative entry, which lowers ``digits``, lies ahead.
            if entry < 0 or written > digits:
                raise DomainMismatchError(_NAT_WORDS_ONLY)
            if count < step:
                for _ in range(count):
                    num = (num << step) | 1
            else:
                width = step * count
                num = (num << width) | ((1 << width) - 1) // ((1 << step) - 1)
        return Fraction(num, 1 << digits)
    except TypeError:  # not a sized iterable of ints: shifts take ints alone
        raise DomainMismatchError(_NAT_WORDS_ONLY) from None


def format_dyadic_binary(value: Fraction) -> str:
    """Binary expansion of a dyadic rational in [0, 1)."""
    if value < 0 or value >= 1:
        raise DomainMismatchError("binary expansion expects a value in [0, 1)")
    denom = value.denominator
    k = denom.bit_length() - 1
    if 2**k != denom:
        raise DomainMismatchError(f"{echo(value)} is not dyadic")
    if k == 0:
        return "0."
    digits = format(value.numerator, f"0{k}b")
    return "0." + digits


def lex_between(a: Word, b: Word) -> Word:
    """A bit-word ending in 1 strictly between a and b lexicographically,
    in Python's tuple order (prefixes first).

    Both inputs must end in 1 and satisfy a < b.  When a is a prefix of
    b, padding a with zeros up to b's length and closing with 1 lands
    between them; otherwise the first disagreement already separates the
    words and appending 1 to a keeps it above a without reaching b.
    """
    for w in (a, b):
        if not w or w[-1] != 1:
            raise DomainMismatchError(f"lex_between arguments must end in 1, got {echo(w, repr)}")
    if not a < b:
        raise ArgumentOrderError(f"{echo(a, repr)} does not precede {echo(b, repr)} lexicographically")
    if is_prefix(a, b):
        return a + (0,) * (len(b) - len(a)) + (1,)
    return a + (1,)

