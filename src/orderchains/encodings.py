"""Structure-preserving encodings between word domains and the rationals.

``word_to_bits`` embeds nat-words into bit-words so that the prefix
order is preserved and reflected; ``word_to_dyadic`` embeds nat-words
into dyadic rationals so that the reverse-entry lexicographic order is
preserved and reflected.  All rational arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArgumentOrderError, DomainMismatchError, echo
from .words import Word, is_prefix

_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def double_bits(n: int) -> Word:
    """Binary digits of n with every bit doubled; 0 encodes to (0, 0)."""
    if n < 0:
        raise DomainMismatchError("double_bits is defined on the naturals")
    doubled = format(n, "b").replace("0", "00").replace("1", "11")
    return tuple(doubled.encode().translate(_DIGIT_BITS))


def word_to_bits(word: Word) -> Word:
    """Encode a nat-word as doubled-bit entry codes joined by 01 markers.

    The marker can never occur inside a doubled-bit block, so decoding
    is unambiguous and prefixes map exactly to prefixes.
    """
    codes = {e: bytes(double_bits(e)) + b"\x00\x01" for e in set(word)}
    # A tuple built from bytes is allocated once at its final size.
    return tuple(b"".join(map(codes.__getitem__, word)))


# The most binary digits word_to_dyadic writes: 2^20, a 128 KiB
# denominator.  A reduction image needs far fewer: its longest filler,
# below trees.MAX_HORIZON ones and a zero, takes under 2 * MAX_HORIZON
# digits.  The cap bounds the words a caller encodes directly.
MAX_DYADIC_DIGITS = 1 << 20


def word_to_dyadic(word: Word) -> Fraction:
    """Encode a nat-word as the dyadic rational 0.0^{a_0}1 0^{a_1}1 ...

    in binary: each entry contributes that many zeros and then a one.
    The empty word encodes to 0.  Larger entries push the next one
    further right, which realises the reverse-entry comparison, and
    extending a word only adds smaller binary digits, which keeps
    prefixes below their extensions.  Words needing more than
    ``MAX_DYADIC_DIGITS`` digits raise before any shift.
    """
    digits = len(word) + sum(word)
    if digits > MAX_DYADIC_DIGITS:
        raise DomainMismatchError(
            f"word_to_dyadic writes at most {MAX_DYADIC_DIGITS} binary digits; this word needs more"
        )
    num = 0
    for entry in word:
        num = (num << (entry + 1)) | 1
    return Fraction(num, 1 << digits)


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

