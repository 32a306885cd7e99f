"""Finite words over the naturals and over {0, 1}.

Words are plain tuples of non-negative ints.  The textual form is
dot-separated entries for words over the naturals ("2.0.7"), a plain
digit string for bit-words ("0110"), and "e" for the empty word.
"""

from __future__ import annotations

from .errors import ParseError
from .limits import ECHO_LIMIT

Word = tuple[int, ...]

EMPTY_TOKEN = "e"


def quote_token(text: str) -> str:
    """``repr(text)`` for an error message, cut after ``ECHO_LIMIT``
    characters with the cut and the full length marked, so one huge token
    cannot make a huge message."""
    if len(text) <= ECHO_LIMIT:
        return repr(text)
    return f"{text[:ECHO_LIMIT]!r}... ({len(text)} characters)"


def parse_nat_word(text: str) -> Word:
    """Parse a dot-separated word over the naturals; "e" is the empty word."""
    if text == EMPTY_TOKEN:
        return ()
    if not text:
        raise ParseError("empty token is not a word; use 'e' for the empty word")
    parts = text.split(".")
    entries = []
    for part in parts:
        try:
            if part.isdecimal():
                entries.append(int(part))
                continue
        except ValueError:  # more digits than int() reads
            pass
        raise ParseError(f"bad word entry {quote_token(part)} in token {quote_token(text)}")
    return tuple(entries)


def format_nat_word(word: Word) -> str:
    """Inverse of parse_nat_word."""
    if not word:
        return EMPTY_TOKEN
    return ".".join(str(e) for e in word)


def parse_bit_word(text: str) -> Word:
    """Parse a string of 0/1 digits; "e" is the empty word."""
    if text == EMPTY_TOKEN:
        return ()
    if not text or any(ch not in "01" for ch in text):
        raise ParseError(f"bad bit-word token {quote_token(text)}")
    return tuple(int(ch) for ch in text)


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def format_bit_word(word: Word) -> str:
    """Inverse of parse_bit_word.

    Entries outside {0, 1} are written out with ``str``, one after
    another, so such a word never renders as control characters.
    """
    if not word:
        return EMPTY_TOKEN
    try:
        raw = bytes(word)
    except (TypeError, ValueError):  # an entry that is not a byte value
        raw = None
    if raw is None or max(raw) > 1:
        return "".join(str(b) for b in word)
    return raw.translate(_BIT_DIGITS).decode()


def is_prefix(a: Word, b: Word) -> bool:
    """True iff a is an initial segment of b (equality included)."""
    return len(a) <= len(b) and b[: len(a)] == a
