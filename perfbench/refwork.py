"""The fixed reference work that times are divided by.

On a shared machine the CPU's effective speed moves by up to 2x within
seconds, so a wall-clock time says as much about the neighbours as about
the program.  Each timed operation is therefore bracketed by samples of
this work, and its cost is reported in reference-seconds: wall seconds
scaled by ``REF_SAMPLE_S / (wall time of one sample)``.

The work is of the same kind as the library's: tuple slicing and
compares, dict inserts keyed by tuples, and exact big-integer
``Fraction`` sums.  It uses only the standard library and never calls
the package.  Neither the work nor ``REF_SAMPLE_S`` may change, or
figures taken before and after the change stop being comparable.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Nominal wall time of one sample, fixed once: one reference-second is
# the time of 1 / REF_SAMPLE_S samples.
REF_SAMPLE_S = 0.0015

_WORDS = tuple(tuple((i * 7 + j * 3) % 5 for j in range(i % 9)) for i in range(120))

# What one sample returns; a different answer means the work changed.
EXPECTED = (1697, 120, 241)


def sample() -> tuple[int, int, int]:
    """One fixed unit of reference work."""
    hits = 0
    table: dict = {}
    acc = Fraction(0)
    for i, w in enumerate(_WORDS):
        k = len(w)
        for v in _WORDS[i + 1 : i + 33]:
            if v[:k] == w or w < v:
                hits += 1
        table[w + (i,)] = i
        acc += Fraction(1 + i % 3, 1 << (2 * i + 2))
    return hits, len(table), acc.denominator.bit_length()


def timed_sample() -> float:
    """Wall seconds of one sample."""
    t0 = time.perf_counter()
    sample()
    return time.perf_counter() - t0
