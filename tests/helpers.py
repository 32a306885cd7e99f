"""Independent brute-force oracles the test suite checks against, and
shared input strategies."""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, islice, product

import hypothesis.strategies as st

from orderchains.orders import Element, Order, Tag

# Rationals whose floats tie: 1/3 plus small multiples of 2**-60 round
# to one float, 10**400 and beyond overflow to +-inf, and 10**-400 and
# below underflow to 0.0 or -0.0.
colliding_rationals = st.one_of(
    st.integers(-3, 3).map(lambda k: Fraction(1, 3) + k * Fraction(1, 2**60)),
    st.builds(lambda sign, k: sign * Fraction(10**400 + k), st.sampled_from([-1, 1]), st.integers(0, 2)),
    st.builds(lambda sign, k: sign * Fraction(1 + k, 10**400), st.sampled_from([-1, 1]), st.integers(0, 2)),
)


def ref_valid_payload(tag, value):
    """Whether ``value`` is a payload of ``tag``, by the domain rules in
    words: an int that is not a bool (at least 1 for NAT), a
    ``Fraction``, or a tuple of such ints that are at least 0 (and at
    most 1 for bits)."""

    def integer(a, lo=None, hi=None):
        return isinstance(a, int) and not isinstance(a, bool) and (lo is None or a >= lo) and (hi is None or a <= hi)

    if tag is Tag.NAT:
        return integer(value, 1)
    if tag is Tag.INT:
        return integer(value)
    if tag is Tag.RATIONAL:
        return isinstance(value, Fraction)
    hi = 1 if tag is Tag.WORD_BIT else None
    return isinstance(value, tuple) and all(integer(a, 0, hi) for a in value)


def brute_longest_chain(seq, order):
    """Exhaustive longest chain with the lex-least witness.

    Walks index tuples longest-first; within a length, combinations
    yields tuples in lexicographic order, so the first valid one is the
    least.  Only usable for small sequences.
    """
    items = [Element(seq.tag, p) for p in seq.payloads()]
    n = len(items)
    for length in range(n, 0, -1):
        for idx in combinations(range(n), length):
            if all(order.related(items[a], items[b]) for a, b in zip(idx, idx[1:])):
                return length, idx
    raise AssertionError("empty sequence")


def index_free(order):
    """The oracle with its relation alone: an ``Order`` with the
    original's name, domain, reading and payload relation, but no sort
    key and no lower links, so ``longest_chain`` gives it the generic
    scan."""
    free = Order(order.strict)
    free.name, free.domain = order.name, order.domain
    free._compare = order._compare
    free._related = order._related
    return free


def brute_chain_length(seq, order):
    """Exhaustive longest chain length by forward dynamic programming."""
    items = [Element(seq.tag, p) for p in seq.payloads()]
    n = len(items)
    if n == 0:
        raise AssertionError("empty sequence")
    ending = [1] * n
    for i in range(n):
        for j in range(i):
            if order.related(items[j], items[i]) and ending[j] + 1 > ending[i]:
                ending[i] = ending[j] + 1
    return max(ending)


def brute_axiom_violations(order, support):
    """Every transitivity violation (a, b, c) of a finite support, by a
    triple loop in support order: a is related to b and b to c, but a is
    not related to c."""
    items = list(support)
    return [
        (a, b, c)
        for a in items
        for b in items
        if order.related(a, b)
        for c in items
        if order.related(b, c) and not order.related(a, c)
    ]


def brute_splitting_depth(elems):
    """Literal between-element recursion, memoised on sorted positions."""
    vals = sorted(Fraction(v) for v in elems)
    if len(vals) < 2:
        return 0

    @lru_cache(maxsize=None)
    def sd(i, j):
        between = range(i + 1, j)
        if not between:
            return 0
        return 1 + max(min(sd(i, c), sd(c, j)) for c in between)

    m = len(vals)
    return max(sd(i, j) for i in range(m) for j in range(i + 1, m))


def ref_build_scheme(intervals, depth):
    """Plain-``Fraction`` scheme over one fixed stage: ``(closed, gaps)``,
    or ``(message, sigma)`` of the ``SchemeError`` the split raises.

    Every split scans all stage gaps for those inside its interval and
    keeps the first widest one.
    """
    comps = sorted((Fraction(lo), Fraction(hi)) for lo, hi in intervals)
    stage_gaps = [(hi, lo) for (_, hi), (lo, _) in zip(comps, comps[1:])]
    closed = {(): (Fraction(0), Fraction(1))}
    gaps = {}
    for d in range(depth):
        for sigma in sorted(w for w in closed if len(w) == d):
            lo, hi = closed[sigma]
            best = None
            for a, b in stage_gaps:
                if lo <= a and b <= hi and (best is None or b - a > best[1] - best[0]):
                    best = (a, b)
            if best is None:
                return f"no stage gap inside C at {sigma}", sigma
            a, b = best
            if not lo < a < b < hi:
                return f"degenerate split at {sigma}", sigma
            gaps[sigma] = best
            closed[sigma + (0,)] = (lo, a)
            closed[sigma + (1,)] = (b, hi)
    return closed, gaps


def ref_prune_successor_endpoints(values, closed):
    """The values minus every right endpoint whose same-length successor
    word's interval starts at one of them, sorted."""
    present = set(values)
    kept = set(values)
    for sigma, (_, hi) in closed.items():
        n = int("".join(map(str, sigma)) or "0", 2) + 1
        if sigma and n < 2 ** len(sigma):
            succ = tuple(int(c) for c in format(n, f"0{len(sigma)}b"))
            if closed[succ][0] in present:
                kept.discard(hi)
    return tuple(sorted(kept))


def ref_gap_selector(values, gaps):
    """For each gap, the first value strictly inside it; sorted."""
    chosen = {}
    for x in values:
        for sigma, (a, b) in gaps.items():
            if a < x < b and sigma not in chosen:
                chosen[sigma] = x
    return tuple(sorted(chosen.values()))


def ref_triadic_left(sigma):
    """Left end of the middle-thirds interval of a bit-word, bit by bit:
    the sum of 2 * bit / 3**(i + 1)."""
    lo = Fraction(0)
    for i, bit in enumerate(sigma):
        lo += Fraction(2 * bit, 3 ** (i + 1))
    return lo


def _bit_words():
    """Every bit-word, shorter first, each length in lexicographic order."""
    k = 0
    while True:
        yield from product((0, 1), repeat=k)
        k += 1


def ref_middle_thirds_endpoints(n):
    """First n middle-thirds interval endpoints, level by level, unseen first."""
    out, seen = [], set()
    for sigma in _bit_words():
        lo = ref_triadic_left(sigma)
        for v in (lo, lo + Fraction(1, 3 ** len(sigma))):
            if v not in seen:
                seen.add(v)
                out.append(v)
                if len(out) == n:
                    return out


def ref_gap_midpoints(n):
    """Midpoints of the first n removed middle thirds, level by level."""
    return [ref_triadic_left(sigma) + Fraction(1, 2 * 3 ** len(sigma)) for sigma in islice(_bit_words(), n)]


def ref_dyadics(n):
    """First n dyadic rationals of (0, 1), level by level: the odd
    numerators over 2, then over 4, 8, ..."""
    out, level = [], 1
    while len(out) < n:
        out += [Fraction(num, 2**level) for num in range(1, 2**level, 2)]
        level += 1
    return out[:n]


def ref_canonical_words(bound):
    """Blocks 0..bound of the canonical enumeration, from its definition.

    Those are all words of length at most bound with entries below
    bound, sorted by block (max(len, 1 + max entry), 0 for the empty
    word), then length, then entries.
    """
    words = [w for length in range(bound + 1) for w in product(range(bound), repeat=length)]
    return sorted(words, key=lambda w: (max(len(w), 1 + max(w, default=-1)), len(w), w))


def ref_word_to_dyadic(word):
    """Per-entry definition: entry a_i writes a_i zeros and then a one,
    so the i-th one sits at binary place a_0 + ... + a_i + i + 1.  The
    ones are summed as ints over the last place, in one ``Fraction``."""
    places = list(accumulate(e + 1 for e in word))
    top = places[-1] if places else 0
    return Fraction(sum(1 << (top - p) for p in places), 1 << top)


def ref_word_images(n):
    """Dyadic images of the first n words of the canonical enumeration."""
    bound = 0
    while sum(bound**length for length in range(bound + 1)) < n:
        bound += 1
    return [ref_word_to_dyadic(w) for w in ref_canonical_words(bound)[:n]]


def ref_double_bits(n):
    """Per-bit definition: each binary digit of n, twice."""
    out = []
    for ch in format(n, "b"):
        out += [int(ch), int(ch)]
    return tuple(out)


def ref_format_bit_word(word):
    """Per-entry definition: ``str`` of every entry, joined; "e" if empty."""
    return "".join(str(b) for b in word) if word else "e"


def ref_word_to_bits(word):
    """Per-entry definition: each entry's doubled bits, then 0, 1."""
    return tuple(chain.from_iterable(ref_double_bits(e) + (0, 1) for e in word))


def brute_nearest_prefixes(words):
    """For each word, the index of its longest proper prefix among the
    words, as a tuple of at most one index."""
    links = []
    for w in words:
        below = [j for j, v in enumerate(words) if len(v) < len(w) and w[: len(v)] == v]
        links.append((max(below, key=lambda j: len(words[j])),) if below else ())
    return links


def dense_ranks(keys):
    """The rank of each key among the distinct keys, ascending from 0."""
    rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]
