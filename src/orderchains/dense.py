"""Interval schemes over closed sets and order-density diagnostics.

A closed subset of [0, 1] is consumed through stagewise
interval-union approximations.  ``build_scheme`` splits [0, 1] along
maximal stage gaps into a binary family of closed intervals C_sigma with
one removed open gap U_sigma per split, working on stage component
indices alone.  The extractors turn a countable dense-in-the-set stream
into order-dense subsets: one (P) by pruning right endpoints whose
successor interval starts inside the stream, one (Y) by selecting the
earliest stream element inside each gap.  Adjacent same-length
intervals sit on either side of one gap, so P reads its pairs off the
gaps.  The remaining operations measure how densely ordered a finite
rational set is and embed finite linear orders into countable dense
targets.

Values stay exact ``Fraction``s, but a ``Fraction`` hashes and compares
in Python, so the hot paths key them instead.  Equality (repeats,
membership) keys on the ``(numerator, denominator)`` pair, which is
unique since ``Fraction``s are normalised and which hashes in C.  Order
(sorts, bisects, widest gap) keys on ``orders.rational_key``, the
``(float, Fraction)`` pair that reaches the ``Fraction`` only on a float
tie.  The middle-thirds stages and streams share one geometry, integer
numerators over 3^k, made into ``Fraction``s only when asked for.  The
stage oracles keep no state; a stream keeps only the prefix it has drawn.

A rational a caller hands in is read by the rational rule of
``orders.make_element``; this module builds ``Fraction``s only from ints
it computes itself.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice
from typing import Iterable

from .encodings import word_to_dyadic
from .errors import (
    ArgumentError,
    DomainMismatchError,
    DuplicateElementError,
    LinearityError,
    SchemeError,
    SearchBudgetError,
    StreamError,
    echo,
    read_container,
)
from .limits import MAX_DEPTH, MAX_RESOLUTION, MAX_STREAM_VALUES
from .orders import Element, Order, Tag, make_element, rational_key, validate_payloads
from .trees import iter_words
from .words import Word, format_bit_word

Interval = tuple[Fraction, Fraction]


def _identity(q: Fraction) -> tuple[int, int]:
    """Equality key of a rational: normalised, so equal values share it."""
    return (q.numerator, q.denominator)


def _middle_thirds_lefts():
    """The left numerators a of the middle-thirds intervals
    [a, a + 1] / 3**k of stage k, in order, for k = 0, 1, 2, ...; the
    children of a are 3a and 3a + 2."""
    lefts = [0]
    while True:
        yield lefts
        lefts = [c for a in lefts for c in (3 * a, 3 * a + 2)]


class MiddleThirds:
    """Stage oracle for the classical middle-thirds set.

    Each call builds stage k afresh from the left numerators of its
    intervals; nothing is kept between calls.  Negative stages and
    stages beyond ``MAX_DEPTH + 1`` (the finest a scheme can ask for)
    are refused, since stage k has 2**k components.
    """

    name = "cantor3"

    def stage(self, k: int) -> tuple[Interval, ...]:
        if k < 0:
            raise SchemeError(f"middle-thirds stage {echo(k)} is negative")
        if k > MAX_DEPTH + 1:
            raise SchemeError(f"middle-thirds stage {echo(k)} has 2^{echo(k)} components, above the cap of 2^{MAX_DEPTH + 1}")
        lefts = next(islice(_middle_thirds_lefts(), k, None))
        den = 3**k
        return tuple((Fraction(a, den), Fraction(a + 1, den)) for a in lefts)

    def components(self, k: int) -> int:
        """len(self.stage(k)), without building the stage."""
        return 2**k


class FixedStages:
    """Stage oracle built from one explicit interval list (constant
    stages), whose ends are read as ``orders.validate_payloads`` reads
    rationals."""

    name = "fixed"

    def __init__(self, intervals: Iterable[Interval]):
        intervals = read_container(intervals, "stage intervals")
        ivs = sorted(validate_payloads(Tag.RATIONAL, (lo, hi)) for lo, hi in intervals)
        for lo, hi in ivs:
            if lo > hi:
                raise SchemeError(f"interval ({echo(lo)}, {echo(hi)}) is reversed")
        for (_, hi), (lo, _) in zip(ivs, ivs[1:]):
            if hi >= lo:
                raise SchemeError("stage intervals must be disjoint and sorted")
        self._intervals = tuple(ivs)

    def stage(self, k: int) -> tuple[Interval, ...]:
        return self._intervals

    def components(self, k: int) -> int:
        return len(self._intervals)


@dataclass
class IntervalScheme:
    """Closed intervals C (bit-words up to depth) and removed gaps U
    (bit-words below depth) produced by splitting along stage gaps."""

    depth: int
    resolution: int
    closed: dict[Word, Interval]
    gaps: dict[Word, Interval]

    def level(self, d: int) -> list[Word]:
        return sorted(w for w in self.closed if len(w) == d)

    def dump_lines(self) -> list[str]:
        lines = []
        for sigma in sorted(self.closed, key=lambda w: (len(w), w)):
            lo, hi = self.closed[sigma]
            line = f"{format_bit_word(sigma)} {lo} {hi}"
            if sigma in self.gaps:
                a, b = self.gaps[sigma]
                line += f" [{a} {b}]"
            lines.append(line)
        return lines


def build_scheme(oracle, depth: int, resolution: int | None = None) -> IntervalScheme:
    """Split [0, 1] along maximal stage gaps down to the given depth.

    The working stage must offer at least 2**(depth + 1) components so
    every split can find a gap; with ``resolution`` unset the first
    sufficiently fine stage is used, found by the oracle's
    ``components(k)`` without building the coarser stages.  Ties
    between equally wide gaps go to the leftmost.  A split with no
    available gap raises, naming the bit-word where the construction got
    stuck.  A negative resolution, and depths above ``MAX_DEPTH``, raise
    before any stage is built: such depths need a stage of more than
    2**(MAX_DEPTH + 1) components and as many intervals.

    Stage gap j lies between components j and j + 1.  C_sigma spans
    components first..stop, so its word carries the gaps range(first,
    stop), and a split at gap j hands (first, j) and (j + 1, stop) to the
    children.  Equal gap widths share one key object, so a tie is
    settled by identity, in C.
    """
    if depth < 0:
        raise SchemeError("depth must be non-negative")
    if depth > MAX_DEPTH:
        raise SchemeError(f"depth {echo(depth)} is above the cap of {MAX_DEPTH}: it needs a stage of 2^{echo(depth + 1)} components")
    if resolution is None:
        k = 0
        while oracle.components(k) < 2 ** (depth + 1):
            k += 1
            if k > MAX_RESOLUTION:
                raise SchemeError(
                    f"no stage below resolution {MAX_RESOLUTION} has 2^{depth + 1} components"
                )
        resolution = k
    elif resolution < 0:
        raise SchemeError("resolution must be non-negative")
    comps = list(oracle.stage(resolution))
    if not comps or comps[0][0] != 0 or comps[-1][1] != 1:
        raise SchemeError("stage representation must span [0, 1]")
    ends = [rational_key(x) for comp in comps for x in comp]
    # Gap j runs from the right end of component j to the left end of j + 1.
    lo_keys, hi_keys = ends[1:-1:2], ends[2::2]
    if any(map(operator.ge, lo_keys, hi_keys)):
        raise SchemeError("stage components must be disjoint and sorted")
    widths = [b - a for (_, a), (_, b) in zip(lo_keys, hi_keys)]
    interned: dict[tuple[int, int], tuple] = {}
    width_keys = [interned.setdefault(_identity(w), rational_key(w)) for w in widths]

    closed: dict[Word, Interval] = {(): (Fraction(0), Fraction(1))}
    gaps: dict[Word, Interval] = {}
    # The words of one depth in lexicographic order, with their gap
    # ranges: a failing split raises at the least failing word of the
    # shallowest failing depth.
    level = [((), 0, len(comps) - 1)]
    for _ in range(depth):
        deeper = []
        for sigma, first, stop in level:
            if first == stop:
                raise SchemeError(f"no stage gap inside C at {sigma}", sigma=sigma)
            j = max(range(first, stop), key=width_keys.__getitem__)
            # Only a point component at either end of C can touch the gap.
            if not ends[2 * first] < lo_keys[j] < hi_keys[j] < ends[2 * stop + 1]:
                raise SchemeError(f"degenerate split at {sigma}", sigma=sigma)
            lo, hi = closed[sigma]
            a, b = gaps[sigma] = (comps[j][1], comps[j + 1][0])
            closed[sigma + (0,)] = (lo, a)
            closed[sigma + (1,)] = (b, hi)
            deeper += [(sigma + (0,), first, j), (sigma + (1,), j + 1, stop)]
        level = deeper
    return IntervalScheme(depth, resolution, closed, gaps)


class CountableSetStream:
    """Injective enumeration of rationals in [0, 1], drawn in order from
    an iterable as indices are asked for.  A value that is not a
    ``Fraction`` is read by ``orders.make_element``; one it refuses, one
    outside [0, 1] and a repeat raise ``StreamError``.  An index or a
    prefix length that is negative, or that would draw more than
    ``MAX_STREAM_VALUES`` values, raises ``ArgumentError`` before any
    draw."""

    def __init__(self, values: Iterable, name: str = "stream"):
        self._values = read_container(values, "stream values", iter)
        self.name = name
        self._cache: list[Fraction] = []
        self._seen: dict[tuple[int, int], int] = {}

    def value(self, i: int) -> Fraction:
        if i < 0:
            raise ArgumentError(f"stream index {echo(i)} is negative")
        if i >= MAX_STREAM_VALUES:
            raise ArgumentError(f"stream index {echo(i)} is past the cap of {MAX_STREAM_VALUES} values")
        while len(self._cache) <= i:
            j = len(self._cache)
            try:
                v = next(self._values)
            except StopIteration:
                raise StreamError(f"{self.name} has no element {j}") from None
            if type(v) is not Fraction:
                try:
                    v = make_element(Tag.RATIONAL, v).value
                except DomainMismatchError as exc:
                    raise StreamError(f"{self.name}[{j}] is not a rational") from exc
            num, den = v.numerator, v.denominator
            if num < 0 or num > den:
                raise StreamError(f"{self.name}[{j}] = {echo(v)} outside [0, 1]")
            first = self._seen.setdefault((num, den), j)
            if first != j:
                raise StreamError(f"{self.name} repeats {echo(v)} at {first} and {j}")
            self._cache.append(v)
        return self._cache[i]

    def prefix(self, n: int) -> list[Fraction]:
        if n < 0:
            raise ArgumentError(f"stream prefix length {echo(n)} is negative")
        if n > MAX_STREAM_VALUES:
            raise ArgumentError(f"stream prefix length {echo(n)} is above the cap of {MAX_STREAM_VALUES}")
        return [self.value(i) for i in range(n)]


def dyadic_stream() -> CountableSetStream:
    """1/2, 1/4, 3/4, 1/8, 3/8, ... level by level."""
    dyadics = (Fraction(num, 1 << level) for level in count(1) for num in range(1, 1 << level, 2))
    return CountableSetStream(dyadics, name="dyadics")


def middle_thirds_endpoint_stream() -> CountableSetStream:
    """All middle-thirds interval endpoints, level by level: 0 and 1,
    then for each interval [a, a + 1] / 3**k of a stage, in order, the
    two ends (3a + 1) / 3**(k + 1) and (3a + 2) / 3**(k + 1) of the
    third removed from it.  Every other endpoint of the next stage is
    one of an earlier stage."""
    removed_ends = (
        Fraction(3 * a + c, 3 ** (k + 1)) for k, lefts in enumerate(_middle_thirds_lefts()) for a in lefts for c in (1, 2)
    )
    return CountableSetStream(chain((Fraction(0), Fraction(1)), removed_ends), name="middle-thirds-endpoints")


def gap_midpoint_stream() -> CountableSetStream:
    """Midpoints of the removed middle thirds, level by level."""
    midpoints = (
        Fraction(2 * a + 1, 2 * 3**k) for k, lefts in enumerate(_middle_thirds_lefts()) for a in lefts
    )
    return CountableSetStream(midpoints, name="gap-midpoints")


def reduction_image_stream() -> CountableSetStream:
    """Dyadic images of the canonical word enumeration."""
    return CountableSetStream(map(word_to_dyadic, iter_words()), name="word-images")


def prune_successor_endpoints(
    stream: CountableSetStream, scheme: IntervalScheme, n: int
) -> tuple[Fraction, ...]:
    """First n stream values minus every right endpoint whose successor
    interval's left endpoint also appears among them.

    Adjacent same-length words p01...1 and p10...0 sit on either side of
    the gap of their longest common prefix p, so these pairs are exactly
    the gaps.  The pruned set never keeps both sides of one removed gap,
    which is what makes it densely ordered once the stream has seen
    enough.
    """
    present = {_identity(v): v for v in stream.prefix(n)}
    dropped = {_identity(a) for a, b in scheme.gaps.values() if _identity(b) in present}
    return tuple(sorted((v for key, v in present.items() if key not in dropped), key=rational_key))


def gap_selector(
    stream: CountableSetStream, scheme: IntervalScheme, n: int
) -> tuple[Fraction, ...]:
    """Earliest-enumerated stream element strictly inside each gap,
    among the first n."""
    chosen: dict[Word, tuple] = {}  # gap -> key of its value
    ordered = sorted((rational_key(a), rational_key(b), sigma) for sigma, (a, b) in scheme.gaps.items())
    lo_keys = [a for a, _, _ in ordered]
    for x in map(rational_key, stream.prefix(n)):
        pos = bisect.bisect_right(lo_keys, x) - 1
        if pos < 0:
            continue
        a, b, sigma = ordered[pos]
        if a < x < b and sigma not in chosen:
            chosen[sigma] = x
    return tuple(q for _, q in sorted(chosen.values()))


def persistently_approaches(values, g: Fraction, anchors) -> bool:
    """Finite check that a sequence keeps hitting (a, g] for every anchor
    a below g.

    Every anchor needs at least one hit, and for every cut N below the
    last position there must be a hit beyond N; windows that start at or
    after the last position are outside the horizon and are not checked.
    Both ask only that the sequence is non-empty and its last value is
    a hit.  The values (or ``Element`` payloads), g and the anchors are
    read as ``orders.validate_payloads`` reads rationals.
    """
    vals = validate_payloads(Tag.RATIONAL, _unwrapped(values))
    g = make_element(Tag.RATIONAL, g).value
    anchors = validate_payloads(Tag.RATIONAL, anchors)
    return all(vals and a < vals[-1] <= g for a in anchors if a < g)


def _unwrapped(values):
    """The values with each ``Element`` read as its payload.  A generator
    function, so a container that is not iterable fails only when
    ``validate_payloads`` reads it."""
    for v in values:
        yield v.value if isinstance(v, Element) else v


def splitting_depth(elems) -> int:
    """Nesting depth of binary between-element splits.

    A pair with nothing strictly between has depth 0; otherwise the
    depth is one more than the best middle element's worse side.  On a
    sorted list only gaps in positions matter, and the optimum always
    splits a run as evenly as possible, so the depth of a distance-d
    pair follows h(d) = 1 + h(d // 2) with h(1) = 0, that is
    h(d) = floor(log2 d).  The result is the maximum over all pairs,
    i.e. h over the full span m - 1 of m values, read as
    ``orders.validate_payloads`` reads rationals.  A repeat raises
    ``DuplicateElementError`` whose ``index`` is the first position
    holding a value seen before.
    """
    vals = validate_payloads(Tag.RATIONAL, elems)
    seen = set()
    for i, key in enumerate(map(_identity, vals)):
        if key in seen:
            raise DuplicateElementError(f"splitting_depth needs distinct elements, saw {echo(vals[i])} twice", index=i)
        seen.add(key)
    return distinct_splitting_depth(len(vals))


def distinct_splitting_depth(m: int) -> int:
    """``splitting_depth`` of any m distinct values: floor(log2(m - 1))."""
    return (m - 1).bit_length() - 1 if m >= 2 else 0


def dense_embed(
    elems, order: Order, target: CountableSetStream, budget: int = 10_000
) -> dict[Element, Fraction]:
    """Order-embed finite elements into a countable dense stream.

    Elements are inserted in the given enumeration order; each one takes
    the earliest stream value strictly between the images of its nearest
    already-placed neighbours.  The images stay sorted, so no image
    already taken lies strictly between two neighbours.  Runs out of
    budget only if the stream is not dense enough between those images.
    """
    elems = read_container(elems, "elements to embed")
    if not order.is_linear:
        raise LinearityError(f"dense_embed needs a linear source order, got {order.name}")
    images: dict[Element, Fraction] = {}
    placed_keys: list = []
    placed_vals: list[Fraction] = []
    for el in elems:
        order.check_tag(el.tag)
        if el in images:
            raise DuplicateElementError(f"duplicate source element {echo(el)}")
        key = order.sort_key(el)
        pos = bisect.bisect_left(placed_keys, key)
        lo = placed_vals[pos - 1] if pos > 0 else None
        hi = placed_vals[pos] if pos < len(placed_vals) else None
        for i in range(budget):
            v = target.value(i)
            if (lo is None or v > lo) and (hi is None or v < hi):
                images[el] = v
                placed_keys.insert(pos, key)
                placed_vals.insert(pos, v)
                break
        else:
            raise SearchBudgetError(
                f"no admissible image for {echo(el)} within the first {budget} stream values"
            )
    return images


def between_witness(values: tuple[Fraction, ...], a: Fraction, b: Fraction) -> Fraction | None:
    """Some element of a sorted tuple strictly between a and b, or None."""
    i = bisect.bisect_right(values, a)
    if i < len(values) and values[i] < b:
        return values[i]
    return None
