"""Interval schemes over closed sets and order-density diagnostics.

A closed subset of [0, 1] is consumed through stagewise
interval-union approximations.  ``build_scheme`` splits [0, 1] along
maximal stage gaps into a binary family of closed intervals C_sigma with
one removed open gap U_sigma per split.  The extractors turn a countable
dense-in-the-set stream into order-dense subsets: one by pruning right
endpoints whose successor interval starts inside the stream, one by
selecting the earliest stream element inside each gap.  The remaining
operations measure how densely ordered a finite rational set is and
embed finite linear orders into countable dense targets.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .chains import Sequence
from .encodings import word_to_dyadic
from .errors import (
    DuplicateElementError,
    LinearityError,
    SchemeError,
    SearchBudgetError,
    StreamError,
)
from .orders import Element, Order
from .trees import word_at
from .words import Word, format_bit_word

Interval = tuple[Fraction, Fraction]


class MiddleThirds:
    """Stage oracle for the classical middle-thirds set."""

    name = "cantor3"

    def __init__(self):
        self._stages: list[tuple[Interval, ...]] = [((Fraction(0), Fraction(1)),)]

    def stage(self, k: int) -> tuple[Interval, ...]:
        while len(self._stages) <= k:
            nxt = []
            for lo, hi in self._stages[-1]:
                third = (hi - lo) / 3
                nxt.append((lo, lo + third))
                nxt.append((hi - third, hi))
            self._stages.append(tuple(nxt))
        return self._stages[k]


class FixedStages:
    """Stage oracle built from one explicit interval list (constant stages)."""

    name = "fixed"

    def __init__(self, intervals: Iterable[Interval]):
        ivs = sorted((Fraction(lo), Fraction(hi)) for lo, hi in intervals)
        for lo, hi in ivs:
            if lo > hi:
                raise SchemeError(f"interval ({lo}, {hi}) is reversed")
        for (_, hi), (lo, _) in zip(ivs, ivs[1:]):
            if hi >= lo:
                raise SchemeError("stage intervals must be disjoint and sorted")
        self._intervals = tuple(ivs)

    def stage(self, k: int) -> tuple[Interval, ...]:
        return self._intervals


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
        for d in range(self.depth + 1):
            for sigma in self.level(d):
                lo, hi = self.closed[sigma]
                line = f"{format_bit_word(sigma)} {lo} {hi}"
                if sigma in self.gaps:
                    a, b = self.gaps[sigma]
                    line += f" [{a} {b}]"
                lines.append(line)
        return lines


def build_scheme(oracle, depth: int, resolution: int | None = None, max_resolution: int = 64) -> IntervalScheme:
    """Split [0, 1] along maximal stage gaps down to the given depth.

    The working stage must offer at least 2**(depth + 1) components so
    every split can find a gap; with ``resolution`` unset the first
    sufficiently fine stage is used.  Ties between equally wide gaps go
    to the leftmost.  A split with no available gap raises, naming the
    bit-word where the construction got stuck.
    """
    if depth < 0:
        raise SchemeError("depth must be non-negative")
    if resolution is None:
        k = 0
        while len(oracle.stage(k)) < 2 ** (depth + 1):
            k += 1
            if k > max_resolution:
                raise SchemeError(
                    f"no stage below resolution {max_resolution} has 2^{depth + 1} components"
                )
        resolution = k
    comps = list(oracle.stage(resolution))
    if not comps or comps[0][0] != 0 or comps[-1][1] != 1:
        raise SchemeError("stage representation must span [0, 1]")
    gap_list: list[Interval] = []
    for (_, hi), (lo, _) in zip(comps, comps[1:]):
        if hi >= lo:
            raise SchemeError("stage components must be disjoint and sorted")
        gap_list.append((hi, lo))
    gap_los = [g[0] for g in gap_list]

    closed: dict[Word, Interval] = {(): (Fraction(0), Fraction(1))}
    gaps: dict[Word, Interval] = {}
    for d in range(depth):
        for sigma in sorted(w for w in closed if len(w) == d):
            lo, hi = closed[sigma]
            best: Interval | None = None
            start = bisect.bisect_left(gap_los, lo)
            for g_lo, g_hi in gap_list[start:]:
                if g_lo >= hi:
                    break
                if g_hi <= hi:
                    if best is None or g_hi - g_lo > best[1] - best[0]:
                        best = (g_lo, g_hi)
            if best is None:
                raise SchemeError(f"no stage gap inside C at {sigma}", sigma=sigma)
            a, b = best
            if not lo < a < b < hi:
                raise SchemeError(f"degenerate split at {sigma}", sigma=sigma)
            gaps[sigma] = best
            closed[sigma + (0,)] = (lo, a)
            closed[sigma + (1,)] = (b, hi)
    return IntervalScheme(depth, resolution, closed, gaps)


class CountableSetStream:
    """Injective enumeration of rationals in [0, 1], queried by index."""

    def __init__(self, fn: Callable[[int], Fraction], name: str = "stream"):
        self._fn = fn
        self.name = name
        self._cache: list[Fraction] = []
        self._seen: dict[Fraction, int] = {}

    def value(self, i: int) -> Fraction:
        while len(self._cache) <= i:
            j = len(self._cache)
            try:
                v = Fraction(self._fn(j))
            except IndexError as exc:
                raise StreamError(f"{self.name} has no element {j}") from exc
            if v < 0 or v > 1:
                raise StreamError(f"{self.name}[{j}] = {v} outside [0, 1]")
            if v in self._seen:
                raise StreamError(f"{self.name} repeats {v} at {self._seen[v]} and {j}")
            self._seen[v] = j
            self._cache.append(v)
        return self._cache[i]

    def prefix(self, n: int) -> list[Fraction]:
        return [self.value(i) for i in range(n)]


def stream_from_values(values: Iterable[Fraction], name: str = "file-stream") -> CountableSetStream:
    vals = [Fraction(v) for v in values]
    return CountableSetStream(vals.__getitem__, name=name)


def _generator_stream(gen_factory, name: str) -> CountableSetStream:
    # CountableSetStream asks for indices 0, 1, 2, ... once each, in turn.
    it = gen_factory()
    return CountableSetStream(lambda _j: next(it), name=name)


def dyadic_stream() -> CountableSetStream:
    """1/2, 1/4, 3/4, 1/8, 3/8, ... level by level."""

    def fn(i: int) -> Fraction:
        k = i + 1
        level = k.bit_length()
        num = 2 * (k - (1 << (level - 1))) + 1
        return Fraction(num, 1 << level)

    return CountableSetStream(fn, name="dyadics")


def _triadic_left(sigma: Word) -> Fraction:
    lo = Fraction(0)
    for i, bit in enumerate(sigma):
        lo += Fraction(2 * bit, 3 ** (i + 1))
    return lo


def middle_thirds_endpoint_stream() -> CountableSetStream:
    """All middle-thirds interval endpoints, level by level, unseen first."""

    def gen():
        seen = set()
        from itertools import count, product

        for k in count(0):
            for sigma in product((0, 1), repeat=k):
                lo = _triadic_left(sigma)
                hi = lo + Fraction(1, 3**k)
                for v in (lo, hi):
                    if v not in seen:
                        seen.add(v)
                        yield v

    return _generator_stream(gen, "middle-thirds-endpoints")


def gap_midpoint_stream() -> CountableSetStream:
    """Midpoints of the removed middle thirds, level by level."""

    def gen():
        from itertools import count, product

        for k in count(0):
            for sigma in product((0, 1), repeat=k):
                yield _triadic_left(sigma) + Fraction(1, 2 * 3**k)

    return _generator_stream(gen, "gap-midpoints")


def reduction_image_stream() -> CountableSetStream:
    """Dyadic images of the canonical word enumeration."""

    def fn(i: int) -> Fraction:
        return word_to_dyadic(word_at(i))

    return CountableSetStream(fn, name="word-images")


def _successor(sigma: Word) -> Word | None:
    """Next bit-word of the same length in lexicographic order."""
    bits = list(sigma)
    for i in range(len(bits) - 1, -1, -1):
        if bits[i] == 0:
            bits[i] = 1
            return tuple(bits[: i + 1]) + (0,) * (len(bits) - i - 1)
        bits[i] = 0
    return None


def prune_successor_endpoints(
    stream: CountableSetStream, scheme: IntervalScheme, n: int
) -> tuple[Fraction, ...]:
    """First n stream values minus every right endpoint whose successor
    interval's left endpoint also appears among them.

    The pruned set never keeps both sides of one removed gap, which is
    what makes it densely ordered once the stream has seen enough; the
    top word of each level has no successor and is never pruned.
    """
    present = set(stream.prefix(n))
    pruned = set(present)
    for sigma, (_, hi) in scheme.closed.items():
        nxt = _successor(sigma)
        if nxt is None:
            continue
        succ_lo = scheme.closed[nxt][0]
        if succ_lo in present:
            pruned.discard(hi)
    return tuple(sorted(pruned))


def gap_selector(
    stream: CountableSetStream, scheme: IntervalScheme, n: int
) -> tuple[Fraction, ...]:
    """Earliest-enumerated stream element strictly inside each gap."""
    chosen: dict[Word, Fraction] = {}
    ordered = sorted(scheme.gaps.items(), key=lambda kv: kv[1][0])
    gap_los = [iv[0] for _, iv in ordered]
    for i in range(n):
        x = stream.value(i)
        pos = bisect.bisect_right(gap_los, x) - 1
        if pos < 0:
            continue
        sigma, (a, b) = ordered[pos]
        if a < x < b and sigma not in chosen:
            chosen[sigma] = x
    return tuple(sorted(chosen.values()))


def persistently_approaches(values, g: Fraction, anchors) -> bool:
    """Finite check that a sequence keeps hitting (a, g] for every anchor
    a below g.

    Every anchor needs at least one hit, and for every cut N below the
    last position there must be a hit beyond N; windows that start at or
    after the last position are outside the horizon and are not checked.
    Both ask only that the sequence is non-empty and its last value is
    a hit.
    """
    vals = [v.value if isinstance(v, Element) else Fraction(v) for v in values]
    anchors = [Fraction(a) for a in anchors]
    return all(vals and a < vals[-1] <= g for a in anchors if a < g)


def splitting_depth(elems) -> int:
    """Nesting depth of binary between-element splits.

    A pair with nothing strictly between has depth 0; otherwise the
    depth is one more than the best middle element's worse side.  On a
    sorted list only gaps in positions matter, and the optimum always
    splits a run as evenly as possible, so the depth of a distance-d
    pair follows h(d) = 1 + h(d // 2) with h(1) = 0, that is
    h(d) = floor(log2 d).  The result is the maximum over all pairs,
    i.e. h over the full span m - 1 of m values.
    """
    seen: set[Fraction] = set()
    for v in elems:
        v = Fraction(v)
        if v in seen:
            raise DuplicateElementError(f"splitting_depth needs distinct elements, saw {v} twice")
        seen.add(v)
    m = len(seen)
    return (m - 1).bit_length() - 1 if m >= 2 else 0


def dense_embed(
    elems, order: Order, target: CountableSetStream, budget: int = 10_000
) -> dict[Element, Fraction]:
    """Order-embed finite elements into a countable dense stream.

    Elements are inserted in the given enumeration order; each one takes
    the earliest stream value strictly between the images of its nearest
    already-placed neighbours.  Runs out of budget only if the stream is
    not dense enough between those images.
    """
    if not order.is_linear:
        raise LinearityError(f"dense_embed needs a linear source order, got {order.name}")
    images: dict[Element, Fraction] = {}
    used: set[Fraction] = set()
    placed_keys: list = []
    placed_vals: list[Fraction] = []
    for el in elems:
        order.check_element(el)
        if el in images:
            raise DuplicateElementError(f"duplicate source element {el}")
        key = order.sort_key(el)
        pos = bisect.bisect_left(placed_keys, key)
        lo = placed_vals[pos - 1] if pos > 0 else None
        hi = placed_vals[pos] if pos < len(placed_vals) else None
        for i in range(budget):
            v = target.value(i)
            if v in used:
                continue
            if (lo is None or v > lo) and (hi is None or v < hi):
                images[el] = v
                used.add(v)
                placed_keys.insert(pos, key)
                placed_vals.insert(pos, v)
                break
        else:
            raise SearchBudgetError(
                f"no admissible image for {el} within the first {budget} stream values"
            )
    return images


def between_witness(values: tuple[Fraction, ...], a: Fraction, b: Fraction) -> Fraction | None:
    """Some element of a sorted tuple strictly between a and b, or None."""
    i = bisect.bisect_right(values, a)
    if i < len(values) and values[i] < b:
        return values[i]
    return None
