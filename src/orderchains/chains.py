"""Chain detection in finite sequences.

A ``Sequence`` is a domain tag and one tuple of payloads.  Payloads are
validated once, where data enters: ``Sequence(tag, elements)`` checks
each element's tag, ``Sequence.from_payloads`` checks the payloads in
bulk, and ``parse_sequence`` reads valid payloads only.  Sequences the
library derives from checked ones (``reduce_tree``, ``lift_map``,
``UPSequence.unroll``) are built from payloads with no second check.
``items`` gives the terms as ``Element`` objects, built on first use and
kept, for callers that want them.  The chain kernels compare payloads,
after one tag check per sequence, and build an ``Element`` only for a
term they return: the witness values, the constant value or a cycle.

A chain witness is a strictly increasing index vector whose consecutive
values are related under the oracle; relatedness is only required
between neighbours, not pairwise.  ``longest_chain`` computes, from the
right, the longest chain ``starts[i]`` starting at each position, then
rebuilds the lexicographically least witness.  The oracle alone picks
the index that finds the best later start:

* ``ranked``: linear oracles.  One sort of the positions by sort key
  gives each a dense rank, then one right-to-left patience pass with
  binary search over the ranks gives every start, O(n log n) in all.
* ``linked``: oracles whose ``lower_links`` lists the values below each
  value (the prefix orders, Divides, Delta).  Each new start is pushed
  down the links into the best start above every lower value, O(n +
  v log v) plus the pushes, which are bounded by n times the link depth.
* ``generic``: the plain O(n^2) scan over positions.  It is the fallback
  for an ``Order`` subclass that has neither, and the reference that
  ``method="generic"`` forces.

Each index gives the rebuild its relation on positions: ``ranked`` by
rank, the others by the oracle's relation on payloads.  ``linked`` and
``generic`` then confirm each witness link through ``Order.related``.

``patience_chain_length`` is the independent O(n log n) patience-sorting
routine for linear oracles; it must agree with the DP on length.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .errors import (
    DomainMismatchError,
    EmptySequenceError,
    LinearityError,
    ParseError,
    WitnessIndexError,
    echo,
)
from .orders import (
    Element,
    Order,
    Tag,
    format_element,
    format_payload,
    parse_payload,
    validate_payloads,
)


class Sequence:
    """A finite sequence of payloads sharing one domain tag.

    ``Sequence(tag, elements)`` takes ``Element`` objects and raises
    ``DomainMismatchError`` on one of another tag or on anything that is
    not an ``Element``; ``from_payloads``
    takes raw payloads.  Two sequences are equal exactly when their tags
    and payloads are.
    """

    __slots__ = ("_tag", "_payloads", "_items")

    def __init__(self, tag: Tag, items):
        items = tuple(items)
        for el in items:
            if not isinstance(el, Element):
                raise DomainMismatchError(f"sequence tagged {tag.value} takes elements, got {echo(el, repr)}")
            if el.tag is not tag:
                raise DomainMismatchError(
                    f"sequence tagged {tag.value} contains a {el.tag.value} element"
                )
        self._tag = tag
        self._payloads = tuple(el.value for el in items)
        self._items = items

    @classmethod
    def from_payloads(cls, tag: Tag, payloads) -> "Sequence":
        """Check raw payloads in bulk, as ``validate_payloads`` does."""
        return cls._trusted(tag, validate_payloads(tag, payloads))

    @classmethod
    def _trusted(cls, tag: Tag, payloads: tuple) -> "Sequence":
        """A sequence of payloads already known to be valid for ``tag``."""
        seq = object.__new__(cls)
        seq._tag = tag
        seq._payloads = payloads
        seq._items = None
        return seq

    @property
    def tag(self) -> Tag:
        return self._tag

    @property
    def items(self) -> tuple[Element, ...]:
        """The terms as elements, built on first use and kept."""
        if self._items is None:
            tag = self._tag
            self._items = tuple(Element(tag, p) for p in self._payloads)
        return self._items

    def payloads(self) -> tuple:
        return self._payloads

    def __len__(self):
        return len(self._payloads)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._tag is other._tag and self._payloads == other._payloads

    def __hash__(self):
        return hash((self._tag, self._payloads))

    def __repr__(self):
        return f"Sequence(tag={self._tag!r}, payloads={self._payloads!r})"


def parse_sequence(text: str, tag: Tag) -> Sequence:
    """Parse whitespace-separated element tokens."""
    return Sequence._trusted(tag, tuple([parse_payload(t, tag) for t in text.split()]))


def format_sequence(seq: Sequence) -> str:
    tag = seq.tag
    return " ".join(format_payload(tag, p) for p in seq.payloads())


@dataclass(frozen=True)
class ChainWitness:
    """Positions and values of one chain inside a sequence."""

    indices: tuple[int, ...]
    values: tuple[Element, ...]


def longest_chain(y: Sequence, order: Order, method: str = "auto") -> tuple[int, ChainWitness]:
    """Length and witness of the longest chain in y under the oracle.

    Among maximum-length chains the witness has the lexicographically
    least index vector.  By default the oracle picks the index:
    ``ranked`` for linear oracles (one sort of the n positions into
    dense ranks, then a patience pass with binary search, O(n log n)),
    the lower-link index over the v distinct values (O(n + v log v) plus
    pushes bounded by n times the link depth) for oracles whose
    ``lower_links`` is not None, and the O(n^2) generic scan for the
    rest.  ``method="generic"`` forces that scan, the reference the
    other indexes are tested against.

    The kernels compare payloads, and an ``Element`` is built for each
    witness term only.  The lower-link and generic rebuilds confirm each
    witness link through ``order.related``; the ranked one calls no oracle.
    """
    payloads = y.payloads()
    n = len(payloads)
    if n == 0:
        raise EmptySequenceError("longest_chain needs a non-empty sequence")
    if method not in ("auto", "generic"):
        raise ParseError(f"unknown longest_chain method {echo(method, repr)}")
    # A Sequence holds one tag, so one check covers every term.
    tag = y.tag
    order.check_tag(tag)

    ranked = method == "auto" and order.is_linear
    if ranked:
        starts, rel = _suffix_lengths_ranked(payloads, order)
    else:
        related = order._related

        def rel(i, j):
            return related(payloads[i], payloads[j])

        links = None
        if method == "auto":
            ids, distinct = _value_ids(payloads)
            links = order.lower_links(distinct)
        if links is None:
            starts = _suffix_lengths_generic(payloads, related)
        else:
            starts = _suffix_lengths_linked(ids, links, order.strict)

    best = max(starts)
    indices: list[int] = []
    need = best
    prev = -1
    for i in range(n):
        if starts[i] == need and (prev < 0 or rel(prev, i)):
            indices.append(i)
            prev = i
            need -= 1
            if need == 0:
                break
    values = tuple(Element(tag, payloads[i]) for i in indices)
    if not ranked:
        for a, b in zip(values, values[1:]):
            if not order.related(a, b):
                raise AssertionError(f"{order.name} does not relate the witness link {a} -> {b}")
    return best, ChainWitness(tuple(indices), values)


def _value_ids(payloads):
    """Map each position to a dense id over the distinct payloads, and
    list those payloads in order of first occurrence."""
    seen: dict[object, int] = {}
    ids = []
    distinct = []
    for value in payloads:
        vid = seen.get(value)
        if vid is None:
            vid = seen[value] = len(distinct)
            distinct.append(value)
        ids.append(vid)
    return ids, distinct


def _suffix_lengths_generic(payloads, related):
    n = len(payloads)
    starts = [1] * n
    for i in range(n - 2, -1, -1):
        x = payloads[i]
        best = 0
        for j in range(i + 1, n):
            if starts[j] > best and related(x, payloads[j]):
                best = starts[j]
        starts[i] = 1 + best
    return starts


def _suffix_lengths_linked(ids, links, strict):
    # above[v]: the best start at a later position whose value is
    # strictly above v; at[v]: the best start at a later position that
    # holds v.  Invariant: for every link p -> q, above[q] is at least
    # max(above[p], at[p]).  So a push that finds above[q] already at s
    # can stop there, since everything below q holds at least s too.
    v = len(links)
    above = [0] * v
    at = [0] * v
    starts = [1] * len(ids)
    for i in range(len(ids) - 1, -1, -1):
        a = ids[i]
        s = 1 + (above[a] if strict else max(above[a], at[a]))
        starts[i] = at[a] = s
        stack = [a]
        while stack:
            for q in links[stack.pop()]:
                if above[q] < s:
                    above[q] = s
                    stack.append(q)
    return starts


def _suffix_lengths_ranked(payloads, order):
    n = len(payloads)
    keys = order.sort_keys(payloads)
    # A position's slot is minus the dense rank of its key: equal keys
    # share a slot and larger values get smaller ones, so a chain read
    # right to left climbs in slots.
    slots = [0] * n
    slot = 0
    prev = object()
    for i in sorted(range(n), key=keys.__getitem__):
        key = keys[i]
        if key != prev:
            slot -= 1
            prev = key
        slots[i] = slot
    # Patience pass from the right: tails[k] is the least slot that ends
    # a climb of length k + 1 so far, and the insertion point of a slot
    # is the length of the longest climb it extends.
    strict = order.strict
    find = bisect.bisect_left if strict else bisect.bisect_right
    tails: list[int] = []
    starts = [1] * n
    for i in range(n - 1, -1, -1):
        slot = slots[i]
        pos = find(tails, slot)
        if pos == len(tails):
            tails.append(slot)
        else:
            tails[pos] = slot
        starts[i] = pos + 1

    def rel(i, j):
        return slots[j] < slots[i] if strict else slots[j] <= slots[i]

    return starts, rel


def patience_chain_length(y: Sequence, order: Order) -> int:
    """Longest chain length by patience sorting; linear oracles only."""
    if not order.is_linear:
        raise LinearityError(f"patience sorting needs a linear oracle, got {order.name}")
    if len(y) == 0:
        raise EmptySequenceError("patience_chain_length needs a non-empty sequence")
    order.check_tag(y.tag)
    find = bisect.bisect_left if order.strict else bisect.bisect_right
    tails: list = []
    for key in order.sort_keys(y.payloads()):
        pos = find(tails, key)
        if pos == len(tails):
            tails.append(key)
        else:
            tails[pos] = key
    return len(tails)


def verify_witness(indices, y: Sequence, order: Order) -> bool:
    """Check a claimed chain witness against the sequence.

    Out-of-range positions raise; a non-increasing index vector or a
    broken link simply yields False.
    """
    idx = list(indices)
    n = len(y)
    for i in idx:
        if not 0 <= i < n:
            raise WitnessIndexError(f"witness index {echo(i)} outside sequence of length {n}")
    links = list(zip(idx, idx[1:]))
    if not all(a < b for a, b in links):
        return False
    if links:
        order.check_tag(y.tag)
    payloads, related = y.payloads(), order._related
    return all(related(payloads[a], payloads[b]) for a, b in links)


def constant_subsequence(y: Sequence) -> tuple[Element, int]:
    """Most frequent value and its multiplicity; ties go to the value
    whose first occurrence is earliest."""
    if len(y) == 0:
        raise EmptySequenceError("constant_subsequence needs a non-empty sequence")
    # Counter keeps first-occurrence order, and max keeps the first of
    # equal counts.
    value, best = max(Counter(y.payloads()).items(), key=itemgetter(1))
    return Element(y.tag, value), best


@dataclass(frozen=True)
class UPSequence:
    """An eventually periodic sequence: finite prefix plus repeating cycle."""

    prefix: Sequence
    cycle: Sequence

    def __post_init__(self):
        if self.prefix.tag is not self.cycle.tag:
            raise DomainMismatchError("prefix and cycle must share a domain tag")
        if len(self.cycle) == 0:
            raise EmptySequenceError("the cycle of an eventually periodic sequence is non-empty")

    def unroll(self, copies: int) -> Sequence:
        """Prefix followed by the cycle repeated ``copies`` times."""
        return Sequence._trusted(
            self.prefix.tag, self.prefix.payloads() + self.cycle.payloads() * copies
        )


def parse_up_sequence(text: str, tag: Tag) -> UPSequence:
    """Parse the one-line "prefix | cycle" form; the prefix may be empty."""
    if "|" not in text:
        raise ParseError("eventually periodic input needs the form 'prefix | cycle'")
    left, _, right = text.partition("|")
    return UPSequence(parse_sequence(left, tag), parse_sequence(right, tag))


def decide_membership_up(up: UPSequence, order: Order) -> bool:
    """Whether the infinite unrolling contains an infinite chain.

    Only the cycle matters: an infinite chain must eventually use cycle
    values, and each value it revisits closes a directed cycle in the
    relatedness graph on the distinct cycle values.  Conversely any
    directed cycle can be followed forever since every cycle value
    recurs infinitely often.
    """
    return cycle_witness(up, order) is not None


def cycle_witness(up: UPSequence, order: Order) -> list[Element] | None:
    """A directed cycle in the relatedness graph on cycle values, or None.

    The returned list c_0, ..., c_{k-1} satisfies related(c_i, c_{i+1})
    and related(c_{k-1}, c_0); a self-loop gives a singleton list.

    No search is needed for an oracle that satisfies the axioms
    ``check_axioms`` verifies.  In the strict reading relatedness is
    irreflexive and transitive, so the graph has no cycle; in the
    non-strict reading it is reflexive, so the first cycle value is a
    self-loop.
    """
    cycle = up.cycle
    order.check_tag(cycle.tag)
    return None if order.strict else [Element(cycle.tag, cycle.payloads()[0])]


def format_witness(witness: ChainWitness) -> str:
    idx = " ".join(str(i) for i in witness.indices)
    vals = " ".join(format_element(e) for e in witness.values)
    return f"indices: {idx}\nvalues: {vals}"
