"""Chain detection in finite sequences.

A ``Sequence`` is a domain tag and one tuple of payloads.  Payloads are
validated once, where data enters: ``Sequence(tag, payloads)`` (also
spelled ``Sequence.from_payloads``) checks the payloads in bulk, and
``parse_sequence`` reads valid payloads only.  Sequences the library
derives from checked ones (``reduce_tree``, ``lift_map``,
``UPSequence.unroll``) are built from payloads with no second check.
The chain kernels compare payloads, after one tag check per sequence,
and build an ``Element`` only for a term they return: the witness
values, the constant value or a cycle.

A chain witness is a strictly increasing index vector whose consecutive
values are related under the oracle; relatedness is only required
between neighbours, not pairwise.  ``longest_chain`` computes, from the
right, the longest chain ``starts[i]`` starting at each position, then
rebuilds the lexicographically least witness.  The oracle alone picks
the index that finds the best later start, by what it is:

* ``ranked``: a ``LinearOrder``.  One right-to-left patience pass with
  binary search over the oracle's ``sort_keys`` (which may be ints or
  bytes that order as the payloads do) gives every start, O(n log n)
  key comparisons and no sort.
* ``linked``: oracles whose ``lower_links`` lists the values below each
  value (the prefix orders, Divides, Delta).  It works over the distinct
  ``link_keys``, one key per payload that ties as the payloads do
  (bytes for prefix words with entries up to 255).  Each new start is
  pushed down the links into the best start above every lower value,
  O(n + v log v) plus the pushes, which are bounded by n times the link
  depth.
* ``generic``: the plain O(n^2) scan over positions for any other
  ``Order``, and the reference the other indexes are tested against.

Each index gives the rebuild its relation on positions: ``ranked`` by
key, the others by the oracle's relation on payloads.  The rebuild jumps
by ``list.index`` to each next position whose start is one shorter,
skipping those the relation rejects; ``linked`` and ``generic`` then
confirm each link through ``Order.related``.  A missing position or an
unrelated link raises ``AssertionError``: the index gave wrong starts.

``patience_chain_length`` is the independent O(n log n) patience-sorting
routine for a ``LinearOrder``; it must agree with the DP on length.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from operator import index, itemgetter, le, lt

from .errors import (
    DomainMismatchError,
    EmptySequenceError,
    LinearityError,
    ParseError,
    WitnessIndexError,
    echo,
    read_container,
)
from .orders import (
    Element,
    LinearOrder,
    Order,
    Tag,
    check_order,
    format_element,
    parse_payload,
    validate_payloads,
)


class Sequence:
    """A finite sequence of payloads sharing one domain tag.

    ``Sequence(tag, payloads)`` reads the payloads as
    ``validate_payloads`` does: in bulk, with ``make_element``'s
    spellings and errors, and ``DomainMismatchError`` for a tag that is
    not a ``Tag`` or a container it cannot read.  Two sequences are
    equal exactly when their tags and payloads are.
    """

    __slots__ = ("_tag", "_payloads")

    def __init__(self, tag: Tag, payloads):
        self._tag = tag
        self._payloads = validate_payloads(tag, payloads)

    @classmethod
    def from_payloads(cls, tag: Tag, payloads) -> "Sequence":
        """The same as ``Sequence(tag, payloads)``."""
        return cls(tag, payloads)

    @classmethod
    def _trusted(cls, tag: Tag, payloads: tuple) -> "Sequence":
        """A sequence of payloads already known to be valid for ``tag``."""
        seq = object.__new__(cls)
        seq._tag = tag
        seq._payloads = payloads
        return seq

    @property
    def tag(self) -> Tag:
        return self._tag

    def payloads(self) -> tuple:
        return self._payloads

    def __len__(self):
        return len(self._payloads)

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


@dataclass(frozen=True)
class ChainWitness:
    """Positions and values of one chain inside a sequence."""

    indices: tuple[int, ...]
    values: tuple[Element, ...]


def longest_chain(y: Sequence, order: Order) -> tuple[int, ChainWitness]:
    """Length and witness of the longest chain in y under the oracle.

    Among maximum-length chains the witness has the lexicographically
    least index vector.  The oracle picks the index (see the module
    docstring): ``ranked`` for a ``LinearOrder``, ``linked`` when its
    ``lower_links`` is not None, ``generic`` otherwise.  An ``Element``
    is built for each witness term only.
    """
    _check_args(y, order)
    payloads = y.payloads()
    if not payloads:
        raise EmptySequenceError("longest_chain needs a non-empty sequence")
    # A Sequence holds one tag, so one check covers every term.
    tag = y.tag
    order.check_tag(tag)

    ranked = isinstance(order, LinearOrder)
    if ranked:
        starts, rel = _suffix_lengths_ranked(payloads, order)
    else:
        related = order._related

        def rel(i, j):
            return related(payloads[i], payloads[j])

        ids, distinct = _value_ids(order.link_keys(payloads))
        links = order.lower_links(distinct)
        if links is None:
            starts = _suffix_lengths_generic(payloads, related)
        else:
            starts = _suffix_lengths_linked(ids, links, order.strict)

    best = max(starts)
    indices: list[int] = []
    i = -1
    for need in range(best, 0, -1):
        while True:
            try:
                i = starts.index(need, i + 1)
            except ValueError:
                raise AssertionError(f"no position after {i} starts a chain of length {need}") from None
            if not indices or rel(indices[-1], i):
                break
        indices.append(i)
    values = tuple(Element(tag, payloads[i]) for i in indices)
    if not ranked:
        for a, b in zip(values, values[1:]):
            if not order.related(a, b):
                raise AssertionError(f"{order.name} does not relate the witness link {a} -> {b}")
    return best, ChainWitness(tuple(indices), values)


def _check_args(y, *orders) -> None:
    """Refuse a ``y`` that is not a ``Sequence`` and an oracle that is
    not an ``Order`` with ``DomainMismatchError``."""
    if not isinstance(y, Sequence):
        raise DomainMismatchError(f"chain functions take a Sequence, got {echo(y, repr)}")
    for order in orders:
        check_order(order, "chain functions take")


def _value_ids(keys):
    """Map each position to a dense id over the distinct keys, and list
    those keys in order of first occurrence."""
    # One hash per key: a tuple does not cache its hash, and bit-word
    # images run to hundreds of entries.
    seen: dict[object, int] = {}
    ids = [seen.setdefault(key, len(seen)) for key in keys]
    return ids, list(seen)


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
        if not links[a]:
            continue
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
    # Patience pass from the right: tails[n - l] is the greatest key that
    # starts a chain of length l so far, so tails[lo:] ascends, and the
    # first tail above a key (at or above it, non-strict) sits at the
    # longest chain that key extends.
    strict = order.strict
    find = bisect.bisect_right if strict else bisect.bisect_left
    tails = [None] * n
    lo = n
    starts = [0] * n
    for i in range(n - 1, -1, -1):
        key = keys[i]
        pos = find(tails, key, lo)
        if pos == lo:
            lo -= 1
        tails[pos - 1] = key
        starts[i] = n - pos + 1

    def rel(i, j):
        return keys[i] < keys[j] if strict else keys[i] <= keys[j]

    return starts, rel


def patience_chain_length(y: Sequence, order: Order) -> int:
    """Longest chain length by patience sorting; a ``LinearOrder`` only."""
    _check_args(y, order)
    if not isinstance(order, LinearOrder):
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

    Positions that are not integers or are out of range raise, the first
    one in order; a non-increasing index vector or a broken link yields False.
    Fewer than two positions are a chain, and no payload is read.
    """
    _check_args(y, order)
    idx = read_container(indices, "witness indices")
    n = len(y)
    try:
        pos = list(map(index, idx))
    except TypeError:
        pos = None
    if pos is None or pos and (min(pos) < 0 or max(pos) >= n):
        for i in idx:
            try:
                i = index(i)
            except TypeError:
                raise WitnessIndexError(f"witness index {echo(i, repr)} is not an integer") from None
            if not 0 <= i < n:
                raise WitnessIndexError(f"witness index {echo(i)} outside sequence of length {n}")
    if not all(map(lt, pos, pos[1:])):
        return False
    if len(pos) < 2:
        return True
    order.check_tag(y.tag)
    values = list(map(y.payloads().__getitem__, pos))
    if isinstance(order, LinearOrder):
        keys = order.sort_keys(values)
        return all(map(lt if order.strict else le, keys, keys[1:]))
    return all(map(order._related, values, values[1:]))


def constant_subsequence(y: Sequence) -> tuple[Element, int]:
    """Most frequent value and its multiplicity; ties go to the value
    whose first occurrence is earliest."""
    _check_args(y)
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
        for part in (self.prefix, self.cycle):
            if not isinstance(part, Sequence):
                raise DomainMismatchError(f"UPSequence takes a Sequence prefix and cycle, got {echo(part, repr)}")
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
    if not isinstance(up, UPSequence):
        raise DomainMismatchError(f"chain functions take a UPSequence, got {echo(up, repr)}")
    check_order(order, "chain functions take")
    cycle = up.cycle
    order.check_tag(cycle.tag)
    return None if order.strict else [Element(cycle.tag, cycle.payloads()[0])]


def format_witness(witness: ChainWitness) -> str:
    idx = " ".join(str(i) for i in witness.indices)
    vals = " ".join(format_element(e) for e in witness.values)
    return f"indices: {idx}\nvalues: {vals}"
