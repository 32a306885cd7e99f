"""Prefix-closed finite trees of nat-words and a canonical enumeration.

The enumeration lists every finite word over the naturals exactly once,
grouped into blocks: word w sits in block max(len(w), 1 + max entry)
(the empty word alone is block 0).  Blocks come in increasing order;
inside a block shorter words come first and words of equal length are
lexicographic by entries.  A prefix never has a larger index than its
extensions, which is what the tree-to-sequence reduction relies on.

Blocks 0..b hold the 1 + b + ... + b**b words of length at most b with
entries below b, so every block start is a closed form.  Ranking and
unranking share one count, the tails that finish a word of block b:
b**rem once it has length b or holds the top entry b - 1, else the
b**rem - (b - 1)**rem that hold it.  Nothing is cached between calls.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import count, product
from typing import Iterable, Iterator

from .errors import ArgumentError, DomainMismatchError, ParseError, TreePrefixError, echo
from .limits import MAX_BLOCK, MAX_HORIZON
from .orders import Tag, _valid_payloads, validate_payloads
from .words import Word, parse_nat_word


@dataclass(frozen=True)
class FiniteTree:
    """A finite, prefix-closed set of nat-words; a gap raises on a
    shortest node whose parent is missing."""

    nodes: frozenset[Word]

    def __post_init__(self):
        violators = [node for node in self.nodes if node and node[:-1] not in self.nodes]
        if violators:
            node = min(violators, key=len)
            raise TreePrefixError(node, node[:-1])

    def __contains__(self, word: Word) -> bool:
        return word in self.nodes

    def __len__(self):
        return len(self.nodes)


def prefix_closure(words: Iterable[Word]) -> frozenset[Word]:
    return frozenset(w[:i] for w in words for i in range(len(w) + 1))


def validate_tree(words: Iterable[Word], mode: str = "strict") -> FiniteTree:
    """Build a tree from raw words, read as ``orders.validate_payloads``
    reads nat-words.

    ``strict`` requires the input to be prefix-closed already and raises
    on a shortest violating (node, missing prefix) pair; ``closure``
    completes the input with all missing prefixes.
    """
    if mode not in ("strict", "closure"):
        raise ParseError(f"unknown tree validation mode {echo(mode, repr)}")
    words = validate_payloads(Tag.WORD_NAT, words)
    return FiniteTree(prefix_closure(words) if mode == "closure" else frozenset(words))


def parse_tree_lines(lines: Iterable[str], mode: str = "strict") -> FiniteTree:
    """One word per line ("e" for the root); blank lines are skipped."""
    return validate_tree((parse_nat_word(line) for line in map(str.strip, lines) if line), mode=mode)


def max_branch_depth(tree: FiniteTree) -> int:
    """Length of the longest word in the tree (0 for the empty tree)."""
    return max(map(len, tree.nodes), default=0)


# Every filler is a tail of the longest, so each one is one slice.
_FILLERS = (1,) * MAX_HORIZON + (0,)


def filler(n: int) -> Word:
    """The n-th filler word: n ones followed by a zero.

    Fillers are pairwise incomparable under the prefix order and
    strictly decreasing under the reverse-entry lexicographic order, so
    at most one of them can ever join a chain.  An index past every
    horizon (at least ``MAX_HORIZON``) raises ``ArgumentError``.
    """
    if n < 0:
        raise ArgumentError("filler index must be non-negative")
    if n >= MAX_HORIZON:
        raise ArgumentError(f"filler index {echo(n)} is past the horizon cap of {MAX_HORIZON}")
    return _FILLERS[MAX_HORIZON - n :]


# --- canonical enumeration -------------------------------------------------


def block_of(word: Word) -> int:
    """The word's block: max(len(word), 1 + max entry), 0 for the empty word."""
    if not word:
        return 0
    return max(len(word), 1 + max(word))


def _words_through(b: int) -> int:
    """Words in blocks 0..b: those of length at most b with every entry
    below b, 1 + b + ... + b**b (0 for b = -1)."""
    if b < 2:
        return b + 1
    return (b ** (b + 1) - 1) // (b - 1)


def _tails(b: int, rem: int, free: bool) -> int:
    """Ways to finish a word of block b with rem more entries: all b**rem
    once it is free (it has length b or holds the top entry b - 1), else
    those that hold the top entry.  The words of length n < b in block b
    are the tails of length n of the empty word."""
    if free:
        return b**rem
    return b**rem - (b - 1) ** rem


_INDEX_CAP = _words_through(MAX_BLOCK)  # the first index past block MAX_BLOCK


def block_at(n: int) -> int:
    """The block of the n-th word, block_of(word_at(n))."""
    if n >= _INDEX_CAP:
        raise ArgumentError(f"enumeration index past block {MAX_BLOCK}, the last the enumeration ranks")
    # Blocks 0..b hold over b**b >= 2**b words, so bisect below max(bits of n, 2).
    return bisect_right(range(min(max(n.bit_length(), 2), MAX_BLOCK + 1)), n, key=_words_through)


def index_of(word: Word) -> int:
    """Position of a word in the canonical enumeration.

    The earlier blocks and the shorter words of its block come first.
    Then each entry passes the tails of every smaller entry at its place;
    a smaller entry is never the top one, so they all count alike.  A
    value that is not a nat-word by the rule ``Element`` applies (a
    tuple of ints, each at least 0) raises ``DomainMismatchError``.
    """
    if not _valid_payloads(Tag.WORD_NAT, (word,)):
        raise DomainMismatchError("index_of is defined on words of naturals")
    b = block_of(word)
    length = len(word)
    if b > MAX_BLOCK:
        raise ArgumentError(f"the enumeration ranks words of length at most {MAX_BLOCK} with entries below {MAX_BLOCK}")
    idx = _words_through(b - 1) + sum(_tails(b, n, False) for n in range(1, length))
    free = length == b
    for rem, entry in zip(range(length - 1, -1, -1), word):
        idx += entry * _tails(b, rem, free)
        free = free or entry == b - 1
    return idx


def word_at(n: int) -> Word:
    """Inverse of index_of, spending the same counts from the front."""
    if n < 0:
        raise ArgumentError("enumeration index must be non-negative")
    b = block_at(n)
    r = n - _words_through(b - 1)
    length = 0
    while length < b and r >= (group := _tails(b, length, False)):
        r -= group
        length += 1
    top = b - 1
    out = []
    free = length == b
    for rem in range(length - 1, -1, -1):
        tails = _tails(b, rem, free)
        # Each entry below the top owns `tails` indices; the top owns the rest.
        entry = r // tails if r < top * tails else top
        r -= entry * tails
        out.append(entry)
        free = free or entry == top
    return tuple(out)


def iter_words() -> Iterator[Word]:
    """All words in canonical order; cheaper than repeated word_at calls."""
    for b in count():
        for length in range(b):
            yield from (w for w in product(range(b), repeat=length) if b - 1 in w)
        yield from product(range(b), repeat=b)
