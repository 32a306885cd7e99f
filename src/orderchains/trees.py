"""Prefix-closed finite trees of nat-words and a canonical enumeration.

The enumeration lists every finite word over the naturals exactly once,
grouped into blocks: word w sits in block max(len(w), 1 + max entry)
(the empty word alone is block 0).  Blocks come in increasing order;
inside a block shorter words come first and words of equal length are
lexicographic by entries.  A prefix never has a larger index than its
extensions, which is what the tree-to-sequence reduction relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .errors import ArgumentError, ParseError, TreePrefixError
from .words import Word, parse_nat_word


@dataclass(frozen=True)
class FiniteTree:
    """A finite, prefix-closed set of nat-words."""

    nodes: frozenset[Word]

    def __post_init__(self):
        for node in self.nodes:
            if node and node[:-1] not in self.nodes:
                raise TreePrefixError(node, node[:-1])

    @property
    def is_empty(self) -> bool:
        return not self.nodes

    def __contains__(self, word: Word) -> bool:
        return word in self.nodes

    def __len__(self):
        return len(self.nodes)


def prefix_closure(words: Iterable[Word]) -> frozenset[Word]:
    closed: set[Word] = set()
    for w in words:
        for i in range(len(w) + 1):
            closed.add(w[:i])
    return frozenset(closed)


def validate_tree(words: Iterable[Word], mode: str = "strict") -> FiniteTree:
    """Build a tree from raw words.

    ``strict`` requires the input to be prefix-closed already and raises
    on the first violating (node, missing prefix) pair; ``closure``
    completes the input with all missing prefixes.
    """
    ws = list(words)
    if mode == "closure":
        return FiniteTree(prefix_closure(ws))
    if mode != "strict":
        raise ParseError(f"unknown tree validation mode {mode!r}")
    node_set = frozenset(ws)
    for w in sorted(node_set, key=len):
        if w and w[:-1] not in node_set:
            raise TreePrefixError(w, w[:-1])
    return FiniteTree(node_set)


def parse_tree_lines(lines: Iterable[str], mode: str = "strict") -> FiniteTree:
    """One word per line ("e" for the root); blank lines are skipped."""
    return validate_tree((parse_nat_word(line) for line in map(str.strip, lines) if line), mode=mode)


def max_branch_depth(tree: FiniteTree) -> int:
    """Length of the longest word in the tree (0 for the empty tree)."""
    if tree.is_empty:
        return 0
    return max(len(w) for w in tree.nodes)


def filler(n: int) -> Word:
    """The n-th filler word: n ones followed by a zero.

    Fillers are pairwise incomparable under the prefix order and
    strictly decreasing under the reverse-entry lexicographic order, so
    at most one of them can ever join a chain.
    """
    if n < 0:
        raise ArgumentError("filler index must be non-negative")
    return (1,) * n + (0,)


# --- canonical enumeration -------------------------------------------------

_cum_sizes = [1]  # _cum_sizes[b] = number of words in blocks 0..b


def _block_of(word: Word) -> int:
    if not word:
        return 0
    return max(len(word), 1 + max(word))


def _group_size(b: int, length: int) -> int:
    # Words of the given length inside block b: all entries < b, and for
    # lengths below b the maximum entry must be exactly b - 1.
    if length == b:
        return b**b
    return b**length - (b - 1) ** length


def _block_size(b: int) -> int:
    if b == 0:
        return 1
    return sum(_group_size(b, length) for length in range(1, b + 1))


def _cum_through(b: int) -> int:
    while len(_cum_sizes) <= b:
        nxt = len(_cum_sizes)
        _cum_sizes.append(_cum_sizes[-1] + _block_size(nxt))
    return _cum_sizes[b]


def index_of(word: Word) -> int:
    """Position of a word in the canonical enumeration."""
    if not word:
        return 0
    b = _block_of(word)
    length = len(word)
    idx = _cum_through(b - 1)
    for shorter in range(1, length):
        idx += _group_size(b, shorter)
    if length == b:
        # plain base-b rank
        rank = 0
        for entry in word:
            rank = rank * b + entry
        return idx + rank
    # rank among words whose maximum entry is exactly b - 1
    top = b - 1
    rank = 0
    seen_top = False
    for pos, entry in enumerate(word):
        rem = length - pos - 1
        for d in range(entry):
            if seen_top or d == top:
                rank += b**rem
            else:
                rank += b**rem - (b - 1) ** rem
        if entry == top:
            seen_top = True
    return idx + rank


def word_at(n: int) -> Word:
    """Inverse of index_of."""
    if n < 0:
        raise ArgumentError("enumeration index must be non-negative")
    if n == 0:
        return ()
    b = 1
    while _cum_through(b) <= n:
        b += 1
    r = n - _cum_through(b - 1)
    length = 1
    while True:
        g = _group_size(b, length)
        if r < g:
            break
        r -= g
        length += 1
    if length == b:
        digits = []
        for _ in range(length):
            digits.append(r % b)
            r //= b
        return tuple(reversed(digits))
    top = b - 1
    out = []
    seen_top = False
    for pos in range(length):
        rem = length - pos - 1
        for d in range(b):
            if seen_top or d == top:
                cnt = b**rem
            else:
                cnt = b**rem - (b - 1) ** rem
            if r < cnt:
                out.append(d)
                seen_top = seen_top or d == top
                break
            r -= cnt
        else:
            raise AssertionError("unranking fell off the digit range")
    return tuple(out)


def iter_words() -> Iterator[Word]:
    """All words in canonical order; cheaper than repeated word_at calls."""
    yield ()
    b = 1
    while True:
        for length in range(1, b + 1):
            if length < b:
                top = b - 1
                for w in product(range(b), repeat=length):
                    if top in w:
                        yield w
            else:
                yield from product(range(b), repeat=b)
        b += 1
