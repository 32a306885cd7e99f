"""Stdlib-only reference results, written from the package's documented
definitions and not from its code.

Payloads are plain values: ints, tuples of ints (words), ``Fraction``.
Orders are named as in ``orderchains.orders.make_order``; the strict
reading relates a to b iff a lies strictly below b, the non-strict one
also relates equal values.  ``selfcheck.py`` checks every function here
against brute force on small inputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

# --- orders -----------------------------------------------------------------


def _is_prefix(a, b):
    return len(a) <= len(b) and tuple(b[: len(a)]) == tuple(a)


def below(order: str, x, y) -> bool:
    """x lies strictly below y."""
    if x == y:
        return False
    if order == "Divides":
        return y % x == 0
    if order == "Delta":
        return False
    if order in ("IntLess", "RatLess"):
        return x < y
    if order in ("SubsetWordNat", "SubsetWordBit"):
        return _is_prefix(x, y)
    return linear_key(order, x) < linear_key(order, y)


def related(order: str, strict: bool, x, y) -> bool:
    return below(order, x, y) or (not strict and x == y)


def comparable(order: str, x, y) -> bool:
    return x == y or below(order, x, y) or below(order, y, x)


LINEAR = ("IntLess", "RatLess", "RL", "LexBit")


def linear_key(order: str, x):
    """A key whose Python order is the linear order's.

    RL: prefixes come first, and at the first disagreement the larger
    entry makes the word smaller, so entries are negated.  LexBit:
    lexicographic with prefixes first, which is tuple order.
    """
    if order == "RL":
        return tuple(-e for e in x)
    return x


# --- chains -----------------------------------------------------------------


def chain_starts(order: str, strict: bool, values) -> list[int]:
    """starts[i]: length of the longest chain that begins at position i."""
    if order in LINEAR:
        return _starts_linear([linear_key(order, v) for v in values], strict)
    return _starts_by_value(order, strict, values)


def _starts_linear(keys, strict):
    # Fenwick prefix maxima over descending ranks: a later term j can
    # follow i iff its rank is above i's (or equal, when non-strict).
    ranks = {k: r for r, k in enumerate(sorted(set(keys)))}
    size = len(ranks)
    tree = [0] * (size + 1)
    starts = [0] * len(keys)
    for i in range(len(keys) - 1, -1, -1):
        r = ranks[keys[i]]
        pos = size - r - 1 if strict else size - r  # descending ranks above r
        best = 0
        while pos > 0:
            best = max(best, tree[pos])
            pos -= pos & -pos
        starts[i] = best + 1
        pos = size - r
        while pos <= size:
            if tree[pos] < starts[i]:
                tree[pos] = starts[i]
            pos += pos & -pos
    return starts


def _starts_by_value(order, strict, values):
    distinct = list(dict.fromkeys(values))
    vid = {v: i for i, v in enumerate(distinct)}
    succ = [[j for j, u in enumerate(distinct) if related(order, strict, v, u)] for v in distinct]
    best = [0] * len(distinct)
    starts = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        v = vid[values[i]]
        starts[i] = 1 + max((best[u] for u in succ[v]), default=0)
        if starts[i] > best[v]:
            best[v] = starts[i]
    return starts


def longest_chain(order: str, strict: bool, values) -> tuple[int, tuple[int, ...]]:
    """Longest chain length and the lexicographically least witness.

    The witness takes, at each step, the first later position that is
    related to the previous one and still starts a long enough chain.
    """
    starts = chain_starts(order, strict, values)
    length = max(starts)
    indices = []
    need = length
    for i, v in enumerate(values):
        if starts[i] == need and (not indices or related(order, strict, values[indices[-1]], v)):
            indices.append(i)
            need -= 1
            if need == 0:
                break
    return length, tuple(indices)


def witness_holds(order, strict, values, indices) -> bool:
    """Increasing positions whose consecutive values are related."""
    return all(a < b and related(order, strict, values[a], values[b]) for a, b in zip(indices, indices[1:]))


def constant_value(values):
    """Most frequent value and its count; ties go to the earliest."""
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    top = max(counts.values())
    return next(v for v in values if counts[v] == top), top


def has_cycle(order, strict, cycle_values) -> bool:
    """Does the relatedness graph on the distinct cycle values have a
    directed cycle (a self-loop counts)?  Depth-first search."""
    nodes = list(dict.fromkeys(cycle_values))
    succ = [[j for j, u in enumerate(nodes) if related(order, strict, v, u)] for v in nodes]
    state = [0] * len(nodes)  # 0 new, 1 on stack, 2 done
    for root in range(len(nodes)):
        if state[root]:
            continue
        stack = [(root, iter(succ[root]))]
        state[root] = 1
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
            elif state[nxt] == 1:
                return True
            elif state[nxt] == 0:
                state[nxt] = 1
                stack.append((nxt, iter(succ[nxt])))
    return False


def cycle_closes(order, strict, cycle_values, cycle) -> bool:
    """A claimed cycle c_0..c_{k-1}: each c_i related to c_{i+1}, the last
    to the first, every value from the cycle part of the input."""
    pool = set(cycle_values)
    return (
        len(cycle) > 0
        and all(c in pool for c in cycle)
        and all(related(order, strict, a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    )


# --- words, trees and encodings ---------------------------------------------


def block(word) -> int:
    """Block of a word: max(len, 1 + max entry); the empty word is block 0."""
    return max(len(word), 1 + max(word)) if word else 0


def canonical_words(count: int) -> list[tuple[int, ...]]:
    """The first ``count`` words of the canonical enumeration: blocks in
    increasing order, shorter words first inside a block, then
    lexicographic by entries."""
    b = 0
    while sum(b**k for k in range(b + 1)) < count:
        b += 1
    words = [w for k in range(b + 1) for w in product(range(b), repeat=k)]
    words.sort(key=lambda w: (block(w), len(w), w))
    return words[:count]


def filler(n: int) -> tuple[int, ...]:
    """n ones followed by a zero."""
    return (1,) * n + (0,)


def image(tree_nodes, horizon: int):
    """Reduction image: the n-th word where the tree has it, else the
    n-th filler."""
    nodes = set(tree_nodes)
    return [w if w in nodes else filler(n) for n, w in enumerate(canonical_words(horizon))]


def in_horizon_bound(tree_nodes, horizon: int) -> int:
    """Longest prefix chain among tree words enumerated before the horizon."""
    nodes = set(tree_nodes)
    inside = [w for w in canonical_words(horizon) if w in nodes]
    return longest_chain("SubsetWordNat", True, inside)[0] if inside else 0


def double_bits(n: int) -> tuple[int, ...]:
    """Binary digits of n, each written twice."""
    return tuple(int(c) for c in format(n, "b") for _ in range(2))


def word_to_bits(word) -> tuple[int, ...]:
    """Each entry's doubled bits followed by the marker 01."""
    out: list[int] = []
    for e in word:
        out += double_bits(e)
        out += (0, 1)
    return tuple(out)


def word_to_dyadic(word) -> Fraction:
    """0.0^{a_0} 1 0^{a_1} 1 ... in binary, as one shifted numerator."""
    num, width = 0, 0
    for e in word:
        width += e + 1
        num = (num << (e + 1)) | 1
    return Fraction(num, 1 << width)


PIPELINE_ORDER = {
    "subset": "SubsetWordNat",
    "rl": "RL",
    "rational": "RatLess",
    "binary": "SubsetWordBit",
}
PIPELINE_MAP = {
    "subset": None,
    "rl": None,
    "rational": word_to_dyadic,
    "binary": word_to_bits,
}


def pipeline_image(pipeline: str, tree_nodes, horizon: int):
    fn = PIPELINE_MAP[pipeline]
    img = image(tree_nodes, horizon)
    return img if fn is None else [fn(w) for w in img]


# --- density ----------------------------------------------------------------


def splitting_depth(values) -> int:
    """Nesting depth of between-element splits of distinct values.

    Documented recursion: a sorted run whose ends are d positions apart
    has depth h(d) = 1 + h(d // 2), h(1) = 0, i.e. floor(log2 d), and the
    set's depth is h over its whole span."""
    if len(set(values)) != len(values):
        raise ValueError("splitting depth needs distinct values")
    m = len(values)
    return 0 if m < 2 else (m - 1).bit_length() - 1


def middle_thirds(depth: int):
    """Closed intervals C_sigma (|sigma| <= depth) and removed middle
    thirds U_sigma (|sigma| < depth) of the middle-thirds set."""
    closed, gaps = {}, {}
    for d in range(depth + 1):
        width = Fraction(1, 3**d)
        for sigma in product((0, 1), repeat=d):
            lo = sum((Fraction(2 * s, 3 ** (i + 1)) for i, s in enumerate(sigma)), Fraction(0))
            closed[sigma] = (lo, lo + width)
            if d < depth:
                gaps[sigma] = (lo + width / 3, lo + 2 * width / 3)
    return closed, gaps


def scheme_lines(depth: int) -> list[str]:
    closed, gaps = middle_thirds(depth)
    lines = []
    for sigma in sorted(closed, key=lambda s: (len(s), s)):
        lo, hi = closed[sigma]
        line = f"{''.join(map(str, sigma)) or 'e'} {lo} {hi}"
        if sigma in gaps:
            line += f" [{gaps[sigma][0]} {gaps[sigma][1]}]"
        lines.append(line)
    return lines


def extract_p(depth: int, values):
    """The values minus each right endpoint of C_sigma whose same-length
    lexicographic successor starts at a value present."""
    closed, _ = middle_thirds(depth)
    present = set(values)
    drop = set()
    for sigma, (_, hi) in closed.items():
        if 0 in sigma:
            k = max(i for i, s in enumerate(sigma) if s == 0)
            succ = sigma[:k] + (1,) + (0,) * (len(sigma) - k - 1)
            if closed[succ][0] in present:
                drop.add(hi)
    return sorted(present - drop)


def extract_y(depth: int, values):
    """The earliest value strictly inside each removed gap."""
    _, gaps = middle_thirds(depth)
    picked = {}
    for v in values:
        for sigma, (a, b) in gaps.items():
            if a < v < b and sigma not in picked:
                picked[sigma] = v
    return sorted(picked.values())
