"""The benchmark's own self-check.

``brute_force()`` checks ``reference.py`` against exhaustive search and
literal definitions on small seeded inputs.  ``rejects_corruption()``
takes the real outputs of a round, which have passed, corrupts each one
(a moved witness index, a dyadic value off by 2^-k, a broken cycle, a
chain length off by one, a dropped line) and checks that the checks
reject every corrupted copy.  ``run.py`` calls both on every run;
``python3 perfbench/run.py --selfcheck`` runs the first alone.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import checks
import reference as ref
from inputs import jsonable

ORDERS = {
    "Divides": lambda r: r.randrange(1, 13),
    "Delta": lambda r: r.randrange(4),
    "IntLess": lambda r: r.randrange(-3, 4),
    "RatLess": lambda r: Fraction(r.randrange(7), r.randrange(1, 4)),
    "SubsetWordNat": lambda r: tuple(r.randrange(3) for _ in range(r.randrange(4))),
    "SubsetWordBit": lambda r: tuple(r.randrange(2) for _ in range(r.randrange(4))),
    "RL": lambda r: tuple(r.randrange(3) for _ in range(r.randrange(4))),
    "LexBit": lambda r: tuple(r.randrange(2) for _ in range(r.randrange(4))),
}


def _brute_chain(order, strict, values):
    """Longest chain by trying index tuples longest first, each length in
    lexicographic order, so the first hit is the least witness."""
    n = len(values)
    for length in range(n, 0, -1):
        for idx in combinations(range(n), length):
            if ref.witness_holds(order, strict, values, idx):
                return length, idx
    raise AssertionError("empty sequence")


def _brute_depth(values):
    """Literal between-element recursion on sorted positions."""
    vals = sorted(values)

    @lru_cache(maxsize=None)
    def sd(i, j):
        if j - i < 2:
            return 0
        return 1 + max(min(sd(i, c), sd(c, j)) for c in range(i + 1, j))

    return max((sd(i, j) for i in range(len(vals)) for j in range(i + 1, len(vals))), default=0)


def _require(cond, what):
    if not cond:
        raise AssertionError(f"self-check failed: {what}")


def brute_force(seed: int = 0) -> int:
    """Check the reference on small inputs; returns the number of cases."""
    rng = random.Random(f"perfbench/selfcheck/{seed}")
    cases = 0
    for order, gen in ORDERS.items():
        for strict in (True, False):
            for _ in range(40):
                values = [gen(rng) for _ in range(rng.randrange(1, 9))]
                _require(ref.longest_chain(order, strict, values) == _brute_chain(order, strict, values),
                         f"longest chain under {order} strict={strict} on {values}")
                if order in ref.LINEAR:
                    for x, y in combinations(values, 2):
                        _require(ref.comparable(order, x, y), f"{order} is total on {x}, {y}")
                cycle = list(dict.fromkeys(values))
                reach = {(i, j) for i, u in enumerate(cycle) for j, v in enumerate(cycle)
                         if ref.related(order, strict, u, v)}
                for _ in range(len(cycle)):
                    reach |= {(i, k) for i, j in reach for j2, k in reach if j == j2}
                _require(ref.has_cycle(order, strict, values) == any(i == k for i, k in reach),
                         f"cycle verdict under {order} strict={strict} on {values}")
                cases += 1

    for _ in range(200):
        values = [rng.randrange(4) for _ in range(rng.randrange(1, 12))]
        counts = [values.count(v) for v in values]
        top = max(counts)
        _require(ref.constant_value(values) == (values[counts.index(top)], top), f"constant value of {values}")

    words = ref.canonical_words(400)
    _require(words[:200] == ref.canonical_words(200), "canonical prefix depends on its length")
    _require(len(set(words)) == len(words), "canonical enumeration repeats a word")
    _require(set(words[:40]) == {w for k in range(4) for w in product(range(3), repeat=k)},
             "blocks 0..3 are the words over {0,1,2} of length <= 3")
    position = {w: i for i, w in enumerate(words)}
    _require(all(position[w[:-1]] < position[w] for w in words if w), "a prefix comes after its extension")
    fill = [ref.filler(n) for n in range(30)]
    for i, j in combinations(range(30), 2):
        _require(not ref.comparable("SubsetWordNat", fill[i], fill[j]), "fillers are prefix-incomparable")
        _require(ref.below("RL", fill[j], fill[i]), "fillers decrease under RL")

    for _ in range(300):
        u, w = ORDERS["RL"](rng) + (rng.randrange(5),), ORDERS["RL"](rng)
        exp, total = 0, Fraction(0)
        for e in u:
            exp += e + 1
            total += Fraction(1, 2**exp)
        _require(ref.word_to_dyadic(u) == total, f"dyadic value of {u}")
        _require(ref.below("RL", u, w) == (ref.word_to_dyadic(u) < ref.word_to_dyadic(w)),
                 f"dyadic map preserves and reflects RL on {u}, {w}")
        _require(ref._is_prefix(u, w) == ref._is_prefix(ref.word_to_bits(u), ref.word_to_bits(w)),
                 f"bit map preserves and reflects prefixes on {u}, {w}")
        _require(ref.word_to_bits(u) != ref.word_to_bits(w) or u == w, f"bit map is injective on {u}, {w}")
    for n in range(300):
        _require("".join(map(str, ref.double_bits(n))) == "".join(c + c for c in bin(n)[2:]), f"doubled bits of {n}")

    for _ in range(60):
        tree = {()}
        for _ in range(rng.randrange(12)):
            parent = rng.choice(sorted(tree))
            tree.add(parent + (rng.randrange(3),))
        horizon = rng.randrange(1, 40)
        inside = [w for w in ref.canonical_words(horizon) if w in tree]
        _require(ref.in_horizon_bound(tree, horizon) == _brute_chain("SubsetWordNat", True, inside)[0],
                 f"in-horizon bound of {sorted(tree)} at {horizon}")

    for m in range(1, 11):
        values = rng.sample(range(100), m)
        _require(ref.splitting_depth(values) == _brute_depth(values), f"splitting depth of {values}")

    depth = 4
    closed, gaps = ref.middle_thirds(depth)
    stage = [(Fraction(0), Fraction(1))]
    for _ in range(depth + 1):
        stage = [iv for lo, hi in stage for iv in ((lo, lo + (hi - lo) / 3), (hi - (hi - lo) / 3, hi))]
    stage_gaps = [(a[1], b[0]) for a, b in zip(stage, stage[1:])]
    for sigma, (lo, hi) in closed.items():
        if sigma in gaps:
            inner = [g for g in stage_gaps if lo <= g[0] and g[1] <= hi]
            widest = max(inner, key=lambda g: (g[1] - g[0], -g[0]))
            _require(gaps[sigma] == widest, f"gap of {sigma} is the widest stage gap inside C")
            _require(closed[sigma + (0,)] == (lo, widest[0]) and closed[sigma + (1,)] == (widest[1], hi),
                     f"children of {sigma}")
    stream = sorted({Fraction(rng.randrange(82), 81) for _ in range(60)})
    rng.shuffle(stream)
    present = set(stream)
    same_len = {}
    for sigma in closed:
        same_len.setdefault(len(sigma), []).append(sigma)
    drop = set()
    for level in same_len.values():
        level.sort()
        for s, t in zip(level, level[1:]):
            if closed[t][0] in present:
                drop.add(closed[s][1])
    _require(ref.extract_p(depth, stream) == sorted(present - drop), "P extractor")
    firsts = []
    for a, b in gaps.values():
        inside = [v for v in stream if a < v < b]
        if inside:
            firsts.append(inside[0])
    _require(ref.extract_y(depth, stream) == sorted(firsts), "Y extractor")
    return cases


# --- corrupted copies of real outputs -------------------------------------------


# A value of each tag that no workload puts in a cycle.
_OUTSIDE = {"nat": 10**18, "int": 10**18, "word": (10**6,), "bits": (0,) * 64, "rational": Fraction(10**6)}


def _corrupt(op, out):
    """A wrong copy of one output (or None when the op cannot be corrupted)."""
    bad = copy.deepcopy(out)
    kind = op.kind
    if kind == "fuzz":
        bad[2] += 1
    elif kind == "longest_chain":
        idx = bad[1]
        n = len(op.args["payloads"])
        idx[-1] = idx[-1] + 1 if idx[-1] + 1 < n else idx[-1] - 1
    elif kind == "patience_chain_length":
        bad += 1
    elif kind == "verify_witness":
        bad = not bad
    elif kind == "constant_subsequence":
        bad[1] += 1
    elif kind == "cycle_witness":
        outside = _OUTSIDE[op.args["tag"]]
        bad = [jsonable(op.args["cycle"][0])] if bad is None else bad + [jsonable(outside)]
    elif kind == "cli":
        code, stdout, err = bad
        lines = stdout.splitlines()
        cmd = op.args["check"]["cmd"]
        if cmd == "encode" and op.args["check"]["map"] == "rational":
            q = Fraction(lines[0])
            lines[0] = checks.fmt("rational", q + Fraction(1, 2 * q.denominator))
        elif cmd == "analyze":
            idx = lines[1].split()
            idx[1] = str(int(idx[1]) + 1)
            lines[1] = " ".join(idx)
        elif cmd == "decide-up" and lines[0] == "member: true":
            first = lines[1][len("cycle: "):].split(" -> ")[0]
            lines[1] += f" -> {first}0"
        elif cmd == "decide-up":
            lines[0] = "member: true"
        else:
            lines.pop()
        bad = [code, "".join(line + "\n" for line in lines), err]
    return bad


def rejects_corruption(ops, outputs, extras) -> int:
    """Every corrupted copy of a real output, which must itself pass,
    must be flagged."""
    for op, out, extra in zip(ops, outputs, extras):
        if out is None:  # the operation failed
            continue
        flagged = checks.problems([op], [_corrupt(op, out)], [extra])
        _require(any(line.startswith(op.name + ":") for line in flagged),
                 f"a corrupted output of {op.name} passes")
    return len(ops)


if __name__ == "__main__":
    print(f"self-check: {brute_force()} brute-force cases agree")
