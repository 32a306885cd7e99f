"""Acceptance suite: one test per shipped guarantee.

Every test prints exactly one PASS/FAIL line (visible under ``pytest -s``)
with its runtime against the stated budget, then asserts.  All randomness
is seeded, so reruns are byte-identical.
"""

import bisect
import itertools
import random
import time
from fractions import Fraction

from helpers import brute_chain_length
from orderchains.chains import (
    Sequence,
    constant_subsequence,
    decide_membership_up,
    longest_chain,
    parse_up_sequence,
    patience_chain_length,
    verify_witness,
)
from orderchains.dense import (
    MiddleThirds,
    between_witness,
    build_scheme,
    dyadic_stream,
    gap_midpoint_stream,
    gap_selector,
    middle_thirds_endpoint_stream,
    prune_successor_endpoints,
    splitting_depth,
)
from orderchains.encodings import word_to_bits, word_to_dyadic
from orderchains.orders import Tag, check_axioms, make_element, make_order
from orderchains.reductions import (
    TreeGenSpec,
    fuzz_reduction,
    image_at,
    make_pipeline,
)
from orderchains.trees import filler, index_of, iter_words, validate_tree, word_at

F = Fraction


class Criterion:
    """Times one acceptance criterion and prints its verdict line."""

    def __init__(self, number, title, budget):
        self.number = number
        self.title = title
        self.budget = budget
        self.start = time.perf_counter()

    def finish(self, ok, detail):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok else "FAIL"
        print(
            f"criterion {self.number} {verdict} {self.title}: {detail} "
            f"({elapsed:.1f}s, budget {self.budget:.0f}s)"
        )
        assert ok, f"criterion {self.number} ({self.title}): {detail}"
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its {self.budget:.0f}s budget: {elapsed:.1f}s"
        )


def test_criterion_01_enumeration_monotonicity():
    "prefixes never come after their extensions in the first 1e5 indices"
    crit = Criterion(1, "enumeration monotonicity", 10)
    count = 100_000
    position = {}
    violations = 0
    for n, w in enumerate(itertools.islice(iter_words(), count)):
        position[w] = n
        for k in range(len(w)):
            p = position.get(w[:k])
            if p is None or p > n:
                violations += 1
    crit.finish(violations == 0, f"{count} indices checked, {violations} violations")


def _random_int_sequence(rng):
    n = rng.randint(1, 500)
    return Sequence.from_payloads(Tag.INT, [rng.randint(-10**6, 10**6) for _ in range(n)])


def _random_rat_sequence(rng):
    n = rng.randint(1, 500)
    payloads = [F(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(n)]
    return Sequence.from_payloads(Tag.RATIONAL, payloads)


def _random_word_sequence(rng):
    n = rng.randint(1, 500)
    payloads = [
        tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 6))) for _ in range(n)
    ]
    return Sequence.from_payloads(Tag.WORD_NAT, payloads)


def test_criterion_02_chain_oracle_equivalence():
    "patience sorting, the DP, and exhaustive search agree"
    crit = Criterion(2, "chain-oracle equivalence", 60)
    rng = random.Random(2025)
    makers = [
        ("IntLess", _random_int_sequence),
        ("RatLess", _random_rat_sequence),
        ("RL", _random_word_sequence),
    ]
    random_runs = 0
    for i in range(10_000):
        name, make = makers[i % 3]
        order = make_order(name, strict=(i % 2 == 0))
        seq = make(rng)
        length, witness = longest_chain(seq, order)
        if patience_chain_length(seq, order) != length:
            crit.finish(False, f"patience/DP split on run {i} ({order!r})")
        if not verify_witness(witness.indices, seq, order):
            crit.finish(False, f"invalid witness on run {i} ({order!r})")
        random_runs += 1

    exhaustive_runs = 0
    for strict in (True, False):
        order = make_order("IntLess", strict=strict)
        for n in range(1, 7):
            for payloads in itertools.product(range(4), repeat=n):
                seq = Sequence.from_payloads(Tag.INT, payloads)
                want = brute_chain_length(seq, order)
                length, _ = longest_chain(seq, order)
                if not length == patience_chain_length(seq, order) == want:
                    crit.finish(False, f"disagreement at exhaustive n={n}, {payloads}")
                exhaustive_runs += 1

    sampled_runs = 0
    for strict in (True, False):
        order = make_order("IntLess", strict=strict)
        for n in range(7, 13):
            for _ in range(300):
                payloads = [rng.randrange(4) for _ in range(n)]
                seq = Sequence.from_payloads(Tag.INT, payloads)
                want = brute_chain_length(seq, order)
                length, _ = longest_chain(seq, order)
                if not length == patience_chain_length(seq, order) == want:
                    crit.finish(False, f"disagreement at sampled n={n}, {payloads}")
                sampled_runs += 1

    crit.finish(
        True,
        f"{random_runs} random sequences (n<=500), {exhaustive_runs} exhaustive (n<=6), "
        f"{sampled_runs} sampled (n 7..12), zero disagreements",
    )


def _all_words(max_len, max_entry):
    for length in range(max_len + 1):
        yield from itertools.product(range(max_entry + 1), repeat=length)


def test_criterion_03_encoder_bi_monotonicity():
    "both encoders preserve and reflect their orders on the full grid"
    crit = Criterion(3, "encoder bi-monotonicity", 60)
    words = list(_all_words(5, 4))
    reverse_lex = make_order("RL")

    # The rational encoder respects the word order on every pair exactly
    # when the word list sorted by the order maps to a strictly
    # increasing value list; strictness also gives injectivity.
    keyed = sorted(words, key=dict(zip(words, reverse_lex.sort_keys(words))).__getitem__)
    values = [word_to_dyadic(w) for w in keyed]
    rational_ok = all(a < b for a, b in zip(values, values[1:]))
    if not rational_ok:
        crit.finish(False, "rational encoder broke the order on the exhaustive grid")

    # The bit encoder preserves prefix pairs forward; reflection follows
    # from scanning prefixes of the encoded words against the image set.
    bits_of = {w: word_to_bits(w) for w in words}
    image_to_word = {}
    for w, enc in bits_of.items():
        if enc in image_to_word:
            crit.finish(False, f"bit encoder collision at {w}")
        image_to_word[enc] = w
    forward = 0
    for w in words:
        enc = bits_of[w]
        for k in range(len(w)):
            if enc[: len(bits_of[w[:k]])] != bits_of[w[:k]]:
                crit.finish(False, f"prefix pair lost at {w[:k]} vs {w}")
            forward += 1
    backward = 0
    for enc, w in image_to_word.items():
        for k in range(len(enc)):
            other = image_to_word.get(enc[:k])
            if other is not None:
                if w[: len(other)] != other:
                    crit.finish(False, f"image prefix pair without word prefix: {other} vs {w}")
                backward += 1

    rng = random.Random(3)
    subset = make_order("SubsetWordNat")
    subset_bits = make_order("SubsetWordBit")
    rat_less = make_order("RatLess")
    for _ in range(10_000):
        a = tuple(rng.randint(0, 9) for _ in range(rng.randint(0, 8)))
        b = tuple(rng.randint(0, 9) for _ in range(rng.randint(0, 8)))
        ea, eb = make_element(Tag.WORD_NAT, a), make_element(Tag.WORD_NAT, b)
        want_subset = subset.compare(ea, eb)
        got_subset = subset_bits.compare(
            make_element(Tag.WORD_BIT, word_to_bits(a)),
            make_element(Tag.WORD_BIT, word_to_bits(b)),
        )
        if got_subset is not want_subset:
            crit.finish(False, f"bit encoder verdict changed on {a} vs {b}")
        want_rl = reverse_lex.compare(ea, eb)
        got_rl = rat_less.compare(
            make_element(Tag.RATIONAL, word_to_dyadic(a)),
            make_element(Tag.RATIONAL, word_to_dyadic(b)),
        )
        if got_rl is not want_rl:
            crit.finish(False, f"rational encoder verdict changed on {a} vs {b}")

    crit.finish(
        True,
        f"{len(words)} grid words ({forward} prefix pairs forward, {backward} backward), "
        "10000 random pairs, zero violations",
    )


def test_criterion_04_reduction_sandwich():
    "image chain lengths bracket the in-horizon branch bound"
    crit = Criterion(4, "reduction sandwich", 300)
    gen = TreeGenSpec(seed=404, node_cap=500)
    horizon = 200
    totals = []
    for name in ("subset", "rl", "rational", "binary"):
        report = fuzz_reduction(make_pipeline(name), gen, 1000, horizon)
        if not report.ok:
            bad = report.violations[0]
            crit.finish(False, f"{name} violated at trial {bad.trial} (seed {bad.seed})")
        totals.append(f"{name}:1000")

    # A tree with a depth-8 branch: the witness sits at the enumeration
    # positions of the branch prefixes, far beyond what is worth
    # materialising, so the chain is verified pointwise.
    spine = [(0,) * k for k in range(9)]
    tree = validate_tree(spine)
    positions = [index_of(w) for w in spine]
    horizon9 = positions[-1] + 1
    subset = make_order("SubsetWordNat")
    chain = [image_at(tree, n) for n in positions]
    deep_ok = all(a < b for a, b in zip(positions, positions[1:])) and all(
        subset.related(a, b) for a, b in zip(chain, chain[1:])
    )
    if not deep_ok:
        crit.finish(False, "depth-8 branch witness broken")
    crit.finish(
        True,
        f"{' '.join(totals)} trials at horizon {horizon}, zero violations; "
        f"depth-8 branch gives a 9-chain at horizon {horizon9}",
    )


def test_criterion_05_reverse_lex_total_and_extends_prefix():
    "the word order is total and extends the prefix order"
    crit = Criterion(5, "reverse-lex total order", 5)
    words = list(_all_words(3, 3))
    elems = [make_element(Tag.WORD_NAT, w) for w in words]
    reverse_lex = make_order("RL")
    report = check_axioms(reverse_lex, elems)
    if not report.ok:
        crit.finish(False, report.describe())

    subset = make_order("SubsetWordNat")
    extension_pairs = 0
    for a in elems:
        for b in elems:
            if subset.related(a, b):
                if not reverse_lex.related(a, b):
                    crit.finish(False, f"prefix pair {a} vs {b} not kept")
                extension_pairs += 1

    w0 = make_element(Tag.WORD_NAT, (0,))
    w10 = make_element(Tag.WORD_NAT, (1, 0))
    w110 = make_element(Tag.WORD_NAT, (1, 1, 0))
    fillers_descend = reverse_lex.related(w10, w0) and reverse_lex.related(w110, w10)
    if not fillers_descend:
        crit.finish(False, "filler words do not descend")
    crit.finish(
        True,
        f"axioms clean on {len(words)} words, {extension_pairs} prefix pairs kept, "
        "fillers descend",
    )


def _stage_member(stage_los, stage, v):
    i = bisect.bisect_right(stage_los, v) - 1
    return i >= 0 and stage[i][0] <= v <= stage[i][1]


def test_criterion_06_interval_scheme_depth8():
    "depth-8 scheme over the middle-thirds oracle is exact"
    crit = Criterion(6, "interval scheme depth 8", 10)
    depth = 8
    scheme = build_scheme(MiddleThirds(), depth)

    fixtures_ok = (
        scheme.gaps[()] == (F(1, 3), F(2, 3))
        and scheme.gaps[(0,)] == (F(1, 9), F(2, 9))
        and scheme.gaps[(1,)] == (F(7, 9), F(8, 9))
    )
    if not fixtures_ok:
        crit.finish(False, "first-level gap fixtures moved")

    # The depth-8 intervals and all removed gaps tile [0, 1] exactly.
    pieces = sorted(
        [(lo, hi, "C") for w, (lo, hi) in scheme.closed.items() if len(w) == depth]
        + [(a, b, "U") for a, b in scheme.gaps.values()]
    )
    tiled = pieces[0][0] == 0 and pieces[-1][1] == 1
    for (_, end, _), (start, _, _) in zip(pieces, pieces[1:]):
        tiled = tiled and end == start
    if not tiled:
        crit.finish(False, "level-8 intervals plus gaps do not tile [0, 1]")

    oracle = MiddleThirds()
    endpoints = sorted({v for iv in scheme.closed.values() for v in iv})
    membership_checks = 0
    for k in range(scheme.resolution + 1):
        stage = oracle.stage(k)
        stage_los = [iv[0] for iv in stage]
        for v in endpoints:
            if not _stage_member(stage_los, stage, v):
                crit.finish(False, f"endpoint {v} escapes stage {k}")
            membership_checks += 1

    gaps = sorted(scheme.gaps.values())
    gaps_disjoint = all(b <= a2 for (_, b), (a2, _) in zip(gaps, gaps[1:]))
    stage = oracle.stage(scheme.resolution)
    stage_los = [iv[0] for iv in stage]
    for a, b in gaps:
        i = bisect.bisect_right(stage_los, a) - 1
        if i >= 0 and a < stage[i][1] and stage[i][0] < b:
            gaps_disjoint = False
    if not gaps_disjoint:
        crit.finish(False, "gaps overlap each other or the working stage")

    crit.finish(
        True,
        f"{len(scheme.closed)} intervals, {len(scheme.gaps)} gaps, tiling exact, "
        f"{membership_checks} endpoint-stage checks clean",
    )


def test_criterion_07_extractor_density():
    "sampled pairs in each extracted set get strictly-between witnesses"
    crit = Criterion(7, "extractor density", 60)
    rng = random.Random(71)

    endpoint_stream = middle_thirds_endpoint_stream()
    scheme8 = build_scheme(MiddleThirds(), 8)
    pruned_rungs = [
        prune_successor_endpoints(endpoint_stream, scheme8, n)
        for n in (500, 1000, 2000, 4000)
    ]
    midpoint_stream = gap_midpoint_stream()
    selector_rungs = [
        gap_selector(midpoint_stream, build_scheme(MiddleThirds(), d), n)
        for d, n in ((8, 500), (9, 1000), (10, 2000), (12, 4000))
    ]

    def sample_pairs(values, count):
        pairs = []
        for _ in range(count):
            a, b = sorted(rng.sample(values, 2))
            pairs.append((a, b))
        return pairs

    stats = []
    for label, rungs in (("pruned", pruned_rungs), ("selector", selector_rungs)):
        base = list(rungs[0])
        if len(base) < 2:
            crit.finish(False, f"{label} set too small at the first budget")
        worst = 0
        for a, b in sample_pairs(base, 1000):
            found = None
            for depth_index, rung in enumerate(rungs):
                found = between_witness(rung, a, b)
                if found is not None:
                    worst = max(worst, depth_index)
                    break
            if found is None:
                crit.finish(False, f"{label}: no witness between {a} and {b} in budget")
        stats.append(f"{label}: n0={len(base)}, 1000 pairs, deepest budget rung {worst}")

    crit.finish(True, "; ".join(stats))


def test_criterion_08_density_evidence_trends():
    "splitting depth separates dense grids from sparse fixtures"
    crit = Criterion(8, "density evidence trends", 30)
    stream = dyadic_stream()
    dyadic_trend = []
    for k in range(2, 11):
        values = stream.prefix(2**k - 1)
        depth = splitting_depth(values)
        if depth < k - 1:
            crit.finish(False, f"dyadic level {k} fell to depth {depth}")
        dyadic_trend.append(depth)

    int_trend = []
    for n in (4, 16, 64, 256, 1024):
        depth = splitting_depth([F(i) for i in range(1, n + 1)])
        want = (n - 1).bit_length() - 1
        if depth != want:
            crit.finish(False, f"integer fixture n={n} gave {depth}, closed form {want}")
        int_trend.append(depth)

    alpha_ok = True
    for size in (2, 3, 4, 8, 16):
        depth = splitting_depth([F(i, size) for i in range(size)])
        alpha_ok = alpha_ok and 2**depth <= size
    if not alpha_ok:
        crit.finish(False, "alphabet depth exceeded log2 of the alphabet size")

    crit.finish(
        True,
        f"dyadic depths {dyadic_trend} (>= k-1), integer depths {int_trend} "
        "(= floor(log2(n-1))), alphabet depths within log2",
    )


def test_criterion_09_up_decider_against_unrolling():
    "the cycle-graph verdict matches growth between unrollings"
    crit = Criterion(9, "eventually-periodic decider", 60)
    oracles = [
        make_order("Divides", strict=True),
        make_order("Divides", strict=False),
        make_order("IntLess", strict=True),
    ]
    checked = 0
    for length in (1, 2, 3):
        for cycle in itertools.product(range(1, 7), repeat=length):
            text = "| " + " ".join(map(str, cycle))
            for order in oracles:
                up = parse_up_sequence(text, order.domain)
                short, _ = longest_chain(up.unroll(10), order)
                long, _ = longest_chain(up.unroll(100), order)
                verdict = decide_membership_up(up, order)
                if verdict != (long > short):
                    crit.finish(
                        False,
                        f"cycle {cycle} under {order!r}: verdict {verdict}, "
                        f"lengths {short} -> {long}",
                    )
                checked += 1
    crit.finish(True, f"{checked} cycle/oracle combinations agree")


def _nondecreasing_push(tails, v):
    pos = bisect.bisect_right(tails, v)
    if pos == len(tails):
        return tails + (v,)
    return tails[:pos] + (v,) + tails[pos + 1 :]


def _decreasing_push(tails, v):
    # strictly decreasing chains are strictly increasing on negated values
    pos = bisect.bisect_left(tails, -v)
    if pos == len(tails):
        return tails + (-v,)
    return tails[:pos] + (-v,) + tails[pos + 1 :]


def test_criterion_10_pigeonhole_and_threshold_suites():
    "pigeonhole counts and the 3x3+1 threshold hold exhaustively"
    crit = Criterion(10, "pigeonhole and threshold suites", 60)

    # Pigeonhole: length (k-1)*|alphabet| + 1 forces a value k times.
    pigeonhole_runs = 0
    grids = [(1, 4), (2, 4), (3, 4), (4, 2)]
    for alphabet, k_max in grids:
        for k in range(1, k_max + 1):
            length = (k - 1) * alphabet + 1
            for payloads in itertools.product(range(alphabet), repeat=length):
                seq = Sequence.from_payloads(Tag.INT, payloads)
                _, count = constant_subsequence(seq)
                if count < k:
                    crit.finish(False, f"pigeonhole broke at alphabet {alphabet}, k {k}")
                pigeonhole_runs += 1

    # Threshold sweep: every length-10 sequence over {0..3} has a
    # non-decreasing chain of 4 or a strictly decreasing chain of 4.
    # Reachability over patience tails covers all 4^10 sequences.
    states = {((), ())}
    satisfied_early = 0
    for step in range(10):
        nxt = set()
        for up_tails, down_tails in states:
            for v in range(4):
                new_up = _nondecreasing_push(up_tails, v)
                new_down = _decreasing_push(down_tails, v)
                if len(new_up) >= 4 or len(new_down) >= 4:
                    satisfied_early += 1
                    continue
                nxt.add((new_up, new_down))
        states = nxt
    if states:
        crit.finish(False, f"{len(states)} length-10 states dodge both chains")

    # The bound is tight: one step earlier a witness survives.
    witness = [2, 1, 0, 2, 1, 0, 2, 1, 0]
    seq = Sequence.from_payloads(Tag.INT, witness)
    up_len, _ = longest_chain(seq, make_order("IntLess", strict=False))
    down = Sequence.from_payloads(Tag.INT, [-v for v in witness])
    down_len, _ = longest_chain(down, make_order("IntLess", strict=True))
    if up_len >= 4 or down_len >= 4:
        crit.finish(False, "tightness witness unexpectedly contains a 4-chain")

    # Cross-check the reachability tails against the chain library on
    # random sequences before trusting the sweep.
    rng = random.Random(10)
    for _ in range(300):
        payloads = [rng.randrange(4) for _ in range(10)]
        up_tails, down_tails = (), ()
        for v in payloads:
            up_tails = _nondecreasing_push(up_tails, v)
            down_tails = _decreasing_push(down_tails, v)
        seq = Sequence.from_payloads(Tag.INT, payloads)
        want_up, _ = longest_chain(seq, make_order("IntLess", strict=False))
        neg = Sequence.from_payloads(Tag.INT, [-v for v in payloads])
        want_down, _ = longest_chain(neg, make_order("IntLess", strict=True))
        if len(up_tails) != want_up or len(down_tails) != want_down:
            crit.finish(False, f"tails automaton disagrees on {payloads}")

    # Direct exhaustive confirmation of the smaller 2x2+1 threshold.
    directs = 0
    for payloads in itertools.product(range(4), repeat=5):
        seq = Sequence.from_payloads(Tag.INT, payloads)
        up_len, _ = longest_chain(seq, make_order("IntLess", strict=False))
        neg = Sequence.from_payloads(Tag.INT, [-v for v in payloads])
        down_len, _ = longest_chain(neg, make_order("IntLess", strict=True))
        if up_len < 3 and down_len < 3:
            crit.finish(False, f"length-5 threshold broke at {payloads}")
        directs += 1

    crit.finish(
        True,
        f"{pigeonhole_runs} pigeonhole sequences, full 4^10 threshold sweep "
        f"(automaton validated on 300 runs), {directs} direct length-5 checks",
    )
