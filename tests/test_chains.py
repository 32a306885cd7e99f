"""Chain detection: the DP, its fast paths, patience sorting, UP decider."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import brute_longest_chain, colliding_rationals, index_free
from orderchains.chains import (
    Sequence,
    constant_subsequence,
    cycle_witness,
    decide_membership_up,
    longest_chain,
    parse_sequence,
    parse_up_sequence,
    patience_chain_length,
    verify_witness,
)
from orderchains.errors import (
    DomainMismatchError,
    EmptySequenceError,
    LinearityError,
    ParseError,
    WitnessIndexError,
)
from orderchains.dense import CountableSetStream, dense_embed
from orderchains.orders import DividesOrder, Element, Order, PrefixOrder, Tag, make_element, make_order
from orderchains.reductions import TreeGenSpec, generate_tree, make_pipeline, reduce_tree

int_less = make_order("IntLess")
divides = make_order("Divides")

# The oracle as given, which picks its own index, and the same relation
# with no index, which gets the generic scan.
AUTO_AND_GENERIC = pytest.mark.parametrize("oracle", [lambda order: order, index_free], ids=["auto", "generic"])


def int_seq(payloads):
    return Sequence.from_payloads(Tag.INT, payloads)


def test_classic_example():
    "textbook increasing subsequence"
    seq = int_seq([3, 1, 4, 1, 5, 9, 2, 6])
    length, witness = longest_chain(seq, int_less)
    assert length == 4
    assert witness.indices == (0, 2, 4, 5)
    assert [e.value for e in witness.values] == [3, 4, 5, 9]


def test_single_element():
    length, witness = longest_chain(int_seq([42]), int_less)
    assert length == 1
    assert witness.indices == (0,)


def test_decreasing_sequence():
    "strictly decreasing input has only singleton chains"
    length, witness = longest_chain(int_seq([5, 4, 3, 2, 1]), int_less)
    assert length == 1
    assert witness.indices == (0,)


def test_empty_sequence_raises():
    with pytest.raises(EmptySequenceError):
        longest_chain(int_seq([]), int_less)
    with pytest.raises(EmptySequenceError):
        patience_chain_length(int_seq([]), int_less)


def test_non_strict_counts_repeats():
    "equal neighbours extend a chain only in the reflexive reading"
    seq = int_seq([2, 2, 2])
    strict_len, _ = longest_chain(seq, int_less)
    loose_len, _ = longest_chain(seq, make_order("IntLess", strict=False))
    assert strict_len == 1
    assert loose_len == 3


def test_partial_order_chain():
    "divisibility chains only need consecutive relatedness"
    seq = Sequence.from_payloads(Tag.NAT, [6, 2, 3, 4, 8, 9, 16])
    length, witness = longest_chain(seq, divides)
    assert length == 4
    assert witness.indices == (1, 3, 4, 6)
    assert verify_witness(witness.indices, seq, divides)


def test_witness_is_lex_least():
    "ties are broken toward the earliest index vector"
    seq = int_seq([1, 1, 2, 2])
    _, witness = longest_chain(seq, int_less)
    assert witness.indices == (0, 2)


@pytest.mark.parametrize("reference", [index_free], ids=["generic"])
def test_methods_agree_on_linear_orders(reference):
    "the ranked index gives the reference scan's length and witness"
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 60)
        seq = int_seq([rng.randint(0, 9) for _ in range(n)])
        want_len, want_idx = longest_chain(seq, int_less)
        got_len, got_wit = longest_chain(seq, reference(int_less))
        assert got_len == want_len
        assert got_wit.indices == want_idx.indices


class LinklessDivides(Order):
    "Divisibility as an oracle outside the package would state it: no lower links"

    name = "LinklessDivides"
    domain = Tag.NAT
    _below = DividesOrder._below


def test_order_without_lower_links_matches_brute_force():
    "an oracle with neither a sort key nor lower links gets the generic scan"
    rng = random.Random(11)
    for strict in (True, False):
        order = LinklessDivides(strict)
        for _ in range(30):
            seq = Sequence.from_payloads(Tag.NAT, [rng.randint(1, 12) for _ in range(rng.randint(1, 9))])
            length, witness = longest_chain(seq, order)
            assert (length, witness.indices) == brute_longest_chain(seq, order)


@AUTO_AND_GENERIC
def test_longest_chain_checks_domain(oracle):
    "a sequence from another domain is refused, a single term included"
    rationals = Sequence.from_payloads(Tag.RATIONAL, [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)])
    with pytest.raises(DomainMismatchError):
        longest_chain(rationals, oracle(int_less))
    with pytest.raises(DomainMismatchError):
        longest_chain(Sequence.from_payloads(Tag.NAT, [4]), oracle(int_less))
    with pytest.raises(DomainMismatchError):
        longest_chain(int_seq([2, 4]), oracle(divides))


class StrayLinearFlag(Order):
    "an oracle outside the package with a total comparison and a stray is_linear flag, which nothing reads"

    name = "StrayLinearFlag"
    domain = Tag.INT
    is_linear = True

    def _compare(self, x, y):
        return int_less._compare(x, y)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
def test_a_linearity_flag_picks_no_index(strict):
    "an Order subclass is linear only as a LinearOrder: the flag gets the generic scan and a LinearityError"
    order = StrayLinearFlag(strict)
    rng = random.Random(13)
    for _ in range(30):
        seq = int_seq([rng.randint(0, 5) for _ in range(rng.randint(1, 9))])
        length, witness = longest_chain(seq, order)
        assert (length, witness.indices) == brute_longest_chain(seq, order)
        assert verify_witness(witness.indices, seq, order)
        assert verify_witness(range(len(seq)), seq, order) == (length == len(seq))
    with pytest.raises(LinearityError):
        patience_chain_length(int_seq([1, 2]), order)
    with pytest.raises(LinearityError):
        dense_embed([make_element(Tag.INT, 1)], order, CountableSetStream([Fraction(1, 2)]))


@given(st.lists(st.integers(0, 8), min_size=1, max_size=9))
@settings(max_examples=200)
def test_dp_matches_brute_force(payloads):
    "length and lex-least witness match exhaustive search"
    seq = int_seq(payloads)
    length, witness = longest_chain(seq, int_less)
    want_len, want_idx = brute_longest_chain(seq, int_less)
    assert length == want_len
    assert witness.indices == want_idx


@given(st.lists(st.integers(1, 10), min_size=1, max_size=9))
@settings(max_examples=200)
def test_dp_matches_brute_force_divides(payloads):
    "same exhaustive agreement over the divisibility order"
    seq = Sequence.from_payloads(Tag.NAT, payloads)
    length, witness = longest_chain(seq, divides)
    want_len, want_idx = brute_longest_chain(seq, divides)
    assert length == want_len
    assert witness.indices == want_idx


nat_words = st.lists(st.integers(0, 2), max_size=2).map(tuple)
bit_words = st.lists(st.integers(0, 1), max_size=2).map(tuple)

# Every shipped oracle, Delta on two domains, each with payloads from a
# range small enough that short sequences hold both repeats and several
# distinct values.
ORACLE_CASES = {
    "Divides": (None, st.integers(1, 8)),
    "Delta-int": (Tag.INT, st.integers(-2, 2)),
    "Delta-bits": (Tag.WORD_BIT, bit_words),
    "IntLess": (None, st.integers(-3, 3)),
    "RatLess": (None, st.fractions(min_value=0, max_value=1, max_denominator=3)),
    "SubsetWordNat": (None, nat_words),
    "SubsetWordBit": (None, bit_words),
    "RL": (None, nat_words),
    "LexBit": (None, bit_words),
}


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
@given(data=st.data())
@settings(max_examples=60)
def test_every_method_matches_brute_force(case, strict, data):
    "the chosen index and the generic scan give the exhaustive length and witness"
    tag, values = ORACLE_CASES[case]
    order = make_order(case.split("-")[0], strict=strict, tag=tag)
    payloads = data.draw(st.lists(values, min_size=1, max_size=9))
    seq = Sequence.from_payloads(order.domain, payloads)
    want = brute_longest_chain(seq, order)
    for oracle in (index_free(order), order):
        length, witness = longest_chain(seq, oracle)
        assert (length, witness.indices) == want, type(oracle)


# Partial oracles that carry lower links, with payloads that give both
# repeats and related pairs in sequences of up to 60 terms.  Divides
# finds the values each x divides by walking its multiples up to the
# largest value or by dividing every value by x, whichever is fewer
# steps, unless trial division up to each root is fewer in all.  Small
# values mostly walk, but 1 divides every value in fewer steps; huge
# ones walk no step; enough small values beside a few near 60^2 take
# trial division.
LINKED_CASES = {
    "SubsetWordNat": (None, st.lists(st.integers(0, 2), max_size=4).map(tuple)),
    "SubsetWordBit": (None, st.lists(st.integers(0, 1), max_size=5).map(tuple)),
    "Delta-int": (Tag.INT, st.integers(-3, 3)),
    "Delta-bits": (Tag.WORD_BIT, st.lists(st.integers(0, 1), max_size=3).map(tuple)),
    "Divides-small": (None, st.integers(1, 60)),
    "Divides-huge": (None, st.integers(10**12, 10**12 + 10**6)),
    "Divides-mixed": (None, st.integers(1, 63).map(lambda k: k if k <= 60 else k + 3538)),
}


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
@pytest.mark.parametrize("case", sorted(LINKED_CASES))
@given(data=st.data())
@settings(max_examples=60)
def test_linked_index_matches_generic(case, strict, data):
    "the lower-link index gives the generic scan's length and witness"
    tag, values = LINKED_CASES[case]
    order = make_order(case.split("-")[0], strict=strict, tag=tag)
    payloads = data.draw(st.lists(values, min_size=1, max_size=60))
    seq = Sequence.from_payloads(order.domain, payloads)
    length, witness = longest_chain(seq, order)
    want_len, want_wit = longest_chain(seq, index_free(order))
    assert (length, witness.indices) == (want_len, want_wit.indices)


def test_linked_index_deep_prefix_chain():
    "a chain of 2 000 nested words is found whole"
    seq = Sequence.from_payloads(Tag.WORD_NAT, [(0,) * k for k in range(2000)])
    length, witness = longest_chain(seq, make_order("SubsetWordNat"))
    assert length == 2000
    assert witness.indices == tuple(range(2000))


def test_base_order_has_no_lower_links():
    "an oracle outside the package falls back to the generic scan"
    assert Order().lower_links([1, 2, 3]) is None


# Entries up to 255, which key a word as bytes, beside entries past it,
# which key the whole sequence as tuples.
mixed_words = st.lists(st.sampled_from([0, 1, 255, 256, 300]), max_size=3).map(tuple)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
@given(payloads=st.lists(mixed_words, min_size=1, max_size=9))
@settings(max_examples=60)
def test_linked_index_over_keys_matches_brute_force(strict, payloads):
    "bytes or tuple link keys give the exhaustive and the generic length and witness"
    order = make_order("SubsetWordNat", strict=strict)
    seq = Sequence.from_payloads(Tag.WORD_NAT, payloads)
    want = brute_longest_chain(seq, order)
    for oracle in (index_free(order), order):
        length, witness = longest_chain(seq, oracle)
        assert (length, witness.indices) == want, type(oracle)


@pytest.mark.parametrize("name", ["subset", "binary"])
def test_linked_index_on_reduction_images(name):
    "on 12 seeded reductions the linked index gives the generic length and witness, and at horizon 12 the exhaustive ones"
    pipeline = make_pipeline(name)
    for seed in range(12):
        tree = generate_tree(TreeGenSpec(seed=seed))
        for horizon in (12, 200):
            image = pipeline.apply(reduce_tree(tree, horizon))
            length, witness = longest_chain(image, pipeline.order)
            want_len, want_wit = longest_chain(image, index_free(pipeline.order))
            assert (length, witness.indices) == (want_len, want_wit.indices)
        small = pipeline.apply(reduce_tree(tree, 12))
        length, witness = longest_chain(small, pipeline.order)
        assert (length, witness.indices) == brute_longest_chain(small, pipeline.order)


def test_linked_index_keys_each_payload_once(monkeypatch):
    "one link_keys call per search, and lower_links gets bytes when every entry is at most 255"
    calls, handed = [], []
    link_keys, lower_links = PrefixOrder.link_keys, PrefixOrder.lower_links
    monkeypatch.setattr(PrefixOrder, "link_keys", lambda self, p: calls.append(p) or link_keys(self, p))
    monkeypatch.setattr(PrefixOrder, "lower_links", lambda self, keys: handed.append(keys) or lower_links(self, keys))
    binary = make_pipeline("binary")
    cases = [
        (binary.order, binary.apply(reduce_tree(generate_tree(TreeGenSpec(seed=0)), 200)), bytes),
        (make_order("SubsetWordNat"), Sequence.from_payloads(Tag.WORD_NAT, [(0,), (0, 255), (1,)]), bytes),
        (make_order("SubsetWordNat"), Sequence.from_payloads(Tag.WORD_NAT, [(0,), (0, 256), (1,)]), tuple),
    ]
    for order, seq, key_type in cases:
        calls.clear()
        handed.clear()
        longest_chain(seq, order)
        assert len(calls) == len(handed) == 1
        assert {type(key) for key in handed[0]} == {key_type}


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
@given(payloads=st.lists(colliding_rationals, min_size=1, max_size=9))
@settings(max_examples=100)
def test_ratless_float_ties_match_brute_force(strict, payloads):
    "rationals that tie as floats keep their exact order in the chain search"
    order = make_order("RatLess", strict=strict)
    seq = Sequence.from_payloads(Tag.RATIONAL, payloads)
    length, witness = longest_chain(seq, order)
    assert (length, witness.indices) == brute_longest_chain(seq, order)
    assert patience_chain_length(seq, order) == length


# Linear oracles with payloads that give both repeats (equal keys) and
# long chains in sequences of up to 60 terms, over every kind of sort
# key: ints (IntLess, dyadic RatLess), ``rational_key`` pairs, bytes
# (RL up to 255), tuples (LexBit, RL past 255).
RANKED_CASES = {
    "IntLess-few": st.integers(-3, 3),
    "IntLess-huge": st.integers(-(10**20), 10**20),
    "RatLess": st.fractions(min_value=-1, max_value=1, max_denominator=8),
    "RatLess-dyadic": st.builds(lambda num, k: Fraction(num, 2**k), st.integers(-8, 8), st.integers(0, 3)),
    "RatLess-float-ties": colliding_rationals,
    "RL": st.lists(st.integers(0, 3), max_size=4).map(tuple),
    "RL-wide": st.lists(st.sampled_from([0, 1, 255, 256, 300]), max_size=3).map(tuple),
    "LexBit": st.lists(st.integers(0, 1), max_size=5).map(tuple),
}


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
@pytest.mark.parametrize("case", sorted(RANKED_CASES))
@given(data=st.data())
@settings(max_examples=60)
def test_ranked_index_matches_generic(case, strict, data):
    "the ranked patience pass gives the generic scan's length and witness"
    order = make_order(case.split("-")[0], strict=strict)
    payloads = data.draw(st.lists(RANKED_CASES[case], min_size=1, max_size=60))
    seq = Sequence.from_payloads(order.domain, payloads)
    length, witness = longest_chain(seq, order)
    want_len, want_wit = longest_chain(seq, index_free(order))
    assert (length, witness.indices) == (want_len, want_wit.indices)


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=16), min_size=1, max_size=60))
def test_patience_matches_dp(payloads):
    "patience sorting equals the DP on a linear order"
    seq = Sequence.from_payloads(Tag.RATIONAL, payloads)
    order = make_order("RatLess")
    length, _ = longest_chain(seq, order)
    assert patience_chain_length(seq, order) == length


@given(st.lists(st.integers(0, 6), min_size=1, max_size=40))
def test_patience_matches_dp_non_strict(payloads):
    "same agreement in the reflexive reading"
    seq = int_seq(payloads)
    order = make_order("IntLess", strict=False)
    length, _ = longest_chain(seq, order)
    assert patience_chain_length(seq, order) == length


def test_patience_needs_linear_order():
    with pytest.raises(LinearityError):
        patience_chain_length(Sequence.from_payloads(Tag.NAT, [1, 2]), divides)


def test_patience_checks_domain():
    "a rational sequence is refused by the integer oracle"
    rationals = Sequence.from_payloads(Tag.RATIONAL, [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)])
    with pytest.raises(DomainMismatchError):
        patience_chain_length(rationals, int_less)


def test_verify_witness_rejects_bad_indices():
    seq = int_seq([1, 2, 3])
    with pytest.raises(WitnessIndexError):
        verify_witness([0, 3], seq, int_less)
    assert not verify_witness([1, 0], seq, int_less)
    assert not verify_witness([0, 0], seq, int_less)
    assert verify_witness([], seq, int_less)
    assert verify_witness([0, 1, 2], seq, int_less)


def test_verify_witness_rejects_broken_link():
    seq = int_seq([1, 5, 2])
    assert not verify_witness([1, 2], seq, int_less)


def test_verify_witness_checks_the_domain_at_the_first_link():
    "the tag check sits where the first link is compared, after the index checks"
    nats = Sequence.from_payloads(Tag.NAT, [1, 2, 3])
    assert verify_witness([0], nats, int_less)
    assert verify_witness([], nats, int_less)
    assert not verify_witness([1, 0], nats, int_less)
    with pytest.raises(DomainMismatchError) as info:
        verify_witness([0, 1], nats, int_less)
    assert str(info.value) == "IntLess compares int elements, got nat"


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize(
    "name, tag, payload",
    [
        ("RatLess", Tag.WORD_NAT, (1,)),
        ("RatLess", Tag.NAT, 10**9),
        ("RL", Tag.RATIONAL, Fraction(1, 2)),
        ("RL", Tag.NAT, 10**9),
        ("Divides", Tag.RATIONAL, Fraction(1, 2)),
    ],
)
def test_verify_witness_reads_no_payload_of_another_tag(name, tag, payload, strict):
    "one position on a sequence of another tag is a chain; two reach the tag check before any key is built"
    order = make_order(name, strict)
    seq = Sequence.from_payloads(tag, [payload, payload])
    assert verify_witness([0], seq, order)
    assert verify_witness([1], seq, order)
    with pytest.raises(DomainMismatchError) as info:
        verify_witness([0, 1], seq, order)
    assert str(info.value).startswith(f"{name} compares ")
    assert str(info.value).endswith(f" elements, got {tag.value}")


def _count_elements(monkeypatch):
    "a counter of Element.__post_init__ calls"
    built = [0]
    post_init = Element.__post_init__

    def counting(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(Element, "__post_init__", counting)
    return built


@pytest.mark.parametrize(
    "order, payloads",
    [
        (int_less, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]),
        (divides, [6, 2, 3, 12, 4, 24, 5, 48, 7]),
        (index_free(divides), [6, 2, 3, 12, 4, 24, 5, 48, 7]),
    ],
    ids=["ranked", "linked", "generic"],
)
def test_longest_chain_builds_one_element_per_witness_term(monkeypatch, order, payloads):
    "each index builds the witness Elements alone"
    seq = Sequence.from_payloads(order.domain, payloads)
    built = _count_elements(monkeypatch)
    length, witness = longest_chain(seq, order)
    assert length >= 3
    assert built[0] == length == len(witness.values)


def test_reduction_images_build_one_element_per_witness_term(monkeypatch):
    "on default fuzz trees the prefix-order rebuild builds no Element beyond the witness"
    images = [reduce_tree(generate_tree(TreeGenSpec(seed=seed)), 200) for seed in range(200)]
    built = _count_elements(monkeypatch)
    for name in ("subset", "binary"):
        pipeline = make_pipeline(name)
        for image in images:
            built[0] = 0
            length, _ = longest_chain(pipeline.apply(image), pipeline.order)
            assert built[0] == length


class _LooseDivides(DividesOrder):
    "a payload relation that relates every pair, unlike compare"

    def _related(self, x, y):
        return True


@AUTO_AND_GENERIC
def test_witness_link_the_oracle_refuses_is_a_bug(oracle):
    "the linked and generic rebuilds confirm every witness link through related"
    seq = Sequence.from_payloads(Tag.NAT, [2, 3, 4])
    with pytest.raises(AssertionError, match="Divides"):
        longest_chain(seq, oracle(_LooseDivides()))


def test_constant_subsequence_earliest_tie():
    "ties go to the value seen first"
    seq = int_seq([7, 3, 3, 7])
    value, count = constant_subsequence(seq)
    assert value.value == 7
    assert count == 2


@given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
def test_constant_subsequence_counts(payloads):
    "the reported count is the true multiplicity and is maximal"
    value, count = constant_subsequence(int_seq(payloads))
    assert payloads.count(value.value) == count
    assert all(payloads.count(v) <= count for v in payloads)


def test_parse_sequence_round_trip():
    seq = parse_sequence("3 1 4 1 5", Tag.INT)
    assert seq.payloads() == (3, 1, 4, 1, 5)


def test_sequence_rejects_mixed_tags():
    "a payload of another domain, or an Element of any tag, is not a payload of the sequence's tag"
    with pytest.raises(DomainMismatchError, match="nat elements are integers >= 1, got -1"):
        Sequence(Tag.NAT, [1, -1])
    with pytest.raises(DomainMismatchError, match="bit-word elements are tuples over"):
        Sequence(Tag.WORD_BIT, [(0, 1), (2,)])
    for tag in (Tag.INT, Tag.NAT):
        with pytest.raises(DomainMismatchError, match=r"int elements are integers, got Element\("):
            Sequence(Tag.INT, (make_element(Tag.INT, 1), make_element(tag, 1)))


tags_and_payloads = st.tuples(
    st.sampled_from([Tag.NAT, Tag.INT]), st.lists(st.integers(1, 3), max_size=4).map(tuple)
)


@given(tags_and_payloads, tags_and_payloads)
def test_sequence_equality_is_tag_and_payloads(a, b):
    "sequences are equal, with equal hashes, exactly when tags and payloads are"
    sa, sb = Sequence.from_payloads(*a), Sequence.from_payloads(*b)
    assert (sa == sb) == (a[0] is b[0] and a[1] == b[1])
    if sa == sb:
        assert hash(sa) == hash(sb)
    built = Sequence(*a)
    assert built == sa and hash(built) == hash(sa)


def test_sequence_is_never_equal_to_another_type():
    "a Sequence leaves == with another type to it, so it equals neither its payloads nor its elements"
    seq = Sequence.from_payloads(Tag.INT, [1])
    assert seq.__eq__((1,)) is NotImplemented
    assert not seq == (1,) and seq != (1,)
    assert seq != (Element(Tag.INT, 1),)


@pytest.mark.parametrize(
    "tag,payloads",
    [
        (Tag.NAT, [3, 1, 3]),
        (Tag.INT, [-2, 0, 10**20]),
        (Tag.RATIONAL, [Fraction(1, 2), 3, "-1/4"]),
        (Tag.WORD_NAT, [(), [2, 0], (1,)]),
        (Tag.WORD_BIT, [(0, 1), (), [1, 0]]),
    ],
)
def test_sequence_items_are_the_elements(tag, payloads):
    "the terms are the payloads of the Elements make_element builds, by either constructor; no Element view is kept"
    seq = Sequence(tag, payloads)
    assert seq == Sequence.from_payloads(tag, payloads)
    assert seq.payloads() == tuple(make_element(tag, p).value for p in payloads)
    assert len(seq) == len(payloads)
    with pytest.raises(TypeError):
        iter(seq)
    with pytest.raises(TypeError):
        seq[1]
    assert not hasattr(seq, "items")


@pytest.mark.parametrize(
    "tag,bad",
    [
        (Tag.INT, True),
        (Tag.NAT, False),
        (Tag.NAT, 0),
        (Tag.NAT, -4),
        (Tag.WORD_NAT, 5),
        (Tag.WORD_NAT, "ab"),
        (Tag.WORD_NAT, (1, -1)),
        (Tag.WORD_NAT, (0, True)),
        (Tag.WORD_BIT, (0, 2)),
        (Tag.RATIONAL, "x"),
    ],
)
def test_from_payloads_rejects_like_make_element(tag, bad):
    "the first bad payload raises make_element's error type and message, by either constructor"
    good = make_element(tag, {Tag.RATIONAL: 1, Tag.WORD_NAT: (), Tag.WORD_BIT: ()}.get(tag, 1)).value
    with pytest.raises(Exception) as want:
        make_element(tag, bad)
    for build in (Sequence, Sequence.from_payloads):
        with pytest.raises(type(want.value)) as got:
            build(tag, [good, bad, good])
        assert str(got.value) == str(want.value)


def test_parse_up_sequence():
    up = parse_up_sequence("2 | 2 4 8", Tag.NAT)
    assert up.prefix.payloads() == (2,)
    assert up.cycle.payloads() == (2, 4, 8)
    assert up.unroll(2).payloads() == (2, 2, 4, 8, 2, 4, 8)


def test_parse_up_sequence_empty_prefix():
    up = parse_up_sequence(" | 3", Tag.NAT)
    assert up.prefix.payloads() == ()


def test_parse_up_sequence_needs_bar():
    with pytest.raises(ParseError):
        parse_up_sequence("1 2 3", Tag.NAT)


def test_parse_up_sequence_needs_cycle():
    with pytest.raises(EmptySequenceError):
        parse_up_sequence("1 |", Tag.NAT)


def test_up_strict_divides_never_contains_infinite_chain():
    "a strict order on finitely many values caps every chain"
    up = parse_up_sequence("2 | 2 4 8", Tag.NAT)
    assert not decide_membership_up(up, divides)
    assert cycle_witness(up, divides) is None


def test_up_non_strict_self_loop():
    "any repeated value is an infinite chain in the reflexive reading"
    up = parse_up_sequence("| 3 5", Tag.NAT)
    loose = make_order("Divides", strict=False)
    assert decide_membership_up(up, loose)
    witness = cycle_witness(up, loose)
    assert len(witness) == 1


def test_up_delta_needs_equal_values():
    "under the identity oracle only repeats chain up"
    delta = make_order("Delta", strict=False, tag=Tag.INT)
    assert decide_membership_up(parse_up_sequence("| 1 2", Tag.INT), delta)
    strict_delta = make_order("Delta", strict=True, tag=Tag.INT)
    assert not decide_membership_up(parse_up_sequence("| 1 2", Tag.INT), strict_delta)


def test_up_cycle_witness_is_closed():
    "the witness list really is a directed cycle"
    up = parse_up_sequence("| 2 4 2 8", Tag.NAT)
    loose = make_order("Divides", strict=False)
    witness = cycle_witness(up, loose)
    assert witness is not None
    ring = witness + [witness[0]]
    assert all(loose.related(a, b) for a, b in zip(ring, ring[1:]))


def test_up_verdict_matches_unrolling_growth():
    "membership shows up as unbounded chain growth in unrollings"
    rng = random.Random(3)
    orders = [divides, make_order("Divides", strict=False), int_less]
    for _ in range(60):
        cycle = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        up = parse_up_sequence("| " + " ".join(map(str, cycle)), Tag.NAT)
        for order in orders:
            if order.domain is not Tag.NAT:
                up_o = parse_up_sequence("| " + " ".join(map(str, cycle)), order.domain)
            else:
                up_o = up
            short, _ = longest_chain(up_o.unroll(10), order)
            long, _ = longest_chain(up_o.unroll(20), order)
            grows = long > short
            assert decide_membership_up(up_o, order) == grows
