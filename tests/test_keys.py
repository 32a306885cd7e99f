"""The fast key paths against the paths they skip: bit-words built
through bytes, doubled bits read from a table, encoders that walk runs
of equal entries, exact int keys for dyadic rationals, bytes keys for
reverse-lex words, bytes prefix links, Divides links found by walking
multiples, fillers sliced from the longest one and witness links
verified on sort keys.

Each ``check_*`` function reaches the code through its module or class,
so ``tests/test_mutants.py`` can run the same checks on a patched copy.
"""

from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from helpers import (
    brute_nearest_prefixes,
    colliding_rationals,
    dense_ranks,
    ref_double_bits,
    ref_word_to_bits,
    ref_word_to_dyadic,
)
from orderchains import chains, encodings, orders, trees
from orderchains.chains import Sequence
from orderchains.errors import ArgumentError, DomainMismatchError
from orderchains.orders import make_order, rational_key
from orderchains.trees import MAX_HORIZON, filler

dyadics = st.builds(
    lambda num, k: Fraction(num, 2**k),
    st.integers(-(2**70), 2**70),
    st.integers(0, 80),
)
small_words = st.lists(st.integers(0, 4), max_size=5).map(tuple)
wide_words = st.lists(st.integers(0, 255), max_size=4).map(tuple)

# Words drawn as runs of equal entries: small entries (fillers are made
# of 0 and 1), entries around 255, where a doubled-bit code outgrows one
# byte, and entries wider than a run is long, which word_to_dyadic
# shifts one copy at a time.
run_entries = st.one_of(st.integers(0, 3), st.integers(250, 300))
run_words = st.one_of(
    st.lists(st.tuples(run_entries, st.integers(1, 40)), max_size=8).map(
        lambda runs: tuple(chain.from_iterable((e,) * k for e, k in runs))
    ),
    st.integers(0, MAX_HORIZON - 1).map(filler),
    st.builds(lambda a, b, k: (a, b) * k, run_entries, run_entries, st.integers(0, 30)),
    st.lists(run_entries, max_size=40).map(tuple),
)


def check_word_to_bits(word):
    assert encodings.word_to_bits(word) == ref_word_to_bits(word)


def check_word_to_dyadic(word):
    assert encodings.word_to_dyadic(word) == ref_word_to_dyadic(word)


def check_ratless_keys(values):
    """Int or ``rational_key`` keys rank the values exactly as the
    ``Fraction``s do; returns the keys."""
    keys = orders.RatLessOrder().sort_keys(values)
    assert dense_ranks(keys) == dense_ranks(values) == dense_ranks(list(map(rational_key, values)))
    return keys


def check_rl_keys(words):
    """RL sort keys rank the words exactly as ``_key`` does; returns them."""
    order = orders.ReverseLexOrder()
    keys = order.sort_keys(words)
    assert dense_ranks(keys) == dense_ranks(list(map(order._key, words)))
    return keys


def check_prefix_links(words):
    """Links over the words' ``link_keys`` equal the tuple sweep's (run on
    the words with every entry raised past 255, which keeps their prefix
    structure and keys them as tuples) and the brute-force nearest
    prefixes, as link sets."""
    order = orders.PrefixOrder()
    links = order.lower_links(order.link_keys(words))
    swept = order.lower_links(order.link_keys([tuple(e + 256 for e in w) for w in words]))
    assert list(map(set, links)) == list(map(set, swept)) == list(map(set, brute_nearest_prefixes(words)))


def check_filler(n):
    assert trees.filler(n) == (1,) * n + (0,)


def check_verify_witness(name, strict, payloads, indices):
    """``verify_witness`` gives the per-link verdict: each link's
    positions increase and ``_related`` relates their payloads."""
    order = make_order(name, strict)
    links = list(zip(indices, indices[1:]))
    want = all(a < b and order._related(payloads[a], payloads[b]) for a, b in links)
    assert chains.verify_witness(indices, Sequence.from_payloads(order.domain, payloads), order) == want


def check_divides_links(values):
    """Divides links list exactly the proper divisors among the values,
    as sets."""
    links = orders.DividesOrder().lower_links(values)
    divisors = [{j for j, y in enumerate(values) if j != k and x % y == 0} for k, x in enumerate(values)]
    assert list(map(set, links)) == divisors


@given(st.lists(st.integers(0, 300), max_size=12).map(tuple))
def test_word_to_bits_matches_the_tuple_build(word):
    check_word_to_bits(word)
    assert type(encodings.word_to_bits(word)) is tuple


def test_double_bits_table_matches_the_per_bit_definition():
    "every entry of the small-entry table, and the first values past it"
    for n in range(300):
        assert encodings.double_bits(n) == ref_double_bits(n)


@given(run_words)
@example(())
@example(filler(MAX_HORIZON - 1))
@example((0, 0) + (250,) * 16 + (288,) * 40 + (254,) * 40 + (298,) * 23 + (250,) * 60)
def test_run_length_encoders_match_the_per_entry_definitions(word):
    check_word_to_bits(word)
    check_word_to_dyadic(word)


@pytest.mark.parametrize(
    "word",
    [
        (0,) * 63,  # a run of 0 is a repunit of one-bit blocks at any length
        (0,) * 64,
        (20,) * 20,  # one copy fewer than the block is wide: a shift per copy
        (20,) * 21,  # as many copies as bits: one repunit division
        (31,) * 32 + (29,) * 30,  # a two-digit divisor, then a one-digit one
        (5, 5) + (7,) * 15 + (5,) + (0,) * 3,
        (1, 0) * 32,
        (0,),  # a single 0 is a repunit of one one-bit block
        (7,),  # a single wider entry takes one shift
    ],
)
def test_run_length_encoders_at_the_path_boundaries(word):
    check_word_to_bits(word)
    check_word_to_dyadic(word)


class _CountedWord(tuple):
    """A word that counts how many times it is iterated."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.mark.parametrize("word", [(0,) * (encodings.MAX_DYADIC_DIGITS + 1), (2**19,) * 2])
def test_word_to_dyadic_refuses_past_the_digit_cap_before_any_shift(word):
    "the cap is read from len and sum, one walk of the word; no run is walked after it"
    word = _CountedWord(word)
    with pytest.raises(DomainMismatchError, match="at most"):
        encodings.word_to_dyadic(word)
    assert word.walks == 1


@given(st.lists(dyadics, min_size=1, max_size=30))
def test_ratless_int_keys_rank_dyadics_exactly(values):
    keys = check_ratless_keys(values)
    assert all(type(k) is int for k in keys)


@pytest.mark.parametrize(
    "values",
    [
        [Fraction(0)],
        [Fraction(-3), Fraction(0), Fraction(5), Fraction(-3)],
        [Fraction(-1, 2), Fraction(1, 4), Fraction(-1, 4), Fraction(0), Fraction(7), Fraction(1, 2**40)],
    ],
)
def test_ratless_int_keys_on_integers_negatives_and_zero(values):
    keys = check_ratless_keys(values)
    assert all(type(k) is int for k in keys)


@given(st.lists(st.one_of(dyadics, colliding_rationals), max_size=20))
def test_ratless_non_dyadic_sequences_keep_rational_key(values):
    values = values + [Fraction(1, 3)]
    assert check_ratless_keys(values) == list(map(rational_key, values))


def test_ratless_int_keys_stop_at_the_bit_budget():
    "4 096 terms with a 2^8191 denominator fit the 2^25-bit budget; one more does not"
    inside = [Fraction(1, 2), Fraction(-3, 4), Fraction(1, 2**8191)] * 1365 + [Fraction(0)]
    assert len(inside) * (2**8191).bit_length() == orders._INT_KEY_BITS
    assert all(type(k) is int for k in check_ratless_keys(inside))
    outside = inside + [Fraction(5, 8)]
    assert all(type(k) is tuple for k in check_ratless_keys(outside))


def test_ratless_int_keys_refuse_a_lone_huge_denominator():
    "one tiny dyadic among many would cost n x 128 KiB of shifted keys"
    values = [Fraction(k, 4) for k in range(300)] + [Fraction(1, 2**10**6)]
    assert all(type(k) is tuple for k in check_ratless_keys(values))


@given(st.lists(st.one_of(small_words, wide_words), min_size=1, max_size=25))
def test_rl_bytes_keys_rank_as_negated_tuples(words):
    keys = check_rl_keys(words)
    assert all(type(k) is bytes for k in keys)


@given(st.lists(small_words, max_size=10))
def test_rl_keys_fall_back_to_tuples_past_255(words):
    words = words + [(2, 256)]
    keys = check_rl_keys(words)
    assert keys == list(map(orders.ReverseLexOrder._key, words))


@given(st.lists(st.one_of(small_words, wide_words), unique=True, max_size=25))
def test_prefix_links_on_bytes_match_the_tuple_sweep(words):
    check_prefix_links(words)


def test_prefix_links_past_255_take_the_tuple_sweep():
    words = [(), (300,), (300, 1), (1,), (1, 300, 2)]
    order = orders.PrefixOrder()
    assert order.link_keys(words) is words
    assert order.lower_links(words) == [(), (0,), (1,), (0,), (3,)]


@given(st.lists(wide_words, max_size=10))
def test_prefix_link_keys_are_bytes_up_to_255(words):
    keys = orders.PrefixOrder().link_keys(words)
    assert keys == list(map(bytes, words))
    assert all(type(k) is bytes for k in keys)


# Values for each linear oracle, with repeats, so that equal keys meet
# in both readings: dyadic, non-dyadic and float-tied rationals, and RL
# words with entries past 255, which key as tuples rather than bytes.
WITNESS_VALUES = {
    "IntLess": st.integers(-3, 3),
    "RatLess": st.one_of(dyadics, colliding_rationals, st.fractions(max_denominator=3)),
    "RL": st.one_of(small_words, st.lists(st.integers(254, 257), max_size=3).map(tuple)),
    "LexBit": st.lists(st.integers(0, 1), max_size=3).map(tuple),
}


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
@pytest.mark.parametrize("name", sorted(WITNESS_VALUES))
@given(data=st.data())
def test_verify_witness_on_sort_keys_matches_the_per_link_relation(name, strict, data):
    payloads = data.draw(st.lists(WITNESS_VALUES[name], min_size=1, max_size=12))
    positions = st.integers(0, len(payloads) - 1)
    indices = data.draw(st.one_of(
        st.lists(positions, unique=True, max_size=6).map(sorted), st.lists(positions, max_size=6)
    ))
    check_verify_witness(name, strict, payloads, indices)


@pytest.mark.parametrize("n", [0, 1, 255, 256, MAX_HORIZON - 1])
def test_filler_is_n_ones_then_a_zero(n):
    check_filler(n)


@pytest.mark.parametrize(
    "n, message",
    [(-1, "filler index must be non-negative"), (MAX_HORIZON, f"filler index {MAX_HORIZON} is past the horizon cap of {MAX_HORIZON}")],
)
def test_filler_refusals_keep_their_type_and_message(n, message):
    with pytest.raises(ArgumentError) as info:
        filler(n)
    assert str(info.value) == message


# Values that walk their multiples (within a factor of two of the top),
# small values, where 1 and 2 divide every value in fewer steps than
# they walk, small values beside a few near 60^2, where trial division
# can be fewer steps in all, and huge values, which walk no step.
divides_values = st.one_of(
    st.integers(20, 40).flatmap(lambda a: st.lists(st.integers(a, 2 * a), unique=True, min_size=1)),
    st.lists(st.integers(1, 40), unique=True, min_size=1),
    st.lists(st.integers(1, 63).map(lambda k: k if k <= 60 else k + 3538), unique=True, min_size=1),
    st.lists(st.integers(10**12, 10**12 + 10**4), unique=True, min_size=1, max_size=20),
)


@given(divides_values)
def test_divides_links_are_the_proper_divisors(values):
    check_divides_links(values)


@pytest.mark.parametrize(
    "values",
    [
        [],
        [1],
        list(range(200, 401)),
        [7, 1, 49, 343, 2401],
        list(range(1, 101)) + [9_999],
        [10**9 + k for k in range(50)] + [2 * (10**9 + 3), 3 * (10**9 + 1)],
    ],
    ids=["empty", "one", "walk", "scan", "trial", "huge"],
)
def test_divides_links_under_each_rule(values):
    check_divides_links(values)
