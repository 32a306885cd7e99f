"""Pointwise encodings of naturals and words into bit-words and rationals."""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from helpers import ref_double_bits, ref_format_bit_word
from orderchains.encodings import (
    MAX_DYADIC_DIGITS,
    double_bits,
    format_dyadic_binary,
    lex_between,
    word_to_bits,
    word_to_dyadic,
)
from orderchains.errors import ArgumentOrderError, DomainMismatchError
from orderchains.orders import Tag, make_element, make_order
from orderchains.words import format_bit_word, is_prefix

nat_words = st.lists(st.integers(0, 6), max_size=6).map(tuple)
subset_nat = make_order("SubsetWordNat")
subset_bit = make_order("SubsetWordBit")
reverse_lex = make_order("RL")
bit_lex = make_order("LexBit")


def word_el(w):
    return make_element(Tag.WORD_NAT, w)


def bits_el(w):
    return make_element(Tag.WORD_BIT, w)


@pytest.mark.parametrize(
    "n,bits",
    [
        (0, (0, 0)),
        (1, (1, 1)),
        (2, (1, 1, 0, 0)),
        (5, (1, 1, 0, 0, 1, 1)),
    ],
)
def test_double_bits(n, bits):
    "every binary digit of n appears twice, zero becoming 00"
    assert double_bits(n) == bits


def test_double_bits_rejects_negative():
    with pytest.raises(DomainMismatchError):
        double_bits(-1)


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_double_bits_injective(m, n):
    if m != n:
        assert double_bits(m) != double_bits(n)


@given(st.one_of(st.integers(0, 2**400), st.integers(0, 2**400).map(lambda n: 2**n.bit_length() - 1)))
def test_double_bits_matches_per_bit_definition(n):
    assert double_bits(n) == ref_double_bits(n)
    assert set(map(type, double_bits(n))) == {int}


@given(st.lists(st.integers(0, 1), max_size=500).map(tuple))
def test_format_bit_word_matches_per_bit_definition(word):
    assert format_bit_word(word) == ref_format_bit_word(word)


@pytest.mark.parametrize(
    "word, text",
    [
        ((0, 2, 1), "021"),
        ((1, 10), "110"),
        ((-1, 0), "-10"),
        ((256, 1), "2561"),
        ((Fraction(1, 2), 1), "1/21"),
        ([0, 1, 1], "011"),
    ],
)
def test_format_bit_word_outside_bits_writes_entries(word, text):
    "entries outside {0, 1} are written with str, never as control characters"
    assert format_bit_word(word) == text == ref_format_bit_word(word)


@pytest.mark.parametrize(
    "word,bits",
    [
        ((), ()),
        ((0,), (0, 0, 0, 1)),
        ((1,), (1, 1, 0, 1)),
        ((1, 0), (1, 1, 0, 1, 0, 0, 0, 1)),
        ((2, 0), (1, 1, 0, 0, 0, 1, 0, 0, 0, 1)),
    ],
)
def test_word_to_bits(word, bits):
    "entries are doubled digits joined by 01 separators"
    assert word_to_bits(word) == bits


@given(nat_words, nat_words)
def test_word_to_bits_bi_monotone(a, b):
    "prefix structure survives the encoding exactly"
    assert is_prefix(a, b) == is_prefix(word_to_bits(a), word_to_bits(b))


@given(nat_words, nat_words)
def test_word_to_bits_preserves_verdicts(a, b):
    "four-valued verdicts agree before and after encoding"
    got = subset_bit.compare(bits_el(word_to_bits(a)), bits_el(word_to_bits(b)))
    want = subset_nat.compare(word_el(a), word_el(b))
    assert got is want


@pytest.mark.parametrize(
    "word,value",
    [
        ((), Fraction(0)),
        ((0,), Fraction(1, 2)),
        ((1,), Fraction(1, 4)),
        ((1, 0), Fraction(3, 8)),
        ((0, 0), Fraction(3, 4)),
    ],
)
def test_word_to_dyadic(word, value):
    "each position contributes one binary digit past the run of its entry"
    assert word_to_dyadic(word) == value


@given(nat_words, nat_words)
def test_word_to_dyadic_bi_monotone(a, b):
    "the rational image sorts exactly like the reverse-entry order"
    verdict = reverse_lex.compare(word_el(a), word_el(b))
    va, vb = word_to_dyadic(a), word_to_dyadic(b)
    assert (va < vb) == (verdict.value == "LT")
    assert (va == vb) == (verdict.value == "EQ")


@given(nat_words)
def test_word_to_dyadic_in_unit_interval(word):
    assert 0 <= word_to_dyadic(word) < 1


@given(st.lists(st.integers(0, 12), max_size=8).map(tuple))
def test_word_to_dyadic_matches_literal_sum(word):
    "the value is the sum of 2**-e_k with e_k = a_0 + ... + a_k + k + 1"
    exponents = [sum(word[: k + 1]) + k + 1 for k in range(len(word))]
    assert word_to_dyadic(word) == sum((Fraction(1, 2**e) for e in exponents), Fraction(0))


def test_word_to_dyadic_refuses_words_past_the_digit_cap():
    "the cap is checked before any shift, so a 10^12-bit word costs nothing"
    with pytest.raises(DomainMismatchError):
        word_to_dyadic((10**12,))
    with pytest.raises(DomainMismatchError):
        word_to_dyadic((MAX_DYADIC_DIGITS,))
    # len + sum is the digit count: a word of exactly the cap still encodes.
    assert word_to_dyadic((MAX_DYADIC_DIGITS - 1,)) == Fraction(1, 2**MAX_DYADIC_DIGITS)


# Words with a negative entry; ``tests/test_mutants.py`` runs them too.
NEGATIVE_ENTRY_WORDS = [
    (3, -1),  # once read as the image of (3,)
    (-1,) * 5,  # once read as 1, outside [0, 1)
    (-1,) * 10 + (100,),  # a run of -1: once a division by zero
    (5, -2, -2, -2, 100),  # once a negative shift count
    (2**40, -(2**40)),  # two digits by len + sum, far fewer than its first run needs
    (2**19,) + (-1,) * 70,  # a negative run after a long one
    (2**19, 2**19, -(2**19)),  # a run that needs more digits than len + sum counts
]


@pytest.mark.parametrize("word", NEGATIVE_ENTRY_WORDS)
def test_word_to_dyadic_refuses_negative_entries(word):
    with pytest.raises(DomainMismatchError, match="naturals"):
        word_to_dyadic(word)


@given(nat_words)
def test_encoders_read_a_list_as_its_tuple(word):
    "the encoders read entries by value, so a list encodes as its tuple does"
    assert word_to_dyadic(list(word)) == word_to_dyadic(word)
    assert word_to_bits(list(word)) == word_to_bits(word)
    assert word_to_dyadic([1, 2]) == Fraction(9, 32)


@pytest.mark.parametrize("word", [(True, 0), (False, 1), (1, True), (True, True, False)])
def test_encoders_read_a_bool_entry_as_0_or_1(word):
    "a bool entry encodes as its int, also where groupby folds it into a run of that int"
    ints = tuple(map(int, word))
    assert word_to_dyadic(word) == word_to_dyadic(ints)
    assert word_to_bits(word) == word_to_bits(ints)


def test_format_dyadic_binary():
    assert format_dyadic_binary(Fraction(3, 8)) == "0.011"
    assert format_dyadic_binary(Fraction(0)) == "0."


@pytest.mark.parametrize(
    "a,b,mid",
    [
        ((1,), (1, 1), (1, 0, 1)),
        ((0, 1), (1, 1), (0, 1, 1)),
    ],
)
def test_lex_between_known_pairs(a, b, mid):
    "the two proof cases on their smallest instances"
    assert lex_between(a, b) == mid


def test_lex_between_prefix_case():
    "when a is a prefix of b, pad a with zeros and close with a one"
    a, b = (0, 1), (0, 1, 0, 0, 1)
    mid = lex_between(a, b)
    assert mid == (0, 1, 0, 0, 0, 1)
    ea, eb, em = bits_el(a), bits_el(b), bits_el(mid)
    assert bit_lex.related(ea, em) and bit_lex.related(em, eb)


def test_lex_between_disagreement_case():
    "otherwise extend a by a single one"
    a, b = (0, 1, 1), (1, 1)
    mid = lex_between(a, b)
    assert mid == (0, 1, 1, 1)
    ea, eb, em = bits_el(a), bits_el(b), bits_el(mid)
    assert bit_lex.related(ea, em) and bit_lex.related(em, eb)


def test_lex_between_rejects_words_not_ending_in_one():
    with pytest.raises(DomainMismatchError):
        lex_between((0,), (1,))


def test_lex_between_rejects_unordered_pair():
    with pytest.raises(ArgumentOrderError):
        lex_between((1,), (0, 1))
    with pytest.raises(ArgumentOrderError):
        lex_between((1,), (1,))


ones_ended = st.lists(st.integers(0, 1), max_size=5).map(lambda l: tuple(l) + (1,))


@given(ones_ended, ones_ended)
def test_lex_between_always_strictly_between(a, b):
    "the witness lands strictly inside every ordered pair"
    ea, eb = bits_el(a), bits_el(b)
    verdict = bit_lex.compare(ea, eb)
    if verdict.value == "LT":
        lo, hi = a, b
    elif verdict.value == "GT":
        lo, hi = b, a
    else:
        return
    mid = lex_between(lo, hi)
    em = bits_el(mid)
    assert bit_lex.related(bits_el(lo), em)
    assert bit_lex.related(em, bits_el(hi))
    assert mid and mid[-1] == 1
