"""Comparison oracles: verdicts, strictness, axioms."""

import enum
import sys
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from helpers import brute_axiom_violations, colliding_rationals
from orderchains.chains import Sequence
from orderchains.errors import ArgumentError, DomainMismatchError, ParseError
from orderchains.orders import (
    EQ,
    GT,
    INCOMPARABLE,
    LT,
    MAX_AXIOM_SUPPORT,
    ORDER_NAMES,
    Element,
    Order,
    Tag,
    check_axioms,
    format_element,
    make_element,
    make_order,
    parse_element,
    parse_payload,
    validate_payloads,
)
from orderchains.words import quote_token

nat_words = st.lists(st.integers(0, 5), max_size=5).map(tuple)
bit_words = st.lists(st.integers(0, 1), max_size=6).map(tuple)


def elems(tag, payloads):
    return [make_element(tag, p) for p in payloads]


@pytest.mark.parametrize(
    "a,b,want",
    [
        (2, 6, LT),
        (6, 2, GT),
        (4, 4, EQ),
        (4, 6, INCOMPARABLE),
        (1, 7, LT),
    ],
)
def test_divides_verdicts(a, b, want):
    "divisibility compares by the divides relation"
    order = make_order("Divides")
    ea, eb = elems(Tag.NAT, [a, b])
    assert order.compare(ea, eb) is want


def test_divides_rejects_zero():
    "zero is outside the divisibility domain"
    with pytest.raises(ParseError):
        parse_element("0", Tag.NAT)
    with pytest.raises(DomainMismatchError):
        Element(Tag.NAT, 0)


def test_strictness_only_changes_related():
    "compare is strictness-free; related projects EQ by flavour"
    strict = make_order("Divides", strict=True)
    loose = make_order("Divides", strict=False)
    a, b = elems(Tag.NAT, [4, 4])
    assert strict.compare(a, b) is loose.compare(a, b) is EQ
    assert not strict.related(a, b)
    assert loose.related(a, b)


def test_delta_relates_only_equal_values():
    "the identity oracle sees equal or incomparable, nothing else"
    order = make_order("Delta", strict=False, tag=Tag.INT)
    a, b, c = elems(Tag.INT, [3, 3, 5])
    assert order.compare(a, b) is EQ
    assert order.compare(a, c) is INCOMPARABLE
    assert order.related(a, b)
    assert not make_order("Delta", strict=True, tag=Tag.INT).related(a, b)


@pytest.mark.parametrize(
    "a,b,want",
    [
        ((), (0,), LT),
        ((0,), (0, 3), LT),
        ((0, 3), (0,), GT),
        ((1,), (2,), INCOMPARABLE),
        ((0, 1), (0, 1), EQ),
    ],
)
def test_prefix_order_verdicts(a, b, want):
    "initial segments sit below their extensions"
    order = make_order("SubsetWordNat")
    ea, eb = elems(Tag.WORD_NAT, [a, b])
    assert order.compare(ea, eb) is want


@pytest.mark.parametrize(
    "a,b,want",
    [
        ((0,), (1,), GT),
        ((1,), (0,), LT),
        ((), (5,), LT),
        ((1, 7), (1, 2, 9), LT),
        ((2,), (1, 9), LT),
    ],
)
def test_reverse_lex_verdicts(a, b, want):
    "prefixes first, then larger first-disagreement wins the bottom"
    order = make_order("RL")
    ea, eb = elems(Tag.WORD_NAT, [a, b])
    assert order.compare(ea, eb) is want


@pytest.mark.parametrize(
    "name,tag,a,b,want",
    [
        ("IntLess", Tag.INT, -3, 2, LT),
        ("IntLess", Tag.INT, 2, -3, GT),
        ("IntLess", Tag.INT, 7, 7, EQ),
        ("RatLess", Tag.RATIONAL, Fraction(1, 3), Fraction(1, 2), LT),
        ("RatLess", Tag.RATIONAL, Fraction(2, 3), Fraction(1, 2), GT),
        ("RatLess", Tag.RATIONAL, Fraction(2, 4), Fraction(1, 2), EQ),
        ("LexBit", Tag.WORD_BIT, (), (0,), LT),
        ("LexBit", Tag.WORD_BIT, (0, 1), (0,), GT),
        ("LexBit", Tag.WORD_BIT, (0, 1, 1), (1,), LT),
        ("LexBit", Tag.WORD_BIT, (1, 0), (0, 1, 1), GT),
        ("LexBit", Tag.WORD_BIT, (1, 0), (1, 0), EQ),
        # Equal as floats: the key falls through to the Fraction.
        ("RatLess", Tag.RATIONAL, Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2**60), LT),
        ("RatLess", Tag.RATIONAL, Fraction(1, 3) + Fraction(1, 2**60), Fraction(1, 3), GT),
        # Too large for a float: both sides are +-inf.
        ("RatLess", Tag.RATIONAL, Fraction(10**400), Fraction(10**400 + 1), LT),
        ("RatLess", Tag.RATIONAL, Fraction(-(10**400) - 1), Fraction(-(10**400)), LT),
        # Too small for a float: 0.0, and -0.0 == 0.0.
        ("RatLess", Tag.RATIONAL, Fraction(1, 10**400), Fraction(2, 10**400), LT),
        ("RatLess", Tag.RATIONAL, Fraction(-1, 10**400), Fraction(1, 10**400), LT),
    ],
)
def test_linear_order_verdicts(name, tag, a, b, want):
    "the native orders: numbers by size, bit-words lexicographically with prefixes first"
    order = make_order(name)
    ea, eb = elems(tag, [a, b])
    assert order.compare(ea, eb) is want


def test_reverse_lex_filler_chain():
    "1^n 0 words descend as n grows"
    order = make_order("RL")
    w0, w10, w110 = elems(Tag.WORD_NAT, [(0,), (1, 0), (1, 1, 0)])
    assert order.compare(w0, w10) is GT
    assert order.compare(w10, w110) is GT
    assert order.compare(w0, w110) is GT


@given(nat_words, nat_words)
def test_reverse_lex_sort_key_embeds(a, b):
    "sort_key agreement with compare on random word pairs"
    order = make_order("RL")
    ea, eb = elems(Tag.WORD_NAT, [a, b])
    verdict = order.compare(ea, eb)
    ka, kb = order.sort_key(ea), order.sort_key(eb)
    assert (verdict is LT) == (ka < kb)
    assert (verdict is EQ) == (ka == kb)


@given(bit_words, bit_words)
def test_bit_lex_sort_key_embeds(a, b):
    "lex order on bit words matches its key"
    order = make_order("LexBit")
    ea, eb = elems(Tag.WORD_BIT, [a, b])
    verdict = order.compare(ea, eb)
    ka, kb = order.sort_key(ea), order.sort_key(eb)
    assert (verdict is LT) == (ka < kb)
    assert (verdict is EQ) == (ka == kb)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_int_less_matches_python(a, b):
    "integer oracle is the native order"
    order = make_order("IntLess")
    ea, eb = elems(Tag.INT, [a, b])
    verdict = order.compare(ea, eb)
    assert verdict is (EQ if a == b else LT if a < b else GT)


@given(colliding_rationals, colliding_rationals)
def test_rat_less_matches_python_on_float_ties(a, b):
    "the rational oracle and its key keep the exact order where floats tie"
    order = make_order("RatLess")
    ea, eb = elems(Tag.RATIONAL, [a, b])
    want = EQ if a == b else LT if a < b else GT
    assert order.compare(ea, eb) is want
    ka, kb = order.sort_key(ea), order.sort_key(eb)
    assert (ka < kb, ka == kb) == (a < b, a == b)


def test_domain_mismatch_raises():
    "an oracle refuses elements of the wrong tag"
    order = make_order("IntLess")
    with pytest.raises(DomainMismatchError):
        order.compare(make_element(Tag.INT, 1), make_element(Tag.RATIONAL, Fraction(1)))


@pytest.mark.parametrize("name", ["Divides", "delta", "INTLESS", "rl", "LexBit", "RatLess"])
def test_make_order_case_insensitive(name):
    "names resolve regardless of case"
    assert make_order(name).name.lower() == name.lower()


def test_make_order_unknown_name():
    with pytest.raises(ParseError):
        make_order("nosuch")


def test_make_order_name_table_golden():
    "every listed name builds its oracle, in any case; an unknown name lists them all"
    assert ORDER_NAMES == ("Divides", "Delta", "IntLess", "SubsetWordNat", "SubsetWordBit", "RL", "LexBit", "RatLess")
    for name in ORDER_NAMES:
        for spelling in (name, name.lower(), name.upper()):
            assert make_order(spelling).name == name
            assert make_order(spelling, strict=False).strict is False
    assert make_order("delta").domain is Tag.INT
    assert make_order("Delta", tag=Tag.WORD_BIT).domain is Tag.WORD_BIT
    assert make_order("IntLess", tag=Tag.WORD_BIT).domain is Tag.INT
    with pytest.raises(ParseError) as info:
        make_order("Nope")
    assert str(info.value) == (
        "unknown order 'Nope'; choose one of "
        "Divides, Delta, IntLess, SubsetWordNat, SubsetWordBit, RL, LexBit, RatLess"
    )


def test_element_round_trip():
    "format and parse are inverse on every tag"
    cases = [
        (Tag.NAT, "7"),
        (Tag.INT, "-3"),
        (Tag.RATIONAL, "3/8"),
        (Tag.WORD_NAT, "1.1.0"),
        (Tag.WORD_NAT, "e"),
        (Tag.WORD_BIT, "0101"),
        (Tag.WORD_BIT, "e"),
    ]
    for tag, text in cases:
        assert format_element(parse_element(text, tag)) == text


class _Bit(enum.IntEnum):
    ONE = 1
    TWO = 2


class _SubInt(int):
    pass


# Payload, accepted as a nat-word, accepted as a bit-word.
WORD_PAYLOADS = [
    ((), True, True),
    (True, False, False),
    (False, False, False),
    (1.0, False, False),
    (-1, False, False),
    (2, False, False),
    (Fraction(1), False, False),
    (None, False, False),
    (10**30, False, False),
    ([0, 1], False, False),
    ("01", False, False),
    ((0, 1, 1), True, True),
    ((2, 0), True, False),
    ((10**30,), True, False),
    ((-1, 0), False, False),
    ((True,), False, False),
    ((0, True), False, False),
    ((1.0,), False, False),
    ((Fraction(1),), False, False),
    ((None,), False, False),
    (("0",), False, False),
    ((_Bit.ONE,), True, True),
    ((_Bit.TWO,), True, False),
    ((_SubInt(1), 0), True, True),
    ((_SubInt(3),), True, False),
    ((_SubInt(-1),), False, False),
]


@pytest.mark.parametrize("tag", [Tag.WORD_NAT, Tag.WORD_BIT])
@pytest.mark.parametrize("payload,nat_ok,bit_ok", WORD_PAYLOADS)
def test_word_element_validation(tag, payload, nat_ok, bit_ok):
    "word elements accept exactly tuples of non-negative ints (0/1 for bits), bools excluded"
    ok = nat_ok if tag is Tag.WORD_NAT else bit_ok
    if ok:
        assert Element(tag, payload).value == payload
    else:
        with pytest.raises(DomainMismatchError):
            Element(tag, payload)


# Payloads of every kind the per-term path sees: exact types, bools, int
# subclasses, negatives, floats, strings, non-iterables and words.
BULK_PAYLOADS = [p for p, _, _ in WORD_PAYLOADS] + [
    0, 1, 7, -3, 10**30, _SubInt(4), _Bit.ONE, 0.5, Fraction(3, 4), Fraction(2), "1/2", "x", [], (0,),
]


def _per_term(tag, payloads):
    "the reference: make_element on each payload in turn"
    try:
        return tuple(make_element(tag, p).value for p in payloads)
    except Exception as exc:  # the test compares the error itself
        return exc


@pytest.mark.parametrize("tag", list(Tag))
def test_validate_payloads_matches_make_element(tag):
    "bulk validation accepts, normalises and rejects exactly as make_element does term by term"
    good = {Tag.NAT: 2, Tag.INT: -2, Tag.RATIONAL: Fraction(1, 3), Tag.WORD_NAT: (3, 0), Tag.WORD_BIT: (1,)}[tag]
    for payload in BULK_PAYLOADS:
        for payloads in ([payload], [good, payload], [payload, good, payload], [good] * 3 + [payload]):
            want = _per_term(tag, payloads)
            if isinstance(want, Exception):
                with pytest.raises(type(want)) as info:
                    validate_payloads(tag, payloads)
                assert str(info.value) == str(want)
            else:
                got = validate_payloads(tag, payloads)
                assert got == want
                assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize(
    "tag, payload",
    [(Tag.WORD_NAT, 5), (Tag.RATIONAL, "abc"), (Tag.RATIONAL, None), (Tag.RATIONAL, float("nan"))],
)
def test_unnormalisable_payload_is_a_domain_mismatch(tag, payload):
    "a payload that does not normalise raises the typed error, per term and in bulk"
    with pytest.raises(DomainMismatchError) as want:
        make_element(tag, payload)
    with pytest.raises(DomainMismatchError) as got:
        Sequence.from_payloads(tag, [payload])
    assert str(got.value) == str(want.value)


def test_rational_formats_as_fraction():
    "whole rationals still print with a denominator"
    assert format_element(make_element(Tag.RATIONAL, 0)) == "0/1"
    assert format_element(make_element(Tag.RATIONAL, Fraction(4, 2))) == "2/1"


@pytest.mark.parametrize(
    "name,tag,payloads",
    [
        ("Divides", Tag.NAT, range(1, 13)),
        ("IntLess", Tag.INT, range(-4, 5)),
        ("RatLess", Tag.RATIONAL, [Fraction(i, 7) for i in range(8)]),
        ("SubsetWordBit", Tag.WORD_BIT, [(), (0,), (1,), (0, 0), (0, 1), (1, 0)]),
        ("RL", Tag.WORD_NAT, [(), (0,), (1,), (2,), (0, 0), (1, 0), (2, 2)]),
        ("LexBit", Tag.WORD_BIT, [(), (0,), (1,), (0, 1), (1, 1)]),
    ],
)
@pytest.mark.parametrize("strict", [True, False])
def test_axioms_hold_on_small_supports(name, tag, payloads, strict):
    "default axiom profile passes on honest oracles"
    order = make_order(name, strict=strict)
    report = check_axioms(order, elems(tag, payloads))
    assert report.ok, report.describe()


class _HashedOrder(Order):
    """A non-transitive oracle: each ordered pair's verdict is a fixed hash of it."""

    name = "Hashed"
    domain = Tag.INT

    def _compare(self, x, y):
        return (LT, EQ, GT, INCOMPARABLE)[(x * 7919 + y * 104729) % 9973 % 4]


@pytest.mark.parametrize("payloads", [range(40), [(7 * i) % 41 - 20 for i in range(41)]])
@pytest.mark.parametrize("strict", [True, False])
def test_transitivity_violations_match_a_triple_loop(payloads, strict):
    "the bit-row scan reports every violation, in the triple loop's order"
    order = _HashedOrder(strict=strict)
    support = elems(Tag.INT, payloads)
    want = brute_axiom_violations(order, support)
    assert want
    report = check_axioms(order, support, axioms=("transitivity",))
    assert [v.witness for v in report.violations] == want


def test_totality_probe_finds_incomparable_pair():
    "asking for totality on a partial order names a witness"
    order = make_order("SubsetWordBit")
    support = elems(Tag.WORD_BIT, [(), (0,), (1,)])
    report = check_axioms(order, support, axioms=("totality",))
    assert not report.ok
    witness = report.violations[0].witness
    assert {format_element(e) for e in witness} == {"0", "1"}


def test_linear_oracles_check_totality_by_default():
    "linear oracles include totality in the default profile"
    order = make_order("IntLess")
    report = check_axioms(order, elems(Tag.INT, [1, 2, 3]))
    assert "totality" in report.checked


def test_unknown_axiom_name():
    with pytest.raises(ParseError):
        check_axioms(make_order("IntLess"), [], axioms=("density",))


def test_check_axioms_refuses_a_support_past_the_cap():
    "a support past the cap raises before any comparison"
    order = make_order("IntLess")
    order._compare = lambda x, y: pytest.fail("check_axioms compared past its cap")
    support = [make_element(Tag.INT, 0)] * (MAX_AXIOM_SUPPORT + 1)
    with pytest.raises(ArgumentError, match=f"at most {MAX_AXIOM_SUPPORT} support elements"):
        check_axioms(order, support)


@pytest.mark.parametrize(
    "support, got",
    [
        ([(Tag.INT, 1), (Tag.NAT, 2), (Tag.RATIONAL, Fraction(1, 2))], "nat"),
        ([(Tag.RATIONAL, Fraction(1, 2)), (Tag.NAT, 2), (Tag.INT, 1)], "rational"),
        ([(Tag.INT, 1), (Tag.INT, 2), (Tag.WORD_NAT, (0,))], "word"),
    ],
)
def test_check_axioms_names_the_first_off_domain_element(support, got):
    "a mixed support raises for its first element of another domain, in support order"
    with pytest.raises(DomainMismatchError) as info:
        check_axioms(make_order("IntLess"), [Element(tag, p) for tag, p in support])
    assert str(info.value) == f"IntLess compares int elements, got {got}"


# Tokens of every shape the parsers meet: integers, fractions, decimals,
# dotted words, bit strings and loose characters.
_TOKENS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-99, 99), st.integers(-9, 99)),
    st.lists(st.integers(0, 12), max_size=5).map(lambda w: ".".join(map(str, w)) or "e"),
    st.text("01", max_size=8),
    st.text("0123456789-+./eE_ ", max_size=10),
)


@pytest.mark.parametrize("tag", list(Tag))
@given(token=_TOKENS)
def test_parse_payload_returns_valid_payloads(tag, token):
    "every payload parse_payload returns passes the bulk check as it is"
    try:
        payload = parse_payload(token, tag)
    except ParseError:
        return
    got = validate_payloads(tag, [payload])
    assert got == (payload,)
    assert type(got[0]) is type(payload)


def _fraction_reading(text):
    """What parse_payload must give for a rational token: ``Fraction(text)``,
    or the ParseError text wrapped around ``Fraction``'s own error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        quoted = quote_token(text)
        return f"bad rational token {quoted}: {str(exc).replace(repr(text), quoted)}"


def _parse_rational_or_error(text):
    try:
        value = parse_payload(text, Tag.RATIONAL)
    except ParseError as exc:
        return str(exc)
    assert type(value) is Fraction
    return value


RATIONAL_SPELLINGS = [
    "0", "-0", "+0", "7", "-7", "+7", "3/4", "-3/4", "+3/4", "6/8", "00/05",
    "1/0", "-3/0", "0/0", "-6/-8", "3/-4", "+-1", "--1", "+", "-", "", "/2", "1/",
    "1/2/3", "1_000/3", "1/3_0", "1__0", "_1", "0.5", "-.5", "1e3", "1E-2", "1.5/2",
    " 1/2", "1/2 ", "1 /2", "1/ 2", "0x10", "inf", "nan", "²", "1/²", "½",
    "٣/٤", "-٣", "١٢/٣٤", "𝟙/2", "1٣/7",
    "1" * 5000, "-" + "1" * 5000, "1/" + "1" * 5000, "1" * 4300 + "/7",
]


@pytest.mark.parametrize("text", RATIONAL_SPELLINGS, ids=lambda t: repr(t[:12]))
def test_rational_tokens_read_as_fraction_reads_them(text):
    "every spelling parses to Fraction(text), or fails with Fraction's error in the ParseError"
    assert _parse_rational_or_error(text) == _fraction_reading(text)


# No "e": Fraction computes 10**exponent, so "0E500000" alone takes a
# quarter of a second.  The table above holds the exponent spellings.
@given(st.text(st.sampled_from(list("+-0123456789/_. ²") + ["٣", "٤", "𝟙"]), max_size=10))
def test_rational_token_property(text):
    assert _parse_rational_or_error(text) == _fraction_reading(text)


def test_exponents_past_the_digit_limit_are_refused():
    "the power of ten is never computed for them; smaller exponents read as Fraction reads them"
    limit = sys.get_int_max_str_digits()
    for text in (f"0e{limit + 1}", f"1E-{limit + 1}", "1e100000000", "0E50000", f"2.5e+{limit + 1} "):
        with pytest.raises(ParseError, match=f"exponent of .* is above {limit} in magnitude"):
            parse_payload(text, Tag.RATIONAL)
    for text in (f"0e{limit}", f"1e-{limit}", "1.5e-3", "-2E1_0"):
        assert parse_payload(text, Tag.RATIONAL) == Fraction(text)


def test_long_token_errors_stay_short():
    "an error quotes at most ECHO_LIMIT characters of a token and marks the cut"
    text = "1/" + "2" * 300 + "x"
    with pytest.raises(ParseError) as err:
        parse_payload(text, Tag.RATIONAL)
    message = str(err.value)
    assert len(message) < 200
    assert f"({len(text)} characters)" in message
    assert quote_token("1/x") == "'1/x'"
