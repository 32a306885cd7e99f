"""Comparison oracles: verdicts, strictness, axioms."""

import enum
import hashlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from helpers import brute_axiom_violations, colliding_rationals, ref_valid_payload
from orderchains import orders
from orderchains.chains import Sequence
from orderchains.errors import ArgumentError, DomainMismatchError, ParseError, echo
from orderchains.orders import (
    EQ,
    GT,
    INCOMPARABLE,
    LT,
    MAX_AXIOM_SUPPORT,
    MAX_AXIOM_VIOLATIONS,
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

nat_words = st.lists(st.integers(0, 5), max_size=5).map(tuple)
bit_words = st.lists(st.integers(0, 1), max_size=6).map(tuple)


def elems(tag, payloads):
    return [make_element(tag, p) for p in payloads]


DIVIDES_VERDICTS = [
    (2, 6, LT),
    (6, 2, GT),
    (4, 4, EQ),
    (4, 6, INCOMPARABLE),
    (1, 7, LT),
]
PREFIX_VERDICTS = [
    ((), (0,), LT),
    ((0,), (0, 3), LT),
    ((0, 3), (0,), GT),
    ((1,), (2,), INCOMPARABLE),
    ((0, 1), (0, 1), EQ),
]


def check_verdict(name, tag, a, b, want):
    "the named oracle's verdict on the pair"
    ea, eb = elems(tag, [a, b])
    assert make_order(name).compare(ea, eb) is want


@pytest.mark.parametrize("a,b,want", DIVIDES_VERDICTS)
def test_divides_verdicts(a, b, want):
    "divisibility compares by the divides relation"
    check_verdict("Divides", Tag.NAT, a, b, want)


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


@pytest.mark.parametrize("a,b,want", PREFIX_VERDICTS)
def test_prefix_order_verdicts(a, b, want):
    "initial segments sit below their extensions"
    check_verdict("SubsetWordNat", Tag.WORD_NAT, a, b, want)


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
    ka, kb = order.sort_keys([a, b])
    assert (verdict is LT) == (ka < kb)
    assert (verdict is EQ) == (ka == kb)


@given(bit_words, bit_words)
def test_bit_lex_sort_key_embeds(a, b):
    "lex order on bit words matches its key"
    order = make_order("LexBit")
    ea, eb = elems(Tag.WORD_BIT, [a, b])
    verdict = order.compare(ea, eb)
    ka, kb = order.sort_keys([a, b])
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
    ka, kb = order.sort_keys([a, b])
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


@pytest.mark.parametrize("name", [name for name in ORDER_NAMES if name != "Delta"])
def test_make_order_refuses_a_tag_other_than_the_oracles_own(name):
    "Delta alone reads the tag; every other oracle takes its own domain's tag and refuses the rest"
    domain = make_order(name).domain
    assert make_order(name, tag=domain).domain is domain
    for tag in Tag:
        if tag is not domain:
            with pytest.raises(DomainMismatchError) as info:
                make_order(name, tag=tag)
            assert str(info.value) == f"{name} compares {domain} elements, got {tag}"


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
    assert make_order("IntLess", tag=Tag.INT).domain is Tag.INT
    with pytest.raises(DomainMismatchError) as info:
        make_order("IntLess", tag=Tag.WORD_BIT)
    assert str(info.value) == "IntLess compares int elements, got bits"
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


class _SubTuple(tuple):
    pass


class _SubFraction(Fraction):
    pass


DOMAIN_TEXTS = {
    Tag.NAT: "nat elements are integers >= 1",
    Tag.INT: "int elements are integers",
    Tag.RATIONAL: "rational elements are Fractions",
    Tag.WORD_NAT: "word elements are tuples of naturals",
    Tag.WORD_BIT: "bit-word elements are tuples over {0,1}",
}


def _refusal(build):
    "the text of the ``DomainMismatchError`` that ``build()`` raises, or None"
    try:
        build()
    except DomainMismatchError as exc:
        return str(exc)
    return None


def check_element(tag, value):
    """``Element`` checks one payload as the bulk check and the rule in
    words do, and refuses it with the same text; a tag that is not a
    ``Tag`` is refused by both checks alike."""
    if isinstance(tag, Tag):
        want = ref_valid_payload(tag, value)
        assert orders._valid_payloads(tag, (value,)) == want
        text = None if want else f"{DOMAIN_TEXTS[tag]}, got {echo(value, repr)}"
    else:
        text = f"{echo(tag, repr)} is not a domain tag"
        assert _refusal(lambda: orders._valid_payloads(tag, (value,))) == text
    assert _refusal(lambda: orders.Element(tag, value)) == text


# Odd payloads: bools, int, tuple and Fraction subclasses, negative
# entries, bit 2, nested tuples, lists, floats and strings.
odd_scalars = st.one_of(
    st.booleans(),
    st.integers(-2, 3),
    st.integers(-2, 3).map(_SubInt),
    st.sampled_from(list(_Bit)),
    st.fractions(max_denominator=4),
    st.fractions(max_denominator=4).map(_SubFraction),
    st.sampled_from([0.5, "1", None]),
)
odd_entries = st.recursive(odd_scalars, lambda inner: st.lists(inner, max_size=2).map(tuple), max_leaves=4)
odd_payloads = st.one_of(
    odd_entries,
    st.lists(odd_entries, max_size=4).map(tuple),
    st.lists(odd_entries, max_size=4).map(_SubTuple),
    st.lists(odd_scalars, max_size=2),
)
odd_tags = st.sampled_from(list(Tag) + ["nat", None, 5, []])


@given(odd_tags, odd_payloads)
def test_element_checks_one_payload_as_the_bulk_check_does(tag, value):
    check_element(tag, value)


@pytest.mark.parametrize(
    "tag, payload",
    [(Tag.WORD_NAT, 5), (Tag.RATIONAL, "abc"), (Tag.RATIONAL, None), (Tag.RATIONAL, float("nan"))],
)
def test_unnormalisable_payload_is_a_domain_mismatch(tag, payload):
    "a payload that does not normalise raises the typed error, per term and in bulk"
    with pytest.raises(DomainMismatchError) as want:
        make_element(tag, payload)
    for build in (Sequence, Sequence.from_payloads):
        with pytest.raises(DomainMismatchError) as got:
            build(tag, [payload])
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


@pytest.mark.parametrize(
    "strict, count, digest",
    [
        (True, 86_003, "d48f3d8d439d16d3b685b5d20c97474342822a15ab059e813d18d571918cfa8c"),
        (False, 222_372, "481f4ee09eee23a81d6f6199e306bf1937bc97f7cd1fb75e71afca7dfca4289e"),
    ],
)
def test_reports_below_the_violation_cap_are_unchanged(strict, count, digest):
    "120 hashed verdicts stay below the cap: the report's size and the SHA-256 of its text are pinned"
    report = check_axioms(_HashedOrder(strict=strict), elems(Tag.INT, range(120)))
    assert sum(v.axiom == "transitivity" for v in report.violations) <= MAX_AXIOM_VIOLATIONS
    assert len(report.violations) == count
    assert hashlib.sha256(report.describe().encode()).hexdigest() == digest


class _LayeredOrder(Order):
    """Payload v sits in layer v // 64; x lies below y exactly when y's
    layer is the next one above x's, so no relation spans two layers."""

    name = "Layered"
    domain = Tag.INT

    def _compare(self, x, y):
        step = y // 64 - x // 64
        return EQ if x == y else LT if step == 1 else GT if step == -1 else INCOMPARABLE


def test_check_axioms_refuses_a_report_past_the_violation_cap(monkeypatch):
    "three full layers of 64 give 64^3 = the cap, one more chain of three gives one more"
    support = elems(Tag.INT, [*range(192), 640, 704, 768])
    assert 64**3 == MAX_AXIOM_VIOLATIONS
    monkeypatch.setattr("orderchains.orders.AxiomViolation", lambda *a: pytest.fail("built a violation past the cap"))
    with pytest.raises(ArgumentError, match=f"at most {MAX_AXIOM_VIOLATIONS} transitivity violations"):
        check_axioms(_LayeredOrder(), support)


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
    "support, axioms, error, text",
    [
        (None, None, DomainMismatchError, "cannot read axiom support"),
        ([make_element(Tag.INT, 0)] * (MAX_AXIOM_SUPPORT + 1), None, ArgumentError, "at most"),
        ([], ("density",), ParseError, "unknown axiom 'density'"),
        ([make_element(Tag.INT, 0)], None, DomainMismatchError, "check_axioms takes an Order, got None"),
    ],
    ids=["container", "cap", "axiom", "oracle"],
)
def test_check_axioms_checks_the_oracle_after_its_other_arguments(support, axioms, error, text):
    "a missing oracle is reported only after the support and the axiom names pass"
    with pytest.raises(error) as info:
        check_axioms(None, support, axioms)
    assert type(info.value) is error and text in str(info.value)


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
        quoted = echo(text, repr)
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
    assert echo("1/x", repr) == "'1/x'"
