"""Caller values at the library's entry points: one domain rule reads
them, and an error that echoes one never fails while being built."""

from decimal import Decimal
from fractions import Fraction

import pytest

from orderchains.chains import Sequence, longest_chain, verify_witness
from orderchains.dense import (
    CountableSetStream,
    FixedStages,
    MiddleThirds,
    build_scheme,
    dense_embed,
    dyadic_stream,
    gap_selector,
    persistently_approaches,
    splitting_depth,
)
from orderchains.encodings import format_dyadic_binary, lex_between
from orderchains.errors import (
    ArgumentError,
    ArgumentOrderError,
    DomainMismatchError,
    DuplicateElementError,
    ParseError,
    SchemeError,
    SearchBudgetError,
    StreamError,
    TreePrefixError,
    WitnessIndexError,
    echo,
)
from orderchains.orders import (
    Element,
    IntLessOrder,
    RatLessOrder,
    Tag,
    check_axioms,
    make_element,
    make_order,
    parse_payload,
    validate_payloads,
)
from orderchains.reductions import TreeGenSpec, make_pipeline, reduce_tree
from orderchains.trees import MAX_HORIZON, filler, validate_tree

# Past the interpreter's digit limit for int -> str (4 300 by default),
# so str() and repr() of it raise ValueError.
HUGE = 10**5000

# "1e5000" has an exponent just past that limit: Fraction reads it at
# once, but the CLI's reader refuses it.
BAD_RATIONALS = ["x", None, "1e5000"]

RATIONAL_INTAKES = {
    "make_element": lambda v: make_element(Tag.RATIONAL, v),
    "from_payloads": lambda v: Sequence.from_payloads(Tag.RATIONAL, [v]),
    "stream": lambda v: CountableSetStream([v]).value(0),
    "splitting_depth": lambda v: splitting_depth([Fraction(0), v]),
    "FixedStages": lambda v: FixedStages([(0, v)]),
    "approaches values": lambda v: persistently_approaches([v], 1, [0]),
    "approaches g": lambda v: persistently_approaches([1], v, [0]),
    "approaches anchors": lambda v: persistently_approaches([1], 1, [v]),
}
RATIONAL_ERRORS = {"stream": StreamError}


@pytest.mark.parametrize("value", BAD_RATIONALS)
@pytest.mark.parametrize("intake", sorted(RATIONAL_INTAKES))
def test_bad_rational_raises_the_intakes_typed_error(intake, value):
    "every rational intake refuses a bad value with one typed error"
    with pytest.raises(RATIONAL_ERRORS.get(intake, DomainMismatchError)):
        RATIONAL_INTAKES[intake](value)


@pytest.mark.parametrize("word", ["x", None, "1e5000", 3, (-1,), ("a",), (True,), (-HUGE,)])
def test_validate_tree_reads_words_by_the_nat_word_rule(word):
    with pytest.raises(DomainMismatchError):
        validate_tree([(), word], mode="closure")


def test_validate_tree_normalises_word_spellings():
    assert validate_tree([[], [1], [1, 1]]).nodes == {(), (1,), (1, 1)}


NOT_ITERABLE = {
    "splitting_depth": lambda: splitting_depth(None),
    "validate_tree": lambda: validate_tree(3),
    "from_payloads": lambda: Sequence.from_payloads(Tag.INT, 5),
    "approaches values": lambda: persistently_approaches(None, 1, []),
    "approaches anchors": lambda: persistently_approaches([1], 1, None),
    "verify_witness": lambda: verify_witness(None, Sequence.from_payloads(Tag.INT, [1]), IntLessOrder()),
    "Sequence": lambda: Sequence(Tag.INT, None),
    "check_axioms": lambda: check_axioms(IntLessOrder(), None),
    "FixedStages": lambda: FixedStages(None),
    "stream": lambda: CountableSetStream(None).value(0),
    # Read before the linearity check, which this order would fail.
    "dense_embed": lambda: dense_embed(None, make_order("Divides"), CountableSetStream([])),
}


@pytest.mark.parametrize("intake", sorted(NOT_ITERABLE))
def test_a_container_that_is_not_iterable_raises_domain_mismatch(intake):
    with pytest.raises(DomainMismatchError, match="not iterable"):
        NOT_ITERABLE[intake]()


@pytest.mark.parametrize("index", ["x", None, 1.0])
def test_witness_index_that_is_not_an_integer_raises(index):
    seq = Sequence.from_payloads(Tag.INT, [1, 2])
    with pytest.raises(WitnessIndexError, match="is not an integer"):
        verify_witness([0, index], seq, IntLessOrder())


def test_witness_index_true_reads_as_one():
    assert verify_witness([0, True], Sequence.from_payloads(Tag.INT, [1, 2]), IntLessOrder())


def test_sequence_of_non_elements_raises_domain_mismatch():
    with pytest.raises(DomainMismatchError, match="takes elements, got 1"):
        Sequence(Tag.INT, [1, 2])


@pytest.mark.parametrize("value", [Fraction(1, 3), 2, True, 0.5, Decimal("0.25"), "1/3", " 2/4 ", "-0.5", "1.5e-3"])
def test_every_rational_intake_reads_fraction_of_the_value(value):
    "each intake reads a valid spelling as Fraction(value) does"
    q = Fraction(value)
    assert type(make_element(Tag.RATIONAL, value).value) is Fraction
    assert make_element(Tag.RATIONAL, value).value == q
    assert validate_payloads(Tag.RATIONAL, [value]) == (q,)
    assert Sequence.from_payloads(Tag.RATIONAL, [value]).payloads() == (q,)
    assert FixedStages([(value, value)]).stage(0) == ((q, q),)
    with pytest.raises(DuplicateElementError) as exc:
        splitting_depth([value, q])
    assert exc.value.index == 1
    tiny = Fraction(1, 10**30)
    assert persistently_approaches([value], q, [q - 1])
    assert not persistently_approaches([value], q - tiny, [q - 1])
    assert persistently_approaches([q], value, [q - tiny])
    assert persistently_approaches([q + tiny], q + tiny, [value])
    assert not persistently_approaches([q], q + tiny, [value])
    if 0 <= q <= 1:
        assert CountableSetStream([value]).value(0) == q
    else:
        with pytest.raises(StreamError, match="outside"):
            CountableSetStream([value]).value(0)


def _rationals(*values):
    return [Element(Tag.RATIONAL, Fraction(v)) for v in values]


# Entry points whose error message echoes a caller's value, driven with
# a value that has more digits than str() converts.
HUGE_ECHOES = {
    "Element": (DomainMismatchError, lambda: Element(Tag.NAT, -HUGE)),
    "make_element": (DomainMismatchError, lambda: make_element(Tag.NAT, -HUGE)),
    "from_payloads": (DomainMismatchError, lambda: Sequence.from_payloads(Tag.INT, [1, Fraction(1, HUGE)])),
    "stream range": (StreamError, lambda: CountableSetStream([Fraction(HUGE)]).value(0)),
    "stream repeat": (StreamError, lambda: CountableSetStream([Fraction(1, HUGE)] * 2).value(1)),
    "stream index": (ArgumentError, lambda: CountableSetStream([]).value(-HUGE)),
    "splitting_depth": (DuplicateElementError, lambda: splitting_depth([Fraction(HUGE)] * 2)),
    "FixedStages": (SchemeError, lambda: FixedStages([(HUGE, 0)])),
    "verify_witness": (WitnessIndexError, lambda: verify_witness([HUGE], Sequence.from_payloads(Tag.INT, [1]), IntLessOrder())),
    "build_scheme depth": (SchemeError, lambda: build_scheme(MiddleThirds(), HUGE)),
    "build_scheme resolution": (SchemeError, lambda: build_scheme(MiddleThirds(), 1, resolution=HUGE)),
    "MiddleThirds.stage": (SchemeError, lambda: MiddleThirds().stage(HUGE)),
    "MiddleThirds.stage negative": (SchemeError, lambda: MiddleThirds().stage(-HUGE)),
    "TreeGenSpec": (ArgumentError, lambda: TreeGenSpec(seed=0, depth_cap=HUGE)),
    "TreeGenSpec max_children": (ArgumentError, lambda: TreeGenSpec(seed=0, max_children=HUGE)),
    "lex_between ends": (DomainMismatchError, lambda: lex_between((HUGE,), (1,))),
    "lex_between order": (ArgumentOrderError, lambda: lex_between((1, HUGE, 1), (1,))),
    "TreePrefixError": (TreePrefixError, lambda: validate_tree([(), (HUGE, 0)])),
    "dense_embed repeat": (
        DuplicateElementError,
        lambda: dense_embed(_rationals(HUGE, HUGE), RatLessOrder(), CountableSetStream([Fraction(1, 2)])),
    ),
    "dense_embed budget": (
        SearchBudgetError,
        lambda: dense_embed(_rationals(HUGE), RatLessOrder(), CountableSetStream([]), budget=0),
    ),
    "format_dyadic_binary": (DomainMismatchError, lambda: format_dyadic_binary(Fraction(1, 3 * HUGE))),
    "longest_chain method": (ParseError, lambda: longest_chain(Sequence.from_payloads(Tag.INT, [1]), IntLessOrder(), HUGE)),
    "make_pipeline": (ParseError, lambda: make_pipeline(HUGE)),
    "validate_tree mode": (ParseError, lambda: validate_tree([()], mode=HUGE)),
    "parse_payload tag": (ParseError, lambda: parse_payload("1", HUGE)),
}


@pytest.mark.parametrize("entry", sorted(HUGE_ECHOES))
def test_echoing_a_huge_value_keeps_the_typed_error(entry):
    "an error that echoes an int past the digit limit is still raised, with a short stand-in"
    error, call = HUGE_ECHOES[entry]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert "too large to print" in str(exc.value) and len(str(exc.value)) < 200


@pytest.mark.parametrize("value, form", [(12, str), (Fraction(-3, 4), str), ((1, 0), repr), ("a", repr), (Tag.INT, repr)])
def test_echo_renders_printable_values_as_given(value, form):
    assert echo(value, form) == form(value)


def test_negative_stream_counts_are_refused():
    stream = CountableSetStream([Fraction(1, 2)])
    scheme = build_scheme(MiddleThirds(), 1)
    with pytest.raises(ArgumentError):
        stream.prefix(-1)
    with pytest.raises(ArgumentError):
        gap_selector(stream, scheme, -1)
    assert stream.prefix(0) == [] and gap_selector(stream, scheme, 0) == ()


@pytest.mark.parametrize("drawn", [0, 3])
@pytest.mark.parametrize("index", [-1, -3, -(2**70)])
def test_negative_stream_indices_are_refused(drawn, index):
    "a negative index is refused, not read from the end of the values drawn so far"
    stream = dyadic_stream()
    assert stream.prefix(drawn) == [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)][:drawn]
    with pytest.raises(ArgumentError, match="negative"):
        stream.value(index)
    assert stream.value(0) == Fraction(1, 2)


def test_horizon_cap_refuses_before_any_term():
    tree = validate_tree([()])
    assert len(reduce_tree(tree, 3)) == 3
    assert filler(MAX_HORIZON - 1) == (1,) * (MAX_HORIZON - 1) + (0,)
    with pytest.raises(ArgumentError, match="cap"):
        reduce_tree(tree, MAX_HORIZON + 1)
    with pytest.raises(ArgumentError):
        filler(MAX_HORIZON)
    with pytest.raises(ArgumentError):
        filler(HUGE)
