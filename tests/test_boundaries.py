"""Caller values at the library's entry points: one domain rule reads
them, and an error that echoes one never fails while being built."""

from decimal import Decimal
from fractions import Fraction

import pytest

from orderchains.chains import (
    Sequence,
    UPSequence,
    constant_subsequence,
    longest_chain,
    patience_chain_length,
    verify_witness,
)
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
from orderchains.encodings import format_dyadic_binary, lex_between, word_to_bits, word_to_dyadic
from orderchains.errors import (
    ArgumentError,
    ArgumentOrderError,
    DomainMismatchError,
    DuplicateElementError,
    EmptySequenceError,
    ParseError,
    SchemeError,
    SearchBudgetError,
    StreamError,
    TreePrefixError,
    WitnessIndexError,
    echo,
)
from orderchains.limits import ECHO_LIMIT, MAX_RESOLUTION, MAX_STREAM_VALUES
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
from orderchains.reductions import (
    PointwiseMap,
    TreeGenSpec,
    fuzz_reduction,
    lift_map,
    make_pipeline,
    reduce_tree,
)
from orderchains.trees import MAX_HORIZON, filler, index_of, validate_tree, word_at

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


# A tag that is not a ``Tag`` has no domain rules, so every intake that
# takes one refuses it, hashable or not.
NOT_A_TAG = {
    "Element": lambda: Element("nat", -5),
    "Element unhashable": lambda: Element([], 5),
    "make_element": lambda: make_element("int", 1),
    "from_payloads": lambda: Sequence.from_payloads("nat", [-1, "x", None]),
    "validate_payloads": lambda: validate_payloads(None, []),
    "Sequence": lambda: Sequence("nat", []),
    "Sequence of elements": lambda: Sequence("int", [Element(Tag.INT, 1)]),
    "Delta": lambda: make_order("Delta", tag="x"),
    "Delta unhashable": lambda: make_order("Delta", tag=[]),
}


@pytest.mark.parametrize("intake", sorted(NOT_A_TAG))
def test_a_tag_that_is_not_a_tag_raises_domain_mismatch(intake):
    with pytest.raises(DomainMismatchError):
        NOT_A_TAG[intake]()


# Items that are not an ``Element`` where elements are taken.
NOT_AN_ELEMENT = {
    "check_axioms str": lambda: check_axioms(IntLessOrder(), "x"),
    "check_axioms ints": lambda: check_axioms(IntLessOrder(), [1, 2]),
    "dense_embed": lambda: dense_embed("x", IntLessOrder(), dyadic_stream()),
    "compare ints": lambda: IntLessOrder().compare(1, 2),
    "compare element and int": lambda: IntLessOrder().compare(Element(Tag.INT, 1), 2),
    "related ints": lambda: IntLessOrder().related(1, 2),
    "related int and element": lambda: IntLessOrder().related(None, Element(Tag.INT, 2)),
}


@pytest.mark.parametrize("intake", sorted(NOT_AN_ELEMENT))
def test_an_item_that_is_not_an_element_raises_domain_mismatch(intake):
    with pytest.raises(DomainMismatchError, match="IntLess compares elements, got"):
        NOT_AN_ELEMENT[intake]()


# A word that is not a tuple of naturals, where a word is taken.
NOT_A_WORD = {
    "word_to_dyadic None": lambda: word_to_dyadic(None),
    "word_to_dyadic int": lambda: word_to_dyadic(5),
    "word_to_dyadic str": lambda: word_to_dyadic("ab"),
    "word_to_dyadic entry": lambda: word_to_dyadic((1, None)),
    "word_to_bits None": lambda: word_to_bits(None),
    "word_to_bits int": lambda: word_to_bits(5),
    "word_to_bits str": lambda: word_to_bits("ab"),
    "word_to_bits entry": lambda: word_to_bits((1, None)),
    "word_to_dyadic float entry": lambda: word_to_dyadic((0.5,)),
    "word_to_dyadic complex entry": lambda: word_to_dyadic((1j,)),
    "index_of None": lambda: index_of(None),
    "index_of str": lambda: index_of("ab"),
    "index_of entry": lambda: index_of((1, None)),
    "index_of negative entry": lambda: index_of((-1,)),
    "index_of later negative entry": lambda: index_of((1, -2)),
    "index_of float entry": lambda: index_of((0.5,)),
    "index_of bool entry": lambda: index_of((True,)),
}


@pytest.mark.parametrize("intake", sorted(NOT_A_WORD))
def test_a_word_that_is_not_a_word_raises_domain_mismatch(intake):
    with pytest.raises(DomainMismatchError, match="is defined on words of naturals"):
        NOT_A_WORD[intake]()


def _ints(*payloads):
    return Sequence.from_payloads(Tag.INT, payloads)


# A sequence that is not a ``Sequence`` at the chain functions, and an
# oracle that is not an ``Order`` there and at ``dense_embed`` and
# ``check_axioms``.
NOT_A_SEQUENCE = {
    "longest_chain": lambda: longest_chain(None, IntLessOrder()),
    "longest_chain payloads": lambda: longest_chain([1, 2], IntLessOrder()),
    "patience_chain_length": lambda: patience_chain_length(None, IntLessOrder()),
    "verify_witness": lambda: verify_witness([0], None, IntLessOrder()),
    "constant_subsequence": lambda: constant_subsequence(None),
    "constant_subsequence elements": lambda: constant_subsequence((Element(Tag.INT, 1),)),
}
NOT_AN_ORDER = {
    "longest_chain": lambda: longest_chain(_ints(1, 2), None),
    "longest_chain name": lambda: longest_chain(_ints(1, 2), "IntLess"),
    "patience_chain_length": lambda: patience_chain_length(_ints(1, 2), None),
    "verify_witness": lambda: verify_witness([0, 1], _ints(1, 2), None),
    "dense_embed": lambda: dense_embed([Element(Tag.INT, 1)], None, dyadic_stream()),
    "dense_embed name": lambda: dense_embed([Element(Tag.INT, 1)], "IntLess", dyadic_stream()),
    "check_axioms": lambda: check_axioms(None, [Element(Tag.INT, 1)]),
    "check_axioms name": lambda: check_axioms("IntLess", [Element(Tag.INT, 1)]),
}


class _OverlappingStages:
    """A stage oracle whose every stage has two overlapping components."""

    def stage(self, k):
        return ((Fraction(0), Fraction(1, 2)), (Fraction(1, 4), Fraction(1)))

    def components(self, k):
        return 2


# Refusals that each function documents, with their type and text.
DOCUMENTED_REFUSALS = {
    "constant_subsequence empty": (
        EmptySequenceError, "constant_subsequence needs a non-empty sequence", lambda: constant_subsequence(_ints()),
    ),
    "UPSequence mixed tags": (
        DomainMismatchError, "prefix and cycle must share a domain tag",
        lambda: UPSequence(_ints(1), Sequence.from_payloads(Tag.NAT, [1])),
    ),
    "build_scheme past MAX_RESOLUTION": (
        SchemeError, f"no stage below resolution {MAX_RESOLUTION} has 2^2 components",
        lambda: build_scheme(FixedStages([(0, 1)]), 1),
    ),
    "build_scheme overlapping components": (
        SchemeError, "stage components must be disjoint and sorted", lambda: build_scheme(_OverlappingStages(), 0),
    ),
    "format_dyadic_binary above 1": (
        DomainMismatchError, "binary expansion expects a value in [0, 1)", lambda: format_dyadic_binary(Fraction(3, 2)),
    ),
    "word_at negative": (ArgumentError, "enumeration index must be non-negative", lambda: word_at(-1)),
}


@pytest.mark.parametrize("intake", sorted(NOT_A_SEQUENCE))
def test_a_sequence_that_is_not_a_sequence_raises_domain_mismatch(intake):
    with pytest.raises(DomainMismatchError, match="chain functions take a Sequence, got"):
        NOT_A_SEQUENCE[intake]()


@pytest.mark.parametrize("intake", sorted(NOT_AN_ORDER))
def test_an_oracle_that_is_not_an_order_raises_domain_mismatch(intake):
    "each taker refuses it by one check, which names the taker"
    taker = {"dense_embed": "dense_embed takes", "check_axioms": "check_axioms takes"}.get(
        intake.split()[0], "chain functions take"
    )
    with pytest.raises(DomainMismatchError, match=f"^{taker} an Order, got"):
        NOT_AN_ORDER[intake]()


@pytest.mark.parametrize("intake", sorted(DOCUMENTED_REFUSALS))
def test_documented_refusals_keep_their_type_and_text(intake):
    error, message, call = DOCUMENTED_REFUSALS[intake]
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize(
    "indices, message",
    [
        ([99999, "a"], "witness index 99999 outside sequence of length 3"),
        (["a", 99999], "witness index 'a' is not an integer"),
        ([0, -1, None], "witness index -1 outside sequence of length 3"),
        ([0, 1.5, 7], "witness index 1.5 is not an integer"),
        ([True, 3], "witness index 3 outside sequence of length 3"),
        ([2, 1, 3], "witness index 3 outside sequence of length 3"),
    ],
)
def test_mixed_bad_witness_indices_report_the_first_in_order(indices, message):
    "the first bad index in order is reported, whichever check it fails"
    with pytest.raises(WitnessIndexError) as info:
        verify_witness(indices, _ints(1, 2, 3), IntLessOrder())
    assert str(info.value) == message


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
    "stream index cap": (ArgumentError, lambda: dyadic_stream().value(HUGE)),
    "stream prefix cap": (ArgumentError, lambda: dyadic_stream().prefix(HUGE)),
    "splitting_depth": (DuplicateElementError, lambda: splitting_depth([Fraction(HUGE)] * 2)),
    "FixedStages": (SchemeError, lambda: FixedStages([(HUGE, 0)])),
    "verify_witness": (WitnessIndexError, lambda: verify_witness([HUGE], Sequence.from_payloads(Tag.INT, [1]), IntLessOrder())),
    "build_scheme depth": (SchemeError, lambda: build_scheme(MiddleThirds(), HUGE)),
    "build_scheme resolution": (SchemeError, lambda: build_scheme(MiddleThirds(), 1, resolution=HUGE)),
    "MiddleThirds.stage": (SchemeError, lambda: MiddleThirds().stage(HUGE)),
    "MiddleThirds.stage negative": (SchemeError, lambda: MiddleThirds().stage(-HUGE)),
    "TreeGenSpec": (ArgumentError, lambda: TreeGenSpec(seed=0, depth_cap=HUGE)),
    "TreeGenSpec max_children": (ArgumentError, lambda: TreeGenSpec(seed=0, max_children=HUGE)),
    "TreeGenSpec negative max_children": (ArgumentError, lambda: TreeGenSpec(seed=0, max_children=-HUGE)),
    "TreeGenSpec node_cap": (ArgumentError, lambda: TreeGenSpec(seed=0, node_cap=HUGE)),
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
    "make_pipeline": (ParseError, lambda: make_pipeline(HUGE)),
    "fuzz_reduction trials": (ArgumentError, lambda: fuzz_reduction(make_pipeline("subset"), TreeGenSpec(seed=0), -HUGE, 10)),
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


@pytest.mark.parametrize(
    "value, form",
    [(12, str), (Fraction(-3, 4), str), ((1, 0), repr), ("a", repr), (Tag.INT, repr), (Tag.INT, str),
     ("x" * ECHO_LIMIT, repr), ("\x00" * ECHO_LIMIT, repr), (10 ** (ECHO_LIMIT - 1), str)],
)
def test_echo_renders_printable_values_as_given(value, form):
    "a value of at most ECHO_LIMIT characters is rendered whole"
    assert echo(value, form) == form(value)


def test_echo_cuts_a_long_value_and_gives_its_length():
    "past ECHO_LIMIT characters: the first ones, then the full length"
    assert echo(10**ECHO_LIMIT) == "1" + "0" * (ECHO_LIMIT - 1) + f"... ({ECHO_LIMIT + 1} characters)"
    assert echo((1,) * 10**5, repr) == "(" + "1, " * 13 + "... (300000 characters)"
    # A str is cut before it is rendered, so its quote stays whole.
    assert echo("y" * 10**6, repr) == repr("y" * ECHO_LIMIT) + "... (1000000 characters)"
    assert len(echo("y" * 10**6, repr)) == 66
    assert echo("y" * 10**6) == "y" * ECHO_LIMIT + "... (1000000 characters)"


# Long enough to swamp a message, short enough to print: 10^5
# characters of str and of tuple repr, and an int of 4 001 digits.
LONG = 10**4000
LONG_TEXT = "y" * 10**5
LONG_WORD = (1,) * 10**5


def _long_sequence():
    return Sequence.from_payloads(Tag.INT, [1, 2])


# Entry points whose error message echoes a caller's value, driven with
# a value that prints at length.
LONG_ECHOES = {
    "Element": (DomainMismatchError, lambda: Element(Tag.NAT, LONG_WORD)),
    "Element tag": (DomainMismatchError, lambda: Element(LONG_TEXT, 1)),
    "make_element": (DomainMismatchError, lambda: make_element(Tag.NAT, -LONG)),
    "from_payloads": (DomainMismatchError, lambda: Sequence.from_payloads(Tag.INT, [1, LONG_TEXT])),
    "Sequence": (DomainMismatchError, lambda: Sequence(Tag.INT, [LONG_WORD])),
    "check_axioms element": (DomainMismatchError, lambda: check_axioms(IntLessOrder(), [LONG_WORD])),
    "check_axioms axiom": (ParseError, lambda: check_axioms(IntLessOrder(), [], axioms=[LONG_TEXT])),
    "make_order": (ParseError, lambda: make_order(LONG_TEXT)),
    "parse_payload nat": (ParseError, lambda: parse_payload("0" * 4000, Tag.NAT)),
    "parse_payload int": (ParseError, lambda: parse_payload(LONG_TEXT, Tag.INT)),
    "parse_payload rational": (ParseError, lambda: parse_payload("1/" + LONG_TEXT, Tag.RATIONAL)),
    "parse_payload exponent": (ParseError, lambda: parse_payload("1" * 10**5 + "e99999", Tag.RATIONAL)),
    "parse_payload word": (ParseError, lambda: parse_payload("1." + LONG_TEXT, Tag.WORD_NAT)),
    "parse_payload bits": (ParseError, lambda: parse_payload(LONG_TEXT, Tag.WORD_BIT)),
    "parse_payload tag": (ParseError, lambda: parse_payload("1", LONG_TEXT)),
    "verify_witness type": (WitnessIndexError, lambda: verify_witness([LONG_TEXT], _long_sequence(), IntLessOrder())),
    "verify_witness range": (WitnessIndexError, lambda: verify_witness([LONG], _long_sequence(), IntLessOrder())),
    "lift_map": (DomainMismatchError, lambda: lift_map(_long_sequence(), PointwiseMap(LONG_TEXT, Tag.NAT, Tag.NAT, abs))),
    "make_pipeline": (ParseError, lambda: make_pipeline("p" * 10**5)),
    "reduce_tree horizon": (ArgumentError, lambda: reduce_tree(validate_tree([()]), LONG)),
    "fuzz_reduction horizon": (ArgumentError, lambda: fuzz_reduction(make_pipeline("subset"), TreeGenSpec(seed=0), 0, LONG)),
    "fuzz_reduction trials": (ArgumentError, lambda: fuzz_reduction(make_pipeline("subset"), TreeGenSpec(seed=0), -LONG, 10)),
    "TreeGenSpec depth_cap": (ArgumentError, lambda: TreeGenSpec(seed=0, depth_cap=LONG)),
    "TreeGenSpec max_children": (ArgumentError, lambda: TreeGenSpec(seed=0, max_children=LONG)),
    "TreeGenSpec negative max_children": (ArgumentError, lambda: TreeGenSpec(seed=0, max_children=-LONG)),
    "TreeGenSpec node_cap": (ArgumentError, lambda: TreeGenSpec(seed=0, node_cap=LONG)),
    "validate_tree mode": (ParseError, lambda: validate_tree([()], mode=LONG_TEXT)),
    "TreePrefixError": (TreePrefixError, lambda: validate_tree([(), LONG_WORD])),
    "filler": (ArgumentError, lambda: filler(LONG)),
    "lex_between ends": (DomainMismatchError, lambda: lex_between((0,) * 10**5, (1,))),
    "lex_between order": (ArgumentOrderError, lambda: lex_between(LONG_WORD, (1,))),
    "format_dyadic_binary": (DomainMismatchError, lambda: format_dyadic_binary(Fraction(1, 3 * LONG))),
    "stream range": (StreamError, lambda: CountableSetStream([Fraction(LONG)]).value(0)),
    "stream repeat": (StreamError, lambda: CountableSetStream([Fraction(1, LONG)] * 2).value(1)),
    "stream index": (ArgumentError, lambda: CountableSetStream([]).value(-LONG)),
    "stream index cap": (ArgumentError, lambda: dyadic_stream().value(LONG)),
    "stream prefix": (ArgumentError, lambda: dyadic_stream().prefix(-LONG)),
    "stream prefix cap": (ArgumentError, lambda: dyadic_stream().prefix(LONG)),
    "splitting_depth": (DuplicateElementError, lambda: splitting_depth([Fraction(1, LONG)] * 2)),
    "FixedStages": (SchemeError, lambda: FixedStages([(LONG, 0)])),
    "build_scheme depth": (SchemeError, lambda: build_scheme(MiddleThirds(), LONG)),
    "build_scheme resolution": (SchemeError, lambda: build_scheme(MiddleThirds(), 1, resolution=LONG)),
    "MiddleThirds.stage": (SchemeError, lambda: MiddleThirds().stage(LONG)),
    "MiddleThirds.stage negative": (SchemeError, lambda: MiddleThirds().stage(-LONG)),
    "dense_embed repeat": (
        DuplicateElementError,
        lambda: dense_embed(_rationals(LONG, LONG), RatLessOrder(), CountableSetStream([Fraction(1, 2)])),
    ),
    "dense_embed budget": (
        SearchBudgetError,
        lambda: dense_embed(_rationals(LONG), RatLessOrder(), CountableSetStream([]), budget=0),
    ),
}


def check_short_error(error, call):
    """``call`` raises exactly ``error``, with a message under 200
    characters that marks where it cut the value it quotes."""
    try:
        call()
    except error as exc:
        assert type(exc) is error
        message = str(exc)
        assert len(message) < 200, f"{len(message)}-character message: {message[:80]!r}..."
        assert " characters)" in message
        return
    raise AssertionError(f"no {error.__name__}")


@pytest.mark.parametrize("entry", sorted(LONG_ECHOES))
def test_echoing_a_long_value_keeps_the_message_short(entry):
    check_short_error(*LONG_ECHOES[entry])


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


@pytest.mark.parametrize("past", [MAX_STREAM_VALUES, 2**70])
def test_stream_index_past_the_cap_is_refused_before_any_draw(past):
    "an index or a length past the cap would draw for ever from an endless stream"
    s = dyadic_stream()
    with pytest.raises(ArgumentError, match=f"stream index {past} is past the cap of {MAX_STREAM_VALUES} values"):
        s.value(past)
    with pytest.raises(ArgumentError, match=f"stream prefix length {past + 1} is above the cap of {MAX_STREAM_VALUES}"):
        s.prefix(past + 1)
    assert s._cache == []


def test_stream_prefix_at_the_cap_is_drawn_in_full(monkeypatch):
    "the cap refuses only past it: the last index and a prefix of exactly the cap still draw"
    monkeypatch.setattr("orderchains.dense.MAX_STREAM_VALUES", 8)
    stream = dyadic_stream()
    assert stream.value(7) == Fraction(1, 16)
    assert len(stream.prefix(8)) == 8
    with pytest.raises(ArgumentError):
        stream.value(8)


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


@pytest.mark.parametrize("trials", [0, 1, -3])
@pytest.mark.parametrize("horizon", [0, -5, MAX_HORIZON + 1, HUGE], ids=["0", "-5", "cap+1", "huge"])
def test_fuzz_reduction_refuses_a_horizon_before_any_trial(trials, horizon, monkeypatch):
    "fuzz_reduction refuses a horizon as reduce_tree does, with no trial run, whatever the trial count"
    tree = validate_tree([()])
    with pytest.raises(ArgumentError) as want:
        reduce_tree(tree, horizon)
    monkeypatch.setattr("orderchains.reductions.generate_tree", None)
    with pytest.raises(ArgumentError) as got:
        fuzz_reduction(make_pipeline("subset"), TreeGenSpec(seed=0), trials, horizon)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("trials", [None, "3", 1.0])
def test_fuzz_reduction_reads_a_trial_count_as_range_does(trials):
    "a trial count that is not an int keeps range's TypeError, before the horizon is read"
    with pytest.raises(TypeError) as want:
        range(trials)
    with pytest.raises(TypeError) as got:
        fuzz_reduction(make_pipeline("subset"), TreeGenSpec(seed=0), trials, -5)
    assert str(got.value) == str(want.value)
