"""Comparison oracles over countable element domains.

Each oracle answers a four-valued ``compare`` (LT / EQ / GT /
INCOMPARABLE) that is independent of strictness; ``related`` projects
the verdict onto the strict or reflexive reading the oracle was built
with; ``_compare`` and ``_related`` do the same on unchecked payloads.
A linear oracle states its order once, as one key per payload that
embeds it into Python's native comparisons: ``compare`` and ``sort_key``
both derive from that key, and the chain algorithms rank by it.
"""

from __future__ import annotations

import enum
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import inf, isqrt

from .errors import ArgumentError, DomainMismatchError, ParseError, echo
from .words import (
    format_bit_word,
    format_nat_word,
    is_prefix,
    parse_bit_word,
    parse_nat_word,
    quote_token,
)


class Tag(enum.Enum):
    """Domain tag of an element."""

    NAT = "nat"          # naturals without zero
    INT = "int"
    RATIONAL = "rational"
    WORD_NAT = "word"    # finite words over the naturals (zero allowed)
    WORD_BIT = "bits"    # finite words over {0, 1}

    def __str__(self):
        return self.value


# Looking up an enum member on its class costs a descriptor call on
# Python 3.11, so the validators, parsers and formatters compare
# against these.
_NAT, _INT, _RATIONAL, _WORD_NAT, _WORD_BIT = Tag


class Cmp(enum.Enum):
    LT = "LT"
    EQ = "EQ"
    GT = "GT"
    INCOMPARABLE = "INCOMPARABLE"

    def __str__(self):
        return self.value


LT, EQ, GT, INCOMPARABLE = Cmp.LT, Cmp.EQ, Cmp.GT, Cmp.INCOMPARABLE

_MIRROR = {LT: GT, GT: LT, EQ: EQ, INCOMPARABLE: INCOMPARABLE}


# Domain rules per tag, read by ``Element`` and the bulk check: whether a
# payload is a word (a tuple of entries), the type of a scalar or entry
# (never bool), its least and greatest value (None: none), the error text.
_DOMAINS = {
    _NAT: (False, int, 1, None, "nat elements are integers >= 1"),
    _INT: (False, int, None, None, "int elements are integers"),
    _RATIONAL: (False, Fraction, None, None, "rational elements are Fractions"),
    _WORD_NAT: (True, int, 0, None, "word elements are tuples of naturals"),
    _WORD_BIT: (True, int, 0, 1, "bit-word elements are tuples over {0,1}"),
}


@dataclass(frozen=True, slots=True)
class Element:
    """A tagged value from one of the supported domains."""

    tag: Tag
    value: object

    def __post_init__(self):
        if not _valid_payloads(self.tag, (self.value,)):
            raise DomainMismatchError(f"{_DOMAINS[self.tag][-1]}, got {echo(self.value, repr)}")

    def __str__(self):
        return format_element(self)


def make_element(tag: Tag, payload) -> Element:
    """Build an element, normalising convenient payload spellings: a
    rational ``str`` by ``parse_rational``, as the CLI reads a token, any
    other rational by ``Fraction``, a word from any iterable.  One that
    does not normalise goes to ``Element`` as given, which rejects it."""
    try:
        if tag is Tag.RATIONAL and not isinstance(payload, Fraction):
            payload = parse_rational(payload) if isinstance(payload, str) else Fraction(payload)
        if tag in (Tag.WORD_NAT, Tag.WORD_BIT) and not isinstance(payload, tuple):
            payload = tuple(payload)
    except (TypeError, ValueError, ArithmeticError):
        pass
    return Element(tag, payload)


def validate_payloads(tag: Tag, payloads) -> tuple:
    """The payloads as one tuple, each checked as ``make_element`` checks it.

    Payloads valid as they are (ints, ``Fraction``s, tuples of ints) are
    checked in bulk.  Anything else takes the per-term path, which
    normalises the spellings ``make_element`` accepts and raises its
    error on the first bad payload.
    """
    values = tuple(payloads)
    if _valid_payloads(tag, values):
        return values
    return tuple(make_element(tag, p).value for p in values)


def _valid_payloads(tag: Tag, values: tuple) -> bool:
    """Whether every payload is valid for ``tag`` as it is: one set test
    for exact native types, ``isinstance`` for subclasses (never bool).
    An object that is not a ``Tag`` has no rules."""
    rules = _DOMAINS.get(tag)
    if rules is None:
        return True
    word, kind, lo, hi, _ = rules
    if word:
        if not (set(map(type, values)) <= {tuple} or all(isinstance(v, tuple) for v in values)):
            return False
        values = list(chain.from_iterable(values))
    if not (set(map(type, values)) <= {kind} or all(isinstance(a, kind) and not isinstance(a, bool) for a in values)):
        return False
    return not values or ((lo is None or min(values) >= lo) and (hi is None or max(values) <= hi))


def parse_payload(text: str, tag: Tag):
    """Parse one textual token into a payload of the given domain tag.

    Every payload it returns is valid for ``tag``.
    """
    try:
        if tag is _NAT:
            value = int(text)
            if value < 1:
                raise ParseError(f"naturals here exclude zero, got {quote_token(text)}")
            return value
        if tag is _INT:
            return int(text)
        if tag is _RATIONAL:
            return parse_rational(text)
        if tag is _WORD_NAT:
            return parse_nat_word(text)
        if tag is _WORD_BIT:
            return parse_bit_word(text)
    except ParseError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        quoted = quote_token(text)
        # ``Fraction``'s own message repeats the whole token.
        reason = str(exc).replace(repr(text), quoted)
        raise ParseError(f"bad {tag.value} token {quoted}: {reason}") from exc
    raise ParseError(f"unknown tag {echo(tag, repr)}")


# The exponent of a decimal spelling such as 1.5e-3.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``.

    A plain ``[+-]digits[/digits]`` token is read with ``int`` alone,
    skipping ``Fraction``'s regex; ``int`` reads the same decimal digits
    that regex matches and raises the same digit-limit error.  Every
    other spelling goes to ``Fraction(text)``, so the accepted spellings
    and every error stay ``Fraction``'s own, except that an exponent
    above the digit limit in magnitude raises ``ValueError`` first:
    ``Fraction`` would compute its power of ten, taking time that grows
    with the exponent.
    """
    sign = text[:1]
    body = text[1:] if sign == "-" or sign == "+" else text
    num, slash, den = body.partition("/")
    if num.isdecimal() and (den.isdecimal() or not slash):
        numerator = int(num)
        return Fraction(-numerator if sign == "-" else numerator, int(den) if slash else 1)
    exponent = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if exponent and limit and abs(int(exponent[1])) > limit:
        raise ValueError(f"exponent of {text!r} is above {limit} in magnitude")
    return Fraction(text)


def parse_element(text: str, tag: Tag) -> Element:
    """Parse one textual token for the given domain tag."""
    return Element(tag, parse_payload(text, tag))


def format_payload(tag: Tag, payload) -> str:
    """Render a payload in the same syntax parse_payload accepts."""
    if tag is _RATIONAL:
        try:
            return f"{payload.numerator}/{payload.denominator}"
        except ValueError as exc:  # more digits than int -> str converts
            raise ArgumentError(
                f"rational too large to print: its numerator or denominator has more than {sys.get_int_max_str_digits()} decimal digits"
            ) from exc
    if tag is _WORD_NAT:
        return format_nat_word(payload)
    if tag is _WORD_BIT:
        return format_bit_word(payload)
    return str(payload)


def format_element(el: Element) -> str:
    """Render an element in the same syntax parse_element accepts."""
    return format_payload(el.tag, el.value)


class Order:
    """Base of all comparison oracles.

    Subclasses fix the external ``name``, the domain tag, whether the
    order is linear, and the payload comparison ``_compare``.
    """

    name: str = "?"
    is_linear: bool = False

    def __init__(self, strict: bool = True, domain: Tag | None = None):
        self.strict = strict
        if domain is not None:
            self.domain = domain

    def compare(self, a: Element, b: Element) -> Cmp:
        """Four-valued comparison; LT always means strictly below."""
        self.check_tag(a.tag)
        self.check_tag(b.tag)
        return self._compare(a.value, b.value)

    def related(self, a: Element, b: Element) -> bool:
        """True iff a precedes b under this oracle's strictness convention."""
        return self._holds(self.compare(a, b))

    def _related(self, x, y) -> bool:
        """``related`` on two payloads of this oracle's domain, unchecked."""
        return self._holds(self._compare(x, y))

    def _holds(self, verdict: Cmp) -> bool:
        """Whether a verdict relates its pair under this oracle's strictness."""
        return verdict is LT or (verdict is EQ and not self.strict)

    def check_tag(self, tag: Tag) -> None:
        """Raise DomainMismatchError unless ``tag`` is this oracle's domain."""
        if tag is not self.domain:
            raise DomainMismatchError(
                f"{self.name} compares {self.domain.value} elements, got {tag.value}"
            )

    def sort_key(self, el: Element):
        """Order-embedding key into Python comparisons (linear oracles only)."""
        raise NotImplementedError(f"{self.name} has no sort key")

    def lower_links(self, values) -> list[tuple[int, ...]] | None:
        """Links from each value down to values strictly below it, or None.

        ``values`` is a list of distinct payloads of this oracle's
        domain.  The result ``links`` has one tuple per value:
        ``links[k]`` holds indices j with ``values[j]`` strictly below
        ``values[k]`` (``_compare`` gives LT), and following links
        transitively from k reaches every value strictly below
        ``values[k]``.  The links encode LT alone, so one list serves
        both readings.  The base class returns None: an oracle that
        cannot list its lower values leaves the chain search to the
        generic scan.
        """
        return None

    def _compare(self, x, y) -> Cmp:
        raise NotImplementedError

    def __repr__(self):
        kind = "strict" if self.strict else "non-strict"
        return f"{self.name}({kind})"


class LinearOrder(Order):
    """Base of the linear oracles: the order is that of ``_key`` on
    payloads, or of the payloads themselves when ``_key`` is None."""

    is_linear = True
    _key = None

    def _compare(self, x, y):
        if self._key is not None:
            x, y = self._key(x), self._key(y)
        if x == y:
            return EQ
        return LT if x < y else GT

    def sort_key(self, el: Element):
        """Order-embedding key into Python comparisons."""
        return el.value if self._key is None else self._key(el.value)

    def sort_keys(self, payloads):
        """``sort_key`` of every payload, by one pass of the key function."""
        return payloads if self._key is None else list(map(self._key, payloads))


class DividesOrder(Order):
    """Divisibility on the naturals without zero."""

    name = "Divides"
    domain = Tag.NAT

    def _compare(self, x, y):
        if x == y:
            return EQ
        if y % x == 0:
            return LT
        if x % y == 0:
            return GT
        return INCOMPARABLE

    def lower_links(self, values):
        """Every proper divisor among ``values``.

        Trial division up to each value's square root while the largest
        value's root is below the number v of values, a scan over the
        values otherwise: either takes at most v² steps, so huge naturals
        never cost more than the scan.
        """
        if isqrt(max(values, default=0)) >= len(values):
            return [tuple(j for j, y in enumerate(values) if y != x and x % y == 0) for x in values]
        index = {x: k for k, x in enumerate(values)}
        links = []
        for x in values:
            below = []
            for d in range(1, isqrt(x) + 1):
                if x % d == 0:
                    for y in {d, x // d}:
                        if y != x and y in index:
                            below.append(index[y])
            links.append(tuple(below))
        return links


class DeltaOrder(Order):
    """The identity relation on any domain: only equal pairs are related."""

    name = "Delta"

    def __init__(self, strict: bool = True, domain: Tag = Tag.INT):
        super().__init__(strict=strict, domain=domain)

    def _compare(self, x, y):
        return EQ if x == y else INCOMPARABLE

    def lower_links(self, values):
        return [()] * len(values)


class IntLessOrder(LinearOrder):
    """The usual order on the integers."""

    name = "IntLess"
    domain = Tag.INT


def rational_key(q: Fraction) -> tuple[float, Fraction]:
    """Exact order key of a rational: ``(float, Fraction)``.

    int / int is correctly rounded and rounding is monotone, so x < y
    gives f(x) <= f(y), and (f(x), x) orders as x does.  Sorts, bisects
    and ``max`` compare C floats and consult the Fraction only on a
    float tie, which covers -0.0 == 0.0 and the +-inf of an overflow.
    """
    try:
        f = q.numerator / q.denominator
    except OverflowError:
        f = inf if q.numerator > 0 else -inf
    return (f, q)


class RatLessOrder(LinearOrder):
    """The usual order on the rationals."""

    name = "RatLess"
    domain = Tag.RATIONAL
    _key = staticmethod(rational_key)


class PrefixOrder(Order):
    """Initial-segment order on words: a below b iff a is a prefix of b."""

    def __init__(self, strict: bool = True, domain: Tag = Tag.WORD_NAT):
        if domain not in (Tag.WORD_NAT, Tag.WORD_BIT):
            raise DomainMismatchError("prefix order is over word domains")
        super().__init__(strict=strict, domain=domain)

    @property
    def name(self):
        return "SubsetWordNat" if self.domain is Tag.WORD_NAT else "SubsetWordBit"

    def _compare(self, x, y):
        if x == y:
            return EQ
        if is_prefix(x, y):
            return LT
        if is_prefix(y, x):
            return GT
        return INCOMPARABLE

    def lower_links(self, values):
        """The nearest proper prefix of each value among ``values``.

        Tuple order puts a word just before the contiguous run of its
        extensions, so one sweep in that order with a stack of the open
        prefixes finds each value's nearest prefix on top of the stack.
        """
        links: list[tuple[int, ...]] = [()] * len(values)
        open_prefixes: list[int] = []
        for k in sorted(range(len(values)), key=values.__getitem__):
            word = values[k]
            while open_prefixes and not is_prefix(values[open_prefixes[-1]], word):
                open_prefixes.pop()
            if open_prefixes:
                links[k] = (open_prefixes[-1],)
            open_prefixes.append(k)
        return links


class ReverseLexOrder(LinearOrder):
    """Linear order on nat-words: prefixes come first, and at the first
    disagreement the *larger* entry makes the whole word smaller."""

    name = "RL"
    domain = Tag.WORD_NAT

    @staticmethod
    def _key(payload):
        # Negating entries turns the reversed entry order into Python's
        # tuple order while keeping prefixes smaller.  The list sizes the
        # tuple once (see encodings.word_to_bits).
        return tuple(list(map(operator.neg, payload)))


class BitLexOrder(LinearOrder):
    """Lexicographic order on bit-words with prefixes smaller (Python's
    tuple order)."""

    name = "LexBit"
    domain = Tag.WORD_BIT


# Oracle constructors by external name; ``tag`` is read by Delta alone.
_ORDERS = {
    "Divides": lambda strict, tag: DividesOrder(strict),
    "Delta": lambda strict, tag: DeltaOrder(strict, domain=tag if tag is not None else Tag.INT),
    "IntLess": lambda strict, tag: IntLessOrder(strict),
    "SubsetWordNat": lambda strict, tag: PrefixOrder(strict, domain=Tag.WORD_NAT),
    "SubsetWordBit": lambda strict, tag: PrefixOrder(strict, domain=Tag.WORD_BIT),
    "RL": lambda strict, tag: ReverseLexOrder(strict),
    "LexBit": lambda strict, tag: BitLexOrder(strict),
    "RatLess": lambda strict, tag: RatLessOrder(strict),
}
ORDER_NAMES = tuple(_ORDERS)
_ORDERS_BY_KEY = {name.lower(): build for name, build in _ORDERS.items()}


def make_order(name: str, strict: bool = True, tag: Tag | None = None) -> Order:
    """Build an oracle by external name (case-insensitive).

    ``tag`` selects the domain for Delta; the rest have fixed domains.
    """
    build = _ORDERS_BY_KEY.get(name.lower())
    if build is None:
        raise ParseError(f"unknown order {quote_token(name)}; choose one of {', '.join(ORDER_NAMES)}")
    return build(strict, tag)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: tuple[Element, ...]

    def __str__(self):
        elems = ", ".join(format_element(e) for e in self.witness)
        return f"{self.axiom} violated by ({elems})"


@dataclass(frozen=True)
class AxiomReport:
    order_name: str
    strict: bool
    checked: tuple[str, ...]
    violations: tuple[AxiomViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return f"{self.order_name}: no violations ({', '.join(self.checked)})"
        lines = [str(v) for v in self.violations]
        return "\n".join(lines)


KNOWN_AXIOMS = ("reflexivity", "antisymmetry", "transitivity", "totality")


# The largest support check_axioms takes: it keeps the n x n verdicts of
# n^2 ``_compare`` calls, and at this size takes 0.6-1.2 s on a 2-core
# machine under IntLess, RatLess or RL.
MAX_AXIOM_SUPPORT = 900


def _set_bits(x: int) -> list[int]:
    """The positions of the set bits of x >= 0, ascending."""
    return [k for k, bit in enumerate(reversed(bin(x)[2:])) if bit == "1"]


def check_axioms(order: Order, support, axioms=None) -> AxiomReport:
    """Check order axioms exhaustively on a finite support.

    By default reflexivity, antisymmetry and transitivity are checked,
    plus totality when the oracle claims linearity.  Pass ``axioms`` to
    probe a different set (e.g. totality of a partial order).  The
    report lists every violated instance.  A support of more than
    ``MAX_AXIOM_SUPPORT`` elements raises ``ArgumentError``.
    """
    elems = list(support)
    n = len(elems)
    if n > MAX_AXIOM_SUPPORT:
        raise ArgumentError(f"check_axioms takes at most {MAX_AXIOM_SUPPORT} support elements, got {n}")
    if axioms is None:
        axioms = KNOWN_AXIOMS if order.is_linear else KNOWN_AXIOMS[:3]
    else:
        axioms = tuple(axioms)
        for ax in axioms:
            if ax not in KNOWN_AXIOMS:
                raise ParseError(f"unknown axiom {quote_token(ax)}; known: {', '.join(KNOWN_AXIOMS)}")
    for el in elems:
        order.check_tag(el.tag)
    values = [el.value for el in elems]
    compare = order._compare
    cmp_matrix = [[compare(x, y) for y in values] for x in values]
    violations: list[AxiomViolation] = []

    if "reflexivity" in axioms:
        for i, a in enumerate(elems):
            if cmp_matrix[i][i] is not EQ:
                violations.append(AxiomViolation("reflexivity", (a,)))

    if "antisymmetry" in axioms:
        for i in range(n):
            for j in range(i + 1, n):
                c = cmp_matrix[i][j]
                if cmp_matrix[j][i] is not _MIRROR[c] or (c is EQ and values[i] != values[j]):
                    violations.append(AxiomViolation("antisymmetry", (elems[i], elems[j])))

    if "transitivity" in axioms:
        # Row i as one int: bit k is set iff i is related to k.  Each
        # violation (i, j, k) is a bit k of rows[j] missing from rows[i].
        holds = order._holds
        rows = [int("".join("1" if holds(c) else "0" for c in reversed(row)), 2) for row in cmp_matrix]
        for i, row_i in enumerate(rows):
            for j in _set_bits(row_i):
                for k in _set_bits(rows[j] & ~row_i):
                    violations.append(AxiomViolation("transitivity", (elems[i], elems[j], elems[k])))

    if "totality" in axioms:
        for i in range(n):
            for j in range(i + 1, n):
                if cmp_matrix[i][j] is INCOMPARABLE:
                    violations.append(AxiomViolation("totality", (elems[i], elems[j])))

    return AxiomReport(order.name, order.strict, axioms, tuple(violations))
