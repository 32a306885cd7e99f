"""Comparison oracles over countable element domains.

Each oracle answers a four-valued ``compare`` (LT / EQ / GT /
INCOMPARABLE) that is independent of strictness; ``related`` projects
the verdict onto the strict or reflexive reading the oracle was built
with; ``_compare`` and ``_related`` do the same on unchecked payloads.
Each oracle states its order once and derives the rest.  A partial
oracle states ``_below(x, y)``, whether payload x lies strictly below
the unequal payload y, from which ``Order._compare`` derives the four
verdicts.  An oracle is linear exactly when it is a ``LinearOrder``,
which states one key per payload, ``_key``, that embeds the order into
Python's native comparisons.  The ranked chain pass and ``dense_embed``
compare ``sort_keys`` of one batch, which may trade that key for one
that orders the batch the same and compares in C: exact ints for
dyadic rationals, bytes for reverse-lex words.  A partial oracle may
also list the values below each value through ``lower_links``, which
the linked chain index follows: nearest prefixes for the prefix orders,
proper divisors for Divides.  It lists them over ``link_keys``, which
may likewise trade each payload for a key that ties the same: bytes for
prefix words.  Any other oracle gets the generic chain scan.  The name
and the domain of an oracle are class facts, bar the domain of Delta,
which is chosen per oracle.
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

from .errors import ArgumentError, DomainMismatchError, ParseError, echo, read_container
from .limits import _INT_KEY_BITS, MAX_AXIOM_SUPPORT, MAX_AXIOM_VIOLATIONS
from .words import (
    format_bit_word,
    format_nat_word,
    is_prefix,
    parse_bit_word,
    parse_nat_word,
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
        word, kind, lo, hi, text = check_domain(self.tag)
        entries = self.value if word else (self.value,)
        if not (isinstance(entries, tuple) and _valid_entries(entries, kind, lo, hi)):
            raise DomainMismatchError(f"{text}, got {echo(self.value, repr)}")

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
    error on the first bad payload.  A container that cannot be read
    raises ``DomainMismatchError`` too.
    """
    values = read_container(payloads, f"{echo(tag)} payloads")
    if _valid_payloads(tag, values):
        return values
    return tuple(make_element(tag, p).value for p in values)


def check_domain(tag) -> tuple:
    """The rules of a ``Tag``; anything else raises ``DomainMismatchError``."""
    try:
        return _DOMAINS[tag]
    except (KeyError, TypeError):  # TypeError: an unhashable tag
        raise DomainMismatchError(f"{echo(tag, repr)} is not a domain tag") from None


def _valid_payloads(tag: Tag, values: tuple) -> bool:
    """Whether every payload is valid for ``tag`` as it is: a tuple for a
    word domain, and every scalar or word entry by ``_valid_entries``."""
    word, kind, lo, hi, _ = check_domain(tag)
    if word:
        if not ({tuple}.issuperset(map(type, values)) or all(isinstance(v, tuple) for v in values)):
            return False
        values = list(chain.from_iterable(values))
    return _valid_entries(values, kind, lo, hi)


def _valid_entries(values, kind, lo, hi) -> bool:
    """The entry rule of ``Element`` and ``_valid_payloads``: each value of
    type ``kind`` (a subclass by ``isinstance``, never bool), within bounds."""
    if not ({kind}.issuperset(map(type, values)) or all(isinstance(a, kind) and not isinstance(a, bool) for a in values)):
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
                raise ParseError(f"naturals here exclude zero, got {echo(text, repr)}")
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
        quoted = echo(text, repr)
        # ``Fraction``'s message repeats the whole token, ``int``'s its repr cut at 200.
        reason = str(exc).replace(repr(text), quoted).replace(repr(text)[:200], quoted[:200])
        raise ParseError(f"bad {echo(tag)} token {quoted}: {reason}") from exc
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
        raise ValueError(f"exponent of {echo(text, repr)} is above {limit} in magnitude")
    return Fraction(text)


def parse_element(text: str, tag: Tag) -> Element:
    """Parse one textual token for the given domain tag."""
    return Element(tag, parse_payload(text, tag))


def too_large_to_print() -> ArgumentError:
    """The error ``format_payload`` raises for a rational with more
    decimal digits than the interpreter converts."""
    return ArgumentError(
        f"rational too large to print: its numerator or denominator has more than {sys.get_int_max_str_digits()} decimal digits"
    )


def format_payload(tag: Tag, payload) -> str:
    """Render a payload in the same syntax parse_payload accepts."""
    if tag is _RATIONAL:
        try:
            return f"{payload.numerator}/{payload.denominator}"
        except ValueError as exc:  # more digits than int -> str converts
            raise too_large_to_print() from exc
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

    Subclasses fix the external ``name`` and the domain tag ``domain`` as
    class attributes, and state the order once: ``_below`` for a partial
    order, from which ``_compare`` derives the verdicts, or ``_key`` for
    a linear one, which subclasses ``LinearOrder``.  A partial order may
    list its lower values through ``lower_links``.  An oracle from
    outside the package may instead override ``_compare`` whole.
    """

    name: str = "?"

    def __init__(self, strict: bool = True):
        self.strict = strict

    def compare(self, a: Element, b: Element) -> Cmp:
        """Four-valued comparison; LT always means strictly below."""
        self.check_element(a)
        self.check_element(b)
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
            raise DomainMismatchError(f"{self.name} compares {echo(self.domain)} elements, got {echo(tag)}")

    def check_element(self, el) -> None:
        """Raise DomainMismatchError unless ``el`` is an element of this oracle's domain."""
        if not isinstance(el, Element):
            raise DomainMismatchError(f"{self.name} compares elements, got {echo(el, repr)}")
        self.check_tag(el.tag)

    def link_keys(self, payloads):
        """Keys that tie exactly as the payloads do, for ``lower_links``;
        by default the payloads themselves."""
        return payloads

    def lower_links(self, values) -> list[tuple[int, ...]] | None:
        """Links from each value down to values strictly below it, or None.

        ``values`` is a list of distinct ``link_keys`` of payloads of
        this oracle's domain.  The result ``links`` has one tuple per value:
        ``links[k]`` holds indices j whose payload is strictly below that
        of ``values[k]`` (``_compare`` gives LT), and following links
        transitively from k reaches every value strictly below
        ``values[k]``.  The links encode LT alone, so one list serves
        both readings.  The base class returns None: an oracle that
        cannot list its lower values leaves the chain search to the
        generic scan.
        """
        return None

    def _below(self, x, y) -> bool:
        """Whether payload x lies strictly below the unequal payload y."""
        raise NotImplementedError

    def _compare(self, x, y) -> Cmp:
        if x == y:
            return EQ
        if self._below(x, y):
            return LT
        if self._below(y, x):
            return GT
        return INCOMPARABLE

    def __repr__(self):
        kind = "strict" if self.strict else "non-strict"
        return f"{self.name}({kind})"


def check_order(order, taker: str) -> None:
    """Raise DomainMismatchError unless ``order`` is an ``Order``; the
    message opens with ``taker``, as in "chain functions take"."""
    if not isinstance(order, Order):
        raise DomainMismatchError(f"{taker} an Order, got {echo(order, repr)}")


class LinearOrder(Order):
    """Base of the linear oracles: the order is that of ``_key`` on
    payloads, or of the payloads themselves when ``_key`` is None."""

    _key = None

    def _compare(self, x, y):
        if self._key is not None:
            x, y = self._key(x), self._key(y)
        if x == y:
            return EQ
        return LT if x < y else GT

    def sort_keys(self, payloads):
        """Keys that order and tie the payloads exactly as ``_key``
        does, by one pass; by default ``_key`` of each payload.  Keys
        compare only with keys of the same call."""
        return payloads if self._key is None else list(map(self._key, payloads))


class DividesOrder(Order):
    """Divisibility on the naturals without zero."""

    name = "Divides"
    domain = Tag.NAT

    def _below(self, x, y):
        return y % x == 0

    def lower_links(self, values):
        """Every proper divisor among ``values``.

        Each value x finds the values it divides either by walking its
        multiples up to the largest value top, top // x lookups, or by
        dividing each of the v values by it, v steps, whichever is
        fewer.  Trial division of each value y up to its square root
        takes over when that is fewer steps in all.  So no input costs
        more than min(v², Σ√y) steps: huge naturals never cost more than
        a scan of all pairs, and values within a constant factor of each
        other cost O(v).
        """
        v = len(values)
        top = max(values, default=0)
        # Steps to find the values each x divides: top // x by the walk,
        # v by the scan.
        steps = [top // x if top < v * x else v for x in values]
        index = {x: k for k, x in enumerate(values)}
        roots = list(map(isqrt, values))
        links: list[list[int]] = [[] for _ in values]
        if sum(roots) < sum(steps):
            # Trial division: each divisor d up to the root of x, with x // d.
            for below, x, root in zip(links, values, roots):
                for d in range(1, root + 1):
                    if x % d == 0:
                        q = x // d
                        if d in index and d != x:
                            below.append(index[d])
                        if q in index and q != x and q != d:
                            below.append(index[q])
        else:
            for k, x in enumerate(values):
                if steps[k] < v:
                    multiples = [index[m] for m in range(2 * x, top + 1, x) if m in index]
                else:
                    multiples = [j for j, y in enumerate(values) if y % x == 0 and j != k]
                for j in multiples:
                    links[j].append(k)
        return list(map(tuple, links))


class DeltaOrder(Order):
    """The identity relation on any domain: only equal pairs are related."""

    name = "Delta"

    def __init__(self, strict: bool = True, domain: Tag = Tag.INT):
        check_domain(domain)
        super().__init__(strict)
        self.domain = domain

    def _below(self, x, y):
        return False

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

    def sort_keys(self, payloads):
        """Exact int keys when every denominator is a power of two: each
        value times the largest denominator, so that ints compare in C
        where the floats of ``rational_key`` would tie.  ``rational_key``
        otherwise, and when the shifts would add more than
        ``_INT_KEY_BITS`` bits in all."""
        dens = [q.denominator for q in payloads]
        top = max(map(int.bit_length, dens), default=0)
        if len(dens) * top <= _INT_KEY_BITS and not any(d & (d - 1) for d in dens):
            return [q.numerator << (top - d.bit_length()) for q, d in zip(payloads, dens)]
        return list(map(rational_key, payloads))


class PrefixOrder(Order):
    """Initial-segment order on nat-words: a below b iff a is a prefix of b."""

    name = "SubsetWordNat"
    domain = Tag.WORD_NAT
    _below = staticmethod(is_prefix)

    def link_keys(self, payloads):
        """Each word as ``bytes`` when every entry is at most 255: they
        tie, order and extend as the tuples do, compare in C and cache
        their hash.  The words themselves otherwise."""
        try:
            return list(map(bytes, payloads))
        except ValueError:
            return payloads

    def lower_links(self, keys):
        """The nearest proper prefix of each of the distinct ``link_keys``.

        Sorted order puts a word just before the contiguous run of its
        extensions, so one sweep in that order with a stack of the open
        prefixes finds each value's nearest prefix on top of the stack.
        ``bytes`` keys test a prefix by ``bytes.startswith``, tuple words
        by ``is_prefix``.
        """
        if keys and type(keys[0]) is bytes:
            extends = bytes.startswith
        else:
            extends = lambda word, prefix: is_prefix(prefix, word)
        links: list[tuple[int, ...]] = [()] * len(keys)
        open_prefixes: list[int] = []
        for k in sorted(range(len(keys)), key=keys.__getitem__):
            word = keys[k]
            while open_prefixes and not extends(word, keys[open_prefixes[-1]]):
                open_prefixes.pop()
            if open_prefixes:
                links[k] = (open_prefixes[-1],)
            open_prefixes.append(k)
        return links


class BitPrefixOrder(PrefixOrder):
    """Initial-segment order on bit-words."""

    name = "SubsetWordBit"
    domain = Tag.WORD_BIT


_NEGATE_BYTE = bytes(range(255, -1, -1))


class ReverseLexOrder(LinearOrder):
    """Linear order on nat-words: prefixes come first, and at the first
    disagreement the *larger* entry makes the whole word smaller."""

    name = "RL"
    domain = Tag.WORD_NAT

    @staticmethod
    def _key(payload):
        # Negating entries turns the reversed entry order into Python's
        # tuple order while keeping prefixes smaller.  Through a list, the
        # tuple is allocated once at its final size: a long tuple grown
        # from an iterator is reallocated step by step.
        return tuple(list(map(operator.neg, payload)))

    def sort_keys(self, payloads):
        """Each word as bytes with every entry e turned into 255 - e,
        which order as the negated tuples do, prefixes included.  Any
        entry above 255 sends the whole call to ``_key``."""
        try:
            return [bytes(p).translate(_NEGATE_BYTE) for p in payloads]
        except ValueError:
            return list(map(self._key, payloads))


class BitLexOrder(LinearOrder):
    """Lexicographic order on bit-words with prefixes smaller (Python's
    tuple order)."""

    name = "LexBit"
    domain = Tag.WORD_BIT


_ORDERS = (DividesOrder, DeltaOrder, IntLessOrder, PrefixOrder, BitPrefixOrder, ReverseLexOrder, BitLexOrder, RatLessOrder)
ORDER_NAMES = tuple(cls.name for cls in _ORDERS)
_ORDERS_BY_KEY = {cls.name.lower(): cls for cls in _ORDERS}


def make_order(name: str, strict: bool = True, tag: Tag | None = None) -> Order:
    """Build an oracle by external name (case-insensitive).

    ``tag`` selects the domain for Delta (int by default); every other
    oracle has a fixed domain and refuses any other tag through
    ``check_tag``.
    """
    cls = _ORDERS_BY_KEY.get(name.lower())
    if cls is None:
        raise ParseError(f"unknown order {echo(name, repr)}; choose one of {', '.join(ORDER_NAMES)}")
    if cls is DeltaOrder:
        return DeltaOrder(strict, Tag.INT if tag is None else tag)
    order = cls(strict)
    if tag is not None:
        order.check_tag(tag)
    return order


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


def _set_bits(x: int) -> list[int]:
    """The positions of the set bits of x >= 0, ascending."""
    return [k for k, bit in enumerate(reversed(bin(x)[2:])) if bit == "1"]


def check_axioms(order: Order, support, axioms=None) -> AxiomReport:
    """Check order axioms exhaustively on a finite support.

    By default reflexivity, antisymmetry and transitivity are checked,
    plus totality for a ``LinearOrder``.  Pass ``axioms`` to probe a
    different set (e.g. totality of a partial order).  The report lists
    every violated instance.  A support of more than
    ``MAX_AXIOM_SUPPORT`` elements, or one with more than
    ``MAX_AXIOM_VIOLATIONS`` transitivity violations, raises
    ``ArgumentError``; the violations are counted before any is built.
    """
    elems = read_container(support, "axiom support")
    n = len(elems)
    if n > MAX_AXIOM_SUPPORT:
        raise ArgumentError(f"check_axioms takes at most {MAX_AXIOM_SUPPORT} support elements, got {n}")
    if axioms is None:
        axioms = KNOWN_AXIOMS if isinstance(order, LinearOrder) else KNOWN_AXIOMS[:3]
    else:
        axioms = tuple(axioms)
        for ax in axioms:
            if ax not in KNOWN_AXIOMS:
                raise ParseError(f"unknown axiom {echo(ax, repr)}; known: {', '.join(KNOWN_AXIOMS)}")
    check_order(order, "check_axioms takes")
    for el in elems:
        order.check_element(el)
    values = [el.value for el in elems]
    compare = order._compare
    cmp_matrix = [[compare(x, y) for y in values] for x in values]
    if "transitivity" in axioms:
        # Row i as one int: bit k is set iff i is related to k.  Each
        # violation (i, j, k) is a bit k of rows[j] missing from rows[i],
        # so the bits of the nonzero masks count them before any is built.
        holds = order._holds
        rows = [int("".join("1" if holds(c) else "0" for c in reversed(row)), 2) for row in cmp_matrix]
        missing, found = [], 0
        for i, row_i in enumerate(rows):
            for j in _set_bits(row_i):
                mask = rows[j] & ~row_i
                if mask:
                    found += mask.bit_count()
                    if found > MAX_AXIOM_VIOLATIONS:
                        raise ArgumentError(
                            f"check_axioms reports at most {MAX_AXIOM_VIOLATIONS} transitivity violations"
                        )
                    missing.append((i, j, mask))
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
        for i, j, mask in missing:
            for k in _set_bits(mask):
                violations.append(AxiomViolation("transitivity", (elems[i], elems[j], elems[k])))

    if "totality" in axioms:
        for i in range(n):
            for j in range(i + 1, n):
                if cmp_matrix[i][j] is INCOMPARABLE:
                    violations.append(AxiomViolation("totality", (elems[i], elems[j])))

    return AxiomReport(order.name, order.strict, axioms, tuple(violations))
