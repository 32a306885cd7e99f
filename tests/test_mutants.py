"""Mutation guard for the fast paths: each differential check must
catch the bug it was written for.

A mutant is one textual edit of the real source.  ``mutate`` takes the
function with ``inspect.getsource``, applies the edit, compiles the
result in a copy of its module's globals and monkeypatches it in for one
test.  Each test first runs a fixed sample of the existing checks on the
real code, where all of them pass, then on the mutant, where at least
one must fail.  An edit that no longer matches the source exactly once
fails the test: a refactor updates the edit, never drops the mutant.

To guard a new fast path, write its differential check so that it
reaches the code through its module or class (as ``tests/test_keys.py``
does), then add a test here: the owner and name of the function, the
text to replace and its replacement, and a fixed sample the check runs
on.  A function that other package modules import by name, such as
``errors.echo``, is patched in each of them too.
"""

import inspect
import random
import sys
import textwrap
from fractions import Fraction

import pytest

from helpers import brute_longest_chain
from orderchains import chains, encodings, errors, orders, trees
from orderchains.chains import Sequence
from orderchains.errors import DomainMismatchError
from orderchains.orders import Tag, make_order
from orderchains.trees import MAX_HORIZON, filler
from test_boundaries import LONG_ECHOES, check_short_error
from test_encodings import NEGATIVE_ENTRY_WORDS
from test_keys import (
    check_divides_links,
    check_filler,
    check_prefix_links,
    check_ratless_keys,
    check_rl_keys,
    check_verify_witness,
    check_word_to_bits,
    check_word_to_dyadic,
)
from test_orders import DIVIDES_VERDICTS, PREFIX_VERDICTS, check_element, check_verdict

rng = random.Random(2)
WORDS = [tuple(rng.randrange(4) for _ in range(rng.randrange(5))) for _ in range(40)]
DYADICS = [Fraction(rng.randrange(-64, 64), 2 ** rng.randrange(8)) for _ in range(40)]
# Rationals whose floats tie: 1/3 plus small multiples of 2**-60.
TIED = [Fraction(1, 3) + rng.randrange(-3, 4) * Fraction(1, 2**60) for _ in range(40)]
INTS = [[rng.randrange(6) for _ in range(rng.randrange(1, 9))] for _ in range(30)]
# Words of long runs, which word_to_dyadic appends by one repunit
# division each, beside a few runs it shifts copy by copy.
RUN_WORDS = [filler(n) for n in (32, 40, 200)] + [(2,) * 22, (0,) * 64 + (3,) * 3, (1, 0) * 22 + (1,) * 5, (300,) * 17]
PREFIX_WORDS = [[tuple(rng.randrange(2) for _ in range(rng.randrange(5))) for _ in range(rng.randrange(4, 11))] for _ in range(30)]
# Naturals from a up to 2a, whose multiples Divides finds by walking.
DIVIDES_RANGES = [rng.sample(range(a, 2 * a + 1), a) for a in range(5, 45, 5)]


def mutate(monkeypatch, owner, name, old, new):
    """Patch ``owner.name`` with its source edited from ``old`` to ``new``,
    and so each package module that imported the same function by name."""
    fn = vars(owner)[name]
    source = textwrap.dedent(inspect.getsource(fn))
    if source.count(old) != 1:
        pytest.fail(f"mutant edit {old!r} no longer applies once to {fn.__qualname__}")
    namespace = dict(vars(sys.modules[fn.__module__]))
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    monkeypatch.setattr(owner, name, namespace[name])
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("orderchains.") and vars(module).get(name) is fn:
            monkeypatch.setattr(module, name, namespace[name])


def rejected(check, sample):
    """How many of the sample's argument tuples the check rejects."""
    failures = 0
    for args in sample:
        try:
            check(*args)
        except AssertionError:
            failures += 1
    return failures


def check_chain(name, tag, payloads, strict):
    """``longest_chain`` gives the brute-force length and least witness."""
    seq = Sequence.from_payloads(tag, payloads)
    order = make_order(name, strict)
    length, witness = chains.longest_chain(seq, order)
    assert (length, witness.indices) == brute_longest_chain(seq, order)


def check_refuses_word(word):
    """``word_to_dyadic`` refuses the word with ``DomainMismatchError``;
    any other outcome, a value or another exception, fails the check."""
    try:
        encodings.word_to_dyadic(word)
    except DomainMismatchError:
        return
    except Exception as exc:
        raise AssertionError(f"{word!r} escaped as {exc!r}") from exc
    raise AssertionError(f"{word!r} was encoded")


PREFIX_LINK_WORDS = [(list(dict.fromkeys(WORDS[k : k + 8])),) for k in range(0, 40, 8)]
INT_CHAINS = [("IntLess", Tag.INT, p, strict) for p in INTS for strict in (True, False)]
PREFIX_CHAINS = [("SubsetWordNat", Tag.WORD_NAT, p, strict) for p in PREFIX_WORDS for strict in (True, False)]
# Every increasing pair of positions of each int list, in both readings.
INT_WITNESSES = [
    ("IntLess", strict, p, [a, b]) for p in INTS for b in range(len(p)) for a in range(b) for strict in (True, False)
]
# Payloads just inside and just outside each domain's bounds.
EDGE_PAYLOADS = [
    (Tag.WORD_BIT, (2,)), (Tag.WORD_BIT, (0, 1, 2)), (Tag.WORD_BIT, (1, 0)), (Tag.WORD_NAT, (2, 0)),
    (Tag.NAT, 0), (Tag.NAT, 1), (Tag.INT, -1), (Tag.WORD_NAT, (-1,)),
]


MUTANTS = {
    "word_to_bits without the 01 marker": (
        encodings, "word_to_bits", ' + b"\\x00\\x01"', "",
        check_word_to_bits, [(w,) for w in WORDS],
    ),
    "word_to_bits reading every run as one entry": (
        encodings, "word_to_bits", " * len([*run])", "",
        check_word_to_bits, [(w,) for w in RUN_WORDS],
    ),
    "double_bits reading its small-entry table one place off": (
        encodings, "double_bits", "_SMALL_DOUBLED[n]", "_SMALL_DOUBLED[n - 1]",
        check_word_to_bits, [(w,) for w in WORDS],
    ),
    "word_to_dyadic with the repunit divisor off by one": (
        encodings, "word_to_dyadic", "// ((1 << step) - 1)", "// (1 << step)",
        check_word_to_dyadic, [(w,) for w in RUN_WORDS],
    ),
    "word_to_dyadic without the negative-entry test": (
        encodings, "word_to_dyadic", "if entry < 0 or written > digits:", "if written > digits:",
        check_refuses_word, [(w,) for w in NEGATIVE_ENTRY_WORDS],
    ),
    "RatLess int keys without the shift": (
        orders.RatLessOrder, "sort_keys", "q.numerator << (top - d.bit_length())", "q.numerator",
        check_ratless_keys, [(DYADICS[k : k + 5],) for k in range(0, 40, 5)],
    ),
    "RL bytes keys with an identity table": (
        orders.ReverseLexOrder, "sort_keys", "translate(_NEGATE_BYTE)", "translate(bytes(range(256)))",
        check_rl_keys, [(WORDS[k : k + 5],) for k in range(0, 40, 5)],
    ),
    "prefix links keyed on all but the last entry": (
        orders.PrefixOrder, "link_keys", "list(map(bytes, payloads))", "[bytes(v[:-1]) for v in payloads]",
        check_prefix_links, PREFIX_LINK_WORDS,
    ),
    "prefix links with the startswith arguments swapped": (
        orders.PrefixOrder, "lower_links", "extends = bytes.startswith",
        "extends = lambda word, prefix: prefix.startswith(word)",
        check_prefix_links, PREFIX_LINK_WORDS,
    ),
    "filler sliced one entry short": (
        trees, "filler", "_FILLERS[MAX_HORIZON - n :]", "_FILLERS[MAX_HORIZON - n + 1 :]",
        check_filler, [(n,) for n in (0, 1, 255, 256, MAX_HORIZON - 1)],
    ),
    "Divides links walking multiples short of the largest value": (
        orders.DividesOrder, "lower_links", "range(2 * x, top + 1, x)", "range(2 * x, top, x)",
        check_divides_links, [(values,) for values in DIVIDES_RANGES],
    ),
    "ranked pass with the bisect sides swapped": (
        chains, "_suffix_lengths_ranked",
        "bisect.bisect_right if strict else bisect.bisect_left",
        "bisect.bisect_left if strict else bisect.bisect_right",
        check_chain, INT_CHAINS,
    ),
    "ranked pass never lowering its bound on the tails": (
        chains, "_suffix_lengths_ranked", "lo -= 1", "pass",
        check_chain, INT_CHAINS,
    ),
    "linked push stopped after one link": (
        chains, "_suffix_lengths_linked", "stack.append(q)", "pass",
        check_chain, PREFIX_CHAINS,
    ),
    "linked pass skipping values that have links": (
        chains, "_suffix_lengths_linked", "if not links[a]:", "if links[a]:",
        check_chain, PREFIX_CHAINS,
    ),
    "witness rebuild without the relation test": (
        chains, "longest_chain", "if not indices or rel(indices[-1], i):", "if True:",
        check_chain, INT_CHAINS + PREFIX_CHAINS,
    ),
    "verify_witness reading strict keys as non-strict": (
        chains, "verify_witness", "lt if order.strict else le", "le",
        check_verify_witness, INT_WITNESSES,
    ),
    "derived compare testing below(x, y) where GT needs below(y, x)": (
        orders.Order, "_compare", "if self._below(y, x):", "if self._below(x, y):",
        check_verdict,
        [("Divides", Tag.NAT, *v) for v in DIVIDES_VERDICTS] + [("SubsetWordNat", Tag.WORD_NAT, *v) for v in PREFIX_VERDICTS],
    ),
    "element entry rule without its upper bound": (
        orders, "_valid_entries", "(hi is None or max(values) <= hi)", "True",
        check_element, EDGE_PAYLOADS,
    ),
    "echo without its cut": (
        errors, "echo", "size, text = len(text), text[:ECHO_LIMIT]", "size, text = len(text), text",
        check_short_error, [LONG_ECHOES[entry] for entry in sorted(LONG_ECHOES)],
    ),
    "float-only rational key": (
        orders, "rational_key", "return (f, q)", "return (f,)",
        check_ratless_keys, [(TIED[k : k + 5],) for k in range(0, 40, 5)],
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_is_caught(mutant, monkeypatch):
    owner, name, old, new, check, sample = MUTANTS[mutant]
    assert rejected(check, sample) == 0
    mutate(monkeypatch, owner, name, old, new)
    assert rejected(check, sample) > 0
