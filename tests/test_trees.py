"""Finite trees and the canonical enumeration of nat-words."""

import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import ref_canonical_words
from orderchains.errors import ArgumentError, ParseError, TreePrefixError
from orderchains.trees import (
    MAX_BLOCK,
    FiniteTree,
    _words_through,
    block_at,
    filler,
    index_of,
    iter_words,
    max_branch_depth,
    parse_tree_lines,
    prefix_closure,
    validate_tree,
    word_at,
)
from orderchains.words import is_prefix

nat_words = st.lists(st.integers(0, 4), max_size=5).map(tuple)


def test_prefix_closure():
    closed = prefix_closure([(1, 1, 0)])
    assert closed == {(), (1,), (1, 1), (1, 1, 0)}


def test_validate_tree_strict_rejects_gap():
    "strict mode refuses a node whose parent is missing"
    with pytest.raises(TreePrefixError) as err:
        validate_tree([(), (1, 1)], mode="strict")
    assert err.value.node == (1, 1)
    assert err.value.missing == (1,)


def test_validate_tree_closure_fills_gap():
    tree = validate_tree([(1, 1)], mode="closure")
    assert (1,) in tree
    assert () in tree
    assert len(tree) == 3


def test_validate_tree_unknown_mode():
    with pytest.raises(ParseError):
        validate_tree([()], mode="repair")


def test_finite_tree_requires_closure():
    with pytest.raises(TreePrefixError):
        FiniteTree(frozenset({(0, 1)}))


@pytest.mark.parametrize("build", [FiniteTree, validate_tree])
def test_tree_gap_names_a_shortest_node(build):
    "both constructors raise on a shortest node whose parent is missing"
    with pytest.raises(TreePrefixError) as err:
        build(frozenset({(), (3, 4, 5), (3, 4, 5, 6), (1, 2), (7, 7, 7, 7, 7)}))
    assert (err.value.node, err.value.missing) == ((1, 2), (1,))


def test_parse_tree_lines():
    tree = parse_tree_lines(["e", "1", "1.1", "", "1.1.0"])
    assert (1, 1, 0) in tree
    assert max_branch_depth(tree) == 3


def test_max_branch_depth_empty():
    assert max_branch_depth(FiniteTree(frozenset())) == 0
    assert max_branch_depth(validate_tree([()])) == 0


@given(st.sets(nat_words, max_size=8))
def test_prefix_closure_is_closed(words):
    "every prefix of a kept word is kept"
    closed = prefix_closure(words)
    for w in closed:
        for k in range(len(w)):
            assert w[:k] in closed


def test_filler_words():
    assert filler(0) == (0,)
    assert filler(3) == (1, 1, 1, 0)


@given(st.integers(0, 30), st.integers(0, 30))
def test_fillers_pairwise_incomparable(m, n):
    "no filler is a prefix of a different filler"
    if m != n:
        assert not is_prefix(filler(m), filler(n))
        assert not is_prefix(filler(n), filler(m))


def test_enumeration_frozen_indices():
    "hand-computed positions of small words"
    cases = {
        (): 0,
        (0,): 1,
        (1,): 2,
        (0, 0): 3,
        (0, 1): 4,
        (1, 0): 5,
        (1, 1): 6,
        (2,): 7,
        (0, 0, 0): 13,
        (1, 1, 0): 25,
        (0, 0, 0, 0): 85,
    }
    for word, n in cases.items():
        assert index_of(word) == n, word
        assert word_at(n) == word, n


def test_enumeration_deep_spine():
    "the all-zero spine sits where the block arithmetic says"
    assert index_of((0,) * 8) == 2396745


@given(st.integers(0, 5000))
def test_enumeration_round_trip(n):
    assert index_of(word_at(n)) == n


@given(nat_words)
def test_enumeration_round_trip_words(word):
    assert word_at(index_of(word)) == word


def test_iter_words_matches_word_at():
    for n, w in enumerate(itertools.islice(iter_words(), 4000)):
        assert word_at(n) == w


def test_enumeration_is_monotone_under_prefix():
    "extensions never come before their prefixes"
    words = list(itertools.islice(iter_words(), 700))
    for n, w in enumerate(words):
        for k in range(len(w)):
            assert index_of(w[:k]) < n


@given(nat_words, st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple))
@settings(max_examples=300)
def test_enumeration_monotone_random_extensions(word, suffix):
    assert index_of(word) < index_of(word + suffix)


def test_enumeration_matches_its_definition_through_block_6():
    "blocks 0-6 whole: iter_words, index_of and word_at against the sorted definition"
    words = ref_canonical_words(6)
    assert len(words) == 55987
    assert list(itertools.islice(iter_words(), len(words))) == words
    for n, w in enumerate(words):
        assert index_of(w) == n
        assert word_at(n) == w


def test_enumeration_round_trips_up_to_10_to_the_40():
    rng = random.Random(1504)
    for _ in range(2000):
        n = rng.randrange(10**40)
        w = word_at(n)
        assert index_of(w) == n
        assert word_at(index_of(w)) == w


@pytest.mark.parametrize("word", [(10**9,), (MAX_BLOCK,), (0,) * (MAX_BLOCK + 1), (10**5000, 0)])
def test_index_of_refuses_blocks_past_the_cap(word):
    "a word past block MAX_BLOCK raises before any power is computed"
    with pytest.raises(ArgumentError, match=f"length at most {MAX_BLOCK} with entries below {MAX_BLOCK}"):
        index_of(word)


def test_word_at_refuses_indices_past_the_cap():
    with pytest.raises(ArgumentError, match=f"past block {MAX_BLOCK}"):
        word_at(10**50000)
    # Block MAX_BLOCK itself still ranks: its words have about 49 000-bit indices.
    assert index_of((MAX_BLOCK - 1,)).bit_length() > 49000


@pytest.mark.parametrize("b", list(range(61)) + [MAX_BLOCK])
def test_block_at_meets_every_block_boundary(b):
    "the last index of block b lies in b, and the next one in b + 1"
    assert block_at(_words_through(b) - 1) == b
    if b < MAX_BLOCK:
        assert block_at(_words_through(b)) == b + 1
    else:
        with pytest.raises(ArgumentError, match=f"past block {MAX_BLOCK}"):
            block_at(_words_through(b))
