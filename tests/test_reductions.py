"""Tree-to-sequence reduction, pointwise lifting, fuzz harness."""

import io
from fractions import Fraction
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orderchains.chains import Sequence, longest_chain
from orderchains.errors import ArgumentError, DomainMismatchError, ParseError
from orderchains.limits import MAX_NODES
from orderchains.orders import Element, LinearOrder, Order, Tag, make_order
from orderchains import reductions
from orderchains.reductions import (
    PIPELINE_NAMES,
    POINTWISE_MAPS,
    TreeGenSpec,
    chain_bound_within_horizon,
    fuzz_reduction,
    generate_tree,
    image_at,
    lift_map,
    make_pipeline,
    reduce_tree,
)
from orderchains.trees import MAX_BLOCK, FiniteTree, filler, index_of, validate_tree, word_at

subset_nat = make_order("SubsetWordNat")


def test_image_at_tree_node_and_filler():
    "positions inside the tree echo the word, others yield fillers"
    tree = validate_tree([(1, 1, 0)], mode="closure")
    assert image_at(tree, 0).value == ()
    assert image_at(tree, 25).value == (1, 1, 0)
    assert image_at(tree, 3).value == filler(3)


def test_reduce_tree_small_horizon():
    tree = validate_tree([()])
    seq = reduce_tree(tree, 4)
    assert seq.payloads() == ((), filler(1), filler(2), filler(3))


def test_reduce_tree_prefix_of_larger_horizon():
    "growing the horizon only appends"
    tree = validate_tree([(0,)], mode="closure")
    short = reduce_tree(tree, 10).payloads()
    long = reduce_tree(tree, 30).payloads()
    assert long[:10] == short


def test_chain_bound_within_horizon():
    "the bound is one more than the longest in-horizon branch"
    tree = validate_tree([(1, 1, 0)], mode="closure")
    assert chain_bound_within_horizon(tree, 100) == 4
    assert chain_bound_within_horizon(tree, 25) == 3
    assert chain_bound_within_horizon(tree, 26) == 4
    empty = validate_tree([])
    assert chain_bound_within_horizon(empty, 100) == 0


@given(st.integers(0, 10**6), st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_chain_bound_matches_its_definition(seed, horizon):
    "skipping late blocks changes no bound: every node is ranked in the reference"
    tree = generate_tree(TreeGenSpec(seed=seed, depth_cap=6, node_cap=40, max_children=5))
    want = 1 + max((len(w) for w in tree.nodes if index_of(w) < horizon), default=-1)
    assert chain_bound_within_horizon(tree, horizon) == want


def test_chain_bound_on_a_deep_spine_ranks_only_early_nodes(monkeypatch):
    "a 3 000-deep spine: nodes of blocks past the horizon are never ranked"
    calls = []
    monkeypatch.setattr(reductions, "index_of", lambda w: calls.append(w) or index_of(w))
    spine = FiniteTree(frozenset((0,) * k for k in range(3001)))
    # (0, 0, 0) sits at index 13 and (0, 0, 0, 0) at 85, in block 4.
    assert chain_bound_within_horizon(spine, 14) == 4
    assert chain_bound_within_horizon(spine, 13) == 3
    assert calls and all(len(w) <= 3 for w in calls)


def test_reduction_chain_matches_bound_exactly():
    "for the prefix target the image chain meets the sandwich"
    tree = validate_tree([(1, 1, 0), (0, 2)], mode="closure")
    horizon = 120
    bound = chain_bound_within_horizon(tree, horizon)
    image = reduce_tree(tree, horizon)
    length, _ = longest_chain(image, subset_nat)
    assert bound <= length <= bound + 1


def test_lift_map_rational():
    seq = Sequence.from_payloads(Tag.WORD_NAT, [(), (0,)])
    lifted = lift_map(seq, POINTWISE_MAPS["rational"])
    assert lifted.tag is Tag.RATIONAL
    assert lifted.payloads() == (Fraction(0), Fraction(1, 2))


def test_lift_map_rejects_wrong_tag():
    seq = Sequence.from_payloads(Tag.INT, [1])
    with pytest.raises(DomainMismatchError):
        lift_map(seq, POINTWISE_MAPS["rational"])


def test_lifted_chain_length_transport():
    "encoders keep chain lengths unchanged"
    tree = validate_tree([(2, 1), (0, 0, 0)], mode="closure")
    image = reduce_tree(tree, 90)
    base_rl, _ = longest_chain(image, make_order("RL"))
    rational = lift_map(image, POINTWISE_MAPS["rational"])
    lifted_len, _ = longest_chain(rational, make_order("RatLess"))
    assert lifted_len == base_rl
    base_subset, _ = longest_chain(image, subset_nat)
    binary = lift_map(image, POINTWISE_MAPS["binary"])
    binary_len, _ = longest_chain(binary, make_order("SubsetWordBit"))
    assert binary_len == base_subset


@pytest.mark.parametrize("name", PIPELINE_NAMES)
def test_pipelines_compose(name):
    "every pipeline produces a sequence its oracle accepts"
    pipeline = make_pipeline(name)
    tree = validate_tree([(1, 0), (2,)], mode="closure")
    image = pipeline.apply(reduce_tree(tree, 40))
    assert image.tag is pipeline.order.domain
    length, witness = longest_chain(image, pipeline.order)
    assert length >= 1
    assert len(witness.indices) == length


def test_make_pipeline_unknown():
    with pytest.raises(ParseError):
        make_pipeline("identity")


def test_make_pipeline_name_table_golden():
    "every listed name builds its pipeline; names are case-sensitive and an unknown one lists them all"
    assert PIPELINE_NAMES == ("subset", "rl", "rational", "binary")
    built = {name: make_pipeline(name) for name in PIPELINE_NAMES}
    assert all(p.name == name for name, p in built.items())
    assert {name: ([s.name for s in p.stages], p.order.name, p.upper_sandwich) for name, p in built.items()} == {
        "subset": ([], "SubsetWordNat", True),
        "rl": ([], "RL", False),
        "rational": (["rational"], "RatLess", False),
        "binary": (["binary"], "SubsetWordBit", True),
    }
    with pytest.raises(ParseError) as info:
        make_pipeline("Subset")
    assert str(info.value) == "unknown pipeline 'Subset'; choose one of subset, rl, rational, binary"


def test_generate_tree_deterministic():
    spec = TreeGenSpec(seed=42)
    a = generate_tree(spec)
    b = generate_tree(spec)
    assert a.nodes == b.nodes


def test_generate_tree_respects_caps():
    spec = TreeGenSpec(seed=9, depth_cap=4, node_cap=60, mean_children=2.5)
    tree = generate_tree(spec)
    assert len(tree) <= 60
    assert all(len(w) <= 4 for w in tree.nodes)


def test_tree_spec_refuses_depth_past_the_last_block():
    "nodes deeper than the last ranked block never reach an image, so such caps are refused before growth"
    assert TreeGenSpec(seed=0, depth_cap=MAX_BLOCK).depth_cap == MAX_BLOCK
    with pytest.raises(ArgumentError, match=f"^depth cap {MAX_BLOCK + 1} is above {MAX_BLOCK}, "):
        TreeGenSpec(seed=0, depth_cap=MAX_BLOCK + 1)


def test_tree_spec_refuses_more_children_than_the_last_block():
    "a child labelled MAX_BLOCK or more never reaches an image, so such a cap is refused before growth"
    assert TreeGenSpec(seed=0, max_children=MAX_BLOCK).max_children == MAX_BLOCK
    with pytest.raises(ArgumentError, match=f"^max children {MAX_BLOCK + 1} is above {MAX_BLOCK}, "):
        TreeGenSpec(seed=0, max_children=MAX_BLOCK + 1)


def test_tree_spec_refuses_a_node_cap_past_the_cap():
    "a node cap past MAX_NODES is refused at construction, before any tree grows"
    assert TreeGenSpec(seed=0, node_cap=MAX_NODES).node_cap == MAX_NODES
    for cap in (MAX_NODES + 1, 10**8):
        with pytest.raises(ArgumentError, match=f"^node cap {cap} is above the cap of {MAX_NODES}$"):
            TreeGenSpec(seed=0, node_cap=cap)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("max_children", -1, "^max children -1 is negative$"),
        ("max_children", -5, "^max children -5 is negative$"),
        ("mean_children", float("inf"), "^mean_children must be finite$"),
    ],
)
def test_tree_spec_refuses_a_negative_width_and_an_infinite_mean(field, value, message):
    "either would silently grow the root alone: no draw makes a child"
    with pytest.raises(ArgumentError, match=message):
        TreeGenSpec(seed=0, **{field: value})


def test_tree_spec_keeps_the_edges_it_accepts():
    "no children at all, and a mean too large to matter, still grow"
    assert len(generate_tree(TreeGenSpec(seed=0, max_children=0))) == 1
    assert len(generate_tree(TreeGenSpec(seed=0, mean_children=1e308, node_cap=50))) == 50


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_generated_trees_are_prefix_closed(seed):
    tree = generate_tree(TreeGenSpec(seed=seed, node_cap=80))
    for w in tree.nodes:
        if w:
            assert w[:-1] in tree


def test_fuzz_reduction_subset_sandwich():
    report = fuzz_reduction(make_pipeline("subset"), TreeGenSpec(seed=1), 40, 150)
    assert report.ok
    assert len(report.rows) == 40
    for row in report.rows:
        assert row.l_tree <= row.l_img <= row.l_tree + 1


@pytest.mark.parametrize("name", ["rl", "rational", "binary"])
def test_fuzz_reduction_lower_bound_targets(name):
    report = fuzz_reduction(make_pipeline(name), TreeGenSpec(seed=2), 25, 150)
    assert report.ok
    for row in report.rows:
        assert row.l_img >= row.l_tree


def test_fuzz_report_csv_shape():
    report = fuzz_reduction(make_pipeline("subset"), TreeGenSpec(seed=3), 5, 60)
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "trial,seed,L_tree,L_img,verdict"
    assert len(lines) == 6
    assert lines[1].split(",")[4] == "ok"


def test_fuzz_trial_seeds_reproduce():
    "a row's seed regenerates the same tree"
    report = fuzz_reduction(make_pipeline("subset"), TreeGenSpec(seed=4), 6, 60)
    row = report.rows[3]
    tree = generate_tree(TreeGenSpec(seed=row.seed))
    assert chain_bound_within_horizon(tree, 60) == row.l_tree


def test_deep_branch_materialised_exactly():
    "a depth-4 spine is fully inside the first 86 positions"
    spine = [(0,) * k for k in range(5)]
    tree = validate_tree(spine)
    horizon = index_of((0, 0, 0, 0)) + 1
    image = reduce_tree(tree, horizon)
    length, witness = longest_chain(image, subset_nat)
    assert length >= 5
    assert witness.indices[0] == 0


@given(st.integers(0, 3000))
@settings(max_examples=40, deadline=None)
def test_word_at_round_trip_in_reduction(n):
    "image positions are either the enumerated word or its filler"
    tree = validate_tree([(1,), (2, 2)], mode="closure")
    el = image_at(tree, n)
    w = word_at(n)
    assert el.value == (w if w in tree else filler(n))


nat_words = st.lists(st.integers(0, 40), max_size=8).map(tuple)


@given(nat_words, st.integers(1, 10**30))
@settings(max_examples=200)
def test_pointwise_images_validate(word, n):
    "every map sends a valid payload to a valid payload of its codomain, as lift_map trusts"
    for pmap in POINTWISE_MAPS.values():
        arg = n if pmap.domain is Tag.NAT else word
        assert Element(pmap.codomain, pmap.fn(arg)).value == pmap.fn(arg)


@given(st.integers(0, 10_000), st.integers(1, 300))
@settings(max_examples=40, deadline=None)
def test_reduction_terms_validate(seed, horizon):
    "every reduce_tree term, tree word or filler, and its lifts validate in their codomains"
    tree = generate_tree(TreeGenSpec(seed=seed, node_cap=80))
    image = reduce_tree(tree, horizon)
    assert len(image) == horizon
    for payload in image.payloads():
        Element(Tag.WORD_NAT, payload)
    for name in ("binary", "rational"):
        lifted = lift_map(image, POINTWISE_MAPS[name])
        for payload in lifted.payloads():
            Element(lifted.tag, payload)


def test_fuzz_trial_builds_no_element_per_term(monkeypatch):
    "a trial builds an Element only for the witness, and confirms each witness link once on partial orders"
    counts = {"built": 0, "related": 0}
    post_init, related = Element.__post_init__, Order.related

    def counting_post_init(self):
        counts["built"] += 1
        post_init(self)

    def counting_related(self, a, b):
        counts["related"] += 1
        return related(self, a, b)

    monkeypatch.setattr(Element, "__post_init__", counting_post_init)
    monkeypatch.setattr(Order, "related", counting_related)
    for name in PIPELINE_NAMES:
        pipeline = make_pipeline(name)
        for seed in range(8):
            counts.update(built=0, related=0)
            row = fuzz_reduction(pipeline, TreeGenSpec(seed=seed), 1, 200).rows[0]
            if isinstance(pipeline.order, LinearOrder):
                # The ranked rebuild compares ranks: one Element per witness term.
                assert counts == {"built": row.l_img, "related": 0}
            else:
                # The rebuild picks links on payloads, then confirms each through related.
                assert counts == {"built": row.l_img, "related": row.l_img - 1}


def _witness(name, image):
    pipeline = make_pipeline(name)
    length, witness = longest_chain(pipeline.apply(image), pipeline.order)
    return length, witness.indices


@pytest.mark.parametrize("seed", range(12))
def test_encoded_pipelines_equal_their_sources(seed):
    "binary equals subset and rational equals rl, in length and witness, on seeded trees"
    tree = generate_tree(TreeGenSpec(seed=seed, node_cap=200))
    image = reduce_tree(tree, 200)
    assert _witness("binary", image) == _witness("subset", image)
    assert _witness("rational", image) == _witness("rl", image)


def _depth2_ternary_subtrees():
    "every prefix-closed subtree of the depth-2 ternary tree that holds the root: 9**3 of them"
    children = [None] + [frozenset(c) for k in range(4) for c in combinations(range(3), k)]
    for picks in product(children, repeat=3):
        words = [()]
        for top, below in enumerate(picks):
            if below is not None:
                words.append((top,))
                words.extend((top, b) for b in below)
        yield validate_tree(words)


def test_exhaustive_depth2_ternary_subtrees():
    "small-scope check: on all 729 subtrees every pipeline meets its bracket and the equalities hold"
    horizon = 40
    trees = list(_depth2_ternary_subtrees())
    assert len(set(t.nodes for t in trees)) == 729
    assert max(index_of(w) for w in chain.from_iterable(t.nodes for t in trees)) < horizon
    for tree in trees:
        image = reduce_tree(tree, horizon)
        l_tree = chain_bound_within_horizon(tree, horizon)
        found = {}
        for name in PIPELINE_NAMES:
            found[name] = _witness(name, image)
            assert make_pipeline(name).holds(l_tree, found[name][0]), (name, sorted(tree.nodes))
        assert found["binary"] == found["subset"]
        assert found["rational"] == found["rl"]


def test_binary_pipeline_meets_the_upper_sandwich():
    "the bit-word lift keeps the prefix target's [L, L + 1] bracket"
    assert make_pipeline("binary").upper_sandwich
    report = fuzz_reduction(make_pipeline("binary"), TreeGenSpec(seed=1), 20, 150)
    assert report.ok
    assert all(row.l_tree <= row.l_img <= row.l_tree + 1 for row in report.rows)
