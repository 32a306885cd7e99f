"""Interval schemes, streams, extractors, density diagnostics."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import (
    brute_splitting_depth,
    colliding_rationals,
    ref_build_scheme,
    ref_dyadics,
    ref_gap_midpoints,
    ref_gap_selector,
    ref_middle_thirds_endpoints,
    ref_prune_successor_endpoints,
    ref_word_images,
)
from orderchains.dense import (
    MAX_DEPTH,
    CountableSetStream,
    FixedStages,
    MiddleThirds,
    between_witness,
    build_scheme,
    dense_embed,
    dyadic_stream,
    gap_midpoint_stream,
    gap_selector,
    middle_thirds_endpoint_stream,
    persistently_approaches,
    prune_successor_endpoints,
    reduction_image_stream,
    splitting_depth,
)
from orderchains.encodings import word_to_dyadic
from orderchains.errors import (
    DomainMismatchError,
    DuplicateElementError,
    LinearityError,
    SchemeError,
    SearchBudgetError,
    StreamError,
)
from orderchains.orders import RatLessOrder, Tag, make_element, make_order, rational_key
from orderchains.trees import word_at

F = Fraction


def test_middle_thirds_stages():
    oracle = MiddleThirds()
    assert oracle.stage(0) == ((F(0), F(1)),)
    assert oracle.stage(1) == ((F(0), F(1, 3)), (F(2, 3), F(1)))
    stage2 = oracle.stage(2)
    assert len(stage2) == 4
    assert stage2[1] == (F(2, 9), F(1, 3))


def test_middle_thirds_stages_nested():
    "every stage-k+1 component sits inside a stage-k component"
    oracle = MiddleThirds()
    for k in range(5):
        outer = oracle.stage(k)
        for lo, hi in oracle.stage(k + 1):
            assert any(a <= lo and hi <= b for a, b in outer)


def test_scheme_depth1_fixture():
    scheme = build_scheme(MiddleThirds(), 1)
    assert scheme.closed[()] == (F(0), F(1))
    assert scheme.gaps[()] == (F(1, 3), F(2, 3))
    assert scheme.closed[(0,)] == (F(0), F(1, 3))
    assert scheme.closed[(1,)] == (F(2, 3), F(1))


def test_scheme_depth2_fixture():
    scheme = build_scheme(MiddleThirds(), 2)
    assert scheme.gaps[(0,)] == (F(1, 9), F(2, 9))
    assert scheme.gaps[(1,)] == (F(7, 9), F(8, 9))


def test_scheme_child_recurrence():
    "children reuse the parent's endpoints around the removed gap"
    scheme = build_scheme(MiddleThirds(), 4)
    for sigma, (a, b) in scheme.gaps.items():
        lo, hi = scheme.closed[sigma]
        assert lo < a < b < hi
        assert scheme.closed[sigma + (0,)] == (lo, a)
        assert scheme.closed[sigma + (1,)] == (b, hi)


def test_scheme_stage_identity():
    "level-d intervals cover exactly the stage minus removed gaps"
    depth = 4
    scheme = build_scheme(MiddleThirds(), depth)
    level = [scheme.closed[w] for w in scheme.level(depth)]
    level.sort()
    expected = [(F(0), F(1))]
    for a, b in sorted(scheme.gaps.values()):
        lo, hi = expected.pop()
        assert lo < a and b < hi
        expected.append((lo, a))
        expected.append((b, hi))
        expected.sort()
    assert level == expected


def test_scheme_endpoints_in_every_stage():
    "interval endpoints never fall into removed stage gaps"
    scheme = build_scheme(MiddleThirds(), 3)
    oracle = MiddleThirds()
    for k in range(scheme.resolution + 1):
        stage = oracle.stage(k)
        for lo, hi in scheme.closed.values():
            assert any(a <= lo <= b for a, b in stage)
            assert any(a <= hi <= b for a, b in stage)


def test_scheme_gaps_disjoint():
    scheme = build_scheme(MiddleThirds(), 5)
    gaps = sorted(scheme.gaps.values())
    for (_, b), (a, _) in zip(gaps, gaps[1:]):
        assert b <= a


def test_scheme_adaptive_resolution():
    "the first stage with enough components is selected"
    scheme = build_scheme(MiddleThirds(), 2)
    assert scheme.resolution == 3
    assert build_scheme(MiddleThirds(), 2, resolution=5).resolution == 5


def test_scheme_builds_only_the_stage_it_splits():
    "with resolution unset, coarser stages are counted, never built"

    class Recording(MiddleThirds):
        def __init__(self):
            super().__init__()
            self.built = []

        def stage(self, k):
            self.built.append(k)
            return super().stage(k)

    oracle = Recording()
    assert build_scheme(oracle, 6).resolution == 7
    assert oracle.built == [7]
    for k in range(8):
        assert MiddleThirds().components(k) == len(MiddleThirds().stage(k))
    fixed = FixedStages([(F(0), F(1, 3)), (F(2, 3), F(1))])
    assert fixed.components(5) == len(fixed.stage(5)) == 2


def test_scheme_insufficient_resolution_names_sigma():
    oracle = FixedStages([(F(0), F(1, 3)), (F(2, 3), F(1))])
    with pytest.raises(SchemeError) as err:
        build_scheme(oracle, 2, resolution=0)
    assert err.value.sigma is not None


def test_scheme_rejects_negative_depth():
    with pytest.raises(SchemeError):
        build_scheme(MiddleThirds(), -1)


def test_fixed_stages_validation():
    with pytest.raises(SchemeError):
        FixedStages([(F(1, 2), F(1, 4))])
    with pytest.raises(SchemeError):
        FixedStages([(F(0), F(1, 2)), (F(1, 2), F(1))])


def test_fixed_stages_must_span_unit_interval():
    oracle = FixedStages([(F(1, 4), F(1, 2))])
    with pytest.raises(SchemeError):
        build_scheme(oracle, 0, resolution=0)


def test_dump_lines_format():
    lines = build_scheme(MiddleThirds(), 1).dump_lines()
    assert lines[0] == "e 0 1 [1/3 2/3]"
    assert lines[1] == "0 0 1/3"
    assert lines[2] == "1 2/3 1"


def test_dyadic_stream_values():
    stream = dyadic_stream()
    assert stream.prefix(7) == [F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(3, 8), F(5, 8), F(7, 8)]


def test_endpoint_stream_values():
    stream = middle_thirds_endpoint_stream()
    assert stream.prefix(6) == [F(0), F(1), F(1, 3), F(2, 3), F(1, 9), F(2, 9)]


def test_gap_midpoint_stream_values():
    stream = gap_midpoint_stream()
    assert stream.prefix(3) == [F(1, 2), F(1, 6), F(5, 6)]


def test_middle_thirds_streams_match_per_bit_reference():
    "the first 2 000 values of both streams, against the per-bit left ends"
    assert middle_thirds_endpoint_stream().prefix(2000) == ref_middle_thirds_endpoints(2000)
    assert gap_midpoint_stream().prefix(2000) == ref_gap_midpoints(2000)


@pytest.mark.parametrize(
    "make, ref",
    [
        (dyadic_stream, ref_dyadics),
        (middle_thirds_endpoint_stream, ref_middle_thirds_endpoints),
        (gap_midpoint_stream, ref_gap_midpoints),
        (reduction_image_stream, ref_word_images),
    ],
)
def test_built_in_streams_match_their_definitions(make, ref):
    "the first 5 000 values of every built-in stream"
    assert make().prefix(5000) == ref(5000)


def test_reduction_image_stream_values():
    stream = reduction_image_stream()
    assert stream.value(0) == F(0)
    assert stream.value(1) == F(1, 2)
    assert stream.value(25) == word_to_dyadic((1, 1, 0))


def test_stream_rejects_out_of_range():
    stream = CountableSetStream([F(2)])
    with pytest.raises(StreamError):
        stream.value(0)


def test_stream_rejects_repeats():
    stream = CountableSetStream([F(1, 2), F(1, 2)])
    with pytest.raises(StreamError):
        stream.prefix(2)


def test_stream_exhaustion():
    stream = CountableSetStream([F(1, 2)])
    with pytest.raises(StreamError):
        stream.value(1)


def test_stream_draws_from_an_iterable_on_demand():
    "an endless generator is drawn only as far as asked, and a non-rational is a StreamError"
    drawn = []
    stream = CountableSetStream((drawn.append(n) or F(1, n) for n in itertools.count(1)), name="xs")
    assert stream.value(4) == F(1, 5)
    assert drawn == [1, 2, 3, 4, 5]
    with pytest.raises(StreamError, match=r"^xs\[1\] is not a rational$"):
        CountableSetStream([F(1, 2), "x"], name="xs").prefix(2)


def test_prune_keeps_top_and_drops_linked_endpoints():
    "right endpoints vanish exactly when the successor's left is seen"
    scheme = build_scheme(MiddleThirds(), 2)
    stream = middle_thirds_endpoint_stream()
    picked = prune_successor_endpoints(stream, scheme, 8)
    assert picked == (F(0), F(2, 9), F(2, 3), F(8, 9), F(1))


def test_prune_without_successor_evidence_keeps_everything():
    "when no successor left-endpoint is present nothing is pruned"
    scheme = build_scheme(MiddleThirds(), 2)
    stream = CountableSetStream([F(0), F(1)])
    assert prune_successor_endpoints(stream, scheme, 2) == (F(0), F(1))


def test_gap_selector_one_per_gap():
    scheme = build_scheme(MiddleThirds(), 2)
    stream = gap_midpoint_stream()
    picked = gap_selector(stream, scheme, 3)
    assert picked == (F(1, 6), F(1, 2), F(5, 6))


def test_gap_selector_prefers_earliest():
    "a later value in an already-served gap is ignored"
    scheme = build_scheme(MiddleThirds(), 1)
    stream = CountableSetStream([F(1, 2), F(5, 12), F(3, 8)])
    assert gap_selector(stream, scheme, 3) == (F(1, 2),)


def test_gap_selector_ignores_endpoints():
    "gap endpoints are not strictly inside the gap"
    scheme = build_scheme(MiddleThirds(), 1)
    stream = CountableSetStream([F(1, 3), F(2, 3)])
    assert gap_selector(stream, scheme, 2) == ()


def test_persistently_approaches_fixed_cases():
    assert persistently_approaches([F(1, 4), F(3, 8), F(7, 16)], F(1, 2), [F(1, 4), F(3, 8)])
    assert not persistently_approaches([F(3, 4)], F(1, 2), [F(1, 4)])
    assert persistently_approaches([F(3, 4)], F(1, 2), [F(3, 4), F(9, 10)])


def test_persistently_approaches_needs_late_hits():
    "a single early hit does not persist past later cuts"
    assert persistently_approaches([F(1, 4), F(1, 2)], F(1, 2), [F(1, 4)])
    assert not persistently_approaches([F(1, 2), F(1, 4)], F(1, 2), [F(1, 4)])


def test_persistently_approaches_refuses_elements():
    "an Element is no rational, as a value, as g or as an anchor"
    el = make_element(Tag.RATIONAL, F(3, 8))
    assert persistently_approaches([el.value], F(1, 2), [F(1, 4)])
    for call in (
        lambda: persistently_approaches([el], F(1, 2), [F(1, 4)]),
        lambda: persistently_approaches([F(3, 8)], el, [F(1, 4)]),
        lambda: persistently_approaches([F(3, 8)], F(1, 2), [el]),
    ):
        with pytest.raises(DomainMismatchError, match=r"rational elements are Fractions, got Element\("):
            call()


@pytest.mark.parametrize(
    "elems,want",
    [
        ([F(0), F(1)], 0),
        ([F(0), F(1, 2), F(1)], 1),
        ([], 0),
        ([F(1, 3)], 0),
    ],
)
def test_splitting_depth_fixed_points(elems, want):
    assert splitting_depth(elems) == want


def test_splitting_depth_rejects_duplicates():
    with pytest.raises(DuplicateElementError):
        splitting_depth([F(1, 2), F(1, 2)])


@given(st.sets(st.fractions(min_value=0, max_value=1, max_denominator=32), max_size=12))
@settings(max_examples=150)
def test_splitting_depth_matches_brute_force(elems):
    assert splitting_depth(elems) == brute_splitting_depth(elems)


def test_splitting_depth_monotone_under_extension():
    "adding an element never lowers the depth"
    base = [F(k, 8) for k in range(0, 9, 2)]
    assert splitting_depth(base) <= splitting_depth(base + [F(1, 8)])


def test_splitting_depth_dyadic_levels_grow():
    "2^k - 1 grid points have depth k - 1"
    for k in range(2, 8):
        grid = [F(i, 2**k) for i in range(1, 2**k)][: 2**k - 1]
        assert splitting_depth(grid) == k - 1


def test_dense_embed_triple_into_dyadics():
    order = make_order("IntLess")
    elems = [make_element(Tag.INT, v) for v in (0, 1, 2)]
    images = dense_embed(elems, order, dyadic_stream())
    assert [images[e] for e in elems] == [F(1, 2), F(3, 4), F(7, 8)]


def test_dense_embed_singleton():
    order = make_order("IntLess")
    el = make_element(Tag.INT, 5)
    images = dense_embed([el], order, dyadic_stream())
    assert images[el] == F(1, 2)


def test_dense_embed_preserves_order_pairwise():
    "images sort exactly like the sources"
    order = make_order("IntLess")
    elems = [make_element(Tag.INT, v) for v in (3, 1, 4, 0, 2)]
    images = dense_embed(elems, order, dyadic_stream())
    for a in elems:
        for b in elems:
            assert (a.value < b.value) == (images[a] < images[b])


def test_dense_embed_reproduces_word_images():
    "inserting words in enumeration order lands on their own images"
    order = make_order("RL")
    elems = [make_element(Tag.WORD_NAT, word_at(n)) for n in range(50)]
    images = dense_embed(elems, order, reduction_image_stream())
    for el in elems:
        assert images[el] == word_to_dyadic(el.value)


def test_dense_embed_requires_linear_order():
    with pytest.raises(LinearityError):
        dense_embed([], make_order("Divides"), dyadic_stream())


def test_dense_embed_checks_domain():
    "a rational among integers is refused by the integer oracle"
    elems = [make_element(Tag.INT, 0), make_element(Tag.RATIONAL, F(1, 2))]
    with pytest.raises(DomainMismatchError):
        dense_embed(elems, make_order("IntLess"), dyadic_stream())


def test_dense_embed_rejects_duplicates():
    order = make_order("IntLess")
    el = make_element(Tag.INT, 1)
    with pytest.raises(DuplicateElementError):
        dense_embed([el, el], order, dyadic_stream())


def _undrawable():
    "A stream whose first draw fails the test."
    return CountableSetStream(pytest.fail("drew a stream value") for _ in range(1))


@pytest.mark.parametrize(
    "payloads, error",
    [([0, None], DomainMismatchError), ([0, 1, 0], DuplicateElementError)],
)
def test_dense_embed_checks_every_element_before_any_draw(payloads, error):
    "a bad element or a repeat is refused before the first stream value is drawn"
    elems = [make_element(Tag.INT, v) if v is not None else v for v in payloads]
    with pytest.raises(error):
        dense_embed(elems, make_order("IntLess"), _undrawable())


def test_dense_embed_keys_the_elements_as_one_batch():
    "RatLess int keys are scaled by the batch's largest denominator, so the images still follow the order"
    order = RatLessOrder()
    elems = [make_element(Tag.RATIONAL, v) for v in (F(1, 2), F(3, 4), F(5, 8), F(1), F(9, 16))]
    images = dense_embed(elems, order, dyadic_stream())
    assert sorted(elems, key=images.__getitem__) == sorted(elems, key=lambda e: e.value)


def test_dense_embed_budget_exhaustion():
    "a stream thinning out above 1/2 cannot host a second element"
    order = make_order("IntLess")
    elems = [make_element(Tag.INT, v) for v in (0, 1)]
    sparse = CountableSetStream([F(1, n + 2) for n in range(100)])
    with pytest.raises(SearchBudgetError):
        dense_embed(elems, order, sparse, budget=50)


def test_between_witness():
    values = (F(1, 8), F(1, 4), F(1, 2))
    assert between_witness(values, F(1, 8), F(1, 2)) == F(1, 4)
    assert between_witness(values, F(1, 4), F(1, 2)) is None
    assert between_witness(values, F(0), F(1)) == F(1, 8)


# Cut points for random stages.  The grids give gaps of equal width; the
# dyadics 2**-70 apart around 1/2 and the fillers 0.0101...01 (binary)
# just below 1/3 tie on their floats; 10**-400 underflows to 0.0.
CUTS = sorted(
    {F(k, 12) for k in range(1, 12)}
    | {F(k, 27) for k in range(1, 27)}
    | {F(1, 2) + k * F(1, 2**70) for k in range(-3, 4)}
    | {word_to_dyadic((1,) * n) for n in range(26, 33)}
    | {F(1, 3), F(1, 10**400), F(2, 10**400), 1 - F(1, 10**400)}
)


@st.composite
def fixed_stage_intervals(draw):
    """Sorted disjoint components spanning [0, 1], some of them points."""
    pts = sorted(set(draw(st.lists(st.sampled_from(CUTS), min_size=2, max_size=24))))
    ends = [F(0)] + pts[: len(pts) // 2 * 2] + [F(1)]
    comps = list(zip(ends[0::2], ends[1::2]))
    points = draw(st.lists(st.booleans(), min_size=len(comps) - 1, max_size=len(comps) - 1))
    return [(lo, lo) if point else (lo, hi) for (lo, hi), point in zip(comps, points + [False])]


@given(fixed_stage_intervals(), st.integers(0, 4))
@settings(max_examples=300)
def test_build_scheme_matches_plain_fractions(intervals, depth):
    "same splits, leftmost of equally wide gaps, same errors"
    want = ref_build_scheme(intervals, depth)
    try:
        scheme = build_scheme(FixedStages(intervals), depth, resolution=0)
    except SchemeError as exc:
        assert (str(exc), exc.sigma) == want
    else:
        assert (scheme.closed, scheme.gaps) == want


@pytest.mark.parametrize("depth", range(6))
def test_middle_thirds_scheme_matches_plain_fractions(depth):
    "every gap at one depth is equally wide, so the leftmost wins each tie"
    scheme = build_scheme(MiddleThirds(), depth)
    want = ref_build_scheme(MiddleThirds().stage(scheme.resolution), depth)
    assert (scheme.closed, scheme.gaps) == want


def test_equal_gaps_leftmost_wins():
    scheme = build_scheme(FixedStages([(F(0), F(1, 5)), (F(2, 5), F(3, 5)), (F(4, 5), F(1))]), 1, resolution=0)
    assert scheme.gaps[()] == (F(1, 5), F(2, 5))


@given(
    fixed_stage_intervals(),
    st.integers(0, 4),
    st.lists(st.sampled_from(CUTS + [F(0), F(1)]), unique=True, max_size=30),
)
@settings(max_examples=300)
def test_extractors_match_plain_fractions(intervals, depth, values):
    while isinstance(ref_build_scheme(intervals, depth)[0], str):
        depth -= 1
    closed, gaps = ref_build_scheme(intervals, depth)
    scheme = build_scheme(FixedStages(intervals), depth, resolution=0)
    n = len(values)
    pruned = prune_successor_endpoints(CountableSetStream(values), scheme, n)
    assert pruned == ref_prune_successor_endpoints(values, closed)
    assert gap_selector(CountableSetStream(values), scheme, n) == ref_gap_selector(values, gaps)


@given(st.lists(st.one_of(colliding_rationals, st.fractions()), max_size=20))
def test_rational_key_orders_as_fractions(values):
    assert RatLessOrder._key is rational_key
    assert sorted(values, key=rational_key) == sorted(values)


def test_rational_key_at_float_overflow_and_underflow():
    values = [F(10**400, 3), F(1, 10**400), F(0), -F(10**400, 3), -F(1, 10**400), F(10**400 + 1, 3)]
    ranked = sorted(values, key=rational_key)
    assert ranked == sorted(values)
    assert [rational_key(v)[0] for v in ranked] == [float("-inf"), -0.0, 0.0, 0.0, float("inf"), float("inf")]


@pytest.mark.parametrize(
    "values, message",
    [
        ([F(1, 2), F(1, 3), F(3, 2)], "xs[2] = 3/2 outside [0, 1]"),
        ([F(1, 3), -F(1, 10**400)], f"xs[1] = -1/1{'0' * 36}... (404 characters) outside [0, 1]"),
        ([F(1, 2), F(1, 3), F(2, 4)], "xs repeats 1/2 at 0 and 2"),
        ([1, F(0), F(1)], "xs repeats 1 at 0 and 2"),
        ([F(1, 10**400), F(0), F(2, 2 * 10**400)], f"xs repeats 1/1{'0' * 37}... (403 characters) at 0 and 2"),
    ],
)
def test_stream_error_messages(values, message):
    stream = CountableSetStream(values, name="xs")
    with pytest.raises(StreamError) as err:
        stream.prefix(len(values))
    assert str(err.value) == message


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=6), max_size=12))
def test_splitting_depth_names_the_first_repeat(values):
    repeat = next((i for i, v in enumerate(values) if v in values[:i]), None)
    if repeat is None:
        assert splitting_depth(values) == brute_splitting_depth(values)
        return
    with pytest.raises(DuplicateElementError) as err:
        splitting_depth(values)
    assert err.value.index == repeat
    assert str(err.value) == f"splitting_depth needs distinct elements, saw {values[repeat]} twice"


def test_build_scheme_caps_depth_before_any_stage():
    class Recording:
        calls = []

        def stage(self, k):
            self.calls.append(k)
            return ((F(0), F(1)),)

    oracle = Recording()
    for depth in (MAX_DEPTH + 1, 40, 10**9):
        with pytest.raises(SchemeError, match=f"depth {depth} is above the cap of {MAX_DEPTH}"):
            build_scheme(oracle, depth)
    with pytest.raises(SchemeError, match="resolution must be non-negative"):
        build_scheme(oracle, 1, resolution=-3)
    assert oracle.calls == []
    with pytest.raises(SchemeError):
        build_scheme(MiddleThirds(), 40)


def test_middle_thirds_caps_stage_size():
    "a stage past the finest a scheme can use is refused, not built"
    with pytest.raises(SchemeError, match="stage 40 has 2\\^40 components"):
        MiddleThirds().stage(40)
    with pytest.raises(SchemeError, match="stage -1 is negative"):
        MiddleThirds().stage(-1)
    assert len(MiddleThirds().stage(3)) == 8
