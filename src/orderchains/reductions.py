"""Tree-to-sequence reductions and the fuzz harness around them.

``reduce_tree`` writes out the sequence whose n-th term is the n-th
enumerated word when the tree contains it and the n-th filler word
otherwise.  Deep trees therefore produce long prefix-order chains, while
fillers, being pairwise incomparable and reverse-lex decreasing, can
contribute at most one term to any chain.  Pointwise maps lift the image
into bit-words or rationals without changing chain lengths.
"""

from __future__ import annotations

import csv
import random
from collections import deque
from dataclasses import dataclass, replace
from math import inf
from operator import index
from typing import Callable

from .chains import Sequence, longest_chain
from .encodings import double_bits, word_to_bits, word_to_dyadic
from .errors import ArgumentError, DomainMismatchError, ParseError, echo
from .limits import MAX_BLOCK, MAX_HORIZON, MAX_NODES
from .orders import BitPrefixOrder, Element, Order, PrefixOrder, RatLessOrder, ReverseLexOrder, Tag
from .trees import FiniteTree, block_at, block_of, filler, index_of, iter_words, word_at


@dataclass(frozen=True)
class PointwiseMap:
    """A named map applied term by term to a sequence."""

    name: str
    domain: Tag
    codomain: Tag
    fn: Callable


POINTWISE_MAPS = {
    "double": PointwiseMap("double", Tag.NAT, Tag.WORD_BIT, double_bits),
    "binary": PointwiseMap("binary", Tag.WORD_NAT, Tag.WORD_BIT, word_to_bits),
    "rational": PointwiseMap("rational", Tag.WORD_NAT, Tag.RATIONAL, word_to_dyadic),
}


def lift_map(x: Sequence, pmap: PointwiseMap) -> Sequence:
    """Apply a pointwise map to every term of a sequence."""
    if x.tag is not pmap.domain:
        raise DomainMismatchError(f"map {echo(pmap.name)} lifts {echo(pmap.domain)} sequences, got {echo(x.tag)}")
    # Each map sends a valid payload of its domain to a valid payload of
    # its codomain, so the image needs no second check.
    return Sequence._trusted(pmap.codomain, tuple(map(pmap.fn, x.payloads())))


def _check_horizon(horizon: int) -> None:
    if horizon < 1:
        raise ArgumentError("horizon must be at least 1")
    if horizon > MAX_HORIZON:
        raise ArgumentError(f"horizon {echo(horizon)} is above the cap of {MAX_HORIZON}")


def reduce_tree(tree: FiniteTree, horizon: int) -> Sequence:
    """First ``horizon`` terms of the reduction of the tree; a horizon
    below 1 or above ``trees.MAX_HORIZON`` raises ``ArgumentError`` first."""
    _check_horizon(horizon)
    nodes = tree.nodes
    # Enumerated words and fillers are nat-words by construction.
    return Sequence._trusted(
        Tag.WORD_NAT,
        tuple([w if w in nodes else filler(n) for n, w in zip(range(horizon), iter_words())]),
    )


def image_at(tree: FiniteTree, n: int) -> Element:
    """Single position of the reduction, without materialising a prefix."""
    w = word_at(n)
    payload = w if w in tree.nodes else filler(n)
    return Element(Tag.WORD_NAT, payload)


def chain_bound_within_horizon(tree: FiniteTree, horizon: int) -> int:
    """Longest prefix-order chain among tree words enumerated before the
    horizon.

    Because trees are prefix-closed and the enumeration never places a
    prefix after its extension, this equals one plus the length of the
    deepest node whose index falls inside the horizon.  Nodes of a block
    past the one holding the last index inside it are not ranked.
    """
    last = block_at(horizon - 1)
    best = -1
    for w in tree.nodes:
        if len(w) > best and block_of(w) <= last and index_of(w) < horizon:
            best = len(w)
    return best + 1


@dataclass(frozen=True)
class TreeGenSpec:
    """Deterministic random-tree parameters.

    Offspring counts follow a geometric law with the given mean,
    truncated at ``max_children``; growth stops at the depth cap and the
    node cap (breadth-first, so caps cut the deepest layer first).  A
    depth cap or a ``max_children`` above ``MAX_BLOCK`` is refused: a
    deeper node, or a child labelled ``MAX_BLOCK`` or more, sits in a
    block the enumeration never ranks, so it changes no image.  So are a
    node cap above ``MAX_NODES``, a negative ``max_children`` and a mean
    that is not a positive finite number, all before any growth.
    """

    seed: int
    depth_cap: int = 12
    node_cap: int = 500
    mean_children: float = 1.2
    max_children: int = 6

    def __post_init__(self):
        if self.depth_cap < 0 or self.node_cap < 1:
            raise ArgumentError("caps must be positive")
        if self.depth_cap > MAX_BLOCK:
            raise ArgumentError(f"depth cap {echo(self.depth_cap)} is above {MAX_BLOCK}, the last block the enumeration ranks")
        if self.max_children > MAX_BLOCK:
            raise ArgumentError(f"max children {echo(self.max_children)} is above {MAX_BLOCK}, the last block the enumeration ranks")
        if not 0 < self.mean_children:
            raise ArgumentError("mean_children must be positive")
        if self.node_cap > MAX_NODES:
            raise ArgumentError(f"node cap {echo(self.node_cap)} is above the cap of {MAX_NODES}")
        if self.max_children < 0:
            raise ArgumentError(f"max children {echo(self.max_children)} is negative")
        if self.mean_children == inf:
            raise ArgumentError("mean_children must be finite")


def generate_tree(spec: TreeGenSpec) -> FiniteTree:
    """Grow a random prefix-closed tree; identical specs give identical trees."""
    rng = random.Random(spec.seed)
    p = spec.mean_children / (1.0 + spec.mean_children)
    nodes = {()}
    queue: deque[tuple[int, ...]] = deque([()])
    while queue:
        w = queue.popleft()
        if len(w) >= spec.depth_cap:
            continue
        k = 0
        while k < spec.max_children and rng.random() < p:
            k += 1
        for child_label in range(k):
            if len(nodes) >= spec.node_cap:
                return FiniteTree(frozenset(nodes))
            child = w + (child_label,)
            nodes.add(child)
            queue.append(child)
    return FiniteTree(frozenset(nodes))


@dataclass(frozen=True)
class ReductionPipeline:
    """Reduction target: optional pointwise stages plus the chain oracle."""

    name: str
    stages: tuple[PointwiseMap, ...]
    order: Order
    upper_sandwich: bool  # whether chains in the image exceed tree chains by at most one

    def holds(self, l_tree: int, l_img: int) -> bool:
        """Whether an image chain length meets this target's bracket."""
        return l_tree <= l_img and (not self.upper_sandwich or l_img <= l_tree + 1)

    def apply(self, image: Sequence) -> Sequence:
        for stage in self.stages:
            image = lift_map(image, stage)
        return image


# Pipeline parts by name: pointwise stages, chain oracle, upper sandwich.
# The stages are looked up when a pipeline is built.
_PIPELINES = {
    "subset": lambda: ((), PrefixOrder(strict=True), True),
    "rl": lambda: ((), ReverseLexOrder(strict=True), False),
    "rational": lambda: ((POINTWISE_MAPS["rational"],), RatLessOrder(strict=True), False),
    "binary": lambda: ((POINTWISE_MAPS["binary"],), BitPrefixOrder(strict=True), True),
}
PIPELINE_NAMES = tuple(_PIPELINES)


def make_pipeline(name: str) -> ReductionPipeline:
    build = _PIPELINES.get(name)
    if build is None:
        raise ParseError(f"unknown pipeline {echo(name, repr)}; choose one of {', '.join(PIPELINE_NAMES)}")
    return ReductionPipeline(name, *build())


@dataclass(frozen=True)
class TrialResult:
    trial: int
    seed: int
    l_tree: int
    l_img: int
    verdict: str


@dataclass(frozen=True)
class FuzzReport:
    pipeline: str
    horizon: int
    rows: tuple[TrialResult, ...]

    @property
    def violations(self) -> tuple[TrialResult, ...]:
        return tuple(r for r in self.rows if r.verdict != "ok")

    @property
    def ok(self) -> bool:
        return not self.violations

    def write_csv(self, fp) -> None:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["trial", "seed", "L_tree", "L_img", "verdict"])
        for r in self.rows:
            writer.writerow([r.trial, r.seed, r.l_tree, r.l_img, r.verdict])

    def summary(self) -> str:
        peak = max((r.l_img for r in self.rows), default=0)
        return (
            f"pipeline={self.pipeline} horizon={self.horizon} trials={len(self.rows)} "
            f"violations={len(self.violations)} max_L_img={peak}"
        )


def _trial_seed(base: int, trial: int) -> int:
    return base * 1_000_003 + trial


def fuzz_reduction(
    pipeline: ReductionPipeline, gen: TreeGenSpec, trials: int, horizon: int
) -> FuzzReport:
    """Generate trees, reduce them, and compare image chains against the
    in-horizon tree chain bound.

    For the prefix-order targets (``subset``, and ``binary``, whose map
    preserves and reflects the prefix order) the image chain length must
    sit in [L_tree, L_tree + 1]; the reverse-lex targets keep the lower
    bound.  A horizon ``reduce_tree`` refuses, a negative trial count,
    or a seed whose trial seeds have more digits than the interpreter
    prints (``write_csv`` and ``repr`` print them all), raises
    ``ArgumentError`` before the first trial.
    """
    trials = index(trials)  # a trial count that is not an int fails as range fails
    _check_horizon(horizon)
    if trials < 0:
        raise ArgumentError(f"trial count {echo(trials)} is negative")
    # str refuses an int past the interpreter's digit limit; the widest
    # trial seed is the first or the last.
    for trial in {0, trials - 1} if trials else ():
        try:
            str(_trial_seed(gen.seed, trial))
        except ValueError:
            raise ArgumentError(f"seed {echo(gen.seed)} gives trial seeds too long to print") from None
    rows = []
    for trial in range(trials):
        seed = _trial_seed(gen.seed, trial)
        tree = generate_tree(replace(gen, seed=seed))
        image = pipeline.apply(reduce_tree(tree, horizon))
        l_img, _ = longest_chain(image, pipeline.order)
        l_tree = chain_bound_within_horizon(tree, horizon)
        ok = pipeline.holds(l_tree, l_img)
        rows.append(TrialResult(trial, seed, l_tree, l_img, "ok" if ok else "violation"))
    return FuzzReport(pipeline.name, horizon, tuple(rows))
