"""Seeded inputs of the three workloads, built from the standard library.

``operations(workload, seed)`` returns the round of operations a run
repeats: a list of ``Op`` records holding plain payloads (ints, tuples,
``Fraction``) and text.  The same seed gives the same round.  The
measured process turns them into library objects; the checking process
hands the same payloads to the reference.  Nothing here imports the
package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("fuzz", "chains", "cli")

# fuzz: one trial of each pipeline on each of FUZZ_TREES trees per round,
# at the defaults of `orderchains fuzz`.
FUZZ_TREES = 8
FUZZ_PIPELINES = ("subset", "rl", "rational", "binary")
FUZZ_HORIZON = 200


@dataclass(frozen=True)
class Op:
    """One operation: a kind, its arguments and, for the CLI, its files."""

    name: str
    kind: str
    args: dict
    files: dict = field(default_factory=dict)


def jsonable(v):
    """A payload as a JSON value: words become lists, rationals "p/q"."""
    if isinstance(v, tuple):
        return list(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def operations(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"perfbench/{workload}/{seed}")
    if workload == "fuzz":
        return _fuzz_ops(rng)
    if workload == "chains":
        return _chains_ops(rng)
    if workload == "cli":
        return _cli_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


# --- fuzz -------------------------------------------------------------------


def _fuzz_ops(rng):
    ops = []
    for t in range(FUZZ_TREES):
        tree_seed = rng.randrange(1 << 30)
        for pipeline in FUZZ_PIPELINES:
            ops.append(
                Op(f"fuzz.{t}.{pipeline}", "fuzz",
                   {"pipeline": pipeline, "seed": tree_seed, "horizon": FUZZ_HORIZON})
            )
    return ops


# --- payload generators -----------------------------------------------------


def _ints(rng, n, lo, hi):
    return [rng.randrange(lo, hi) for _ in range(n)]


def _distinct_ints(rng, n, lo, hi):
    return rng.sample(range(lo, hi), n)


def _rationals(rng, n, max_den):
    out = []
    for _ in range(n):
        q = rng.randrange(1, max_den + 1)
        out.append(Fraction(rng.randrange(0, 3 * q), q))
    return out


def _nat_words(rng, n, max_len, max_entry):
    return [
        tuple(rng.randrange(max_entry + 1) for _ in range(rng.randrange(max_len + 1)))
        for _ in range(n)
    ]


def _bit_words(rng, n, max_len):
    return [tuple(rng.randrange(2) for _ in range(rng.randrange(1, max_len + 1))) for _ in range(n)]


def _branch_words(rng, n, branching, depth):
    """Words along a few random paths, so that long prefix chains exist."""
    paths = [tuple(rng.randrange(branching) for _ in range(depth)) for _ in range(n // 12 + 1)]
    out = []
    for _ in range(n):
        path = rng.choice(paths)
        cut = rng.randrange(depth + 1)
        word = path[:cut]
        if rng.random() < 0.2:
            word = word + (rng.randrange(branching),)
        out.append(word)
    return out


def _planted_chain(rng, n, k):
    """Integers with a strictly increasing run planted at k sorted indices."""
    values = _ints(rng, n, 0, 1 << 20)
    idx = sorted(rng.sample(range(n), k))
    for i, v in zip(idx, sorted(rng.sample(range(1 << 20), k))):
        values[i] = v
    return values, idx


def _distinct(values):
    seen, out = set(), []
    for v in values:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


# --- chains -----------------------------------------------------------------


def _chain(name, order, strict, tag, payloads, method="longest_chain"):
    return Op(name, method, {"order": order, "strict": strict, "tag": tag, "payloads": payloads})


def _chains_ops(rng):
    ints_big = _ints(rng, 5000, 0, 10**9)
    ints_few = _ints(rng, 4000, 0, 48)
    divs_few = _ints(rng, 5000, 1, 61)
    words_rl = _nat_words(rng, 2000, 5, 6)
    planted, planted_idx = _planted_chain(rng, 4000, 2000)
    broken = list(planted_idx)
    cut = len(broken) // 2
    broken[cut], broken[cut + 1] = broken[cut + 1], broken[cut]
    return [
        _chain("chain.intless.ranked", "IntLess", True, "int", ints_big),
        _chain("chain.intless.alphabet.nonstrict", "IntLess", False, "int", ints_few),
        _chain("chain.ratless.ranked", "RatLess", True, "rational", _rationals(rng, 2000, 1000)),
        _chain("chain.rl.ranked.nonstrict", "RL", False, "word", words_rl),
        _chain("chain.lexbit.ranked", "LexBit", True, "bits", _bit_words(rng, 2000, 14)),
        _chain("chain.divides.alphabet", "Divides", True, "nat", divs_few),
        _chain("chain.delta.alphabet.nonstrict", "Delta", False, "int", _ints(rng, 3000, 0, 40)),
        _chain("chain.divides.generic.nonstrict", "Divides", False, "nat",
               _distinct_ints(rng, 700, 1, 5000)),
        _chain("chain.prefix.generic", "SubsetWordNat", True, "word", _branch_words(rng, 600, 3, 9)),
        _chain("chain.prefixbit.small.nonstrict", "SubsetWordBit", False, "bits", _bit_words(rng, 30, 4)),
        _chain("chain.intless.small", "IntLess", True, "int", _ints(rng, 30, 0, 20)),
        _chain("patience.intless", "IntLess", True, "int", ints_big, "patience_chain_length"),
        _chain("patience.rl.nonstrict", "RL", False, "word", words_rl, "patience_chain_length"),
        Op("verify.intless.chain", "verify_witness",
           {"order": "IntLess", "strict": True, "tag": "int", "payloads": planted, "indices": planted_idx}),
        Op("verify.intless.broken", "verify_witness",
           {"order": "IntLess", "strict": True, "tag": "int", "payloads": planted, "indices": broken}),
        Op("constant.ints", "constant_subsequence", {"tag": "int", "payloads": ints_few}),
        Op("constant.nats", "constant_subsequence", {"tag": "nat", "payloads": divs_few}),
        Op("cycle.divides", "cycle_witness",
           {"order": "Divides", "strict": True, "tag": "nat",
            "prefix": _ints(rng, 20, 1, 100), "cycle": _distinct_ints(rng, 250, 1, 100000)}),
        Op("cycle.rl.nonstrict", "cycle_witness",
           {"order": "RL", "strict": False, "tag": "word",
            "prefix": _nat_words(rng, 10, 3, 3), "cycle": _distinct(_nat_words(rng, 180, 6, 5))}),
    ]


# --- cli --------------------------------------------------------------------


def fmt(tag: str, v) -> str:
    """Text form of a payload, as the CLI reads and prints it."""
    if tag == "word":
        return ".".join(map(str, v)) if v else "e"
    if tag == "bits":
        return "".join(map(str, v)) if v else "e"
    if tag == "rational":
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def _lines(tokens, per_line=10):
    rows = [" ".join(tokens[i : i + per_line]) for i in range(0, len(tokens), per_line)]
    return "\n".join(rows) + "\n"


def _random_tree(rng, size, branching, depth):
    nodes = {()}
    frontier = [()]
    while len(nodes) < size and frontier:
        parent = rng.choice(frontier)
        if len(parent) >= depth:
            frontier.remove(parent)
            continue
        child = parent + (rng.randrange(branching),)
        if child not in nodes:
            nodes.add(child)
            frontier.append(child)
    return sorted(nodes)


def _cantor_stream(rng, n):
    """Distinct rationals in [0, 1]: middle-thirds endpoints and others."""
    values = set()
    while len(values) < n:
        k = rng.randrange(1, 9)
        den = 3**k
        if rng.random() < 0.7:
            values.add(Fraction(rng.randrange(den + 1), den))
        else:
            values.add(Fraction(rng.randrange(1, 1000), 1000))
    out = sorted(values)
    rng.shuffle(out)
    return out


def _cli(name, argv, check, files=None):
    return Op(name, "cli", {"argv": argv, "check": check}, files or {})


def _cli_ops(rng):
    ints = _ints(rng, 600, -500, 500)
    words = _nat_words(rng, 400, 4, 5)
    rats = _rationals(rng, 500, 200)
    tree = _random_tree(rng, 90, 3, 6)
    tree_text = _lines([fmt("word", w) for w in tree], 1)
    enc_words = _nat_words(rng, 200, 5, 9)
    nats = _ints(rng, 300, 0, 1 << 40)
    depth_vals = _distinct(_rationals(rng, 3200, 100000))[:3000]
    stream = _cantor_stream(rng, 400)
    stream_text = _lines([fmt("rational", q) for q in stream])
    up_div = _distinct_ints(rng, 40, 1, 400)
    up_int = _distinct_ints(rng, 60, -1000, 1000)
    support_words = _distinct(_branch_words(rng, 80, 3, 5))[:40]
    support_nats = _distinct_ints(rng, 30, 1, 200)

    def analyze(name, order, strict, tag, values):
        flags = ["--order", order] + ([] if strict else ["--non-strict"])
        return _cli(name, ["analyze", "{seq}"] + flags,
                    {"cmd": "analyze", "order": order, "strict": strict, "tag": tag, "values": values},
                    {"seq": _lines([fmt(tag, v) for v in values])})

    def reduce(name, target, horizon):
        return _cli(name, ["reduce", "{tree}", "--target", target, "--horizon", str(horizon)],
                    {"cmd": "reduce", "target": target, "horizon": horizon, "tree": tree},
                    {"tree": tree_text})

    def encode(name, fn, inputs, tag):
        return _cli(name, ["encode", "--map", fn] + [fmt(tag, v) for v in inputs],
                    {"cmd": "encode", "map": fn, "inputs": inputs})

    def cantor(name, extract):
        return _cli(name, ["cantor", "--depth", "6", "--extract", extract, "--stream", "{stream}"],
                    {"cmd": "cantor", "depth": 6, "extract": extract, "stream": stream},
                    {"stream": stream_text})

    def decide_up(name, order, strict, tag, values):
        text = " ".join(map(str, values[:5])) + " | " + " ".join(map(str, values))
        flags = ["--order", order] + ([] if strict else ["--non-strict"])
        return _cli(name, ["decide-up", text] + flags,
                    {"cmd": "decide-up", "order": order, "strict": strict, "tag": tag,
                     "prefix": values[:5], "cycle": values})

    def check_axioms(name, order, tag, support, axioms=None):
        flags = ["--order", order] + (["--axioms", ",".join(axioms)] if axioms else [])
        return _cli(name, ["check-axioms", "{support}"] + flags,
                    {"cmd": "check-axioms", "order": order, "strict": True, "tag": tag,
                     "support": support, "axioms": axioms},
                    {"support": _lines([fmt(tag, v) for v in support])})

    return [
        analyze("cli.analyze.intless", "IntLess", True, "int", ints),
        analyze("cli.analyze.rl.nonstrict", "RL", False, "word", words),
        analyze("cli.analyze.ratless", "RatLess", True, "rational", rats),
        reduce("cli.reduce.subset", "subset", 60),
        reduce("cli.reduce.rational", "rational", 40),
        encode("cli.encode.binary", "binary", enc_words, "word"),
        encode("cli.encode.rational", "rational", enc_words, "word"),
        encode("cli.encode.double", "double", nats, "nat"),
        _cli("cli.classify", ["classify", "{vals}"], {"cmd": "classify", "values": depth_vals},
             {"vals": _lines([fmt("rational", q) for q in depth_vals])}),
        cantor("cli.cantor.P", "P"),
        cantor("cli.cantor.Y", "Y"),
        decide_up("cli.decide_up.divides.nonstrict", "Divides", False, "nat", up_div),
        decide_up("cli.decide_up.intless", "IntLess", True, "int", up_int),
        check_axioms("cli.check_axioms.prefix", "SubsetWordNat", "word", support_words),
        check_axioms("cli.check_axioms.divides.totality", "Divides", "nat", support_nats,
                     ["antisymmetry", "totality"]),
    ]


def file_path(workdir: str, op: Op, key: str) -> str:
    return f"{workdir}/{op.name}.{key}.txt"


def argv(op: Op, workdir: str) -> list[str]:
    """The op's command line with its file placeholders filled in."""
    return [a.format(**{k: file_path(workdir, op, k) for k in op.files}) if a.startswith("{") else a
            for a in op.args["argv"]]
