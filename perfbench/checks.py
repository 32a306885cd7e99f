"""Checks of every operation's output against ``reference.py``.

``problems(ops, outputs, extras)`` returns one line per output that is
wrong; an empty list means the round is correct.  Most outputs must
equal the reference exactly.  Where the program may choose among several
right answers (the cycle ``decide-up`` prints), the output must have the
required property instead.  The fuzz trials are checked both ways: each
reported chain length equals the reference's, and across the pipelines
of one tree ``subset`` and ``binary`` lie in [L, L+1] for the in-horizon
bound L, ``binary`` equals ``subset`` and ``rational`` equals ``rl``.
"""

from __future__ import annotations

from fractions import Fraction

import reference as ref
from inputs import fmt, jsonable


def unjson(tag: str, v):
    """Inverse of ``inputs.jsonable`` for a payload of the given tag."""
    if tag in ("word", "bits"):
        return tuple(v)
    return Fraction(v) if tag == "rational" else v


def parse(tag: str, text: str):
    if tag == "word":
        return () if text == "e" else tuple(int(p) for p in text.split("."))
    if tag == "bits":
        return () if text == "e" else tuple(int(c) for c in text)
    if tag == "rational":
        return Fraction(text)
    return int(text)


# --- expected outputs ---------------------------------------------------------


def expected(op):
    """The exact output the operation must give, or None when only a
    property is checked."""
    a = op.args
    if op.kind == "longest_chain":
        length, idx = ref.longest_chain(a["order"], a["strict"], a["payloads"])
        return [length, list(idx), [jsonable(a["payloads"][i]) for i in idx]]
    if op.kind == "patience_chain_length":
        return ref.longest_chain(a["order"], a["strict"], a["payloads"])[0]
    if op.kind == "verify_witness":
        return ref.witness_holds(a["order"], a["strict"], a["payloads"], a["indices"])
    if op.kind == "constant_subsequence":
        value, count = ref.constant_value(a["payloads"])
        return [jsonable(value), count]
    if op.kind == "cli" and a["check"]["cmd"] != "decide-up":
        return cli_expected(a["check"])
    return None


def _chain_lines(order, strict, tag, values, prefix=""):
    length, idx = ref.longest_chain(order, strict, values)
    return [
        f"{prefix}indices: " + " ".join(map(str, idx)),
        f"{prefix}values: " + " ".join(fmt(tag, values[i]) for i in idx),
    ], length


def cli_expected(c):
    """[exit code, stdout, stderr] of one CLI invocation."""
    code, lines = 0, []
    cmd = c["cmd"]
    if cmd == "analyze":
        witness, length = _chain_lines(c["order"], c["strict"], c["tag"], c["values"])
        value, count = ref.constant_value(c["values"])
        lines = [f"length: {length}", *witness, f"constant value: {fmt(c['tag'], value)}", f"constant count: {count}"]
    elif cmd == "reduce":
        target = c["target"]
        tag = {"subset": "word", "rl": "word", "rational": "rational", "binary": "bits"}[target]
        img = ref.pipeline_image(target, c["tree"], c["horizon"])
        witness, length = _chain_lines(ref.PIPELINE_ORDER[target], True, tag, img, "chain ")
        lines = [fmt(tag, v) for v in img]
        lines += [f"target: {target}", f"horizon: {c['horizon']}", f"chain length: {length}", *witness]
    elif cmd == "encode":
        if c["map"] == "double":
            lines = [fmt("bits", ref.double_bits(n)) for n in c["inputs"]]
        elif c["map"] == "binary":
            lines = [fmt("bits", ref.word_to_bits(w)) for w in c["inputs"]]
        else:
            lines = [fmt("rational", ref.word_to_dyadic(w)) for w in c["inputs"]]
    elif cmd == "classify":
        vals = c["values"]
        lines = ["n depth"]
        n = 2
        while n < len(vals):
            lines.append(f"{n} {ref.splitting_depth(vals[:n])}")
            n *= 2
        lines.append(f"{len(vals)} {ref.splitting_depth(vals)}")
    elif cmd == "cantor":
        picked = (ref.extract_p if c["extract"] == "P" else ref.extract_y)(c["depth"], c["stream"])
        lines = ref.scheme_lines(c["depth"]) + [f"extract {c['extract']}: {len(picked)} elements"]
        lines += [fmt("rational", v) for v in picked]
    elif cmd == "check-axioms":
        lines, ok = _axiom_lines(c)
        code = 0 if ok else 1
    else:
        raise ValueError(f"no expected output for {cmd!r}")
    return [code, "".join(line + "\n" for line in lines), ""]


def _axiom_lines(c):
    order, tag, elems = c["order"], c["tag"], c["support"]
    linear = order in ref.LINEAR
    axioms = c["axioms"] or ["reflexivity", "antisymmetry", "transitivity"] + (["totality"] if linear else [])
    rel = [[ref.related(order, c["strict"], a, b) for b in elems] for a in elems]
    n = len(elems)
    bad = []
    if "reflexivity" in axioms:
        bad += [("reflexivity", (a,)) for a in elems if not ref.comparable(order, a, a)]
    if "antisymmetry" in axioms:
        bad += [
            ("antisymmetry", (elems[i], elems[j]))
            for i in range(n) for j in range(i + 1, n)
            if ref.below(order, elems[i], elems[j]) and ref.below(order, elems[j], elems[i])
        ]
    if "transitivity" in axioms:
        bad += [
            ("transitivity", (elems[i], elems[j], elems[k]))
            for i in range(n) for j in range(n) if rel[i][j]
            for k in range(n) if rel[j][k] and not rel[i][k]
        ]
    if "totality" in axioms:
        bad += [
            ("totality", (elems[i], elems[j]))
            for i in range(n) for j in range(i + 1, n)
            if not ref.comparable(order, elems[i], elems[j])
        ]
    if not bad:
        return [f"{order}: no violations ({', '.join(axioms)})"], True
    return [f"{ax} violated by ({', '.join(fmt(tag, e) for e in w)})" for ax, w in bad], False


# --- checks -------------------------------------------------------------------


def _decide_up_problem(c, out):
    code, stdout, stderr = out
    lines = stdout.splitlines()
    member = ref.has_cycle(c["order"], c["strict"], c["cycle"])
    if code != 0 or stderr or not lines or lines[0] != f"member: {'true' if member else 'false'}":
        return "wrong membership verdict"
    if not member:
        return None if len(lines) == 1 else "cycle printed for a non-member"
    if len(lines) != 2 or not lines[1].startswith("cycle: "):
        return "no cycle printed"
    try:
        loop = [parse(c["tag"], t) for t in lines[1][len("cycle: "):].split(" -> ")]
    except ValueError:
        return "cycle value does not parse"
    if len(loop) < 2 or loop[0] != loop[-1]:
        return "cycle does not close"
    if not ref.cycle_closes(c["order"], c["strict"], c["cycle"], loop[:-1]):
        return "cycle breaks a related pair or leaves the cycle values"
    return None


def _cycle_problem(a, out):
    member = ref.has_cycle(a["order"], a["strict"], a["cycle"])
    if out is None:
        return "no cycle returned for a member" if member else None
    if not member:
        return "cycle returned for a non-member"
    cycle = [unjson(a["tag"], v) for v in out]
    if not ref.cycle_closes(a["order"], a["strict"], a["cycle"], cycle):
        return "cycle breaks a related pair or leaves the cycle values"
    return None


def _fuzz_problems(ops, outputs, extras):
    bad = []
    by_tree: dict = {}
    for op, out, tree in zip(ops, outputs, extras):
        if out is None:
            continue
        seed, l_tree, l_img, verdict = out
        nodes = [tuple(w) for w in tree]
        pipeline, horizon = op.args["pipeline"], op.args["horizon"]
        bound = ref.in_horizon_bound(nodes, horizon)
        img = ref.pipeline_image(pipeline, nodes, horizon)
        want = ref.longest_chain(ref.PIPELINE_ORDER[pipeline], True, img)[0]
        if not _is_tree(nodes):
            bad.append(f"{op.name}: generated node set is not prefix-closed")
        if (l_tree, l_img, verdict) != (bound, want, "ok"):
            bad.append(f"{op.name}: got L={l_tree} L_img={l_img} {verdict}, want L={bound} L_img={want} ok")
        by_tree.setdefault(op.args["seed"], {})[pipeline] = (l_tree, l_img)
    for seed, res in by_tree.items():
        if len(res) < 4:
            continue
        bound = res["subset"][0]
        for p in ("subset", "binary"):
            if not bound <= res[p][1] <= bound + 1:
                bad.append(f"tree {seed}: {p} chain {res[p][1]} outside [{bound}, {bound + 1}]")
        if res["binary"][1] != res["subset"][1]:
            bad.append(f"tree {seed}: binary {res['binary'][1]} != subset {res['subset'][1]}")
        if res["rational"][1] != res["rl"][1]:
            bad.append(f"tree {seed}: rational {res['rational'][1]} != rl {res['rl'][1]}")
    return bad


def _is_tree(nodes):
    s = set(nodes)
    return () in s and all(w[:-1] in s for w in s if w)


def problems(ops, outputs, extras) -> list[str]:
    """Every wrong output of one round, as lines naming the operation."""
    bad = []
    fuzz = [(op, out, ex) for op, out, ex in zip(ops, outputs, extras) if op.kind == "fuzz"]
    if fuzz:
        bad += _fuzz_problems(*zip(*fuzz))
    for op, out in zip(ops, outputs):
        if out is None or op.kind == "fuzz":
            continue
        if op.kind == "cycle_witness":
            msg = _cycle_problem(op.args, out)
        elif op.kind == "cli" and op.args["check"]["cmd"] == "decide-up":
            msg = _decide_up_problem(op.args["check"], out)
        else:
            want = expected(op)
            msg = None if out == want else "output differs from the reference"
        if msg:
            bad.append(f"{op.name}: {msg}")
    return bad
