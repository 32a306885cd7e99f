"""Benchmark of the orderchains library: one workload, one seed, one run.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

Run it from the root of a checkout; the package is imported from
``src/``.  The run is a closed loop: one process, one thread, one caller
(``worker.py``), repeating whole rounds of the workload's operations.
This process builds the same inputs from the seed, checks every output
against ``reference.py`` after the measured process has ended, and
prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A line before
it carries the same figures in wall-clock seconds, for reference.  See
README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402
import inputs  # noqa: E402
import refwork  # noqa: E402
import selfcheck  # noqa: E402
import worker  # noqa: E402

SETUP_RUNS = 8  # fresh set-up-only interpreters, besides the measured one
IMPORT_RUNS = 5  # fresh interpreters per import figure of the traced run
TIMEOUT_S = 150
OUT_DIR = os.path.join("perfbench", "out")

# Layers each workload must reach; the traced run fails if one is never called.
REACHES = {
    "fuzz": (
        "reductions.fuzz_reduction", "reductions.generate_tree", "reductions.reduce_tree",
        "reductions.chain_bound_within_horizon", "reductions.lift_map", "chains.longest_chain",
        "encodings.word_to_dyadic", "encodings.word_to_bits", "encodings.double_bits",
        "trees.filler", "trees.index_of", "orders.related", "orders.compare", "orders.element",
    ),
    "chains": (
        "chains.longest_chain", "chains.patience_chain_length", "chains.verify_witness",
        "chains.constant_subsequence", "chains.cycle_witness", "orders.related", "orders.compare",
    ),
    "cli": (
        "cli.main", "words.parse", "words.format", "orders.parse_element", "orders.format_element",
        "orders.check_axioms", "dense.build_scheme", "dense.extract", "dense.stream",
        "dense.splitting_depth", "encodings.word_to_dyadic", "encodings.word_to_bits",
        "encodings.double_bits", "reductions.reduce_tree", "reductions.lift_map",
        "chains.longest_chain", "orders.related", "orders.compare", "orders.element", "trees.filler",
    ),
}

SELF_MS = (
    "orders.related", "orders.compare", "orders.element", "orders.parse_element",
    "orders.format_element", "orders.check_axioms", "chains.longest_chain",
    "chains.patience_chain_length", "chains.verify_witness", "chains.constant_subsequence",
    "chains.cycle_witness", "encodings.word_to_dyadic", "encodings.word_to_bits",
    "encodings.double_bits", "reductions.lift_map", "reductions.generate_tree",
    "reductions.reduce_tree", "reductions.chain_bound_within_horizon", "reductions.fuzz_reduction",
    "words.parse", "words.format", "cli.main", "dense.build_scheme", "dense.extract",
    "dense.splitting_depth",
)
CALLS = {
    "orders.related.calls": "orders.related",
    "orders.element.built": "orders.element",
    "trees.filler.calls": "trees.filler",
    "trees.index_of.calls": "trees.index_of",
    "dense.stream.values": "dense.stream",
}
COUNTS = (
    "chains.longest_chain.terms", "encodings.word_to_dyadic.entries", "encodings.word_to_bits.bits",
    "reductions.generate_tree.nodes", "trees.iter_words.words",
)


class RunError(Exception):
    pass


def spawn(args, seconds):
    """Run worker.py to its end and return its JSON lines."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{' '.join(cmd[1:])} ran past {seconds} s") from exc
    if proc.returncode != 0:
        raise RunError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def normalised(wall, ref):
    """Wall seconds in reference-seconds (see refwork.py)."""
    return wall / ref * refwork.REF_SAMPLE_S


def per_op_medians(rounds):
    """Each operation's median cost over the rounds, in reference-seconds
    (each time scaled by the reference samples on either side of it) and
    in wall seconds."""
    norm, wall = [], []
    for i in range(len(rounds[0]["t_op"])):
        times = [(r["t_op"][i], (r["t_ref"][i] + r["t_ref"][i + 1]) / 2) for r in rounds]
        norm.append(statistics.median(normalised(t, ref) for t, ref in times))
        wall.append(statistics.median(t for t, _ in times))
    return norm, wall


def write_inputs(ops, workdir):
    os.makedirs(workdir, exist_ok=True)
    for op in ops:
        for key, text in op.files.items():
            with open(inputs.file_path(workdir, op, key), "w", encoding="utf-8") as fp:
                fp.write(text)


def check_run(ops, rounds):
    """Problems with the outputs; the first round's outputs are checked
    against the reference and every later output must repeat them."""
    first = rounds[0]
    outputs, extras = first["outputs"], first["extra"]
    bad = checks.problems(ops, outputs, extras)
    want = [None if o is None else worker.digest(o) for o in outputs]
    for r in rounds:
        for op, got, ref in zip(ops, r["digests"], want):
            if got is not None and ref is not None and got != ref:
                bad.append(f"{op.name}: round {r['round']} output differs from round 0")
    if not bad:
        selfcheck.rejects_corruption(ops, outputs, extras)
    return bad


def layer_metrics(ops, rounds, workload):
    """Per-operation layer figures from the traced rounds."""
    traced = [r for r in rounds if r["traced"]]
    n_ops = len(traced) * len(ops)
    self_ms, calls, counts = {}, {}, {}
    for r in traced:
        t_ref = r["t_ref"]
        for i, (self_s, call_n, count_n) in enumerate(r["trace"]):
            scale = refwork.REF_SAMPLE_S / ((t_ref[i] + t_ref[i + 1]) / 2)
            for name, s in self_s.items():
                self_ms[name] = self_ms.get(name, 0.0) + s * scale * 1e3
            for name, c in call_n.items():
                calls[name] = calls.get(name, 0) + c
            for name, c in count_n.items():
                counts[name] = counts.get(name, 0) + c
    missing = [name for name in REACHES[workload] if not calls.get(name)]
    if missing:
        raise RunError(f"traced {workload} run never reached: {', '.join(missing)}")
    m = {f"{name}.self_ms": (self_ms.get(name, 0.0) / n_ops, "ms") for name in SELF_MS}
    m.update({key: (calls.get(name, 0) / n_ops, "count") for key, name in CALLS.items()})
    m.update({key: (counts.get(key, 0) / n_ops, "count") for key in COUNTS})
    terms = counts.get("chains.longest_chain.terms", 0)
    m["chains.oracle_calls_per_term"] = (counts.get("chains.oracle_calls", 0) / terms if terms else 0.0, "calls/term")
    stdout_bytes = sum(sum(r.get("stdout_bytes", [])) for r in traced)
    m["cli.stdout_bytes"] = (stdout_bytes / n_ops, "bytes")
    untraced = per_op_medians([r for r in rounds if not r["traced"]])[0]
    with_trace = per_op_medians(traced)[0]
    m["trace.overhead"] = (sum(with_trace) / sum(untraced), "ratio")
    return m


def run(args):
    if not os.path.isfile(os.path.join("src", "orderchains", "__init__.py")):
        raise RunError("no src/orderchains here: run from the root of an orderchains checkout")
    selfcheck.brute_force()
    ops = inputs.operations(args.workload, args.seed)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    mode = "trace" if args.trace else "run"
    try:
        write_inputs(ops, workdir)
        setups = [] if args.trace else [
            spawn([args.workload, args.seed, 0, "setup", workdir], TIMEOUT_S)[0]["setup"]
            for _ in range(SETUP_RUNS)
        ]
        lines = spawn([args.workload, args.seed, args.seconds, mode, workdir], TIMEOUT_S)
        imports = {}
        if args.trace:
            imports = {
                what: [spawn(["-", 0, 0, what, "-"], TIMEOUT_S)[0] for _ in range(IMPORT_RUNS)]
                for what in ("import-orderchains", "import-numpy")
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups.append(lines[0]["setup"])
    rounds = [line for line in lines if "round" in line]
    end = lines[-1]["end"]
    attempted = len(rounds) * len(ops)
    failed = sum(len(r["failed"]) for r in rounds)
    for r in rounds:
        for name, msg in r["failed"]:
            print(f"failed: {name}: {msg}", file=sys.stderr)
    bad = check_run(ops, rounds)
    for line in bad:
        print(f"wrong: {line}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(ops, rounds, args.workload)
        loaded = all(s["numpy_loaded"] for s in imports["import-orderchains"])
        for what, key in (("import-orderchains", "import.orderchains_ms"), ("import-numpy", "import.numpy_ms")):
            value = statistics.median(normalised(s["wall"], s["ref"]) for s in imports[what]) * 1e3
            metrics[key] = (value if what == "import-orderchains" or loaded else 0.0, "ms")
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = next(line["spans"] for line in lines if "spans" in line)
        with open(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"), "w") as fp:
            json.dump({"workload": args.workload, "seed": args.seed, "ops": [op.name for op in ops],
                       "span_fields": ["name", "op", "parent", "start", "end"], "spans": spans,
                       "per_layer": {k: v[0] for k, v in metrics.items()}}, fp)
    else:
        norm, wall = per_op_medians(rounds)
        setup_norm = statistics.median(normalised(s["wall"], s["ref"]) for s in setups)
        metrics = {
            "ops_per_s": (len(ops) / sum(norm), "ops/s"),
            "setup_s": (setup_norm, "s"),
            "peak_rss_mb": (end["peak_rss_kb"] / 1024, "MB"),
        }
        print(json.dumps({"wall_clock": {
            "ops_per_s": len(ops) / sum(wall),
            "setup_s": statistics.median(s["wall"] for s in setups),
            "rounds": len(rounds),
            "per_op_ms": {op.name: round(w * 1e3, 3) for op, w in zip(ops, wall)},
        }}))
    return {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true", help="check the reference against brute force")
    args = p.parse_args(argv)
    if args.selfcheck:
        print(f"self-check: {selfcheck.brute_force()} brute-force cases agree")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    try:
        result = run(args)
    except (RunError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
