"""The measured process: one interpreter, one thread, one caller.

Run by ``run.py`` from the root of a checkout, never by hand:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE WORKDIR

MODE is ``setup`` (time the set-up and exit), ``run`` (untraced rounds),
``trace`` (untraced and traced rounds in turn), or ``import-orderchains``
and ``import-numpy`` (time one import and exit).  It builds the round
of operations from the seed with the standard library alone, then times
set-up: importing ``orderchains`` from ``src/`` and turning the payloads
into library objects.  It then repeats whole rounds until SECONDS have
passed.  Each operation is bracketed by samples of the reference work
(``refwork.py``).  Results go to the original stdout as JSON lines:
canonical outputs of the first round, a digest of every output, raw
times and, last, the process's peak resident memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402
from inputs import jsonable  # noqa: E402
import refwork  # noqa: E402

MIN_ROUNDS = 3
REF_PER_GAP = 3  # reference samples between two operations; their median counts


def emit(obj) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def ref_median(k: int = 5) -> float:
    return sorted(refwork.timed_sample() for _ in range(k))[k // 2]


def import_package(workload):
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import orderchains

    if workload == "cli":
        import orderchains.cli  # noqa: F401  (the package does not import it)

    if not os.path.abspath(orderchains.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {orderchains.__file__}, not the checkout's src/")
    return orderchains


def bind(pkg, op, workdir):
    """A zero-argument call that performs the operation."""
    a = op.args
    chains, orders, reductions = pkg.chains, pkg.orders, pkg.reductions
    if op.kind == "fuzz":
        spec = reductions.TreeGenSpec(seed=a["seed"])

        def call():
            pipeline = reductions.make_pipeline(a["pipeline"])
            return reductions.fuzz_reduction(pipeline, spec, 1, a["horizon"])

        return call
    if op.kind == "cli":
        argv = inputs.argv(op, workdir)

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = pkg.cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return call
    tag = orders.Tag(a["tag"])
    if op.kind == "constant_subsequence":
        seq = chains.Sequence.from_payloads(tag, a["payloads"])
        return lambda: chains.constant_subsequence(seq)
    order = orders.make_order(a["order"], strict=a["strict"], tag=tag)
    if op.kind == "cycle_witness":
        up = chains.UPSequence(
            chains.Sequence.from_payloads(tag, a["prefix"]),
            chains.Sequence.from_payloads(tag, a["cycle"]),
        )
        return lambda: chains.cycle_witness(up, order)
    seq = chains.Sequence.from_payloads(tag, a["payloads"])
    if op.kind == "longest_chain":
        return lambda: chains.longest_chain(seq, order)
    if op.kind == "patience_chain_length":
        return lambda: chains.patience_chain_length(seq, order)
    if op.kind == "verify_witness":
        return lambda: chains.verify_witness(a["indices"], seq, order)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def canon(op, result):
    """The operation's output as plain JSON values."""
    if op.kind == "fuzz":
        row = result.rows[0]
        return [row.seed, row.l_tree, row.l_img, row.verdict]
    if op.kind == "cli":
        return list(result)
    if op.kind == "longest_chain":
        length, witness = result
        return [length, list(witness.indices), [jsonable(e.value) for e in witness.values]]
    if op.kind == "constant_subsequence":
        el, count = result
        return [jsonable(el.value), count]
    if op.kind == "cycle_witness":
        return None if result is None else [jsonable(e.value) for e in result]
    return result


def extra(pkg, op, result):
    """What the checker needs besides the output: the fuzz trial's tree."""
    if op.kind != "fuzz":
        return None
    seed = result.rows[0].seed
    tree = pkg.reductions.generate_tree(pkg.reductions.TreeGenSpec(seed=seed))
    return sorted(list(w) for w in tree.nodes)


def digest(value) -> str:
    return hashlib.sha1(json.dumps(value).encode()).hexdigest()[:16]


def run_round(ops, calls, tracer=None):
    """One pass over every operation; returns times, outputs and trace."""
    t_op, t_ref, results, failed, trace = [], [], [], [], []
    t_ref.append(ref_median(REF_PER_GAP))
    for i, call in enumerate(calls):
        result = None
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # counted as a failed operation
            failed.append([ops[i].name, f"{type(exc).__name__}: {exc}"])
        t1 = time.perf_counter()
        t_op.append(t1 - t0)
        t_ref.append(ref_median(REF_PER_GAP))
        results.append(result)
        if tracer is not None:
            trace.append(tracer.take_op())
    return t_op, t_ref, results, failed, trace


def time_import(mode):
    """Wall time of one import in this fresh interpreter."""
    src = os.path.abspath("src")
    ref_before = ref_median()
    t0 = time.perf_counter()
    if mode == "import-numpy":
        import numpy  # noqa: F401
    else:
        sys.path.insert(0, src)
        import orderchains  # noqa: F401
    t1 = time.perf_counter()
    ref_after = ref_median()
    emit({"wall": t1 - t0, "ref": (ref_before + ref_after) / 2, "numpy_loaded": "numpy" in sys.modules})


def main(argv):
    workload, seed, seconds, mode, workdir = argv
    seed, seconds = int(seed), float(seconds)
    if refwork.sample() != refwork.EXPECTED:
        raise SystemExit("the reference work has changed")
    if mode.startswith("import-"):
        time_import(mode)
        return 0
    ops = inputs.operations(workload, seed)

    ref_before = ref_median()
    t0 = time.perf_counter()
    pkg = import_package(workload)
    calls = [bind(pkg, op, workdir) for op in ops]
    t1 = time.perf_counter()
    ref_after = ref_median()
    emit({"setup": {"wall": t1 - t0, "ref": (ref_before + ref_after) / 2}})
    if mode == "setup":
        return 0

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer(pkg)
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.keep_spans = rounds == 1
            tracer.install()
        try:
            t_op, t_ref, results, failed, trace = run_round(ops, calls, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        record = {"round": rounds, "traced": traced, "t_op": t_op, "t_ref": t_ref, "failed": failed}
        if rounds == 0:
            record["outputs"] = [None if r is None else canon(op, r) for op, r in zip(ops, results)]
            record["extra"] = [None if r is None else extra(pkg, op, r) for op, r in zip(ops, results)]
        record["digests"] = [None if r is None else digest(canon(op, r)) for op, r in zip(ops, results)]
        if traced:
            record["trace"] = trace
            record["stdout_bytes"] = [
                len(r[1].encode()) if op.kind == "cli" and r is not None else 0 for op, r in zip(ops, results)
            ]
        del results
        emit(record)
        rounds += 1
        if rounds >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        emit({"spans": tracer.spans})
    emit({"end": {"rounds": rounds, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
