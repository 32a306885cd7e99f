"""Per-layer spans and counts, from wrappers around the package's public
functions.

``Tracer.install`` replaces each traced function in every module of the
package that holds it, which also catches names one module imported
from another (``reductions`` imports ``longest_chain``, ``filler``,
``iter_words`` and ``index_of``), and rewires the encoders held in
``reductions.POINTWISE_MAPS``.  Methods are wrapped on their class.
``uninstall`` puts the originals back.

Each wrapper opens a span on entry and closes it on exit.  A span's self
time is its duration minus the durations of the traced spans it caused.
Self times and counts are summed per name in memory; full span records
(name, start, end, parent) are kept for coarse functions only, since the
oracle and element wrappers fire hundreds of thousands of times per
operation.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

# (metric prefix, module, attribute, record each span)
FUNCTIONS = (
    ("chains.longest_chain", "chains", "longest_chain", True),
    ("chains.patience_chain_length", "chains", "patience_chain_length", True),
    ("chains.verify_witness", "chains", "verify_witness", True),
    ("chains.constant_subsequence", "chains", "constant_subsequence", True),
    ("chains.cycle_witness", "chains", "cycle_witness", True),
    ("encodings.word_to_dyadic", "encodings", "word_to_dyadic", False),
    ("encodings.word_to_bits", "encodings", "word_to_bits", False),
    ("encodings.double_bits", "encodings", "double_bits", False),
    ("reductions.lift_map", "reductions", "lift_map", True),
    ("reductions.generate_tree", "reductions", "generate_tree", True),
    ("reductions.reduce_tree", "reductions", "reduce_tree", True),
    ("reductions.chain_bound_within_horizon", "reductions", "chain_bound_within_horizon", True),
    ("reductions.fuzz_reduction", "reductions", "fuzz_reduction", True),
    ("trees.filler", "trees", "filler", False),
    ("trees.index_of", "trees", "index_of", False),
    ("words.parse", "words", "parse_nat_word", False),
    ("words.parse", "words", "parse_bit_word", False),
    ("words.format", "words", "format_nat_word", False),
    ("words.format", "words", "format_bit_word", False),
    ("orders.parse_element", "orders", "parse_element", False),
    ("orders.format_element", "orders", "format_element", False),
    ("orders.check_axioms", "orders", "check_axioms", True),
    ("cli.main", "cli", "main", True),
    ("dense.build_scheme", "dense", "build_scheme", True),
    ("dense.extract", "dense", "prune_successor_endpoints", True),
    ("dense.extract", "dense", "gap_selector", True),
    ("dense.splitting_depth", "dense", "splitting_depth", True),
)

# (metric prefix, module, class, method)
METHODS = (
    ("orders.related", "orders", "Order", "related"),
    ("orders.compare", "orders", "Order", "compare"),
    ("orders.element", "orders", "Element", "__post_init__"),
    ("dense.stream", "dense", "CountableSetStream", "value"),
)

# Work counted at a boundary: metric name and its size from (args, result).
COUNTED = {
    "chains.longest_chain": ("chains.longest_chain.terms", lambda args, result: len(args[0])),
    "encodings.word_to_dyadic": ("encodings.word_to_dyadic.entries", lambda args, result: len(args[0])),
    "encodings.word_to_bits": ("encodings.word_to_bits.bits", lambda args, result: len(result)),
    "reductions.generate_tree": ("reductions.generate_tree.nodes", lambda args, result: len(result)),
}

MODULES = ("orderchains", "orders", "chains", "words", "trees", "encodings", "reductions", "dense", "cli")

ORACLE = ("orders.related", "orders.compare")


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.mods = [package] + [getattr(package, m) for m in MODULES[1:] if hasattr(package, m)]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans: list = []
        self.keep_spans = False
        self.op = None
        self._stack: list = []  # [name, start, child seconds, span index]
        self._oracle_depth = 0
        self._chain_depth = 0
        self._undo: list = []

    # --- spans ---------------------------------------------------------

    def _enter(self, name, record):
        index = -1
        if record and self.keep_spans:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, self.op, parent, 0.0, 0.0])
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][3:] = [start, end]

    def _wrap(self, name, fn, record):
        enter, leave = self._enter, self._exit
        counts = self.counts
        oracle = name in ORACLE
        chains = name == "chains.longest_chain"
        counted = COUNTED.get(name)

        def wrapper(*args, **kwargs):
            if oracle:
                if self._oracle_depth == 0 and self._chain_depth:
                    counts["chains.oracle_calls"] += 1
                self._oracle_depth += 1
            if chains:
                self._chain_depth += 1
            frame = enter(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
                if oracle:
                    self._oracle_depth -= 1
                if chains:
                    self._chain_depth -= 1
            if counted is not None:
                counts[counted[0]] += counted[1](args, result)
            return result

        return wrapper

    def _iter_words(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for word in fn(*args, **kwargs):
                counts["trees.iter_words.words"] += 1
                yield word

        return wrapper

    # --- install / uninstall ---------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod in self.mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        wrapped = {}
        for name, mod, attr, record in FUNCTIONS:
            if not hasattr(self.pkg, mod):
                continue
            original = getattr(getattr(self.pkg, mod), attr)
            wrapper = self._wrap(name, original, record)
            wrapped[original] = wrapper
            self._replace_everywhere(original, wrapper)
        original = self.pkg.trees.iter_words
        self._replace_everywhere(original, self._iter_words(original))
        for name, mod, cls_name, method in METHODS:
            cls = getattr(getattr(self.pkg, mod), cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original, False))
        maps = self.pkg.reductions.POINTWISE_MAPS
        for key, pmap in list(maps.items()):
            if pmap.fn in wrapped:
                self._undo.append((maps, key, pmap))
                maps[key] = dataclasses.replace(pmap, fn=wrapped[pmap.fn])

    def uninstall(self):
        for target, attr, value in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._undo.clear()

    def take_op(self):
        """Self seconds, calls and counts since the last take; resets them."""
        out = (dict(self.self_s), dict(self.calls), dict(self.counts))
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return out

