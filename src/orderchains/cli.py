"""Command-line front end.

Outputs are deterministic: identical arguments, files and seeds produce
byte-identical output.  Exit status is 0 on success, 1 when a check ran
and found violations, 2 on bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from fractions import Fraction

from . import chains, dense, orders, reductions, trees
from .errors import ArgumentError, DuplicateElementError, OrderChainsError, ParseError, echo
from .limits import ECHO_LIMIT, MAX_DYADIC_DIGITS
from .orders import Tag
from .words import parse_nat_word


def _order_from_args(args) -> orders.Order:
    tag = Tag(args.tag) if getattr(args, "tag", None) else None
    return orders.make_order(args.order, strict=args.strict, tag=tag)


@contextlib.contextmanager
def _opened(path: str, mode: str):
    """The file at ``path`` opened as UTF-8 text in ``mode``; a file that
    cannot be opened, read or written, or is not UTF-8 text, raises the
    ``ParseError`` "PATH: reason"."""
    try:
        with open(path, mode, encoding="utf-8") as fp:
            yield fp
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def _write_out(path: str | None, write) -> None:
    """``write(fp)`` to the ``--out`` file at ``path``, or to stdout when
    there is none; the file is opened only now, after the work."""
    with _opened(path, "w") if path else contextlib.nullcontext(sys.stdout) as fp:
        write(fp)


def _read_located(path: str, parse_line) -> list:
    """``parse_line(line)`` of every stripped, non-blank line of the file,
    errors located by line."""
    with _opened(path, "r") as fp:
        lines = fp.readlines()
    out = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line:
            try:
                out.append(parse_line(line))
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return out


def _read_tokens(path: str, parse, tag: Tag) -> list:
    """``parse(token, tag)`` of every token in the file, errors located by line."""
    lines = _read_located(path, lambda line: [parse(token, tag) for token in line.split()])
    return [value for line in lines for value in line]


def _parse_interval(line: str) -> tuple[Fraction, Fraction]:
    tokens = line.split()
    if len(tokens) != 2:
        raise ParseError("expected 'lo hi'")
    return orders.parse_payload(tokens[0], Tag.RATIONAL), orders.parse_payload(tokens[1], Tag.RATIONAL)


def _read_sequence(path: str, tag: Tag) -> chains.Sequence:
    # parse_payload returns valid payloads only.
    return chains.Sequence._trusted(tag, tuple(_read_tokens(path, orders.parse_payload, tag)))


def _read_rationals(path: str) -> list[Fraction]:
    return _read_tokens(path, orders.parse_payload, Tag.RATIONAL)


def cmd_analyze(args) -> int:
    order = _order_from_args(args)
    seq = _read_sequence(args.sequence, order.domain)
    length, witness = chains.longest_chain(seq, order)
    value, count = chains.constant_subsequence(seq)
    print(f"length: {length}")
    print(chains.format_witness(witness))
    print(f"constant value: {orders.format_element(value)}")
    print(f"constant count: {count}")
    return 0


def cmd_reduce(args) -> int:
    tree = trees.validate_tree(_read_located(args.tree, parse_nat_word), mode=args.mode)
    pipeline = reductions.make_pipeline(args.target)
    image = pipeline.apply(reductions.reduce_tree(tree, args.horizon))
    text = "".join(f"{orders.format_payload(image.tag, p)}\n" for p in image.payloads())
    _write_out(args.out, lambda fp: fp.write(text))
    length, witness = chains.longest_chain(image, pipeline.order)
    print(f"target: {pipeline.name}")
    print(f"horizon: {args.horizon}")
    print(f"chain length: {length}")
    print("chain " + chains.format_witness(witness).replace("\n", "\nchain "))
    return 0


def cmd_encode(args) -> int:
    pmap = reductions.POINTWISE_MAPS[args.map]
    for token in args.inputs:
        if pmap.domain is Tag.NAT:  # naturals with zero, as double_bits reads them
            try:
                if not token.isdecimal():
                    raise ValueError(token)
                value = int(token)  # raises past the interpreter's digit limit too
            except ValueError as exc:
                raise ParseError(f"bad natural token {echo(token, repr)}") from exc
        else:
            value = parse_nat_word(token)
            if pmap.codomain is Tag.RATIONAL:
                _check_dyadic_printable(len(value) + sum(value))
        print(orders.format_payload(pmap.codomain, pmap.fn(value)))
    return 0


def _check_dyadic_printable(digits: int) -> None:
    """Refuse, before encoding it, a word the printer would refuse.

    The image of a word of ``digits`` binary digits is an odd m over
    2^digits with m < 2^digits, so the printer refuses it exactly when
    2^digits has more than the interpreter's limit L of decimal digits,
    that is when 2^digits >= 10^L; never when digits <= 3L, as 10^L >
    2^(3L).  A limit of 0 is no limit, and a word past the encoder's own
    cap keeps the encoder's error.
    """
    limit = sys.get_int_max_str_digits()
    if limit and 3 * limit < digits <= MAX_DYADIC_DIGITS and 1 << digits >= 10**limit:
        raise orders.too_large_to_print()


def cmd_fuzz(args) -> int:
    pipeline = reductions.make_pipeline(args.pipeline)
    gen = reductions.TreeGenSpec(
        seed=args.seed,
        depth_cap=args.depth_cap,
        node_cap=args.node_cap,
        mean_children=args.mean_children,
        max_children=args.max_children,
    )
    report = reductions.fuzz_reduction(pipeline, gen, args.trials, args.horizon)
    _write_out(args.out, report.write_csv)
    print(report.summary(), file=sys.stderr)
    return 0 if report.ok else 1


def cmd_classify(args) -> int:
    """Depth of the prefixes of 2, 4, 8, ... values and of all of them.

    The depth of m distinct values is a closed form, so one pass for the
    first repeat gives the whole table; the first prefix that holds the
    repeat ends it with that repeat's error.
    """
    values = _read_rationals(args.elements)
    try:
        dense.splitting_depth(values)
        repeat = None
    except DuplicateElementError as exc:
        repeat = exc
    print("n depth")
    for n in [1 << k for k in range(1, (len(values) - 1).bit_length())] + [len(values)]:
        if repeat is not None and n > repeat.index:
            raise repeat
        print(f"{n} {dense.distinct_splitting_depth(n)}")
    return 0


def cmd_cantor(args) -> int:
    if args.extract and not args.stream:
        raise ParseError("--extract needs --stream FILE")
    if args.count is not None and args.count < 0:
        raise ArgumentError(f"--count must be non-negative, got {echo(args.count)}")
    if args.set == "cantor3":
        oracle = dense.MiddleThirds()
    else:
        oracle = dense.FixedStages(_read_located(args.set, _parse_interval))
    scheme = dense.build_scheme(oracle, args.depth, resolution=args.resolution)
    for line in scheme.dump_lines():
        print(line)
    if args.extract:
        values = _read_rationals(args.stream)
        stream = dense.CountableSetStream(values, name=args.stream)
        count = args.count if args.count is not None else len(values)
        if args.extract == "P":
            picked = dense.prune_successor_endpoints(stream, scheme, count)
        else:
            picked = dense.gap_selector(stream, scheme, count)
        print(f"extract {args.extract}: {len(picked)} elements")
        for v in picked:
            print(orders.format_payload(Tag.RATIONAL, v))
    return 0


def cmd_decide_up(args) -> int:
    order = _order_from_args(args)
    up = chains.parse_up_sequence(args.input, order.domain)
    witness = chains.cycle_witness(up, order)
    if witness is None:
        print("member: false")
    else:
        print("member: true")
        loop = witness + [witness[0]]
        print("cycle: " + " -> ".join(orders.format_element(e) for e in loop))
    return 0


def cmd_check_axioms(args) -> int:
    order = _order_from_args(args)
    support = _read_tokens(args.support, orders.parse_element, order.domain)
    axioms = tuple(args.axioms.split(",")) if args.axioms else None
    report = orders.check_axioms(order, support, axioms=axioms)
    print(report.describe())
    return 0 if report.ok else 1


def _add_order_flags(sub):
    sub.add_argument("--order", required=True, help="oracle name, e.g. IntLess or RL")
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--strict", dest="strict", action="store_true", default=True,
        help="strict reading (the default)",
    )
    group.add_argument(
        "--non-strict", dest="strict", action="store_false",
        help="reflexive reading: equal values count as related",
    )
    sub.add_argument("--tag", choices=sorted(t.value for t in Tag), help="domain tag (Delta only)")


class _Parser(argparse.ArgumentParser):
    """argparse with every caller value in an error message quoted
    through ``echo``, where argparse quotes it whole: an argument as
    typed, or by ``repr`` the value of a flag or the explicit value after
    ``--flag=`` or ``-f``."""

    _argv = ()

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(map(echo, extras)))
        return args

    def parse_known_args(self, args=None, namespace=None):
        # Kept for ``error`` during this call only, so no state outlives it.
        self._argv = sys.argv[1:] if args is None else list(args)
        try:
            return super().parse_known_args(self._argv, namespace)
        finally:
            self._argv = ()

    def error(self, message):
        for arg in self._argv:
            for value in (arg, arg.partition("=")[2], arg[2:]):
                if len(value) > ECHO_LIMIT:
                    message = message.replace(repr(value), echo(value, repr)).replace(value, echo(value))
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orderchains",
        description="chain detection, tree reductions, order encodings, density diagnostics",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="longest chain and constant-value stats of a sequence")
    p.add_argument("sequence", help="file of whitespace-separated element tokens")
    _add_order_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("reduce", help="reduce a tree file to its image sequence")
    p.add_argument("tree", help="file with one word per line ('e' is the root)")
    p.add_argument("--target", choices=reductions.PIPELINE_NAMES, default="subset")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--mode", choices=("strict", "closure"), default="strict")
    p.add_argument("--out", help="write the image sequence to this file")
    p.set_defaults(func=cmd_reduce)

    p = subs.add_parser("encode", help="apply a pointwise encoding to words or naturals")
    p.add_argument("--map", choices=sorted(reductions.POINTWISE_MAPS), required=True)
    p.add_argument("inputs", nargs="+", help="word tokens (or naturals for --map double)")
    p.set_defaults(func=cmd_encode)

    p = subs.add_parser("fuzz", help="random trees through a reduction pipeline, CSV report")
    p.add_argument("--pipeline", choices=reductions.PIPELINE_NAMES, default="subset")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--node-cap", type=int, default=500, dest="node_cap")
    p.add_argument("--depth-cap", type=int, default=12, dest="depth_cap")
    p.add_argument("--mean-children", type=float, default=1.2, dest="mean_children")
    p.add_argument("--max-children", type=int, default=6, dest="max_children")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_fuzz)

    p = subs.add_parser("classify", help="splitting-depth trend table of a rational list")
    p.add_argument("elements", help="file of rational tokens")
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("cantor", help="build an interval scheme; optionally extract P or Y")
    p.add_argument("--set", default="cantor3", help="cantor3 or a stage file of 'lo hi' lines")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--resolution", type=int, help="stage index to split against")
    p.add_argument("--extract", choices=("P", "Y"))
    p.add_argument("--stream", help="file of rational tokens enumerating the countable set")
    p.add_argument("--count", type=int, help="how many stream values to use (default: all)")
    p.set_defaults(func=cmd_cantor)

    p = subs.add_parser("decide-up", help="does an eventually periodic sequence contain an infinite chain")
    p.add_argument("input", help="literal 'prefix | cycle' text of element tokens (quote it)")
    _add_order_flags(p)
    p.set_defaults(func=cmd_decide_up)

    p = subs.add_parser("check-axioms", help="check order axioms on a finite support file")
    p.add_argument("support", help="file of element tokens")
    _add_order_flags(p)
    p.add_argument("--axioms", help="comma-separated subset of: reflexivity,antisymmetry,transitivity,totality")
    p.set_defaults(func=cmd_check_axioms)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reuses: argparse keeps no state between
    ``parse_args`` calls, and building the tree costs more than most
    commands do."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OrderChainsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
