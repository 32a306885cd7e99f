"""Command-line surface: flags, formats, exit codes, determinism."""

import contextlib
import dataclasses
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import orderchains
from orderchains import reductions
from orderchains.cli import build_parser, main

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest itself depends on tomli before Python 3.11
    import tomli as tomllib

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def seq_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("3 1 4 1 5 9 2 6\n")
    return str(path)


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("e\n1\n1.1\n1.1.0\n")
    return str(path)


def test_analyze(capsys, seq_file):
    code, out, err = run(capsys, "analyze", seq_file, "--order", "IntLess")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "length: 4"
    assert lines[1] == "indices: 0 2 4 5"
    assert lines[2] == "values: 3 4 5 9"
    assert lines[3] == "constant value: 1"
    assert lines[4] == "constant count: 2"


def test_analyze_non_strict(capsys, tmp_path):
    path = tmp_path / "rep.txt"
    path.write_text("2 2 2\n")
    code, out, _ = run(capsys, "analyze", str(path), "--order", "IntLess", "--non-strict")
    assert code == 0
    assert out.startswith("length: 3")
    code, out, _ = run(capsys, "analyze", str(path), "--order", "IntLess", "--strict")
    assert out.startswith("length: 1")


def test_analyze_bad_token_names_file_and_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\nx\n")
    code, out, err = run(capsys, "analyze", str(path), "--order", "IntLess")
    assert code == 2
    assert f"{path}:2" in err


def test_analyze_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "void.txt"), "--order", "IntLess")
    assert code == 2
    assert "error:" in err


def test_analyze_zero_under_divides(capsys, tmp_path):
    path = tmp_path / "nats.txt"
    path.write_text("0 1\n")
    code, _, err = run(capsys, "analyze", str(path), "--order", "Divides")
    assert code == 2
    assert "exclude zero" in err


def test_reduce_writes_image_and_report(capsys, tree_file, tmp_path):
    out_path = tmp_path / "img.txt"
    code, out, _ = run(
        capsys, "reduce", tree_file, "--target", "subset",
        "--horizon", "100", "--out", str(out_path),
    )
    assert code == 0
    assert "chain length: 4" in out
    image_lines = out_path.read_text().strip().split("\n")
    assert len(image_lines) == 100
    assert image_lines[0] == "e"
    assert image_lines[25] == "1.1.0"


def test_reduce_rational_target(capsys, tree_file):
    code, out, _ = run(capsys, "reduce", tree_file, "--target", "rational", "--horizon", "30")
    assert code == 0
    first = out.strip().split("\n")[0]
    assert first == "0/1"


def test_encode_rational_empty_word(capsys):
    code, out, _ = run(capsys, "encode", "--map", "rational", "e")
    assert code == 0
    assert out == "0/1\n"


def test_encode_binary_words(capsys):
    code, out, _ = run(capsys, "encode", "--map", "binary", "1", "1.0")
    assert code == 0
    assert out == "1101\n11010001\n"


def test_encode_double_naturals(capsys):
    code, out, _ = run(capsys, "encode", "--map", "double", "0", "2")
    assert code == 0
    assert out == "00\n1100\n"


def test_encode_double_rejects_word_token(capsys):
    code, _, err = run(capsys, "encode", "--map", "double", "1.0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, tree",
    [
        (("encode", "--map", "double", "²"), None),
        (("encode", "--map", "double", "1" * 5000), None),
        (("encode", "--map", "binary", "1.²"), None),
        (("encode", "--map", "binary", "1" * 5000), None),
        (("reduce", "--horizon", "3"), "e\n²\n"),
        (("reduce", "--horizon", "3"), "e\n" + "1" * 5000 + "\n"),
    ],
)
def test_digits_int_cannot_read_exit_two(capsys, tmp_path, argv, tree):
    "superscript digits and entries past the int digit limit are bad input, not a crash"
    if tree is not None:
        path = tmp_path / "tree.txt"
        path.write_text(tree)
        argv += (str(path),)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_encode_reads_other_decimal_digits(capsys):
    "a decimal digit of another script is still a digit"
    assert run(capsys, "encode", "--map", "binary", "٣") == run(capsys, "encode", "--map", "binary", "3")


def test_encode_rational_past_the_digit_cap_exit_two(capsys):
    "the dyadic digit cap refuses the word before any shift"
    code, out, err = run(capsys, "encode", "--map", "rational", "1000000000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: word_to_dyadic writes at most") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, tree",
    [
        (("encode", "--map", "binary", "1." + "2" * 5000 + "x"), None),
        (("encode", "--map", "double", "1" * 5000 + "x"), None),
        (("reduce", "--horizon", "3"), "e\n1." + "2" * 5000 + "x\n"),
    ],
    ids=["encode-binary", "encode-double", "tree-line"],
)
def test_error_lines_cap_long_tokens(capsys, tmp_path, argv, tree):
    "an error quotes the start of a huge token, not all of it"
    if tree is not None:
        path = tmp_path / "t.txt"
        path.write_text(tree)
        argv += (str(path),)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err.replace(str(tmp_path), "")) < 200
    assert "characters)" in err


@pytest.mark.parametrize("argv", [("analyze", "--order", "IntLess"), ("cantor", "--depth", "1", "--set")])
def test_undecodable_file_exit_two(capsys, tmp_path, argv):
    "a file that is not UTF-8 is bad input named by its path, not a traceback"
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (2, "", f"error: {path}: not UTF-8 text: invalid start byte\n")


def test_encode_rational_too_large_to_print(capsys):
    code, out, err = run(capsys, "encode", "--map", "rational", "20000")
    assert (code, out) == (2, "")
    assert err == (
        "error: rational too large to print: its numerator or denominator has more than "
        f"{sys.get_int_max_str_digits()} decimal digits\n"
    )


@pytest.fixture
def int_digit_limit():
    "set the interpreter's int -> str digit limit for one test"
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("limit", [4300, 5000])
def test_encode_rational_refuses_unprintable_words_before_encoding(capsys, monkeypatch, int_digit_limit, limit):
    "the refusal is read from len + sum at the exact bound, and no word past it is encoded"
    int_digit_limit(limit)
    # The image of a word of d binary digits has denominator 2^d.
    refused = (10**limit).bit_length()
    code, out, _ = run(capsys, "encode", "--map", "rational", str(refused - 2))
    assert code == 0 and len(out.split("/")[1]) == limit + 1
    rational = reductions.POINTWISE_MAPS["rational"]
    guarded = dataclasses.replace(rational, fn=lambda word: pytest.fail(f"encoded {word}") if word else rational.fn(word))
    monkeypatch.setitem(reductions.POINTWISE_MAPS, "rational", guarded)
    code, out, err = run(capsys, "encode", "--map", "rational", "e", str(refused - 1))
    assert (code, out) == (2, "0/1\n")
    assert err == (
        "error: rational too large to print: its numerator or denominator has more than "
        f"{limit} decimal digits\n"
    )


def test_encode_rational_without_a_digit_limit(capsys, int_digit_limit):
    "a limit of 0 is no limit: only the encoder's own cap refuses"
    int_digit_limit(0)
    code, out, _ = run(capsys, "encode", "--map", "rational", "20000")
    assert code == 0 and out.endswith(f"/{2**20001}\n")
    code, _, err = run(capsys, "encode", "--map", "rational", "1000000000000")
    assert code == 2 and err.startswith("error: word_to_dyadic writes at most")


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("digits", [4294, 4300])
def test_fuzz_refuses_a_seed_whose_trial_seeds_cannot_print(capsys, int_digit_limit, sign, digits):
    "the trial seed S * 1 000 003 + t of a seed S past 4 293 digits cannot print: fuzz_reduction refuses it before the CSV header"
    int_digit_limit(4300)
    code, out, err = run(capsys, "fuzz", "--trials", "1", "--node-cap", "1", "--seed", sign + "9" * digits)
    assert (code, out) == (2, "")
    head = (sign + "9" * 40)[:40]
    assert err == f"error: seed {head}... ({len(sign) + digits} characters) gives trial seeds too long to print\n"


def test_fuzz_refuses_the_spec_and_horizon_before_the_seed(capsys, int_digit_limit):
    "the seed refusal comes after TreeGenSpec's and fuzz_reduction's horizon and trial-count refusals"
    int_digit_limit(4300)
    seed = ["--seed", "9" * 4300]
    assert run(capsys, "fuzz", "--node-cap", "0", *seed) == (2, "", "error: caps must be positive\n")
    assert run(capsys, "fuzz", "--horizon", "0", *seed) == (2, "", "error: horizon must be at least 1\n")
    assert run(capsys, "fuzz", "--trials", "-1", *seed) == (2, "", "error: trial count -1 is negative\n")


def test_fuzz_prints_the_widest_printable_seed(capsys, int_digit_limit):
    int_digit_limit(4300)
    seed = 10**4293 - 1
    code, out, _ = run(capsys, "fuzz", "--trials", "2", "--node-cap", "1", "--seed", str(seed))
    assert code == 0
    assert [row.split(",")[1] for row in out.splitlines()[1:]] == [str(seed * 1_000_003), str(seed * 1_000_003 + 1)]


def test_fuzz_csv_and_exit(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, err = run(
        capsys, "fuzz", "--pipeline", "subset", "--trials", "10",
        "--seed", "7", "--horizon", "120", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "trial,seed,L_tree,L_img,verdict"
    assert len(lines) == 11
    assert "violations=0" in err


@pytest.mark.parametrize("target, reason", [
    ("missing/out.txt", "No such file or directory"), ("", "Is a directory"),
], ids=["under-a-missing-directory", "a-directory"])
@pytest.mark.parametrize("command", ["reduce", "fuzz"])
def test_an_unwritable_out_is_an_error_named_by_its_path(capsys, tmp_path, tree_file, command, target, reason):
    "exit 2 with one error line naming the path, nothing on stdout, and no file left"
    path = tmp_path / target
    argv = {
        "reduce": ["reduce", tree_file, "--horizon", "3"],
        "fuzz": ["fuzz", "--trials", "1", "--node-cap", "1", "--horizon", "3"],
    }[command]
    assert run(capsys, *argv, "--out", str(path)) == (2, "", f"error: {path}: {reason}\n")
    assert not (tmp_path / "missing").exists()


def test_fuzz_deterministic(capsys):
    args = ("fuzz", "--pipeline", "rl", "--trials", "8", "--seed", "3", "--horizon", "80")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_classify_table(capsys, tmp_path):
    path = tmp_path / "rats.txt"
    path.write_text("1/2 1/4 3/4 1/8 3/8 5/8 7/8\n")
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n depth"
    assert lines[1] == "2 0"
    assert lines[2] == "4 1"
    assert lines[-1] == "7 2"


def test_cantor_dump(capsys):
    code, out, _ = run(capsys, "cantor", "--depth", "1")
    assert code == 0
    assert out.split("\n")[0] == "e 0 1 [1/3 2/3]"


def test_cantor_stage_file(capsys, tmp_path):
    path = tmp_path / "stages.txt"
    path.write_text("0 1/4\n1/2 1\n")
    code, out, _ = run(capsys, "cantor", "--set", str(path), "--depth", "1", "--resolution", "0")
    assert code == 0
    assert out.split("\n")[0] == "e 0 1 [1/4 1/2]"


def test_cantor_extract_requires_stream(capsys):
    code, _, err = run(capsys, "cantor", "--depth", "1", "--extract", "Y")
    assert code == 2
    assert "--stream" in err


def test_cantor_extract_without_stream_builds_nothing(capsys):
    "the flags are checked before any scheme line is printed"
    code, out, err = run(capsys, "cantor", "--depth", "2", "--extract", "Y")
    assert (code, out, err) == (2, "", "error: --extract needs --stream FILE\n")


@pytest.mark.parametrize("command", ["classify", "cantor"])
def test_huge_exponent_exit_two(capsys, tmp_path, command):
    "an exponent past the digit limit is refused before Fraction computes its power"
    path = tmp_path / "values.txt"
    path.write_text("0 1e100000000\n")
    argv = ("classify", str(path)) if command == "classify" else ("cantor", "--set", str(path), "--depth", "1")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}:1: bad rational token '1e100000000': "
        f"exponent of '1e100000000' is above {sys.get_int_max_str_digits()} in magnitude\n"
    )


def test_stage_file_reads_exponent_spellings(capsys, tmp_path):
    path = tmp_path / "stages.txt"
    path.write_text("0 1.5e-3\n2.5E-1 3e-1\n0.5 6E-1\n7.5e-1 1\n")
    code, out, err = run(capsys, "cantor", "--set", str(path), "--depth", "1")
    assert (code, err) == (0, "")
    assert out.split("\n")[0] == "e 0 1 [3/2000 1/4]"


def test_cantor_extract_y(capsys, tmp_path):
    path = tmp_path / "xs.txt"
    path.write_text("1/2 5/12\n")
    code, out, _ = run(
        capsys, "cantor", "--depth", "1", "--extract", "Y", "--stream", str(path)
    )
    assert code == 0
    assert "extract Y: 1 elements" in out
    assert out.strip().endswith("1/2")


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "text, rows, seen",
    [
        # the 6th value repeats the 2nd: the 8-prefix is the first to hold it
        ("1/3 1/2 3/4\n1/5 2/7 1/2 5/9 7/8 0 1\n", "n depth\n2 0\n4 1\n", "1/2"),
        # the repeat is the last value: the full-list row is the one that fails
        ("1/2 1/4 3/4 1/8 3/8 5/8 7/8 1/4\n", "n depth\n2 0\n4 1\n", "1/4"),
        ("1/3 1/3\n", "n depth\n", "1/3"),
    ],
)
def test_classify_duplicate_golden(capsys, tmp_path, text, rows, seen):
    "rows before the first prefix holding a repeat print, then the error"
    path = tmp_path / "rats.txt"
    path.write_text(text)
    code, out, err = run(capsys, "classify", str(path))
    assert (code, out, err) == (
        2, rows, f"error: splitting_depth needs distinct elements, saw {seen} twice\n"
    )


@pytest.mark.parametrize("text, out", [("", "n depth\n0 0\n"), ("2/4\n", "n depth\n1 0\n")])
def test_classify_short_lists_golden(capsys, tmp_path, text, out):
    path = tmp_path / "rats.txt"
    path.write_text(text)
    assert run(capsys, "classify", str(path)) == (0, out, "")


@pytest.mark.parametrize("extract", ["P", "Y"])
def test_cantor_extract_golden(capsys, extract):
    "60 triadic and decimal rationals through the depth-6 middle-thirds scheme"
    stream = str(GOLDEN / "cantor_stream.txt")
    code, out, err = run(capsys, "cantor", "--depth", "6", "--extract", extract, "--stream", stream)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"cantor_depth6_{extract}.out").read_text()


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1/4\n1/2 1 3\n", "{path}:2: expected 'lo hi'"),
        # the ids keep the case names from before the bad-token prefix
        pytest.param(
            "0 1/4\nx 1\n",
            "{path}:2: bad rational token 'x': Invalid literal for Fraction: 'x'",
            id="0 1/4\nx 1\n-{path}:2: Invalid literal for Fraction: 'x'",
        ),
        pytest.param(
            "1/0 1/4\n",
            "{path}:1: bad rational token '1/0': Fraction(1, 0)",
            id="1/0 1/4\n-{path}:1: Fraction(1, 0)",
        ),
        ("0 1/2\n1/4 1\n", "stage intervals must be disjoint and sorted"),
    ],
)
def test_cantor_stage_file_errors_golden(capsys, tmp_path, text, message):
    path = tmp_path / "stages.txt"
    path.write_text(text)
    code, out, err = run(capsys, "cantor", "--set", str(path), "--depth", "1")
    assert (code, out, err) == (2, "", "error: " + message.format(path=path) + "\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--depth", "40"), "depth 40 is above the cap of 16: it needs a stage of 2^41 components"),
        (("--depth", "2", "--resolution", "40"), "middle-thirds stage 40 has 2^40 components, above the cap of 2^17"),
    ],
)
def test_cantor_refuses_schemes_too_large_to_build(capsys, argv, message):
    assert run(capsys, "cantor", *argv) == (2, "", f"error: {message}\n")


def test_cantor_stage_file_skips_blank_lines_golden(capsys, tmp_path):
    path = tmp_path / "stages.txt"
    path.write_text("0 1/4\n\n1/2 1\n")
    code, out, err = run(capsys, "cantor", "--set", str(path), "--depth", "1", "--resolution", "0")
    assert (code, out, err) == (0, "e 0 1 [1/4 1/2]\n0 0 1/4\n1 1/2 1\n", "")


@pytest.mark.parametrize(
    "text, message",
    [
        ("e\n\n1.x\n", "{path}:3: bad word entry 'x' in token '1.x'"),
        ("e\n1\t2\n", "{path}:2: bad word entry '1\\t2' in token '1\\t2'"),
        ("e\n1.1\n", "node (1, 1) present but prefix (1,) missing"),
        (None, "{path}: No such file or directory"),
    ],
)
def test_reduce_tree_file_errors_golden(capsys, tmp_path, text, message):
    "a bad word counts blank lines, keeps its tab, a gap names the prefix, a missing file its path"
    path = tmp_path / "tree.txt"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "reduce", str(path), "--horizon", "5")
    assert (code, out, err) == (2, "", "error: " + message.format(path=path) + "\n")


def test_decide_up_literal_input(capsys):
    code, out, _ = run(capsys, "decide-up", "2 | 2 4 8", "--order", "Divides")
    assert code == 0
    assert out == "member: false\n"
    code, out, _ = run(capsys, "decide-up", "2 | 2 4 8", "--order", "Divides", "--non-strict")
    assert code == 0
    assert out.split("\n")[0] == "member: true"
    assert "cycle: 2 -> 2" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--horizon", "0"),
        ("fuzz", "--node-cap", "0"),
        ("fuzz", "--mean-children", "0"),
        ("fuzz", "--depth-cap", "4097"),
        ("cantor", "--depth", "1", "--resolution", "-3"),
        ("cantor", "--set", "cantor3", "--depth", "0", "--count", "-1"),
        ("reduce", "--horizon", str(orderchains.trees.MAX_HORIZON + 1)),
        ("fuzz", "--horizon", str(orderchains.trees.MAX_HORIZON + 1)),
        ("fuzz", "--max-children", "4097"),
        ("fuzz", "--max-children", "-5"),
        ("fuzz", "--mean-children", "inf"),
        ("fuzz", "--node-cap", str(orderchains.limits.MAX_NODES + 1)),
        ("fuzz", "--node-cap", "100000000", "--mean-children", "50", "--max-children", "50", "--depth-cap", "30"),
        ("fuzz", "--trials", "0", "--horizon", "-5"),
        ("fuzz", "--trials", "-3", "--horizon", "999999999"),
        ("fuzz", "--trials", "-1"),
    ],
)
def test_out_of_range_numbers_exit_two(capsys, tree_file, argv):
    "a numeric flag out of range is bad input, not a crash"
    if argv[0] == "reduce":
        argv += (tree_file,)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_check_axioms_clean(capsys, tmp_path):
    path = tmp_path / "ints.txt"
    path.write_text("-1 0 1 2\n")
    code, out, _ = run(capsys, "check-axioms", str(path), "--order", "IntLess")
    assert code == 0
    assert "no violations" in out


def test_check_axioms_violation_exits_one(capsys, tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("e 0 1\n")
    code, out, _ = run(
        capsys, "check-axioms", str(path), "--order", "SubsetWordBit", "--axioms", "totality"
    )
    assert code == 1
    assert "totality violated" in out


def test_check_axioms_refuses_a_support_past_the_cap(capsys, tmp_path):
    "a support file past the cap is an input error"
    path = tmp_path / "ints.txt"
    path.write_text("0\n" * (orderchains.orders.MAX_AXIOM_SUPPORT + 1))
    code, out, err = run(capsys, "check-axioms", str(path), "--order", "IntLess")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "support elements" in err


def test_check_axioms_delta_needs_tag(capsys, tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("e 0.1 0.1.2\n")
    code, out, _ = run(
        capsys, "check-axioms", str(path), "--order", "Delta", "--tag", "word"
    )
    assert code == 0
    assert "no violations" in out


@pytest.mark.parametrize(
    "order, tag, domain", [("IntLess", "word", "int"), ("SubsetWordNat", "bits", "word"), ("Divides", "int", "nat")]
)
def test_a_tag_other_than_the_orders_own_is_refused(capsys, tmp_path, order, tag, domain):
    "only Delta reads --tag; any other oracle accepts its own tag alone"
    path = tmp_path / "seq.txt"
    path.write_text("1 2 3\n")
    assert run(capsys, "analyze", str(path), "--order", order, "--tag", tag) == (
        2, "", f"error: {order} compares {domain} elements, got {tag}\n"
    )
    if domain != "word":
        plain = run(capsys, "analyze", str(path), "--order", order)
        assert plain[0] == 0
        assert run(capsys, "analyze", str(path), "--order", order, "--tag", domain) == plain


def test_flags_do_not_carry_over_between_calls(capsys, tmp_path):
    "main reuses one parser: a flag of one call leaves the next at its defaults"
    path = tmp_path / "rep.txt"
    path.write_text("2 2 2\n")
    strict = run(capsys, "analyze", str(path), "--order", "IntLess")
    assert run(capsys, "analyze", str(path), "--order", "IntLess", "--non-strict")[1].startswith("length: 3")
    assert run(capsys, "analyze", str(path), "--order", "IntLess") == strict
    assert strict[1].startswith("length: 1")


def test_usage_error_leaves_the_parser_as_it_was(capsys, seq_file):
    alone = run(capsys, "analyze", seq_file, "--order", "IntLess")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", seq_file, "--order", "IntLess", "--strict", "--non-strict"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert run(capsys, "analyze", seq_file, "--order", "IntLess") == alone


def _usage_error(capsys, argv):
    "the last stderr line of an argparse usage error, which exits 2 and prints nothing on stdout"
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    return captured.err.splitlines()[-1]


TAGS = "'bits', 'int', 'nat', 'rational', 'word'"
COMMANDS = "'analyze', 'reduce', 'encode', 'fuzz', 'classify', 'cantor', 'decide-up', 'check-axioms'"


@pytest.mark.parametrize(
    "argv, line",
    [
        (("reduce", "t", "--horizon", "12x"), "orderchains reduce: error: argument --horizon: invalid int value: '12x'"),
        (("fuzz", "--mean-children", "1.x"), "orderchains fuzz: error: argument --mean-children: invalid float value: '1.x'"),
        (
            ("analyze", "t", "--order", "IntLess", "--tag", "t" * 40),
            f"orderchains analyze: error: argument --tag: invalid choice: '{'t' * 40}' (choose from {TAGS})",
        ),
        (("nosuch",), f"orderchains: error: argument command: invalid choice: 'nosuch' (choose from {COMMANDS})"),
        (("encode", "--map", "binary", "1", "--x=" + "y" * 36), "orderchains: error: unrecognized arguments: --x=" + "y" * 36),
        (
            ("fuzz", "--m=" + "x" * 36),
            "orderchains fuzz: error: ambiguous option: --m=" + "x" * 36 + " could match --mean-children, --max-children",
        ),
        (
            ("analyze", "t", "--order", "IntLess", "--strict=" + "y" * 40),
            f"orderchains analyze: error: argument --strict: ignored explicit argument '{'y' * 40}'",
        ),
        (("analyze", "t", "-h" + "z" * 40), f"orderchains analyze: error: argument -h/--help: ignored explicit argument '{'z' * 40}'"),
    ],
)
def test_usage_errors_quote_a_short_value_whole(capsys, argv, line):
    "a value of at most ECHO_LIMIT characters reads as argparse writes it"
    assert _usage_error(capsys, argv) == line


@pytest.mark.parametrize(
    "argv, size",
    [
        (("reduce", "t", "--horizon", "7" * 5000), 5000),
        (("fuzz", "--seed", "7" * 5000), 5000),
        (("fuzz", "--mean-children", "7" * 5000 + "x"), 5001),
        (("analyze", "t", "--order", "IntLess", "--tag", "t" * 10**4), 10**4),
        (("n" * 10**4,), 10**4),
        (("encode", "--map", "binary", "1", "--x=" + "y" * 10**4), 10**4 + 4),
        (("fuzz", "--m=" + "x" * 5000), 5004),
        (("analyze", "t", "--order", "IntLess", "--strict=" + "y" * 5000), 5000),
        (("analyze", "t", "-h" + "z" * 5000), 5000),
    ],
)
def test_usage_errors_cut_a_long_value(capsys, argv, size):
    line = _usage_error(capsys, argv)
    assert len(line) < 300 and f"... ({size} characters)" in line


def _help_text(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr()


def test_help_matches_a_fresh_parser(capsys):
    "the -h text of main's parser is a freshly built parser's, at every level"
    fresh = build_parser()
    subs = next(a for a in fresh._actions if a.dest == "command").choices
    for argv in [["-h"]] + [[name, "-h"] for name in subs]:
        main(["encode", "--map", "binary", "1"])  # main's parser is in use
        capsys.readouterr()
        assert _help_text(capsys, main, argv) == _help_text(capsys, build_parser().parse_args, argv)


# Tokens of 10^4+ characters, one bad and one a valid word, and numbers
# of 4 000+ digits, which argparse still reads as ints (the interpreter's
# digit limit is 4 300): each error that quotes one must cut it.
LONG_TOKEN = "2" * 10**4 + "x"
LONG_WORD = ".".join(["1"] * 5000)
LONG_NUMBERS = st.sampled_from(["9" * 4000, "-" + "9" * 4000, "1" + "0" * 4299])
# Past that limit, argparse refuses the number itself.
UNREADABLE_NUMBER = "7" * 5000


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    texts = {
        "ints": b"3 1 4 1 5\n",
        "rats": b"1/3 1/2 3/4\n1/5 2/7\n",
        "dup": b"1/3 1/2 1/3\n",
        "words": b"e 0 0.1 1.2\n",
        "tree": b"e\n1\n1.1\n",
        "stages": b"0 1/9\n2/9 1/3\n2/3 7/9\n8/9 1\n",
        "bad": b"1 x\n",
        "long": f"1 {LONG_TOKEN}\n".encode(),
        "utf16": b"\xff\xfe",
    }
    for name, text in texts.items():
        (root / name).write_bytes(text)
    return {name: str(root / name) for name in [*texts, "missing"]}


def _any_file(draw, files):
    return files[draw(st.sampled_from(sorted(files)))]


def _any_out(draw, files):
    """No ``--out``, or one at a writable file under the tiny-files root,
    at the root itself, or under a missing directory."""
    root = os.path.dirname(files["ints"])
    targets = [os.path.join(root, "out"), root, os.path.join(files["missing"], "out")]
    return _optional(draw, "--out", st.sampled_from(targets))


def _optional(draw, flag, values):
    """Either nothing or ``flag`` with one of ``values``."""
    return draw(st.one_of(st.just([]), values.map(lambda v: [flag, str(v)])))


@st.composite
def _argv(draw, files):
    """One command line from a small grammar over the tiny files, bad ones included."""
    kind = draw(st.sampled_from(
        ["analyze", "check-axioms", "classify", "cantor", "encode", "decide-up", "fuzz", "reduce", "out", "usage"]
    ))
    orders = ["IntLess", "RatLess", "RL", "Divides", "SubsetWordNat", "Delta", "Bogus", "o" * 10**4]
    order = ["--order", draw(st.sampled_from(orders))]
    reading = draw(st.sampled_from([[], ["--strict"], ["--non-strict"]]))
    order += reading + _optional(draw, "--tag", st.sampled_from(["int", "nat", "word", "rational", "t" * 10**4]))
    if kind == "analyze":
        return [kind, _any_file(draw, files)] + order
    if kind == "check-axioms":
        axioms = st.sampled_from(["transitivity", "totality,reflexivity", "antisymmetry", "density", "a" * 10**4])
        return [kind, _any_file(draw, files)] + order + _optional(draw, "--axioms", axioms)
    if kind == "classify":
        return [kind, _any_file(draw, files)]
    if kind == "cantor":
        stages = _optional(draw, "--set", st.sampled_from([files["stages"], files["rats"], files["missing"]]))
        extract = draw(st.sampled_from([
            [], ["--extract", "P", "--stream", files["rats"]], ["--extract", "Y", "--stream", files["dup"]], ["--extract", "Y"]
        ]))
        return (
            [kind, "--depth", str(draw(st.integers(0, 3) | LONG_NUMBERS))]
            + stages
            + _optional(draw, "--resolution", st.integers(-3, 3) | LONG_NUMBERS)
            + extract
            + _optional(draw, "--count", st.integers(-1, 6) | LONG_NUMBERS)
        )
    if kind == "encode":
        tokens = draw(st.lists(st.sampled_from(["e", "0", "1.2", "3", "x", "²", LONG_TOKEN, LONG_WORD]), min_size=1, max_size=3))
        return [kind, "--map", draw(st.sampled_from(["binary", "rational", "double"]))] + tokens
    if kind == "decide-up":
        return [kind, draw(st.sampled_from(["2 | 2 4 8", "1 | 3 2", "|", "x | 1", f"{LONG_TOKEN} | 1", f"1 | {LONG_WORD}"]))] + order
    if kind == "fuzz":
        return [
            kind,
            "--pipeline", draw(st.sampled_from(["subset", "rational", "binary", "rl"])),
            "--trials", str(draw(st.integers(0, 2))),
            "--seed", str(draw(st.integers(0, 3) | LONG_NUMBERS)),
            "--horizon", str(draw(st.integers(0, 8) | st.just(orderchains.trees.MAX_HORIZON + 1) | LONG_NUMBERS)),
            "--node-cap", str(draw(st.integers(0, 6) | LONG_NUMBERS)),
            "--depth-cap", str(draw(st.sampled_from([-1, 0, 2, 4097]) | LONG_NUMBERS)),
            "--mean-children", draw(st.sampled_from(["0", "1.2", "4"])),
            "--max-children", str(draw(st.integers(0, 3) | LONG_NUMBERS)),
        ] + _any_out(draw, files)
    if kind == "out":
        # A run that succeeds but for its --out, since few drawn above do.
        command = draw(st.sampled_from([
            ["reduce", files["tree"], "--horizon", "4"], ["fuzz", "--trials", "2", "--node-cap", "3", "--horizon", "4"],
        ]))
        return command + _any_out(draw, files)
    if kind == "reduce":
        target = draw(st.sampled_from(["subset", "rational", "binary", "rl"]))
        mode = _optional(draw, "--mode", st.sampled_from(["strict", "closure"]))
        horizon = draw(st.integers(0, 6) | st.just(orderchains.trees.MAX_HORIZON + 1) | LONG_NUMBERS | st.just(UNREADABLE_NUMBER))
        return [kind, _any_file(draw, files), "--horizon", str(horizon), "--target", target] + mode + _any_out(draw, files)
    return draw(st.sampled_from([
        [], ["analyze"], ["nosuch"], ["n" * 10**4], ["cantor", "--depth", "x"], ["encode", "--map", "binary"],
        ["fuzz", "--m=" + "x" * 5000], ["analyze", "t", "--order", "IntLess", "--strict=" + "y" * 5000],
    ]))


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _without_flags(argv, flags):
    "argv with each of ``flags`` and the value after it dropped"
    kept = list(argv)
    for flag in flags:
        if flag in kept:
            at = kept.index(flag)
            del kept[at : at + 2]
    return kept


def _check_printed_before_failing(argv, out, err):
    """On exit 2, stdout holds only lines the command printed before it
    failed: one line per ``encode`` token read before the bad one,
    ``cantor``'s scheme before its extraction, and the rows of
    ``classify``'s table before the repeat."""
    if not out:
        return
    kind = argv[0]
    if kind == "encode":
        done = out.count("\n")
        assert _outcome(argv[: 3 + done]) == (0, out, "")
        assert _outcome(argv[: 4 + done]) == (2, out, err)
    elif kind == "cantor":
        assert _outcome(_without_flags(argv, ["--extract", "--stream", "--count"])) == (0, out, "")
    elif kind == "classify":
        header, *rows = out.splitlines()
        assert header == "n depth"
        for row in rows:
            n, depth = map(int, row.split())
            assert depth == orderchains.dense.distinct_splitting_depth(n)
    else:
        pytest.fail(f"{kind} printed {out[:80]!r} before exit 2")


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_call_order_does_not_change_any_outcome(tiny_files, data):
    """a run of command lines gives each the same exit, stdout and stderr
    in either order; on exit 2 every ``error:`` line, argparse's own
    included, is short, and stdout holds only what was printed before
    the failure"""
    root = os.path.dirname(tiny_files["ints"])
    argvs = data.draw(st.lists(_argv(tiny_files), min_size=2, max_size=6))
    forward = [_outcome(argv) for argv in argvs]
    backward = [_outcome(argv) for argv in reversed(argvs)][::-1]
    assert forward == backward
    for argv, (code, out, err) in zip(argvs, forward):
        assert code in (0, 1, 2)
        assert code != 2 or "error:" in err
        for line in err.splitlines():
            assert "error:" not in line or len(line.replace(root, "")) < 300, line[:80]
        if code == 2:
            _check_printed_before_failing(argv, out, err)


def _script_target_argv():
    """Run the `[project.scripts]` target the way the setuptools wrapper does."""
    with open(PYPROJECT, "rb") as fp:
        target = tomllib.load(fp)["project"]["scripts"]["orderchains"]
    module, attr = target.split(":")
    return [sys.executable, "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"]


def _child_env():
    """Environment whose PYTHONPATH finds the package under test from any cwd."""
    package_root = Path(orderchains.__file__).resolve().parent.parent
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    paths = [str(package_root)] + [os.path.abspath(p) for p in inherited if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def _check_entry_point(argv, cwd):
    def call(*args):
        return subprocess.run(
            [*argv, *args], capture_output=True, text=True, cwd=cwd, env=_child_env(),
        )

    result = call("encode", "--map", "rational", "0")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1/2\n"
    result = call("encode", "--map", "double", "1.0")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error:" in result.stderr


def test_entry_point_runs(tmp_path):
    _check_entry_point(_script_target_argv(), tmp_path)


@pytest.mark.skipif(shutil.which("orderchains") is None, reason="orderchains is not installed on PATH")
def test_installed_entry_point_runs(tmp_path):
    _check_entry_point([shutil.which("orderchains")], tmp_path)


def test_import_does_not_load_numpy():
    "the package and its CLI run on the standard library alone"
    code = "import sys, orderchains, orderchains.cli; sys.exit('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
