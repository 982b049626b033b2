import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab import cli, enumeration, verify
from permlab.cli import DiskCache, main
from permlab.enumeration import CountTable
from permlab.errors import DomainError

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_total(capsys):
    code, out, _ = run_cli(capsys, "count", "--kind", "ballot", "--n", "6")
    assert (code, out.strip()) == (0, "225")


def test_count_cell(capsys):
    code, out, _ = run_cli(capsys, "count", "--kind", "ballot", "--n", "4",
                           "--d", "1", "--i", "3", "--j", "1")
    assert (code, out.strip()) == (0, "2")


def test_count_domain_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "--kind", "ballot", "--n", "4",
                           "--i", "2", "--j", "2")
    assert code == 2
    assert "permlab" in err


def test_count_budget_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "--kind", "ballot", "--n", "12")
    assert code == 2
    assert "budget" in err


def test_matrix_text(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--kind", "ballot", "--n", "3")
    assert (code, out.strip()) == (0, "0 1\n1 0")


def test_matrix_json(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--kind", "odd", "--n", "4",
                           "--d", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"kind": "odd", "n": 4, "d": 1, "entries": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}


def test_matrix_at_a_fixed_statistic_for_both_kinds(capsys):
    # d = 2 first occurs at n = 5, where the two kinds share their matrix
    for kind in ("ballot", "odd"):
        code, out, err = run_cli(capsys, "matrix", "--kind", kind, "--n", "5", "--d", "2")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["0 2 2 1", "2 0 2 2", "2 2 0 2", "1 2 2 0"]


def test_matrix_refuses_sizes_past_the_budget(capsys):
    code, out, err = run_cli(capsys, "matrix", "--kind", "ballot", "--n", "11")
    assert (code, out) == (2, "")
    assert err == "permlab: budget error: 'ballot' is budgeted up to n=10, got n=11\n"


def test_matrix_csv(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--kind", "ballot", "--n", "3",
                           "--format", "csv")
    assert out.splitlines()[0] == "i\\j,1,2"
    assert out.splitlines()[1:] == ["1,0,1", "2,1,0"]


def test_enumerate_ballot(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--kind", "ballot", "--n", "3")
    assert (code, out.splitlines()) == (0, ["1 2 3", "1 3 2", "2 3 1"])


def test_enumerate_odd(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--kind", "odd", "--n", "3")
    assert (code, out.splitlines()) == (0, ["(1)(2)(3)", "(1 2 3)", "(1 3 2)"])


def test_map_shift(capsys):
    code, out, _ = run_cli(capsys, "map", "--op", "T", "--kind", "linear",
                           "--i", "4", "--j", "6", "--perm", "3 8 2 5 4 9 6 7 1")
    assert (code, out.strip()) == (0, "3 8 2 6 4 5 9 7 1")


def test_map_shift_cyclic(capsys):
    code, out, _ = run_cli(capsys, "map", "--op", "T", "--kind", "cyclic",
                           "--i", "3", "--j", "9",
                           "--perm", "(1,6,8,2,10)(3,12,9,11,7,5,4)")
    assert (code, out.strip()) == (0, "(1 3 6 2 7)(4 12 10 9 8 11 5)")


def test_map_shift_inverse(capsys):
    code, out, _ = run_cli(capsys, "map", "--op", "Tinv", "--i", "4", "--j", "6",
                           "--perm", "3 8 2 6 4 5 9 7 1")
    assert (code, out.strip()) == (0, "3 8 2 5 4 9 6 7 1")


def test_map_flank_swap_and_back(capsys):
    code, out, _ = run_cli(capsys, "map", "--op", "f", "--i", "1", "--j", "3",
                           "--perm", "1 5 2 3 4")
    assert (code, out.strip()) == (0, "2 3 5 1 4")
    code, out, _ = run_cli(capsys, "map", "--op", "g", "--i", "1", "--j", "3",
                           "--perm", "2 3 5 1 4")
    assert (code, out.strip()) == (0, "1 5 2 3 4")


def test_map_phi(capsys):
    code, out, _ = run_cli(capsys, "map", "--op", "phi", "--i", "1", "--j", "3",
                           "--perm", "1 5 2 4 3")
    assert (code, out.strip()) == (0, "1 5 3 4 2")


def test_map_contract_and_inverse(capsys):
    code, out, _ = run_cli(capsys, "map", "--op", "contract", "--i", "1", "--j", "2",
                           "--perm", "1 5 2 3 4")
    assert (code, out.strip()) == (0, "1 2 3")
    code, out, _ = run_cli(capsys, "map", "--op", "expand",
                           "--i", "1", "--j", "2", "--perm", "1 2 3")
    assert (code, out.strip()) == (0, "1 5 2 3 4")


def test_map_expand_is_its_own_op(capsys):
    # the contraction's inverse is the op `expand`, and `--inverse` is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["map", "--op", "contract", "--inverse", "--i", "1", "--j", "2", "--perm", "1 2 3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    for kind, perm, expected in (("linear", "1 2 3", "1 5 2 3 4"), ("cyclic", "(1 2)(3)", "(1 5 2 3)(4)")):
        code, out, err = run_cli(capsys, "map", "--op", "expand", "--kind", kind,
                                 "--i", "1", "--j", "2", "--perm", perm)
        assert (code, out, err) == (0, expected + "\n", "")


def test_map_flip(capsys):
    code, out, _ = run_cli(capsys, "map", "--op", "flip", "--kind", "cyclic",
                           "--perm", "(1 7 2 3 6 5 4)")
    assert (code, out.strip()) == (0, "(1 7 3 2 4 5 6)")


def test_map_errors(capsys):
    code, _, err = run_cli(capsys, "map", "--op", "T", "--i", "4", "--j", "6",
                           "--perm", "1 2 3")
    assert code == 2 and err
    code, _, err = run_cli(capsys, "map", "--op", "f", "--kind", "cyclic",
                           "--i", "1", "--j", "3", "--perm", "(1 5 2 3 4)")
    assert code == 2
    code, _, err = run_cli(capsys, "map", "--op", "T", "--perm", "1 5 2 3 4")
    assert code == 2  # missing --i/--j
    code, out, err = run_cli(capsys, "map", "--op", "phi", "--kind", "cyclic", "--i", "1", "--j", "3",
                             "--perm", "(1 5 2 3 4)")
    assert (code, out, err) == (2, "", "permlab: map --op phi is defined on one-line permutations only\n")
    code, out, err = run_cli(capsys, "map", "--op", "flip", "--perm", "1 4 2 3")
    assert (code, out, err) == (2, "", "permlab: map --op flip is defined on cycle decompositions only\n")


def _map_golden():
    """(argv, stdout, stderr, exit status) of each `permlab map` line of tests/data/map_golden.txt."""
    lines = (ROOT / "tests" / "data" / "map_golden.txt").read_text(encoding="utf-8").splitlines()
    for k in range(0, len(lines), 4):
        _, out, err, status = (line.partition(": ")[2] for line in lines[k:k + 4])
        assert lines[k].startswith("$ permlab map "), lines[k]
        yield shlex.split(lines[k])[2:], json.loads(out), json.loads(err), int(status)


def test_map_answers_and_refusals_equal_the_golden(capsys):
    # the console script wrote the golden: every op on fixed members of its
    # domain, in each form it takes, and refused input (a bad form, input
    # outside the domain, bad letters, a missing factor); CI runs the same
    # lines through the installed script
    cases = list(_map_golden())
    assert {argv[2] for argv, *_ in cases} == set(cli._MAP_OPS)
    assert {status for *_, status in cases} == {0, 2}
    for argv, out, err, status in cases:
        assert run_cli(capsys, *argv) == (status, out, err), argv


def _readme_cli_lines():
    """(argv, expected stdout or None) for each `permlab` line of README's CLI block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        if line.startswith("permlab "):
            command, _, note = line.partition("#")
            yield shlex.split(command)[1:], note.strip() or None


def test_readme_cli_examples_run(capsys, monkeypatch):
    monkeypatch.delenv("PERMLAB_CACHE", raising=False)
    lines = list(_readme_cli_lines())
    assert ["map", "--op", "expand"] in [argv[:3] for argv, _ in lines]
    for argv, expected in lines:
        code, out, err = run_cli(capsys, *argv)
        # the whole catalog exits 1 because prop43_words is red by design
        assert code == (1 if argv[:3] == ["verify", "--check", "all"] else 0), (argv, err)
        if expected is not None:
            assert out == expected + "\n", argv


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# One interleaved sequence: usage errors, a domain error, a budget error,
# then valid count, matrix, map and verify calls, exit codes 0, 1 and 2.
MIXED_CALLS = (
    ("frobnicate",),
    ("count", "--kind", "ballot", "--n", "4", "--i", "2", "--j", "2"),
    ("count", "--kind", "ballot", "--n", "12"),
    ("count", "--kind", "ballot", "--n", "6"),
    ("matrix", "--kind", "odd", "--n", "4", "--d", "1", "--format", "json"),
    ("count", "--kind", "odd", "--n", "5", "--d", "1.5"),
    ("map", "--op", "T", "--i", "4", "--j", "6", "--perm", "3 8 2 5 4 9 6 7 1"),
    ("verify", "--check", "toeplitz_B", "--max-n", "6", "--format", "json"),
    ("map", "--op", "flip", "--perm", "1 4 2 3"),
    ("matrix", "--kind", "ballot", "--n", "3", "--format", "csv"),
    ("count", "--kind", "ballot"),
    ("verify", "--check", "prop43_words", "--max-n", "5", "--format", "json"),
    ("map", "--op", "expand", "--kind", "cyclic", "--i", "1", "--j", "2", "--perm", "(1 2)(3)"),
    # lines that take argparse's full parse: --cache-dir joined to its value
    # or abbreviated, a value that starts with "-", --cache-dir after the
    # command, a "--" token, help at the top level, and a leftover argument;
    # help after the command goes straight to its subparser
    ("--cache-dir=unused", "map", "--op", "flip", "--kind", "cyclic", "--perm", "(1 7 2 3 6 5 4)"),
    ("--cache", "unused", "enumerate", "--kind", "odd", "--n", "3"),
    ("--cache-dir", "-unused", "enumerate", "--kind", "odd", "--n", "3"),
    ("enumerate", "--kind", "odd", "--n", "3", "--cache-dir", "unused"),
    ("enumerate", "--kind", "odd", "--", "--n", "3"),
    ("-h",),
    ("matrix", "-h"),
    ("count", "--kind", "ballot", "--n", "3", "3"),
)


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, usage errors included and wall times stripped."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, re.sub(r', "wall_time_ms": [0-9.eE+-]+', "", out), err


def test_main_builds_one_parser_for_many_calls(capsys, monkeypatch):
    real, built = cli.build_parser, []

    def counting():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting)
    codes = {_outcome(capsys, argv)[0] for argv in MIXED_CALLS * 2}
    assert codes == {0, 1, 2} and len(built) == 1
    # build_parser itself still returns a fresh parser on every call
    assert real() is not real()


def test_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    # each call through the shared parser, then through a parser built for it alone
    for argv in MIXED_CALLS:
        shared = _outcome(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", lambda build: build())
            assert _outcome(capsys, argv) == shared, argv
    code, out, err = _outcome(capsys, MIXED_CALLS[0])
    assert (code, out) == (2, "") and err.startswith("usage: permlab ")
    assert "invalid choice: 'frobnicate'" in err


def test_rebound_build_parser_gets_its_own_parser(capsys, monkeypatch):
    # a tracer rebinds build_parser and wraps parse_args on each parser it
    # returns: it must see every parse, each wrapped once
    real, built, parsed = cli.build_parser, [], []
    argv = ["count", "--kind", "ballot", "--n", "3"]
    main(argv)

    def traced():
        parser = real()
        inner = parser.parse_args
        parser.parse_args = lambda args=None: parsed.append(args) or inner(args)
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "build_parser", traced)
    codes = [main(argv) for _ in range(3)]
    assert (codes, len(built), parsed) == ([0, 0, 0], 1, [argv] * 3)
    assert cli._parser(traced) is built[0] is not cli._parser(real)
    assert capsys.readouterr().out == "3\n" * 4


# Valid options of each subcommand, (name, values): the required ones, then the optional ones.
_VALID_OPTIONS = {
    "count": ((("--kind", enumeration.KINDS), ("--n", ("3", "9"))),
              (("--d", ("0", "1")), ("--i", ("1", "2")), ("--j", ("2", "3")))),
    "matrix": ((("--kind", enumeration.KINDS), ("--n", ("4", "5"))),
               (("--d", ("0", "2")), ("--format", ("text", "json", "csv")))),
    "enumerate": ((("--kind", enumeration.KINDS), ("--n", ("3", "4"))), ()),
    "map": ((("--op", tuple(cli._MAP_OPS)), ("--perm", ("3 1 2", "(1 2)(3)"))),
            (("--kind", ("linear", "cyclic")), ("--i", ("1", "2")), ("--j", ("2", "3")))),
    "verify": ((("--check", ("toeplitz_B", "all")),),
               (("--max-n", ("5", "6")), ("--format", ("text", "json")))),
}
# Tokens a mutation inserts: names, values and the shapes at the routing's edges
_TOKENS = st.sampled_from(sorted(
    {name for groups in _VALID_OPTIONS.values() for group in groups for name, _ in group}
    | set(_VALID_OPTIONS)
    | {"--", "--=x", "--= x", "-", "-h", "--help", "--he", "--cache-dir", "--cache", "--c",
       "--cache-dir=d", "--cache-dir=", "--kind=odd", "--k", "--n=3", "-x", "-1", "-3",
       "3", "1.5", "", "a b", "ballot", "cyclic", "json", "frobnicate"}))
_DIRS = st.sampled_from(("d", "count", "", "a b", "-d", "--", "-1"))


@st.composite
def _mutated_lines(draw):
    """A valid line of some subcommand, maybe after --cache-dir DIR, with up to three edits."""
    command = draw(st.sampled_from(sorted(_VALID_OPTIONS)))
    required, optional = _VALID_OPTIONS[command]
    chosen = [*required, *(option for option in optional if draw(st.booleans()))]
    pairs = [(name, draw(st.sampled_from(values))) for name, values in chosen]
    argv = [command, *(token for pair in draw(st.permutations(pairs)) for token in pair)]
    if draw(st.booleans()):
        argv = ["--cache-dir", draw(_DIRS), *argv]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            argv.insert(at, draw(_TOKENS))
        elif at < len(argv) and edit == "delete":
            del argv[at]
        elif at < len(argv):
            argv[at] = draw(_TOKENS)
    return argv


def _answer(parse, argv):
    """The namespace as a dict, or the exit code; then stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            answer = vars(parse(argv))
        except SystemExit as exc:
            answer = exc.code
    return answer, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def parser():
    return cli.build_parser()


@settings(max_examples=600)
@given(_mutated_lines())
def test_parser_answers_as_argparse_full_parse(parser, argv):
    full = functools.partial(argparse.ArgumentParser.parse_args, parser)
    assert _answer(parser.parse_args, argv) == _answer(full, argv)


PLAIN_LINES = (
    ["count", "--kind", "ballot", "--n", "3"],
    ["--cache-dir", "unused", "map", "--op", "T", "--i", "1", "--j", "2", "--perm", "1 2"],
    ["--cache-dir", "", "verify", "--check", "all", "--max-n", "x"],
    ["enumerate", "--n", "3"],
    ["matrix", "-h"],
)
FALLBACK_LINES = (
    [],
    ["-h"],
    ["frobnicate"],
    ["--cache-dir"],
    ["--cache-dir", "unused"],
    ["--cache-dir=unused", "enumerate", "--kind", "odd", "--n", "3"],
    ["--cache", "unused", "enumerate", "--kind", "odd", "--n", "3"],
    ["--cache-dir", "-unused", "enumerate", "--kind", "odd", "--n", "3"],
    ["enumerate", "--kind", "odd", "--n", "3", "--cache-dir", "unused"],
    ["enumerate", "--kind", "odd", "--", "--n", "3"],
    ["enumerate", "--kind", "odd", "--n", "3", "--=x"],
    ["enumerate", "--kind", "odd", "--n", "3", "3"],
)


def _entries(parser, monkeypatch):
    """The calls that enter ``parser``'s own parse_known_args from now on."""
    entered, inner = [], parser.parse_known_args
    monkeypatch.setattr(parser, "parse_known_args",
                        lambda *args: entered.append(args) or inner(*args))
    return entered


def test_plain_lines_go_straight_to_the_subparser(parser, monkeypatch):
    entered = _entries(parser, monkeypatch)
    for lines, each in ((PLAIN_LINES, 0), (FALLBACK_LINES, 1)):
        for argv in lines:
            before = len(entered)
            _answer(parser.parse_args, argv)
            assert len(entered) - before == each, argv


def test_main_routes_the_command_line_the_same_way(tmp_path, capsys, monkeypatch):
    # each route hands its cache directory on: the table is written to it
    entered = _entries(cli._parser(cli.build_parser), monkeypatch)
    plain, joined = tmp_path / "plain", tmp_path / "joined"
    for prefix, each in ((["--cache-dir", str(plain)], 0), ([f"--cache-dir={joined}"], 1)):
        monkeypatch.setattr(sys, "argv", ["permlab", *prefix, "count", "--kind", "ballot", "--n", "5"])
        enumeration.clear_memo()
        before = len(entered)
        assert (main(), capsys.readouterr().out) == (0, "45\n")
        assert len(entered) - before == each
    for cache in (plain, joined):
        assert [f.name for f in cache.iterdir()] == ["ballot-n5.v2.json"]


def test_verify_text_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "toeplitz_B", "--max-n", "6")
    assert code == 0
    assert "toeplitz_B: PASS" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "symmetry_P", "--max-n", "6",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["check"] == "symmetry_P"
    assert obj["status"] == "pass"
    assert obj["counterexamples"] == []


def test_verify_fail_exit_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "prop43_words", "--max-n", "5")
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


def test_verify_budget_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--check", "toeplitz_B", "--max-n", "11")
    assert code == 2 and "budget" in err


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "all", "--max-n", "5")
    lines = [line for line in out.splitlines() if ":" in line and "counterexample" not in line]
    assert len(lines) == 18
    # everything passes at this bound except the word-pair reduction check
    assert code == 1
    assert sum("FAIL" in line for line in lines) == 1


def test_verify_reports_a_refused_member_red(capsys, monkeypatch):
    # a contraction that refuses one member is one red cell, not a crash
    code, out, _ = run_cli(capsys, "verify", "--check", "lemma21", "--max-n", "5", "--format", "json")
    assert code == 0
    cells = json.loads(out)["cells_checked"]
    real = verify._contractor

    def contractor(n, i, j, inverse, is_cycles):
        kernel = real(n, i, j, inverse, is_cycles)

        def refusing(p):
            if p == (1, 4, 2, 3):
                raise DomainError("refused for the test")
            return kernel(p)

        return refusing

    monkeypatch.setattr(verify, "_contractor", contractor)
    code, out, err = run_cli(capsys, "verify", "--check", "lemma21", "--max-n", "5", "--format", "json")
    report = json.loads(out)
    assert (code, err, report["status"], report["cells_checked"]) == (1, "", "fail", cells)
    params = {"kind": "ballot", "n": 4, "d": 1, "i": 1, "j": 2}
    assert report["counterexamples"] == [
        {"params": dict(params, property="refused", perm="1 4 2 3"), "lhs": "refused for the test",
         "rhs": "mapped"},
        {"params": dict(params, property="image"), "lhs": "missing 1 2", "rhs": "extra "},
    ]


def test_budget_override_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "lemma22", "--max-n", "8", "--budget-override", "8"])
    assert exc.value.code == 2


def test_verify_all_clamps_max_n_to_each_cap(capsys, monkeypatch):
    # record the bound each check is given instead of running it
    calls, err_at_first_call = [], []

    def fake_run_check(name, max_n=None):
        if not calls:
            err_at_first_call.append(capsys.readouterr().err)
        calls.append((name, max_n))
        return verify.VerificationReport(name, max_n, 1, "pass", (), 0.0)

    monkeypatch.setattr(verify, "run_check", fake_run_check)
    member_checks = {name for name, info in verify.CHECKS.items() if "members" in info.reads}

    code, _, _ = run_cli(capsys, "verify", "--check", "all", "--max-n", "10")
    bounds = dict(calls)
    assert code == 0 and len(calls) == 18
    assert (bounds["toeplitz_B"], bounds["toeplitz_P"], bounds["conj_refined"]) == (10, 10, 10)
    assert {name for name, bound in calls if bound < 10} == member_checks
    assert all(bounds[name] == 9 for name in member_checks)
    # every lowered bound is named on stderr before the first check runs
    notes = err_at_first_call[0].splitlines()
    assert {line.split()[1] for line in notes} == member_checks
    assert all(line.endswith(", below --max-n 10") for line in notes)

    # a bound under a check's min_n raises it to that floor, and each raised
    # check is named on stderr before the first check runs
    calls.clear()
    err_at_first_call.clear()
    code, out, _ = run_cli(capsys, "verify", "--check", "all", "--max-n", "2")
    raised = {name: info.min_n for name, info in verify.CHECKS.items() if info.min_n > 2}
    assert code == 0 and len(out.splitlines()) == 18
    assert calls == [(name, raised.get(name, 2)) for name in verify.CHECKS]
    assert sorted(err_at_first_call[0].splitlines()) == sorted(
        f"permlab: {name} runs at max_n={floor}, above --max-n 2" for name, floor in raised.items())

    # a bound below 1 is refused before any check runs
    for bad in ("0", "-1"):
        calls.clear()
        code, out, err = run_cli(capsys, "verify", "--check", "all", "--max-n", bad)
        assert (code, out, calls) == (2, "", [])
        assert err == f"permlab: --max-n must be at least 1, got {bad}\n"

    # without --max-n each check keeps its default bound
    calls.clear()
    err_at_first_call.clear()
    run_cli(capsys, "verify", "--check", "all")
    assert calls == [(name, None) for name in verify.CHECKS]
    assert err_at_first_call == [""]


def test_disk_cache_round_trip(tmp_path):
    cache = DiskCache(tmp_path)
    table = enumeration.count_table("ballot", 5)
    cache.save(table)
    loaded = cache.load("ballot", 5)
    assert loaded == table
    assert cache.load("ballot", 6) is None


def test_disk_cache_file_is_payload_then_its_digest(tmp_path):
    # the version 2 bytes, stated here, for every table within budget
    cache = DiskCache(tmp_path)
    for kind in enumeration.KINDS:
        for n in range(1, enumeration.BUDGETS[kind] + 1):
            table = enumeration.count_table(kind, n)
            cache.save(table)
            assert f"{kind}-n{n}.v2.json" in os.listdir(tmp_path)
            payload, digest, end = _read(cache, kind, n).split(b"\n")
            assert (digest, end) == (hashlib.sha256(payload).hexdigest().encode(), b"")
            assert payload == json.dumps({"cells": table.cells, "format_version": 2, "kind": kind, "n": n,
                                          "totals": table.totals}, sort_keys=True, separators=(",", ":")).encode()
    assert len(os.listdir(tmp_path)) == sum(enumeration.BUDGETS[kind] for kind in enumeration.KINDS)


def test_count_table_json_form_round_trips():
    for kind in enumeration.KINDS:
        for n in range(1, enumeration.BUDGETS[kind] + 1):
            table = enumeration.count_table(kind, n)
            assert CountTable.from_json_obj(json.loads(json.dumps(table.to_json_obj()))) == table


def _read(cache, kind, n) -> bytes:
    with open(cache._path(kind, n), "rb") as fh:
        return fh.read()


def _write(cache, kind, n, data: bytes) -> None:
    with open(cache._path(kind, n), "wb") as fh:
        fh.write(data)


def _signed(payload: bytes) -> bytes:
    """A cache file's bytes: the payload line, then the digest of exactly that payload."""
    return payload + b"\n" + hashlib.sha256(payload).hexdigest().encode() + b"\n"


def _forge(cache, kind, n, content: dict):
    """Overwrite a cache file's payload and give it a matching digest."""
    payload = json.loads(_read(cache, kind, n).split(b"\n")[0])
    payload.update(content)
    _write(cache, kind, n, _signed(json.dumps(payload).encode()))


def _refused_then_recomputed(capsys, cache, table, data: bytes):
    """``data`` at the table's cache path is not trusted: ``load`` refuses it,
    and ``count`` (and ``matrix`` from n = 3) rebuild the table and rewrite the file."""
    kind, n = table.kind, table.n
    _write(cache, kind, n, data)
    assert cache.load(kind, n) is None, data[:40]
    runs = [(("count", "--kind", kind, "--n", str(n)), str(table.grand_total))]
    if n >= 3:
        matrix = enumeration.build_matrix(kind, n).to_text()
        runs.append((("matrix", "--kind", kind, "--n", str(n)), matrix))
    for argv, expected in runs:
        _write(cache, kind, n, data)
        enumeration.clear_memo()
        code, out, err = run_cli(capsys, "--cache-dir", cache.root, *argv)
        assert (code, out.strip(), err) == (0, expected, ""), data[:40]
        assert cache.load(kind, n) == table


def test_disk_cache_rejects_corruption(tmp_path):
    cache = DiskCache(tmp_path)
    table = enumeration.count_table("ballot", 5)
    cache.save(table)
    good = _read(cache, "ballot", 5)
    # tamper with one total without fixing the digest, then with one digest character
    _write(cache, "ballot", 5, good.replace(b'"totals":[1,', b'"totals":[2,'))
    assert cache.load("ballot", 5) is None
    flipped = good[:-2] + (b"0" if good[-2:-1] != b"0" else b"1") + b"\n"
    _write(cache, "ballot", 5, flipped)
    assert cache.load("ballot", 5) is None
    _write(cache, "ballot", 5, b"not json at all")
    assert cache.load("ballot", 5) is None


def test_disk_cache_rejects_wrong_content_with_valid_checksum(tmp_path):
    cache = DiskCache(tmp_path)
    table = enumeration.count_table("ballot", 5)
    cells = [[list(row) for row in layer] for layer in table.cells]
    diagonal = [[list(row) for row in layer] for layer in table.cells]
    diagonal[1][0][0] = 1
    negative = [[list(row) for row in layer] for layer in table.cells]
    negative[1][0][1] = -negative[1][0][1]
    overfull = [[list(row) for row in layer] for layer in table.cells]
    overfull[0][0][1] += table.totals[0] + 1
    long_row = [[list(row) for row in layer] for layer in table.cells]
    long_row[1][2].append(0)
    forgeries = (
        {"totals": [7], "cells": []},
        {"totals": [1, 22, 21, 1]},                # right sum, wrong length
        {"totals": [1, 23, 22]},                   # wrong grand total
        {"totals": [1, 22.0, 22]},                 # not ints
        {"cells": cells[:2]},                      # a layer missing
        {"cells": [layer[:3] for layer in cells]}, # a row missing
        {"cells": long_row},                       # a row too long, every sum kept
        {"cells": diagonal},
        {"cells": negative},
        {"cells": overfull},
        {"note": "an extra key"},                  # a well-formed table with one key too many
    )
    for content in forgeries:
        cache.save(table)
        assert cache.load("ballot", 5) == table
        _forge(cache, "ballot", 5, content)
        assert cache.load("ballot", 5) is None, content
        blob = json.loads(_read(cache, "ballot", 5).split(b"\n")[0])
        del blob["format_version"]
        with pytest.raises(DomainError):
            CountTable.from_json_obj(blob)


def test_forged_cache_file_is_recomputed(tmp_path, capsys):
    cache = DiskCache(tmp_path)
    enumeration.clear_memo()
    table = enumeration.count_table("ballot", 5)
    # a zero appended to one row keeps every sum and the diagonal, so only
    # the row rule of CountTable.from_json_obj refuses that file
    long_row = [[list(row) for row in layer] for layer in table.cells]
    long_row[1][2].append(0)
    base = ("--cache-dir", str(tmp_path))
    for forgery in ({"totals": [7], "cells": []}, {"cells": long_row}):
        cache.save(table)
        _forge(cache, "ballot", 5, forgery)
        for argv, expected in ((("count", "--kind", "ballot", "--n", "5"), "45"),
                               (("count", "--kind", "ballot", "--n", "5", "--d", "2"), "22"),
                               (("matrix", "--kind", "ballot", "--n", "5"),
                                "0 3 2 1\n3 0 3 2\n4 3 0 3\n5 4 3 0")):
            enumeration.clear_memo()
            code, out, err = run_cli(capsys, *base, *argv)
            assert (code, out.strip(), err) == (0, expected, "")
        # the recomputed table replaced the forged file
        assert cache.load("ballot", 5) == table


def test_cache_file_with_a_wrong_digest_or_line_count_is_recomputed(tmp_path, capsys):
    cache = DiskCache(tmp_path)
    table = enumeration.count_table("ballot", 5)
    cache.save(table)
    good = _read(cache, "ballot", 5)
    payload, digest, _ = good.split(b"\n")
    for data in (
        payload + b"\n" + hashlib.sha256(payload + b" ").hexdigest().encode() + b"\n",
        payload + b"\n" + hashlib.sha256(good).hexdigest().encode() + b"\n",
        payload + b"\n",                        # the digest line missing
        payload + b"\n" + digest,               # the digest line unterminated
        good + b"\n",                           # an empty line too many
        good + digest + b"\n",                  # the digest twice
        good + b"x",                            # bytes after the digest line
        b"\n" + good,                           # an empty line first
    ):
        _refused_then_recomputed(capsys, cache, table, data)


def test_cache_file_in_the_first_format_is_recomputed(tmp_path, capsys):
    cache = DiskCache(tmp_path)
    table = enumeration.count_table("ballot", 5)
    body = {"format_version": 1, "kind": "ballot", "n": 5, "totals": list(table.totals),
            "cells": [[list(row) for row in layer] for layer in table.cells]}
    old = dict(body, checksum=hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest())
    # a valid first-format file under its own name is never opened
    (tmp_path / "ballot-n5.v1.json").write_text(json.dumps(old, sort_keys=True))
    assert cache.load("ballot", 5) is None
    # nor is one under the current name, bare or with a valid digest
    for data in (json.dumps(old, sort_keys=True).encode(), _signed(json.dumps(old).encode())):
        _refused_then_recomputed(capsys, cache, table, data)
    assert sorted(os.listdir(tmp_path)) == ["ballot-n5.v1.json", "ballot-n5.v2.json"]


def test_cache_file_with_a_wrong_header_and_a_valid_digest_is_recomputed(tmp_path, capsys):
    cache = DiskCache(tmp_path)
    table = enumeration.count_table("ballot", 5)
    for content in ({"format_version": 1}, {"format_version": 2.0}, {"format_version": "2"},
                    {"kind": "odd"}, {"n": 5.0}, {"n": "5"}):
        cache.save(table)
        _forge(cache, "ballot", 5, content)
        _refused_then_recomputed(capsys, cache, table, _read(cache, "ballot", 5))
    # at n = 1, true equals the n asked for, so only the int rule refuses it
    table = enumeration.count_table("ballot", 1)
    cache.save(table)
    assert cache.load("ballot", 1) == table
    _forge(cache, "ballot", 1, {"n": True})
    _refused_then_recomputed(capsys, cache, table, _read(cache, "ballot", 1))


def test_cache_file_that_is_not_a_json_object_is_recomputed(tmp_path, capsys):
    cache = DiskCache(tmp_path)
    # the last blob is nested too deeply for the JSON parser to read; each
    # blob is refused bare and with a valid digest
    for blob in ("[]", "null", "5", '"x"', "[" * 200_000 + "]" * 200_000):
        for data in (blob.encode(), _signed(blob.encode())):
            _write(cache, "ballot", 5, data)
            assert cache.load("ballot", 5) is None, blob[:8]
            enumeration.clear_memo()
            code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path),
                                     "count", "--kind", "ballot", "--n", "5")
            assert (code, out.strip(), err) == (0, "45", ""), blob[:8]
            assert cache.load("ballot", 5) == enumeration.count_table("ballot", 5)


def test_a_cache_hit_encodes_nothing(tmp_path, monkeypatch):
    cache = DiskCache(tmp_path)
    tables = [enumeration.count_table(kind, n) for kind in enumeration.KINDS for n in (1, 5, 9)]
    for table in tables:
        cache.save(table)

    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit encoded JSON")

    monkeypatch.setattr(json, "dump", refuse)
    monkeypatch.setattr(json, "dumps", refuse)
    assert [cache.load(table.kind, table.n) for table in tables] == tables


def test_count_and_matrix_print_the_same_bytes_on_a_miss_and_a_hit(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path)
    for kind in enumeration.KINDS:
        for n in range(3, 10):
            queries = [("count", "--kind", kind, "--n", str(n)),
                       ("count", "--kind", kind, "--n", str(n), "--d", "1"),
                       ("count", "--kind", kind, "--n", str(n), "--d", "1", "--i", "1", "--j", "2"),
                       *(("matrix", "--kind", kind, "--n", str(n), "--format", fmt)
                         for fmt in ("text", "json", "csv"))]
            for argv in queries:
                enumeration.clear_memo()
                expected = run_cli(capsys, *argv)
                for path in os.listdir(cache):
                    os.unlink(os.path.join(cache, path))
                enumeration.clear_memo()
                assert run_cli(capsys, "--cache-dir", cache, *argv) == expected, argv
                assert os.listdir(cache) == [f"{kind}-n{n}.v2.json"]
                enumeration.clear_memo()
                with monkeypatch.context() as patch:
                    # a hit builds nothing
                    patch.setitem(enumeration._BUILDERS, kind, None)
                    assert run_cli(capsys, "--cache-dir", cache, *argv) == expected, argv


def test_unusable_cache_dir_exits_2_without_traceback(tmp_path):
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-m", "permlab.cli", "--cache-dir", str(not_a_dir),
                             "count", "--kind", "ballot", "--n", "5"],
                            capture_output=True, text=True, env=env, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("permlab: cache ")
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr


def test_closed_stdout_exits_141_without_traceback():
    # the reader stops after one line, as `permlab enumerate ... | head -1` does
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "permlab.cli", "enumerate", "--kind", "ballot", "--n", "9"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    status = proc.wait(timeout=60)
    err = proc.stderr.read()
    proc.stderr.close()
    assert first == b"1 2 3 4 5 6 7 8 9\n"
    assert (status, err) == (141, b"")


def test_cache_dir_flag_writes_and_reuses(tmp_path, capsys):
    enumeration.clear_memo()
    code, first, _ = run_cli(capsys, "--cache-dir", str(tmp_path),
                             "count", "--kind", "ballot", "--n", "6")
    assert code == 0
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    enumeration.clear_memo()
    code, second, _ = run_cli(capsys, "--cache-dir", str(tmp_path),
                              "count", "--kind", "ballot", "--n", "6")
    assert code == 0
    assert first == second  # byte-identical on cache hit vs miss


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    enumeration.clear_memo()
    monkeypatch.setenv("PERMLAB_CACHE", str(tmp_path))
    code, out, _ = run_cli(capsys, "count", "--kind", "odd", "--n", "5")
    assert (code, out.strip()) == (0, "45")
    assert list(tmp_path.glob("odd-n5*.json"))
