import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permlab import enumeration, verify
from permlab.cli import DiskCache, main

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
    assert err == "permlab: budget error: exhaustive ballot enumeration is budgeted up to n=10, got n=11\n"


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
    code, out, _ = run_cli(capsys, "map", "--op", "contract", "--inverse",
                           "--i", "1", "--j", "2", "--perm", "1 2 3")
    assert (code, out.strip()) == (0, "1 5 2 3 4")


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


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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


def test_disk_cache_rejects_corruption(tmp_path):
    cache = DiskCache(tmp_path)
    table = enumeration.count_table("ballot", 5)
    cache.save(table)
    path = cache._path("ballot", 5)
    blob = json.loads(path.read_text())
    blob["totals"][0] += 1  # tamper without fixing the checksum
    path.write_text(json.dumps(blob))
    assert cache.load("ballot", 5) is None
    path.write_text("not json at all")
    assert cache.load("ballot", 5) is None


def _forge(cache, kind, n, **content):
    """Overwrite a cache file's content and give it a matching checksum."""
    path = cache._path(kind, n)
    payload = {k: v for k, v in json.loads(path.read_text()).items() if k != "checksum"}
    payload.update(content)
    path.write_text(json.dumps(dict(payload, checksum=DiskCache._checksum(payload))))


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
    forgeries = (
        {"totals": [7], "cells": []},
        {"totals": [1, 22, 21, 1]},                # right sum, wrong length
        {"totals": [1, 23, 22]},                   # wrong grand total
        {"totals": [1, 22.0, 22]},                 # not ints
        {"cells": cells[:2]},                      # a layer missing
        {"cells": [layer[:3] for layer in cells]}, # a row missing
        {"cells": diagonal},
        {"cells": negative},
        {"cells": overfull},
    )
    for content in forgeries:
        cache.save(table)
        assert cache.load("ballot", 5) == table
        _forge(cache, "ballot", 5, **content)
        assert cache.load("ballot", 5) is None, content


def test_forged_cache_file_is_recomputed(tmp_path, capsys):
    cache = DiskCache(tmp_path)
    enumeration.clear_memo()
    cache.save(enumeration.count_table("ballot", 5))
    _forge(cache, "ballot", 5, totals=[7], cells=[])
    base = ("--cache-dir", str(tmp_path))
    for argv, expected in ((("count", "--kind", "ballot", "--n", "5"), "45"),
                           (("count", "--kind", "ballot", "--n", "5", "--d", "2"), "22"),
                           (("matrix", "--kind", "ballot", "--n", "5"),
                            "0 3 2 1\n3 0 3 2\n4 3 0 3\n5 4 3 0")):
        enumeration.clear_memo()
        code, out, err = run_cli(capsys, *base, *argv)
        assert (code, out.strip(), err) == (0, expected, "")
    # the recomputed table replaced the forged file
    assert cache.load("ballot", 5) == enumeration.count_table("ballot", 5)


def test_cache_file_that_is_not_a_json_object_is_recomputed(tmp_path, capsys):
    cache = DiskCache(tmp_path)
    # the last blob is nested too deeply for the JSON parser to read
    for blob in ("[]", "null", "5", '"x"', "[" * 200_000 + "]" * 200_000):
        cache._path("ballot", 5).write_text(blob)
        assert cache.load("ballot", 5) is None, blob
        enumeration.clear_memo()
        code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path),
                                 "count", "--kind", "ballot", "--n", "5")
        assert (code, out.strip(), err) == (0, "45", ""), blob[:8]


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
