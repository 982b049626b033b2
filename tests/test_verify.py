import json

import pytest

from permlab import enumeration
from permlab.cli import main
from permlab.errors import BudgetError, DomainError
from permlab.verify import CHECKS, VerificationReport, _bijection, _same, list_checks, run_check

ALL_CHECKS = [
    "closed_form", "recurrence_b", "recurrence_p", "lemma21", "lemma22",
    "thm23_bijection", "x_lambda_identity", "phi_bijection", "toeplitz_B",
    "toeplitz_P", "symmetry_P", "T_roundtrip", "conj_spiro", "conj_refined",
    "prop41", "lemma42", "prop43_words", "eq_bnd_pnd",
]


def test_catalog_is_fixed():
    listed = list_checks()
    assert [name for name, _, _ in listed] == ALL_CHECKS
    assert len(listed) == 18
    defaults = {name: default for name, _, default in listed}
    assert defaults["conj_spiro"] == 9
    assert defaults["thm23_bijection"] == 8
    assert all(desc for _, desc, _ in listed)


def test_unknown_check():
    with pytest.raises(DomainError):
        run_check("lemma99")


def test_budget_errors():
    with pytest.raises(BudgetError):
        run_check("toeplitz_B", max_n=11)
    with pytest.raises(BudgetError):
        run_check("lemma21", max_n=10)
    with pytest.raises(DomainError):
        run_check("thm23_bijection", max_n=2)


def test_budget_caps_are_pinned():
    # each cap is the smallest budget the check reads: tables of one kind or both, or member lists
    assert {name: info.budget_cap for name, info in CHECKS.items()} == {
        "closed_form": 10, "recurrence_b": 10, "recurrence_p": 11, "lemma21": 9, "lemma22": 9,
        "thm23_bijection": 9, "x_lambda_identity": 9, "phi_bijection": 9, "toeplitz_B": 10,
        "toeplitz_P": 11, "symmetry_P": 11, "T_roundtrip": 9, "conj_spiro": 10, "conj_refined": 10,
        "prop41": 10, "lemma42": 9, "prop43_words": 10, "eq_bnd_pnd": 10,
    }


def _memos_empty():
    cached = (enumeration.member_index, enumeration._word_pair_vectors)
    return enumeration._TABLES == {} and all(fn.cache_info().currsize == 0 for fn in cached)


def test_every_check_refuses_past_its_cap_before_any_work(capsys):
    for name, info in CHECKS.items():
        enumeration.clear_memo()
        with pytest.raises(BudgetError, match=f"check {name} reads"):
            run_check(name, max_n=info.budget_cap + 1)
        assert _memos_empty(), name
        code = main(["verify", "--check", name, "--max-n", str(info.budget_cap + 1)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), name
        assert "budget" in captured.err
        assert _memos_empty(), name


def test_lemma22_runs_at_its_members_budget():
    assert run_check("lemma22", max_n=9).status == "pass"


def test_every_check_passes_at_small_budget():
    expected_status = {"prop43_words": "fail"}
    # the sweep over n counts each cell exactly once
    expected_cells = {
        "closed_form": 5, "recurrence_b": 3, "recurrence_p": 3, "lemma21": 60, "lemma22": 8,
        "thm23_bijection": 4, "x_lambda_identity": 8, "phi_bijection": 4, "toeplitz_B": 37,
        "toeplitz_P": 37, "symmetry_P": 26, "T_roundtrip": 44, "conj_spiro": 9, "conj_refined": 15,
        "prop41": 15, "lemma42": 5, "prop43_words": 30, "eq_bnd_pnd": 16,
    }
    for name, _, _ in list_checks():
        small = max(CHECKS[name].min_n, 5)
        report = run_check(name, max_n=small)
        assert report.cells_checked == expected_cells[name], name
        assert report.status == expected_status.get(name, "pass"), (name, report.counterexamples)
        assert (report.status == "pass") == (not report.counterexamples)


def test_reports_are_deterministic():
    a = run_check("conj_refined", max_n=6)
    b = run_check("conj_refined", max_n=6)
    assert (a.check, a.max_n, a.cells_checked, a.status, a.counterexamples) == \
        (b.check, b.max_n, b.cells_checked, b.status, b.counterexamples)


def test_report_json_schema():
    report = run_check("toeplitz_B", max_n=5)
    obj = report.to_json_obj()
    assert set(obj) == {"check", "max_n", "cells_checked", "status",
                        "counterexamples", "wall_time_ms"}
    json.dumps(obj)  # serializable
    assert obj["status"] == "pass"
    assert obj["cells_checked"] == report.cells_checked


def test_counterexamples_carry_params_lhs_rhs():
    # the word-pair reduction equalities genuinely fail from n=5 up
    report = run_check("prop43_words", max_n=6)
    assert report.status == "fail"
    for ce in report.counterexamples:
        assert set(ce) == {"params", "lhs", "rhs"}
        assert ce["lhs"] != ce["rhs"]
    cells = {(ce["params"]["n"], ce["params"]["d"]) for ce in report.counterexamples}
    assert cells == {(5, 2), (6, 2)}


def test_prop43_words_runs_one_word_pair_dp_per_size(monkeypatch):
    # the four word pairs of one size share one pass of the subset DP; the
    # table builds also run the DP, on one-letter pairs only, so they are
    # told apart from the word-pair passes
    dp, calls = enumeration._ballot_dp, []

    def counted(n, pairs):
        calls.append((n, all(len(u) == len(v) == 1 for u, v in pairs)))
        return dp(n, pairs)

    monkeypatch.setattr(enumeration, "_ballot_dp", counted)
    enumeration.clear_memo()
    run_check("prop43_words", 8)
    assert [n for n, table in calls if not table] == [4, 5, 6, 7, 8]


def test_fail_report_construction_direct():
    report = VerificationReport(
        check="demo", max_n=4, cells_checked=1, status="fail",
        counterexamples=({"params": {"n": 4}, "lhs": 1, "rhs": 2},),
        wall_time_ms=0.1,
    )
    assert report.to_json_obj()["counterexamples"][0]["lhs"] == 1


def test_same_cell():
    assert _same({"n": 4, "d": 1}, 3, 3) == []
    assert _same({"n": 4, "d": 1}, 3, 2) == [{"params": {"n": 4, "d": 1}, "lhs": 3, "rhs": 2}]


def _reverse(p):
    return p[::-1]


def test_bijection_cell_passes():
    words = [(1, 2, 3), (2, 1, 3)]
    assert _bijection({"n": 3}, words, [(3, 2, 1), (3, 1, 2)], _reverse, _reverse) == []
    assert _bijection({"n": 3}, [], [], _reverse, _reverse) == []


def test_bijection_cell_reports_a_map_that_is_not_injective():
    # a constant map hits the whole one-member target, and no inverse can
    # send its one image back to both members
    for inv in (lambda q: q, lambda q: (2, 1, 3)):
        bad = _bijection({"n": 3, "d": 0}, [(1, 2, 3), (2, 1, 3)], [(1, 2, 3)], lambda p: (1, 2, 3), inv)
        assert bad == [{"params": {"n": 3, "d": 0, "property": "roundtrip"},
                        "lhs": "round trip", "rhs": "identity"}]


def test_bijection_cell_reports_a_broken_inverse():
    bad = _bijection({"n": 3}, [(1, 2, 3), (2, 1, 3)], [(3, 2, 1), (3, 1, 2)],
                     _reverse, lambda q: q)
    assert bad == [{"params": {"n": 3, "property": "roundtrip"}, "lhs": "round trip", "rhs": "identity"}]


def test_bijection_cell_reports_a_map_that_misses_the_target():
    identity = [((1,), (2,), (3,)), ((1, 2, 3),)]
    bad = _bijection({"n": 3, "d": 1}, identity, [((1, 3, 2),), ((1, 2, 3),)], lambda p: p, lambda q: q)
    assert bad == [{"params": {"n": 3, "d": 1, "property": "image"},
                    "lhs": "missing (1 3 2)", "rhs": "extra (1)(2)(3)"}]
    # at most three members are listed on each side, in sorted order
    bad = _bijection({"n": 3}, [], [(3, 2, 1), (2, 3, 1), (1, 3, 2), (1, 2, 3)], _reverse, _reverse)
    assert bad == [{"params": {"n": 3, "property": "image"},
                    "lhs": "missing 1 2 3; 1 3 2; 2 3 1", "rhs": "extra "}]


def test_bijection_cell_reports_each_member_that_breaks_an_invariant():
    def first_letter_grows(p, q):
        return None if p[0] < q[0] else (p[0], q[0])

    words = [(1, 2, 3), (3, 1, 2), (2, 3, 1)]
    bad = _bijection({"kind": "ballot", "n": 3}, words, [(3, 2, 1), (2, 1, 3), (1, 3, 2)],
                     _reverse, _reverse, (("width", first_letter_grows),))
    assert bad == [
        {"params": {"kind": "ballot", "n": 3, "property": "width", "perm": "3 1 2"}, "lhs": 3, "rhs": 2},
        {"params": {"kind": "ballot", "n": 3, "property": "width", "perm": "2 3 1"}, "lhs": 2, "rhs": 1},
    ]


def _refuse(word):
    """A map that reverses every member but ``word``, which it refuses."""
    def reverse_or_refuse(p):
        if p == word:
            raise DomainError(f"{p} is outside the domain")
        return p[::-1]
    return reverse_or_refuse


def test_bijection_cell_reports_a_member_the_map_refuses():
    words = [(1, 2, 3), (2, 1, 3), (2, 3, 1)]
    bad = _bijection({"n": 3}, words, [(3, 2, 1), (3, 1, 2), (1, 3, 2)], _refuse((2, 1, 3)), _reverse,
                     (("width", lambda p, q: (p, q)),))
    # the refused member is reported once, skips its invariants, and leaves its image missing;
    # the members after it still run
    assert bad == [
        {"params": {"n": 3, "property": "width", "perm": "1 2 3"}, "lhs": (1, 2, 3), "rhs": (3, 2, 1)},
        {"params": {"n": 3, "property": "refused", "perm": "2 1 3"},
         "lhs": "(2, 1, 3) is outside the domain", "rhs": "mapped"},
        {"params": {"n": 3, "property": "width", "perm": "2 3 1"}, "lhs": (2, 3, 1), "rhs": (1, 3, 2)},
        {"params": {"n": 3, "property": "image"}, "lhs": "missing 3 1 2", "rhs": "extra "},
    ]


def test_bijection_cell_reports_a_member_the_inverse_refuses():
    words = [(1, 2, 3), (2, 1, 3), (2, 3, 1)]
    bad = _bijection({"kind": "ballot", "n": 3, "d": 0}, words, [(3, 2, 1), (3, 1, 2), (1, 3, 2)],
                     _reverse, _refuse((1, 3, 2)))
    assert bad == [
        {"params": {"kind": "ballot", "n": 3, "d": 0, "property": "refused", "perm": "2 3 1"},
         "lhs": "(1, 3, 2) is outside the domain", "rhs": "mapped"},
        {"params": {"kind": "ballot", "n": 3, "d": 0, "property": "image"},
         "lhs": "missing 1 3 2", "rhs": "extra "},
    ]
