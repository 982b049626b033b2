import dataclasses
import errno
import functools
import itertools
import json
import os
import random
import threading
import warnings

import pytest
from conftest import oracle_cycle_profile

from permlab import enumeration, verify
from permlab.bijections import AnchorDecomposition
from permlab.cli import main
from permlab.cycles import cycles_from_one_line
from permlab.errors import BudgetError, DomainError
from permlab.verify import CHECKS, VerificationReport, _bijection, _same, list_checks, run_check
from permlab.words import is_ballot

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
    # a name that is not a str, even one that cannot be hashed, is unknown too
    for name in ("lemma99", ["lemma21"], None):
        with pytest.raises(DomainError, match="^unknown check "):
            run_check(name)


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
        "prop41": 10, "lemma42": 11, "prop43_words": 10, "eq_bnd_pnd": 10,
    }


def _memos_empty():
    cached = (enumeration.member_index, enumeration.anchor_classes, enumeration._rank_dp)
    return enumeration._TABLES == {} and all(fn.cache_info().currsize == 0 for fn in cached)


def _kernels():
    """The sizes of the two kernel caches, which ``clear_memo`` leaves alone."""
    return verify._mover.cache_info().currsize, verify._contractor.cache_info().currsize


def test_every_check_refuses_past_its_cap_before_any_work(capsys):
    for name, info in CHECKS.items():
        enumeration.clear_memo()
        kernels = _kernels()
        with pytest.raises(BudgetError, match=f"check {name} reads"):
            run_check(name, max_n=info.budget_cap + 1)
        assert _memos_empty() and _kernels() == kernels, name
        code = main(["verify", "--check", name, "--max-n", str(info.budget_cap + 1)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), name
        assert "budget" in captured.err
        assert _memos_empty() and _kernels() == kernels, name


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


def test_prop43_words_reads_its_counts_through_count_word_pair(monkeypatch):
    # the packed vectors stay inside enumeration: each of the four pairs is
    # asked for once per statistic at every size, through the public reader
    calls = []

    def counted(n, d, u, v):
        calls.append((n, d, u, v))
        return enumeration.count_word_pair(n, d, u, v)

    monkeypatch.setattr(verify, "count_word_pair", counted)
    assert run_check("prop43_words", max_n=5).cells_checked == 12 + 18
    pairs = list(verify._PROP43_PAIRS.values())
    assert calls == [(n, d, u, v) for n in (4, 5) for d in range((n - 1) // 2 + 1) for u, v in pairs]


def test_prop43_words_runs_one_word_pair_dp_per_size(monkeypatch):
    # the rank patterns of one size are built once, by the table or the word
    # pairs that first need them, and shared by the rest
    build, builds = enumeration._rank_dp.__wrapped__, []

    @functools.cache
    def counted(n):
        builds.append(n)
        return build(n)

    monkeypatch.setattr(enumeration, "_rank_dp", counted)
    for n in range(1, 11):
        enumeration.clear_memo()
        builds.clear()
        enumeration.count_table("ballot", n)
        assert builds == [n], n

    # prop43_words reads the ballot tables at n and n - 3 and four word pairs
    # at each n from 4 to 8
    enumeration.clear_memo()
    builds.clear()
    run_check("prop43_words", 8)
    assert sorted(builds) == list(range(1, 9))

    # single word pairs asked one at a time share the patterns of their size
    enumeration.clear_memo()
    builds.clear()
    pairs = [(w[:1], w[1:]) for w in itertools.permutations(range(1, 10), 3)][:100]
    assert len(set(pairs)) == 100
    for u, v in pairs:
        enumeration.count_word_pair(10, 2, u, v)
    assert builds == [10]


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


# Each catalog invariant below holds on every member, so a check that stopped
# reading it would still pass.  Each test breaks one helper the check reads, on
# one chosen member, and pins the counterexample the invariant then reports.

def test_t_roundtrip_reports_a_core_width_that_changes(monkeypatch):
    mover, target = verify._mover, (1, 4, 2, 3)  # ballot, d = 1, 4 flanked by (1, 2)

    def wider_on_target(n, i, j, cyclic, upper):
        move = mover(n, i, j, cyclic, upper)

        def wider(p):
            q, width = move(p)
            return q, width + 1 if (p, upper) == (target, False) else width

        return wider

    width = mover(4, 1, 2, False, False)(target)[1]
    monkeypatch.setattr(verify, "_mover", wider_on_target)
    assert run_check("T_roundtrip", max_n=4).counterexamples == (
        {"params": {"kind": "ballot", "n": 4, "d": 1, "i": 1, "j": 2, "property": "width", "perm": "1 4 2 3"},
         "lhs": width + 1, "rhs": width},
    )


def test_t_roundtrip_reports_an_image_outside_the_domain(monkeypatch):
    # the forward kernel sends 1 4 2 3 to 2 4 3 1, which holds the target
    # factor 2 4 3 but is not ballot.  The backward kernel does not ask for
    # the domain, so it moves that image, and the cell reports the changed
    # width, the broken round trip and, by the image test, the extra member
    mover, target, outside = verify._mover, (1, 4, 2, 3), (2, 4, 3, 1)

    def outside_on_target(n, i, j, cyclic, upper):
        move = mover(n, i, j, cyclic, upper)

        def leave(p):
            q, width = move(p)
            return (outside, width) if (p, upper) == (target, False) else (q, width)

        return leave

    assert not is_ballot(outside)
    monkeypatch.setattr(verify, "_mover", outside_on_target)
    cell = {"kind": "ballot", "n": 4, "d": 1, "i": 1, "j": 2}
    assert run_check("T_roundtrip", max_n=4).counterexamples == (
        {"params": dict(cell, property="width", perm="1 4 2 3"), "lhs": 0, "rhs": 2},
        {"params": dict(cell, property="roundtrip"), "lhs": "round trip", "rhs": "identity"},
        {"params": dict(cell, property="image"), "lhs": "missing 1 2 4 3", "rhs": "extra 2 4 3 1"},
    )


def test_t_roundtrip_reports_cycle_stats_that_change(monkeypatch):
    profile, target = verify._cycle_profile, ((1, 4, 2), (3,))  # odd, d = 1, 4 flanked by (1, 2)

    def off_on_target(cycles):
        return profile(cycles) + [(0, 0)] if cycles == target else profile(cycles)

    before = profile(target)
    assert before == [(1, 0), (3, 2)]  # (1 4 2) descends at 4 2 and at the wrap 2 1
    monkeypatch.setattr(verify, "_cycle_profile", off_on_target)
    assert run_check("T_roundtrip", max_n=4).counterexamples == (
        {"params": {"kind": "odd", "n": 4, "d": 1, "i": 1, "j": 2, "property": "cycle_stats",
                    "perm": "(1 4 2)(3)"},
         "lhs": str(before + [(0, 0)]), "rhs": str(before)},
    )


def test_cycle_profile_equals_the_sorted_comprehension_on_seeded_decompositions():
    # each cycle of a random permutation of [n], n <= 12, rotated at random,
    # and the cycles shuffled: the profile reads each cycle's descents round
    # the wrap wherever it starts, and a fixed point is (1, 0)
    rng = random.Random(39)
    rotated = fixed = 0
    for _ in range(2000):
        n = rng.randint(1, 12)
        cycles = []
        for c in cycles_from_one_line(tuple(rng.sample(range(1, n + 1), n))):
            k = rng.randrange(len(c))
            cycles.append(c[k:] + c[:k])
            rotated, fixed = rotated + (c[k] != min(c)), fixed + (len(c) == 1)
        rng.shuffle(cycles)
        assert verify._cycle_profile(cycles) == oracle_cycle_profile(cycles), cycles
    assert rotated > 1000 and fixed > 1000


def test_lemma42_reports_a_flip_that_changes_cycle_lengths(monkeypatch):
    # the two members trade images, so the flip stays an involution onto the
    # target cell and only the cycle lengths of both members break
    flip = verify._cycle_flip
    p1, p2 = ((1, 6, 2), (3, 4, 5)), ((1, 6, 2, 3, 4), (5,))  # both d = 2, lengths [3, 3] and [1, 5]
    q1, q2 = flip(p1), flip(p2)
    traded = {p1: q2, p2: q1, q2: p1, q1: p2}
    monkeypatch.setattr(verify, "_cycle_flip", lambda c: traded.get(c) or flip(c))
    assert run_check("lemma42", max_n=6).counterexamples == tuple(
        {"params": {"n": 6, "d": 2, "property": "cycle_lengths", "perm": verify._fmt(p)},
         "lhs": verify._fmt(p), "rhs": verify._fmt(q)}
        for p, q in ((p1, q2), (p2, q1))
    )


def test_thm23_reports_a_flank_swap_that_leaves_its_class(monkeypatch):
    # 1 6 3 4 5 2 is the pivot 1 6 3 4 and the carry 5 2, which the swap must
    # reverse.  Left unreversed, its image 5 2 3 4 6 1 holds the backward
    # pivot but is not ballot; the backward core does not ask for ballot, so
    # it sends that image to the class's other member 1 6 3 4 2 5
    swap, target, outside = verify._flank_swap, (1, 6, 3, 4, 5, 2), (5, 2, 3, 4, 6, 1)
    assert swap(target, (1, 6, 3, 4), (3, 4, 6, 1)) == (2, 5, 3, 4, 6, 1)
    assert not is_ballot(outside)
    monkeypatch.setattr(verify, "_flank_swap", lambda p, src, dst: outside if p == target else swap(p, src, dst))
    cell = {"n": 6, "i": 1, "j": 4}
    assert run_check("thm23_bijection", max_n=6).counterexamples == (
        {"params": dict(cell, property="roundtrip"), "lhs": "round trip", "rhs": "identity"},
        {"params": dict(cell, property="image"), "lhs": "missing 2 5 3 4 6 1", "rhs": "extra 5 2 3 4 6 1"},
    )


def test_phi_reports_a_swap_that_leaves_the_target_cell(monkeypatch):
    # the rest of the cell (1, 2) at n = 5, outside the class of 1 5 2 3, is
    # 1 5 2 4 3 and 3 4 1 5 2.  The first is sent to the second, which holds
    # 1 5 2, not 1 5 3, and whose swap back is 2 4 1 5 3, not the first
    swapped, target, outside = verify._swapped, (1, 5, 2, 4, 3), (3, 4, 1, 5, 2)
    assert enumeration.anchor_classes(5, 1, 3)[1] == (target, outside)
    monkeypatch.setattr(verify, "_swapped", lambda w, swap: outside if w == target else swapped(w, swap))
    cell = {"n": 5, "i": 1, "j": 3}
    assert run_check("phi_bijection", max_n=5).counterexamples == (
        {"params": dict(cell, property="roundtrip"), "lhs": "round trip", "rhs": "identity"},
        {"params": dict(cell, property="image"), "lhs": "missing 1 5 3 4 2", "rhs": "extra 3 4 1 5 2"},
    )


def test_anchor_checks_split_each_cell_once(monkeypatch):
    # thm23_bijection, x_lambda_identity and phi_bijection read one split per
    # (n, i, j): each member of the two neighbor cells is tested once, by its
    # pivot word, until clear_memo, after which every cell is split again.
    # verify's own binding is counted too, so a check that filtered a cell
    # itself would show
    split, calls = enumeration.is_anchor_decomposable, []

    def counted(p, word):
        calls.append((p, word))
        return split(p, word)

    expected = []
    for n in range(4, 7):
        idx = enumeration.member_index("ballot", n)
        for i, j in verify._spread_pairs(n):
            forward, backward = verify.pivot_words(i, j, n)
            expected += [(p, forward) for p in idx.cell_union(i, j - 1)]
            expected += [(p, backward) for p in idx.cell_union(j, i)]
    monkeypatch.setattr(enumeration, "is_anchor_decomposable", counted)
    monkeypatch.setattr(verify, "is_anchor_decomposable", counted)
    for _ in range(2):
        enumeration.clear_memo()
        calls.clear()
        for name in ("thm23_bijection", "x_lambda_identity", "phi_bijection"):
            assert run_check(name, max_n=6).status == "pass", name
        assert calls == expected


# perfbench's traced catalog run rebinds each of these names on verify with
# getattr and setattr, so a name dropped from verify's imports would crash it
TRACED_ON_VERIFY = (
    "count_table", "member_index", "count_word_pair", "ballot_count_closed", "anchor_decompose",
    "is_anchor_decomposable", "flank_swap", "exchange_letters", "contract", "cycle_flip",
    "shift", "shift_inv", "lower_core", "upper_core",
)


def test_every_name_the_traced_catalog_rebinds_is_bound_on_verify():
    assert [name for name in TRACED_ON_VERIFY if not callable(getattr(verify, name, None))] == []


def test_lemma22_reports_a_non_ballot_tail_after_an_ascending_junction(monkeypatch):
    split, target = verify.anchor_decompose, (1, 4, 2, 3)

    def fake_on_target(p, word):
        if (p, word) == (target, (1, 4, 2, 3)):
            return AnchorDecomposition(head=(), anchor=word, carry=(), tail=(9, 1))
        return split(p, word)

    monkeypatch.setattr(verify, "anchor_decompose", fake_on_target)
    assert run_check("lemma22", max_n=4).counterexamples == (
        {"params": {"n": 4, "i": 1, "j": 3, "anchor": "1 4 2 3", "perm": "1 4 2 3"},
         "lhs": "carry_last=3 tail_1=9", "rhs": "anchor_height=1"},
    )


def test_lemma22_splits_only_the_anchor_class_members(monkeypatch):
    # a member outside its pivot word's anchor class has no split, so each
    # member of each class is split once, by its pivot word, in cell_union order
    split, calls = verify.anchor_decompose, []

    def counted(p, word):
        calls.append((p, word))
        return split(p, word)

    expected = []
    for n in range(4, 8):
        for i, j in verify._spread_pairs(n):
            forward, backward = verify.pivot_words(i, j, n)
            forward_class, _, backward_class = enumeration.anchor_classes(n, i, j)
            expected += [(p, forward) for p in forward_class] + [(p, backward) for p in backward_class]
    monkeypatch.setattr(verify, "anchor_decompose", counted)
    assert run_check("lemma22", max_n=7).status == "pass"
    assert calls == expected


def test_lemma22_reports_a_class_member_that_does_not_split(monkeypatch):
    # the member is still one cell of the check, now a failed one
    i, j = next(verify._spread_pairs(5))
    forward, _ = verify.pivot_words(i, j, 5)
    target = enumeration.anchor_classes(5, i, j)[0][0]
    split, cells = verify.anchor_decompose, run_check("lemma22", max_n=5).cells_checked
    monkeypatch.setattr(verify, "anchor_decompose",
                        lambda p, word: None if (p, word) == (target, forward) else split(p, word))
    report = run_check("lemma22", max_n=5)
    assert (report.status, report.cells_checked) == ("fail", cells)
    assert report.counterexamples == (
        {"params": {"n": 5, "i": i, "j": j, "anchor": " ".join(map(str, forward)),
                    "perm": " ".join(map(str, target)), "property": "no split"},
         "lhs": "no split", "rhs": "a split around the anchor"},
    )


def _cpus(monkeypatch, count):
    """Make the process's CPU affinity read as ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stripped(report):
    obj = report.to_json_obj()
    del obj["wall_time_ms"]
    return obj


def test_workers_fall_back_to_this_process(monkeypatch):
    _cpus(monkeypatch, 2)
    floor = verify._MEMBERS_PER_WORKER
    assert [verify._workers(members) for members in (0, 1, 2 * floor - 1, 2 * floor, 5 * floor)] == [1, 1, 1, 2, 2]
    # a second thread could hold a lock that a forked child would wait on forever
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert verify._workers(5 * floor) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert verify._workers(5 * floor) == 2
    monkeypatch.delattr(os, "fork")
    assert verify._workers(5 * floor) == 1


def test_each_worker_takes_enough_members_to_pay_for_its_fork(monkeypatch):
    # more CPUs than the members can keep busy: one worker per floor of
    # members, and a check that small stays in this process
    _cpus(monkeypatch, 64)
    floor = verify._MEMBERS_PER_WORKER
    assert [verify._workers(members) for members in (floor - 1, 3 * floor, 4 * floor - 1, 100 * floor)] \
        == [1, 3, 3, 64]
    forks = _counted_forks(monkeypatch)
    assert run_check("thm23_bijection", max_n=6).status == "pass"
    assert forks == []


def _counted_forks(monkeypatch):
    """Count the calls of ``os.fork`` in the list this returns."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_reports_are_the_same_on_one_worker_and_two(monkeypatch):
    # every check with deferred cells forks, however few its members
    monkeypatch.setattr(verify, "_MEMBERS_PER_WORKER", 1)
    forks = _counted_forks(monkeypatch)
    runs = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        forks.clear()
        runs[cpus] = [_stripped(run_check(name)) for name in ALL_CHECKS]
        runs[cpus] += [_stripped(run_check(name, max_n=9)) for name in ("T_roundtrip", "lemma21")]
        # a child for each check with deferred cells: the five map checks, twice at max_n = 9
        assert len(forks) == (cpus - 1) * 7
    assert runs[1] == runs[2]
    assert [r["check"] for r in runs[2]] == ALL_CHECKS + ["T_roundtrip", "lemma21"]
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("failure", ["raise", "exit", "parent"])
def test_a_failing_worker_fails_the_check_and_every_child_is_reaped(monkeypatch, failure, cpus):
    # a child's exception comes back with its type; a child that ends without
    # its results is named by its exit status; the children still running
    # when a worker fails, this process included, are stopped and reaped.
    # Four CPUs on a smaller host means more workers than cores
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(verify, "_MEMBERS_PER_WORKER", 1)
    parent, swap = os.getpid(), verify._flank_swap

    def fails(p, src, dst):
        if failure == "parent" and os.getpid() == parent:
            raise RuntimeError("map core failed in the parent")
        if failure != "parent" and os.getpid() != parent:
            if failure == "exit":
                os._exit(7)
            raise RuntimeError("map core failed in a child")
        return swap(p, src, dst)

    monkeypatch.setattr(verify, "_flank_swap", fails)
    match = {"raise": "^map core failed in a child$", "exit": "exit status 7",
             "parent": "^map core failed in the parent$"}[failure]
    with pytest.raises(RuntimeError, match=match):
        run_check("thm23_bijection", max_n=6)
    _assert_no_child_left()


def test_a_failed_fork_fails_the_check_and_the_child_forked_first_is_reaped(monkeypatch):
    _cpus(monkeypatch, 4)
    monkeypatch.setattr(verify, "_MEMBERS_PER_WORKER", 1)
    assert run_check("thm23_bijection", max_n=6).status == "pass"  # warm memos
    refused, fork, forks = OSError(errno.EAGAIN, "no process left"), os.fork, []

    def fails_second():
        forks.append(1)
        if len(forks) == 2:
            raise refused
        return fork()

    monkeypatch.setattr(os, "fork", fails_second)
    fds = os.listdir("/proc/self/fd")
    with pytest.raises(OSError) as caught:
        run_check("thm23_bijection", max_n=6)
    assert caught.value is refused
    _assert_no_child_left()
    assert os.listdir("/proc/self/fd") == fds


class _TwoPartError(Exception):
    """Pickles, but its unpickling calls it with one argument of two."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


@pytest.mark.parametrize("error, status, cause", [
    (lambda: RuntimeError(lambda: None), 1, EOFError),  # a local function does not pickle
    (lambda: _TwoPartError("map core failed", "a child"), 0, TypeError),
], ids=["dumps", "loads"])
def test_a_child_exception_that_does_not_come_back_is_named_by_its_exit_status(monkeypatch, error, status, cause):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "_MEMBERS_PER_WORKER", 1)
    parent, swap = os.getpid(), verify._flank_swap

    def fails_in_a_child(p, src, dst):
        if os.getpid() != parent:
            raise error()
        return swap(p, src, dst)

    monkeypatch.setattr(verify, "_flank_swap", fails_in_a_child)
    with pytest.raises(RuntimeError, match=f"exit status {status}") as caught:
        run_check("thm23_bijection", max_n=6)
    assert isinstance(caught.value.__cause__, cause)
    _assert_no_child_left()


@pytest.mark.parametrize("check, memos", [("thm23_bijection", ("anchor_classes", "member_index")),
                                          ("lemma42", ("odd_head_index",))])
def test_memos_are_read_in_the_parent(monkeypatch, check, memos):
    # the cells read the member indexes, anchor classes and seeded odd
    # indexes while they are made, before any fork, so the parent keeps what
    # a cold run built and a warm run misses none of them
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "_MEMBERS_PER_WORKER", 1)
    cached = [getattr(enumeration, name) for name in memos]
    enumeration.clear_memo()
    cold = run_check(check)
    assert all(fn.cache_info().currsize > 0 for fn in cached)
    misses = [fn.cache_info().misses for fn in cached]
    assert _stripped(run_check(check)) == _stripped(cold)
    assert [fn.cache_info().misses for fn in cached] == misses
    _assert_no_child_left()


def test_the_kernels_are_built_in_the_parent(monkeypatch, capsys):
    # the shift and contraction kernels hold every table their maps read and
    # are built while the cells are made, so a cold catalog forking workers
    # leaves the parent the same kernels as one run in one process, and a
    # warm catalog builds none
    monkeypatch.setattr(verify, "_MEMBERS_PER_WORKER", 1)
    sizes = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        verify._mover.cache_clear()
        verify._contractor.cache_clear()
        enumeration.clear_memo()
        assert main(["verify", "--check", "all"]) == 1  # prop43_words is red by design
        sizes[cpus] = _kernels()
    assert sizes[1] == sizes[2] and min(sizes[2]) > 0, sizes
    misses = verify._mover.cache_info().misses, verify._contractor.cache_info().misses
    assert main(["verify", "--check", "all"]) == 1
    assert (verify._mover.cache_info().misses, verify._contractor.cache_info().misses) == misses
    capsys.readouterr()
    _assert_no_child_left()


def test_forking_workers_sees_no_second_thread(monkeypatch):
    # CPython 3.12 and later warn when a process with more than one thread
    # forks, so there this fails if any thread, started through threading or
    # not, is alive at a fork
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "_MEMBERS_PER_WORKER", 1)
    forks = _counted_forks(monkeypatch)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="This process", category=DeprecationWarning)
        assert run_check("T_roundtrip").status == "pass"
    assert forks == [1]
    _assert_no_child_left()


def _one_entry_more(monkeypatch, kind, n, d, i=None, j=None):
    """Make ``verify.count_table`` read the (kind, n) table with one entry
    raised by one: the total at d, or the cell (d, i, j) when i is given.
    The memo keeps the true table."""
    real = verify.count_table

    def count_table(k, m):
        table = real(k, m)
        if (k, m) != (kind, n):
            return table
        if i is None:
            totals = list(table.totals)
            totals[d] += 1
            return dataclasses.replace(table, totals=tuple(totals))
        cells = [[list(row) for row in layer] for layer in table.cells]
        cells[d][i - 1][j - 1] += 1
        return dataclasses.replace(table, cells=tuple(tuple(map(tuple, layer)) for layer in cells))

    monkeypatch.setattr(verify, "count_table", count_table)


# One identity per table check, each broken by one table entry that it reads
# on one side only.  check, max_n, the entry raised (kind, n, d[, i, j]), and
# the one counterexample (params, lhs, rhs) the check must then report.
TABLE_IDENTITIES = [
    ("closed_form", 5, ("ballot", 5, 0), ({"n": 5}, "ballot=46 odd=45", "closed_form=45")),
    ("recurrence_b", 5, ("ballot", 5, 0), ({"kind": "ballot", "n": 5}, 46, 45)),
    ("recurrence_p", 5, ("odd", 5, 1), ({"kind": "odd", "n": 5}, 46, 45)),
    ("x_lambda_identity", 5, ("ballot", 5, 1, 1, 2), ({"n": 5, "i": 1, "j": 3, "side": "forward"}, 1, 2)),
    ("toeplitz_B", 5, ("ballot", 5, 1, 1, 2), ({"kind": "ballot", "n": 5, "d": 1, "i": 1, "j": 2}, 2, 1)),
    ("toeplitz_P", 5, ("odd", 5, 1, 1, 2), ({"kind": "odd", "n": 5, "d": 1, "i": 1, "j": 2}, 2, 1)),
    ("symmetry_P", 5, ("odd", 5, 1, 1, 2), ({"n": 5, "d": 1, "i": 1, "j": 2}, 2, 1)),
    ("conj_spiro", 5, ("odd", 5, 1), ({"n": 5, "d": 1}, 22, 23)),
    ("conj_refined", 5, ("ballot", 5, 1, 3, 1), ({"n": 5, "d": 1, "j": 3}, 3, 2)),
    ("prop41", 5, ("odd", 5, 1, 1, 3), ({"n": 5, "d": 1, "j": 3, "cell": "p(1,j)"}, 2, 1)),
    # prop43_words is red from n = 5, so its difference identity is broken at n = 4
    ("prop43_words", 4, ("ballot", 4, 1, 1, 2), ({"n": 4, "d": 1, "identity": "right pairs"}, 2, 1)),
    ("eq_bnd_pnd", 5, ("ballot", 5, 1, 1, 2), ({"kind": "ballot", "n": 5, "d": 1}, 22, 23)),
]


@pytest.mark.parametrize("name, max_n, entry, ce", TABLE_IDENTITIES, ids=[case[0] for case in TABLE_IDENTITIES])
def test_each_table_check_reports_one_table_entry_off(monkeypatch, name, max_n, entry, ce):
    assert run_check(name, max_n).counterexamples == ()
    _one_entry_more(monkeypatch, *entry)
    params, lhs, rhs = ce
    assert run_check(name, max_n).counterexamples == ({"params": params, "lhs": lhs, "rhs": rhs},)
