"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria run at their stated budgets; in-memory memoization is shared across
the module, so the expensive n=10 enumerations happen once.
"""

import itertools
import json
import random
import time
from pathlib import Path

from permlab.cli import main
from permlab.cycles import cycle_stats, parse_cycles
from permlab.enumeration import ballot_count_closed, count_table, count_word_pair
from permlab.toeplitz import shift
from permlab.verify import CHECKS, run_check
from permlab.words import height, reversal

EXPECTED_TOTALS = [1, 1, 3, 9, 45, 225, 1575, 11025, 99225, 893025]

GOLDEN_BALLOT_TEXT = {
    3: "0 1\n1 0",
    4: "0 1 0\n1 0 1\n2 1 0",
    5: "0 3 2 1\n3 0 3 2\n4 3 0 3\n5 4 3 0",
    6: "0 9 6 3 1\n9 0 9 6 3\n12 9 0 9 6\n15 12 9 0 9\n17 15 12 9 0",
    7: ("0 45 36 27 19 13\n45 0 45 36 27 19\n54 45 0 45 36 27\n"
        "63 54 45 0 45 36\n71 63 54 45 0 45\n77 71 63 54 45 0"),
    8: ("0 225 182 139 99 65 38\n225 0 225 182 139 99 65\n"
        "268 225 0 225 182 139 99\n311 268 225 0 225 182 139\n"
        "351 311 268 225 0 225 182\n385 351 311 268 225 0 225\n"
        "412 385 351 311 268 225 0"),
}


def report(label, ok, detail=""):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    return ok


# Every report the suite computes, by (check, max_n), so the pin comparison at
# the end reuses them instead of running the checks again.
_REPORTS = {}


def check(name, max_n):
    if (name, max_n) not in _REPORTS:
        _REPORTS[name, max_n] = run_check(name, max_n=max_n)
    return _REPORTS[name, max_n]


def run_and_report(label, name, max_n):
    r = check(name, max_n)
    ok = report(label, r.status == "pass",
                f"max_n={r.max_n}, cells={r.cells_checked}, {r.wall_time_ms:.0f} ms")
    assert ok, (name, r.counterexamples[:5])


def test_criterion_1_closed_form_totals():
    start = time.perf_counter()
    ballot = [count_table("ballot", n).grand_total for n in range(1, 11)]
    odd = [count_table("odd", n).grand_total for n in range(1, 11)]
    closed = [ballot_count_closed(n) for n in range(1, 11)]
    elapsed = time.perf_counter() - start
    ok = ballot == odd == closed == EXPECTED_TOTALS and elapsed <= 120
    assert report("criterion 1 (closed form, n<=10)", ok, f"{elapsed:.1f} s")


def test_criterion_2_golden_matrices(capsys):
    start = time.perf_counter()
    ok = True
    for n, expected in GOLDEN_BALLOT_TEXT.items():
        code = main(["matrix", "--kind", "ballot", "--n", str(n)])
        out = capsys.readouterr().out.strip()
        ok = ok and code == 0 and out == expected
    table = count_table("ballot", 8)
    ok = ok and table.cell(None, 1, 2) == 225 and table.cell(None, 7, 1) == 412
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 60
    with capsys.disabled():
        assert report("criterion 2 (golden matrices, 3<=n<=8)", ok, f"{elapsed:.1f} s")


def test_criterion_3_toeplitz_and_symmetry():
    start = time.perf_counter()
    run_and_report("criterion 3a (toeplitz_B, 8)", "toeplitz_B", 8)
    run_and_report("criterion 3b (toeplitz_P, 9)", "toeplitz_P", 9)
    run_and_report("criterion 3c (symmetry_P, 9)", "symmetry_P", 9)
    elapsed = time.perf_counter() - start
    assert report("criterion 3 (total runtime)", elapsed <= 300, f"{elapsed:.1f} s")


def test_criterion_4_shift_examples_and_roundtrip():
    ok = shift((3, 8, 2, 5, 4, 9, 6, 7, 1), 4, 6) == (3, 8, 2, 6, 4, 5, 9, 7, 1)
    ok = ok and shift((1, 3, 4, 8, 7, 5, 9, 6, 2), 5, 6) == (1, 3, 4, 8, 6, 9, 7, 5, 2)
    ok = ok and shift(parse_cycles("(1 6 8 2 10)(3 12 9 11 7 5 4)"), 3, 9, cyclic=True) \
        == parse_cycles("(1 3 6 2 7)(4 12 10 9 8 11 5)")
    assert report("criterion 4 (printed shift examples)", ok)
    run_and_report("criterion 4 (T_roundtrip, 8)", "T_roundtrip", 8)


def test_criterion_5_section2_bijections():
    run_and_report("criterion 5a (thm23_bijection, 8)", "thm23_bijection", 8)
    run_and_report("criterion 5b (x_lambda_identity, 8)", "x_lambda_identity", 8)
    run_and_report("criterion 5c (phi_bijection, 8)", "phi_bijection", 8)
    run_and_report("criterion 5d (lemma21, 8)", "lemma21", 8)
    run_and_report("criterion 5e (lemma22, 7)", "lemma22", 7)


def test_criterion_6_prop41():
    r = check("prop41", 10)
    detail = f"cells={r.cells_checked}"
    assert report("criterion 6a (prop41, 10)", r.status == "pass", detail), r.counterexamples[:5]


def test_criterion_6_lemma42():
    run_and_report("criterion 6b (lemma42, 9)", "lemma42", 9)


# word pair label -> (u, v, descents dropped by the stated reduction), in
# the order the prop43_words report lists them
PROP43_PAIRS = {
    "u=1 v=23": ((1,), (2, 3), 1),
    "u=23 v=1": ((2, 3), (1,), 1),
    "u=1 v=32": ((1,), (3, 2), 2),
    "u=32 v=1": ((3, 2), (1,), 2),
}


def test_criterion_6_prop43_words(ballot_factor_oracle):
    # N(n,d; u,v) counts the ballot permutations of [n] with d descents that
    # hold the factor u n v.  The check states N(1,23) = N(23,1) = B(n-3, d-1)
    # and N(1,32) = N(32,1) = B(n-3, d-2); both reductions are false.  No
    # ballot permutation of [5] holds 1 5 3 2 (with 4 before 1 the prefix 4 1
    # has height -1, with 4 after 2 so does 1 5 3 2 4), yet B(2, 0) = 1.  The
    # ascending pairs first fail at n=7, d=3: their only witnesses are
    # 1 7 2 3 6 5 4 and 2 3 7 1 6 5 4, yet B(4, 2) = 0.  So the check stays
    # red, and this criterion certifies what the counts do prove:
    # (a) the difference identities b(d,1,2) - b(d,1,3) = N(1,23) - N(1,32)
    #     and b(d,3,1) - b(d,2,1) = N(23,1) - N(32,1) hold in every cell;
    # (b) every counterexample is a refuted reduction cell whose two sides
    #     match a brute-force factor search over S_n, and none is missing;
    # (c) N is symmetric under swapping u and v at every n <= 10, hence
    #     b(d,1,2) + b(d,2,1) = b(d,1,3) + b(d,3,1), the j = 2, 3 link that
    #     Lemma 4.2 needs for the refined conjecture.
    r = check("prop43_words", 8)
    oracle = ballot_factor_oracle

    identities_hold = r.cells_checked == 96 and not any(
        "identity" in ce["params"] for ce in r.counterexamples)

    refuted = []
    for n in range(4, 9):
        smaller = oracle(n - 3)
        words = {label: oracle(n, u + (n,) + v) for label, (u, v, _) in PROP43_PAIRS.items()}
        for d in range((n - 1) // 2 + 1):
            for label, (_, _, drop) in PROP43_PAIRS.items():
                lhs, rhs = len(words[label].get(d, ())), len(smaller.get(d - drop, ()))
                if lhs != rhs:
                    refuted.append({"params": {"n": n, "d": d, "pair": label},
                                    "lhs": lhs, "rhs": rhs})

    def first_refuted(drop):
        return min(((ce["params"]["n"], ce["params"]["d"]) for ce in r.counterexamples
                    if PROP43_PAIRS[ce["params"]["pair"]][2] == drop), default=None)

    witnesses = oracle(7, (1, 7, 2, 3)).get(3, []) + oracle(7, (2, 3, 7, 1)).get(3, [])
    honest_refutation = (
        list(r.counterexamples) == refuted
        and (first_refuted(2), first_refuted(1)) == ((5, 2), (7, 3))
        and not oracle(5, (1, 5, 3, 2)) and len(oracle(2).get(0, ())) == 1
        and witnesses == [(1, 7, 2, 3, 6, 5, 4), (2, 3, 7, 1, 6, 5, 4)]
        and not oracle(4).get(2)
    )

    side_swap = True
    for n in range(4, 11):
        bt = count_table("ballot", n)
        for d in range((n - 1) // 2 + 1):
            side_swap = side_swap and all(
                count_word_pair(n, d, (1,), v) == count_word_pair(n, d, v, (1,))
                for v in ((2, 3), (3, 2))
            ) and bt.cell(d, 1, 2) + bt.cell(d, 2, 1) == bt.cell(d, 1, 3) + bt.cell(d, 3, 1)

    ok = report("criterion 6c (prop43_words, 8)",
                identities_hold and honest_refutation and side_swap,
                f"identities {identities_hold}, refutation {honest_refutation}, "
                f"side swap {side_swap}, {len(r.counterexamples)} counterexamples")
    assert ok, r.counterexamples


def test_criterion_7_conjectures_and_exit_codes(capsys):
    r = check("conj_spiro", 9)
    ok1 = r.status == "pass" and not r.counterexamples
    r = check("conj_refined", 8)
    ok2 = r.status == "pass" and not r.counterexamples
    # exit code distinguishes pass from counterexample found
    pass_code = main(["verify", "--check", "conj_spiro", "--max-n", "5"])
    fail_code = main(["verify", "--check", "prop43_words", "--max-n", "5"])
    capsys.readouterr()
    ok3 = (pass_code, fail_code) == (0, 1)
    with capsys.disabled():
        assert report("criterion 7 (conjecture checks report cleanly)", ok1 and ok2 and ok3)


def test_criterion_8_recurrences():
    run_and_report("criterion 8a (recurrence_b, 10)", "recurrence_b", 10)
    run_and_report("criterion 8b (recurrence_p, 10)", "recurrence_p", 10)
    run_and_report("criterion 8c (eq_bnd_pnd, 8)", "eq_bnd_pnd", 8)


def test_criterion_9_property_bundle():
    rng = random.Random(20260810)
    ok = all(
        height(reversal(w)) == -height(w)
        for w in (tuple(rng.sample(range(1, 10_000), rng.randint(0, 12)))
                  for _ in range(10_000))
    )
    assert report("criterion 9a (reversal negates height, 10^4 words)", ok)

    ok = all(
        cycle_stats((1,) + rest)[2] == cycle_stats(tuple(reversed((1,) + rest)))[2]
        for k in range(1, 10)
        for rest in itertools.permutations(range(2, k + 1))
    )
    assert report("criterion 9b (weight invariant under reversal, cycles <= 9)", ok)

    ok = True
    for n in range(4, 10):
        table = count_table("ballot", n)
        whole = 2 * count_table("ballot", n - 2).grand_total
        ok = ok and all(
            table.cell(None, i, j) + table.cell(None, j, i) == whole
            for i in range(1, n) for j in range(1, n) if i != j
        )
    assert report("criterion 9c (opposite cells sum to twice the smaller class, n<=9)", ok)

    ok = True
    for kind in ("ballot", "odd"):
        for n in range(3, 10):
            table = count_table(kind, n)
            small = count_table(kind, n - 2)
            for i in range(1, n):
                for j in (i - 1, i + 1):
                    if 1 <= j <= n - 1:
                        ok = ok and all(
                            table.cell(d, i, j) == small.total(d - 1)
                            for d in range(table.d_max + 1)
                        )
    assert report("criterion 9d (adjacent cells equal the class two down, n<=9)", ok)


def test_every_report_matches_its_catalog_pin():
    # perfbench/catalog_pins.json pins each check's report at its default
    # bound, wall time aside; prop43_words is pinned red with its
    # counterexamples.
    root = Path(__file__).resolve().parent.parent
    pins = json.loads((root / "perfbench" / "catalog_pins.json").read_text())
    assert sorted(pins) == sorted(CHECKS)
    off = []
    for name, pinned in pins.items():
        obj = check(name, CHECKS[name].default_max_n).to_json_obj()
        del obj["wall_time_ms"]
        if obj != pinned:
            off.append(name)
    assert report("catalog pins (18 reports at their default bounds)", not off, f"off: {off}"), off
