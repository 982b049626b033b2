import hashlib
import inspect
import itertools
import json
import random
import re
from math import factorial
from pathlib import Path

import pytest
from conftest import STREAMS, ballot_cell, odd_cell, oracle_member_index

from permlab import enumeration
from permlab.cycles import canonicalize_cycles, format_cycles, is_odd_order
from permlab.enumeration import (
    MemberIndex,
    _ballot_stream,
    _ballot_table,
    _odd_stream,
    _odd_table,
    _unpack,
    anchor_classes,
    ballot_count_closed,
    build_matrix,
    count,
    count_table,
    count_word_pair,
    double_factorial,
    enumerate_ballot,
    enumerate_odd_order,
    member_index,
)
from permlab.errors import BudgetError, DomainError
from permlab.words import find_factor, is_ballot

CLOSED = [1, 1, 3, 9, 45, 225, 1575, 11025, 99225, 893025]

# Count matrices printed for 3 <= n <= 8 (d summed); frozen golden data.
GOLDEN_BALLOT = {
    3: ((0, 1), (1, 0)),
    4: ((0, 1, 0), (1, 0, 1), (2, 1, 0)),
    5: ((0, 3, 2, 1), (3, 0, 3, 2), (4, 3, 0, 3), (5, 4, 3, 0)),
    6: ((0, 9, 6, 3, 1), (9, 0, 9, 6, 3), (12, 9, 0, 9, 6),
        (15, 12, 9, 0, 9), (17, 15, 12, 9, 0)),
    7: ((0, 45, 36, 27, 19, 13), (45, 0, 45, 36, 27, 19), (54, 45, 0, 45, 36, 27),
        (63, 54, 45, 0, 45, 36), (71, 63, 54, 45, 0, 45), (77, 71, 63, 54, 45, 0)),
    8: ((0, 225, 182, 139, 99, 65, 38), (225, 0, 225, 182, 139, 99, 65),
        (268, 225, 0, 225, 182, 139, 99), (311, 268, 225, 0, 225, 182, 139),
        (351, 311, 268, 225, 0, 225, 182), (385, 351, 311, 268, 225, 0, 225),
        (412, 385, 351, 311, 268, 225, 0)),
}


def test_double_factorial():
    assert [double_factorial(k) for k in (-1, 0, 1, 2, 3, 5, 7, 9)] == [1, 1, 1, 2, 3, 15, 105, 945]


def test_closed_form_values():
    assert [ballot_count_closed(n) for n in range(1, 11)] == CLOSED
    with pytest.raises(DomainError):
        ballot_count_closed(0)


def test_enumerate_ballot_small():
    assert list(enumerate_ballot(1)) == [(1,)]
    assert list(enumerate_ballot(3)) == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    assert len(list(enumerate_ballot(4))) == 9


def test_enumerate_ballot_matches_oracle(small_ballot):
    for n in range(1, 8):
        assert list(enumerate_ballot(n)) == sorted(small_ballot[n])


def test_enumerate_odd_order_small():
    assert list(enumerate_odd_order(1)) == [((1,),)]
    assert list(enumerate_odd_order(3)) == [((1,), (2,), (3,)), ((1, 2, 3),), ((1, 3, 2),)]
    assert len(list(enumerate_odd_order(4))) == 9


def test_enumerate_odd_order_matches_oracle(small_odd):
    for n in range(1, 8):
        assert list(enumerate_odd_order(n)) == sorted(small_odd[n])


def test_streams_deterministic_and_duplicate_free():
    first = list(enumerate_ballot(6))
    assert first == list(enumerate_ballot(6))
    assert len(set(first)) == len(first)
    cycles = list(enumerate_odd_order(6))
    assert cycles == list(enumerate_odd_order(6))
    assert len(set(cycles)) == len(cycles)


def _is_ballot_member(p, n):
    return sorted(p) == list(range(1, n + 1)) and is_ballot(p)


def _is_odd_member(cycles, n):
    return canonicalize_cycles(cycles) == cycles and len(sum(cycles, ())) == n and is_odd_order(cycles)


@pytest.mark.parametrize("kind, is_member", [("ballot", _is_ballot_member), ("odd", _is_odd_member)],
                         ids=["ballot", "odd"])
@pytest.mark.parametrize("n", [8, 9, 10])
def test_streams_rise_strictly_through_members_counted_by_the_closed_form(kind, is_member, n, drained):
    # lexicographic, on the canonical cycle encoding for odd members, so no
    # member repeats; the tails placed in place must keep this order
    prev, seen = (), 0
    for member, _, _ in drained(kind, n):
        assert prev < member and is_member(member, n), (prev, member)
        prev, seen = member, seen + 1
    assert seen == ballot_count_closed(n)


def test_ballot_stream_edge_tails():
    # below three letters there is no tail to place; at three the whole word is one
    assert list(_ballot_stream(1)) == [((1,), 0, None)]
    assert list(_ballot_stream(2)) == [((1, 2), 0, None)]
    assert list(_ballot_stream(3)) == [((1, 2, 3), 0, None), ((1, 3, 2), 1, (1, 2)), ((2, 3, 1), 1, (2, 1))]


@pytest.mark.parametrize("n", range(3, 10))
def test_seeded_odd_streams_filter_the_whole_stream(n, drained):
    # a seeded stream is the whole stream's members whose first cycle opens
    # with the head, each with its weight and neighbors, in the same order;
    # (1, n, 2) leaves no letter at n = 3 and one at n = 4
    heads = [(1,), (1, n, 2)] + [(1, n, 3)] * (n > 3)
    for head in heads:
        want = [triple for triple in drained("odd", n) if triple[0][0][:len(head)] == head]
        assert list(_odd_stream(n, head)) == want, (n, head)
    if n == 3:
        assert list(_odd_stream(3, (1, 3, 2))) == [(((1, 3, 2),), 1, (1, 2))]


def test_streams_are_lazy_and_refuse_the_budget_on_first_next():
    for stream, n in ((_ballot_stream, 11), (_odd_stream, 12)):
        gen = stream(n)
        assert inspect.isgenerator(gen)
        with pytest.raises(BudgetError):
            next(gen)


def test_enumeration_budgets():
    with pytest.raises(BudgetError):
        next(enumerate_ballot(11))
    with pytest.raises(BudgetError):
        next(enumerate_odd_order(12))
    with pytest.raises(DomainError):
        next(enumerate_ballot(0))


def test_count_examples():
    assert count("ballot", 4, d=1, i=3, j=1) == 2
    assert count("ballot", 4, d=1, i=1, j=3) == 0
    assert count("odd", 4, d=1, i=1, j=3) == 1
    assert count("ballot", 6) == 225


def test_count_validation():
    with pytest.raises(DomainError):
        count("ballot", 4, i=1, j=1)
    with pytest.raises(DomainError):
        count("ballot", 4, i=1)
    with pytest.raises(DomainError):
        count("ballot", 4, d=2)
    with pytest.raises(DomainError):
        count("ballot", 4, i=4, j=1)
    with pytest.raises(DomainError):
        count("ballot", 0)
    with pytest.raises(DomainError):
        count("other", 4)


def test_count_refuses_before_any_table_is_built(monkeypatch):
    def unreachable(n):
        raise AssertionError(f"a table was built for n={n}")

    enumeration.clear_memo()
    monkeypatch.setattr(enumeration, "_BUILDERS", {"ballot": unreachable, "odd": unreachable})
    refusals = [
        ((0,), {}, "n must be an int of at least 1, got 0"),
        ((4,), {"d": 2}, "d must be an int with 0 <= d <= 1, got 2"),
        ((4,), {"d": -1}, "d must be an int with 0 <= d <= 1, got -1"),
        ((4,), {"i": 1}, "letters i and j must be given together"),
        ((4,), {"j": 2}, "letters i and j must be given together"),
        ((4,), {"i": 4, "j": 1}, "cell letters must be ints with 1 <= i != j <= 3, got (4, 1)"),
        ((4,), {"i": 0, "j": 1}, "cell letters must be ints with 1 <= i != j <= 3, got (0, 1)"),
        ((4,), {"i": 2, "j": 2}, "cell letters must be ints with 1 <= i != j <= 3, got (2, 2)"),
        # past the budget, and d or the letters out of range too: the query is refused first
        ((11,), {"d": 6}, "d must be an int with 0 <= d <= 5, got 6"),
        ((11,), {"i": 3, "j": 3}, "cell letters must be ints with 1 <= i != j <= 10, got (3, 3)"),
    ]
    for kind in ("ballot", "odd"):
        for args, kwargs, message in refusals:
            with pytest.raises(DomainError) as exc:
                count(kind, *args, **kwargs)
            assert str(exc.value) == message
    assert enumeration._TABLES == {}


def test_totals_split_over_cells(small_ballot):
    table = count_table("ballot", 6)
    assert table.grand_total == sum(table.total(d) for d in range(table.d_max + 1))
    for i in range(1, 6):
        for j in range(1, 6):
            if i != j:
                assert table.cell(None, i, j) == sum(
                    table.cell(d, i, j) for d in range(table.d_max + 1)
                )


def test_count_table_cell_bounds():
    table = count_table("ballot", 5)
    with pytest.raises(DomainError) as exc:
        table.cell(1, 2, 2)
    assert str(exc.value) == "cell letters must be ints with 1 <= i != j <= 4, got (2, 2)"
    # a descent number outside [0, d_max] holds no member
    assert table.cell(3, 1, 2) == 0 and table.cell(-1, 1, 2) == 0
    assert table.total(3) == 0 and table.total(-1) == 0
    # a d that is not an int is refused: total(1.0) and cell(1.0, 1, 2) used
    # to escape as a TypeError, and total(True) answered total(1)
    for d in (1.0, True, "1"):
        for call in (lambda: table.total(d), lambda: table.cell(d, 1, 2)):
            with pytest.raises(DomainError) as exc:
                call()
            assert str(exc.value) == f"d must be an int, got {d!r}"


def test_count_tables_match_oracle(small_ballot, small_odd):
    for n in range(2, 8):
        table = count_table("ballot", n)
        seen = {}
        for p in small_ballot[n]:
            d, nb = ballot_cell(p)
            if nb is not None:
                seen[(d, *nb)] = seen.get((d, *nb), 0) + 1
        for d in range(table.d_max + 1):
            for i in range(1, n):
                for j in range(1, n):
                    if i != j:
                        assert table.cell(d, i, j) == seen.get((d, i, j), 0)
        table = count_table("odd", n)
        seen = {}
        for cycles in small_odd[n]:
            d, nb = odd_cell(cycles)
            if nb is not None:
                seen[(d, *nb)] = seen.get((d, *nb), 0) + 1
        for d in range(table.d_max + 1):
            for i in range(1, n):
                for j in range(1, n):
                    if i != j:
                        assert table.cell(d, i, j) == seen.get((d, i, j), 0)


@pytest.mark.parametrize("kind", ["ballot", "odd"])
def test_count_tables_match_enumeration_reference(kind, enumeration_reference):
    # the counting DP against classifying every member, at every budgeted n <= 10
    for n in range(1, 11):
        table = count_table(kind, n)
        assert (table.kind, table.n) == (kind, n)
        assert (table.totals, table.cells) == enumeration_reference(kind, n), (kind, n)


@pytest.mark.parametrize("kind, members, cell_fn", [
    ("ballot", enumerate_ballot, ballot_cell),
    ("odd", enumerate_odd_order, odd_cell),
], ids=["ballot", "odd"])
def test_fused_streams_match_the_standalone_classifier(kind, members, cell_fn, drained):
    # the statistic and neighbor cell counted while streaming, against
    # classifying each finished member from scratch
    for n in range(1, 10):
        assert drained(kind, n) == [(m, *cell_fn(m)) for m in members(n)], n


@pytest.mark.parametrize("s", [2, 3])
def test_seeded_odd_stream_is_the_index_cell(s):
    # opening the first cycle with 1 n s streams exactly the members whose n
    # has cyclic neighbors (1, s), each with its weight, in index order; the
    # hand grouping is the oracle for a MemberIndex over the seeded stream
    for n in range(4, 10):
        by_d = {}
        for member, d, nb in _odd_stream(n, (1, n, s)):
            assert nb == (1, s) and odd_cell(member) == (d, (1, s)), (n, member)
            by_d.setdefault(d, []).append(member)
        idx = member_index("odd", n)
        cells = {d: idx.cell(d, 1, s) for d in range((n - 1) // 2 + 1) if idx.cell(d, 1, s)}
        assert {d: tuple(ms) for d, ms in by_d.items()} == cells, n
        seeded = MemberIndex(_odd_stream(n, (1, n, s)))
        assert seeded.by_cell == {(d, 1, s): ms for d, ms in cells.items()}, n
        assert seeded.cell_union(1, s) == idx.cell_union(1, s), n


@pytest.mark.parametrize("kind", ["ballot", "odd"])
def test_member_index_groups_as_one_setdefault_per_member_and_key(kind):
    # the same (d, i, j) keys, plain dicts of tuples, keys in first-seen order
    # and every group in stream order, over every whole stream up to n = 8
    for n in range(1, 9):
        idx = MemberIndex(STREAMS[kind](n))
        by_d, by_cell = oracle_member_index(STREAMS[kind](n))
        assert type(idx.by_d) is type(idx.by_cell) is dict, n
        assert list(idx.by_d.items()) == list(by_d.items()), n
        assert list(idx.by_cell.items()) == list(by_cell.items()), n
        for i, j in itertools.permutations(range(1, n), 2):
            assert idx.cell_union(i, j) == tuple(p for d in sorted(by_d) for p in by_cell.get((d, i, j), ())), n


def test_odd_head_index_is_kept_until_clear_memo():
    # the cells (d, 1, 2), then (d, 1, 3), each seeded stream grouped as a MemberIndex of its own
    enumeration.clear_memo()
    idx = enumeration.odd_head_index(7)
    for s in (2, 3):
        assert idx.cell_union(1, s) == MemberIndex(_odd_stream(7, (1, 7, s))).cell_union(1, s)
    assert enumeration.odd_head_index(7) is idx
    # at n = 3 the letter 3 is n itself, so only the cell (1, 2) is streamed
    assert enumeration.odd_head_index(3).by_cell == {(1, 1, 2): (((1, 3, 2),),)}
    enumeration.clear_memo()
    assert enumeration.odd_head_index.cache_info().currsize == 0
    with pytest.raises(BudgetError):
        enumeration.odd_head_index(enumeration.BUDGETS["odd"] + 1)
    assert enumeration.odd_head_index.cache_info().currsize == 0


def test_odd_table_at_11():
    p = [count_table("odd", n).grand_total for n in (9, 10, 11)]
    assert p[2] == ballot_count_closed(11) == 893025 * 11
    assert p[2] == p[1] + 10 * 9 * p[0]
    table = count_table("odd", 11)
    assert len(table.totals) == 6 and len(table.cells[0]) == 10


def test_unpack_refuses_a_count_past_d_max():
    # a packed vector with a count in digit d_max + 1 is refused, never
    # dropped; digits at their largest possible count, n! - 1, read back exactly
    for n in (1, 2, 7, 12):
        w, size = factorial(n).bit_length(), (n - 1) // 2 + 1
        full = sum((factorial(n) - 1) << (d * w) for d in range(size))
        assert _unpack(full, n) == (factorial(n) - 1,) * size
        for vec in (1 << (size * w), full + (1 << (size * w))):
            with pytest.raises(ValueError) as exc:
                _unpack(vec, n)
            assert str(exc.value) == f"statistic vector spills past d_max={size - 1} at n={n}"


@pytest.fixture(scope="module")
def past_stream():
    """B(n, .) and P(n, .) at n = 11 and 12, past the stream oracle, each built once."""
    builders = {"ballot": _ballot_table, "odd": _odd_table}
    return {(kind, n): build(n) for kind, build in builders.items() for n in (11, 12)}


def test_tables_past_the_stream_oracle(past_stream):
    # the ballot rank DP and the exponential formula over odd cycles, two
    # independent methods, where no stream checks them
    ballot = {m: count_table("ballot", m) for m in (9, 10)}
    ballot.update({n: past_stream["ballot", n] for n in (11, 12)})
    for n in (11, 12):
        table = ballot[n]
        assert table.totals == past_stream["odd", n].totals
        assert table.grand_total == ballot_count_closed(n)
        assert table.grand_total == ballot[n - 1].grand_total + (n - 1) * (n - 2) * ballot[n - 2].grand_total
        for d in range(table.d_max + 1):
            # n is last, after a ballot permutation of [n - 1], or sits in a cell i n j
            held = sum(table.cell(d, i, j) for i, j in itertools.permutations(range(1, n), 2))
            assert table.total(d) == held + ballot[n - 1].total(d), (n, d)


def test_tables_past_the_stream_oracle_match_their_pins(past_stream):
    path = Path(__file__).resolve().parent / "data" / "tables_past_stream.json"
    pins = json.loads(path.read_text())["tables"]
    assert sorted((pin["kind"], pin["n"]) for pin in pins) == sorted(past_stream)
    for pin in pins:
        table = past_stream[pin["kind"], pin["n"]]
        assert (list(table.totals), json.loads(json.dumps(table.cells))) == (pin["totals"], pin["cells"])


@pytest.mark.parametrize("kind, build", [("ballot", _ballot_table), ("odd", _odd_table)], ids=["ballot", "odd"])
def test_tables_far_past_the_stream_match_their_digests(kind, build):
    # the sha256 of each table's canonical JSON (sorted keys, no spaces) at
    # n = 13, 16, 20 and 24, written before the three pattern loops became one
    # rank insertion, so every growth rule is pinned well past n = 12
    pins = json.loads((Path(__file__).resolve().parent / "data" / "table_digests.json").read_text())[kind]
    assert sorted(map(int, pins)) == [13, 16, 20, 24]
    for n, digest in pins.items():
        table = build(int(n))
        canonical = json.dumps({"kind": table.kind, "n": table.n, "totals": table.totals, "cells": table.cells},
                               sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == digest, (kind, n)


@pytest.mark.parametrize("n", range(1, 11))
def test_ballot_table_matches_the_subset_dp_witness(ballot_subset_dp, n):
    # the rank DP against the subset DP on the one-letter pairs (i,), (j,);
    # at n <= 2 the table has no cells and only the totals are compared
    cells = list(itertools.permutations(range(1, n), 2))
    totals, vectors = ballot_subset_dp(n, [((i,), (j,)) for i, j in cells])
    witness = dict(zip(cells, vectors))
    assert _ballot_table(n) == enumeration._freeze("ballot", n, totals, lambda i, j: witness[i, j])


def test_count_word_pair_matches_the_subset_dp_witness(ballot_subset_dp):
    # every pair of 2 or 3 letters at 4 <= n <= 8, then seeded pairs of up to
    # 6 arbitrary letters at n <= 10, each against the subset DP
    rng = random.Random(23)
    for n in range(4, 11):
        if n <= 8:
            pairs = [(w[:c], w[c:]) for k in (2, 3) for w in itertools.permutations(range(1, n), k)
                     for c in range(1, k)]
        else:
            pairs = [((4, 2), (1, 3, 5))]
        for _ in range(20):
            word = tuple(rng.sample(range(1, n), rng.randint(2, min(6, n - 1))))
            c = rng.randint(1, len(word) - 1)
            pairs.append((word[:c], word[c:]))
        _, vectors = ballot_subset_dp(n, pairs)
        for (u, v), vec in zip(pairs, vectors):
            got = [count_word_pair(n, d, u, v) for d in range((n - 1) // 2 + 1)]
            assert tuple(got) == _unpack(vec, n), (n, u, v)


def test_identities_past_the_budget():
    # the two polynomial builders, called past every budget, held to each
    # other, to the closed form, to the recurrence, to Toeplitz and to the
    # split of each class over its cells; then the word pairs of
    # prop43_words, held to the side swap and to the two difference identities
    ballot = {n: _ballot_table(n) for n in range(1, 17)}
    odd = {n: _odd_table(n) for n in range(2, 17)}
    for n in range(3, 17):
        b, p = ballot[n], odd[n]
        assert b.totals == p.totals, n
        assert b.grand_total == ballot_count_closed(n), n
        assert b.grand_total == ballot[n - 1].grand_total + (n - 1) * (n - 2) * ballot[n - 2].grand_total, n
        for d in range(b.d_max + 1):
            for j in range(2, n):
                assert b.cell(d, 1, j) + b.cell(d, j, 1) == 2 * p.cell(d, 1, j), (n, d, j)
            for table, prev in ((b, ballot[n - 1]), (p, odd[n - 1])):
                layer = table.cells[d]
                assert all(layer[i][j] == layer[i + 1][j + 1] for i in range(n - 2) for j in range(n - 2)), \
                    (table.kind, n, d)
                # n is last (ballot) or fixed (odd), or sits in a cell i n j
                assert table.total(d) == sum(map(sum, layer)) + prev.total(d), (table.kind, n, d)
    four = (((1,), (2, 3)), ((2, 3), (1,)), ((1,), (3, 2)), ((3, 2), (1,)))
    for n in range(4, 17):
        b, words = ballot[n], [_unpack(enumeration._pair_vector(n, u, v), n) for u, v in four]
        for d in range(b.d_max + 1):
            right_up, left_up, right_down, left_down = (vec[d] for vec in words)
            assert (right_up, right_down) == (left_up, left_down), (n, d)
            assert b.cell(d, 1, 2) - b.cell(d, 1, 3) == right_up - right_down, (n, d)
            assert b.cell(d, 3, 1) - b.cell(d, 2, 1) == left_up - left_down, (n, d)


def test_golden_matrices():
    for n, expected in GOLDEN_BALLOT.items():
        assert build_matrix("ballot", n).entries == expected


def test_odd_matrix_examples():
    assert build_matrix("odd", 4, 1).entries == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    for n in (2, 0, -1):
        with pytest.raises(DomainError) as exc:
            build_matrix("ballot", n)
        assert str(exc.value) == f"count matrices need n >= 3, got {n}"
    with pytest.raises(DomainError):
        build_matrix("ballot", 5, d=3)


def test_pair_sum_constant(small_ballot):
    # b_n(i,j) + b_n(j,i) = 2 b_{n-2} over every off-diagonal cell
    for n in range(4, 10):
        table = count_table("ballot", n)
        expected = 2 * count_table("ballot", n - 2).grand_total
        for i in range(1, n):
            for j in range(1, n):
                if i != j:
                    assert table.cell(None, i, j) + table.cell(None, j, i) == expected


def test_matrix_serialization():
    m = build_matrix("ballot", 3)
    assert m.to_text() == "0 1\n1 0"
    assert m.to_csv() == "i\\j,1,2\n1,0,1\n2,1,0"
    assert m.to_json_obj() == {"kind": "ballot", "n": 3, "d": None, "entries": [[0, 1], [1, 0]]}


def test_count_word_pair_examples(small_ballot):
    # frozen from the brute-force oracle below
    assert count_word_pair(6, 1, (1,), (2, 3)) == 1
    assert count_word_pair(6, 2, (1,), (3, 2)) == 0
    assert count_word_pair(5, 1, (1,), (2, 3, 4)) == 1
    assert count_word_pair(6, 1, (4, 2), (1, 3, 5)) == 0


# every word pair on the letters 1, 2, 3: six of one letter a side and twelve
# of three letters, then the two pinned pairs with larger letters
ORACLE_PAIRS = [
    (w[:c], w[c:]) for k in (2, 3) for w in itertools.permutations((1, 2, 3), k) for c in range(1, k)
] + [((1,), (2, 3, 4)), ((4, 2), (1, 3, 5))]


def stream_word_pair_vectors(n, pairs, triples):
    """{(u, v): counts by statistic} from the ballot stream's triples at n.

    The enumerating counter the word-pair DP replaced, kept as its oracle: n
    occurs once, so only members whose n sits between u[-1] and v[0] are
    searched for the factor u n v.
    """
    by_anchor, counts = {}, {}
    for u, v in pairs:
        by_anchor.setdefault((u[-1], v[0]), []).append((u, v))
        counts[u, v] = [0] * ((n - 1) // 2 + 1)
    for p, stat, nb in triples:
        for u, v in by_anchor.get(nb, ()):
            if find_factor(p, u + (n,) + v) is not None:
                counts[u, v][stat] += 1
    return counts


def test_count_word_pair_matches_oracle(ballot_factor_oracle, drained):
    assert len(ORACLE_PAIRS) == 20 and len(set(ORACLE_PAIRS)) == 20
    for n in range(4, 10):
        pairs = [(u, v) for u, v in ORACLE_PAIRS if max(u + v) < n]
        if n == 9:  # past the filtered S_n, the pruned stream searched member by member
            expected = stream_word_pair_vectors(n, pairs, drained("ballot", n))
        else:
            expected = {(u, v): [len(ballot_factor_oracle(n, u + (n,) + v).get(d, ()))
                                 for d in range((n - 1) // 2 + 1)] for u, v in pairs}
        for u, v in pairs:
            got = [count_word_pair(n, d, u, v) for d in range((n - 1) // 2 + 1)]
            assert got == expected[u, v], (n, u, v)


def test_count_word_pair_validation():
    with pytest.raises(DomainError):
        count_word_pair(6, 1, (1, 2), (2, 3))
    with pytest.raises(DomainError):
        count_word_pair(6, 1, (1,), (6,))
    with pytest.raises(DomainError):
        count_word_pair(6, 1, (), (2,))
    with pytest.raises(DomainError):
        count_word_pair(4, 1, (5, 6), (1, 2))  # letters above n, so longer than the host
    assert count_word_pair(6, -1, (1,), (2, 3)) == 0
    # an n past the ballot budget is refused whatever d is, as count refuses it
    for d in (1, 9, -1):
        with pytest.raises(BudgetError, match="budgeted up to n=10, got n=12"):
            count_word_pair(12, d, (1,), (2,))


@pytest.mark.parametrize("u, v, message", [
    ((1, 1), (2,), "pairwise distinct"),
    ((1,), (2, 2), "pairwise distinct"),
    ((1,), (0,), "positive integers"),
    ((-3,), (1,), "positive integers"),
    ((1.5,), (2,), "positive integers"),
    ((1,), (9,), "[1, 4]"),
    ((1,), (5,), "[1, 4]"),
    (1, (2,), "need two words of letters, got 1 and (2,)"),  # not iterable: used to escape as a TypeError
    (None, (3,), "need two words of letters, got None and (3,)"),
])
def test_count_word_pair_refuses_words_it_can_never_find(monkeypatch, u, v, message):
    # refused before anything is counted, so the rank DP never runs; a valid
    # pair does reach it
    def no_dp(n):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(enumeration, "_rank_dp", no_dp)
    with pytest.raises(DomainError, match=re.escape(message)):
        count_word_pair(5, 1, u, v)
    with pytest.raises(AssertionError, match="the DP ran"):
        count_word_pair(5, 1, (1,), (2,))


def test_count_word_pair_reads_no_member_stream(monkeypatch):
    def no_stream(n):
        raise AssertionError("the ballot stream was drained")

    monkeypatch.setattr(enumeration, "_ballot_stream", no_stream)
    enumeration._rank_dp.cache_clear()  # so the rank patterns are built afresh
    assert count_word_pair(7, 3, (1,), (2, 3)) == 1  # the one witness 1 7 2 3 6 5 4


def test_member_index_consistent_with_tables():
    for kind in ("ballot", "odd"):
        idx = member_index(kind, 6)
        table = count_table(kind, 6)
        for d in range(table.d_max + 1):
            assert len(idx.stat_class(d)) == table.total(d)
            for i in range(1, 6):
                for j in range(1, 6):
                    if i != j:
                        assert len(idx.cell(d, i, j)) == table.cell(d, i, j)


def test_member_index_budget():
    with pytest.raises(BudgetError):
        member_index("ballot", 10)


def test_budget_refusals_name_the_budget():
    # one wording for every budget, whether it bounds a stream, a table, a word pair or member lists
    for call, message in ((lambda: next(enumerate_ballot(11)), "'ballot' is budgeted up to n=10, got n=11"),
                          (lambda: count_table("ballot", 11), "'ballot' is budgeted up to n=10, got n=11"),
                          (lambda: count_word_pair(11, 1, (1,), (2,)), "'ballot' is budgeted up to n=10, got n=11"),
                          (lambda: build_matrix("odd", 12), "'odd' is budgeted up to n=11, got n=12"),
                          (lambda: member_index("odd", 10), "'members' is budgeted up to n=9, got n=10"),
                          (lambda: anchor_classes(10, 1, 3), "'members' is budgeted up to n=9, got n=10")):
        with pytest.raises(BudgetError) as exc:
            call()
        assert str(exc.value) == message


def test_odd_stream_format_round_trip():
    for cycles in enumerate_odd_order(5):
        assert format_cycles(cycles).count("(") == len(cycles)
