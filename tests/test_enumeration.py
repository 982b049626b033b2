import itertools
import re

import pytest

from permlab import enumeration
from permlab.cycles import format_cycles
from permlab.enumeration import (
    CountKey,
    _ballot_stream,
    _odd_stream,
    ballot_cell,
    ballot_count_closed,
    build_matrix,
    count,
    count_table,
    count_word_pair,
    double_factorial,
    enumerate_ballot,
    enumerate_odd_order,
    member_index,
    odd_cell,
)
from permlab.errors import BudgetError, DomainError
from permlab.words import find_factor

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


def test_enumeration_budgets():
    with pytest.raises(BudgetError):
        next(enumerate_ballot(11))
    with pytest.raises(BudgetError):
        next(enumerate_odd_order(12))
    with pytest.raises(DomainError):
        next(enumerate_ballot(0))


def test_count_examples():
    assert count("ballot", CountKey(n=4, d=1, i=3, j=1)) == 2
    assert count("ballot", CountKey(n=4, d=1, i=1, j=3)) == 0
    assert count("odd", CountKey(n=4, d=1, i=1, j=3)) == 1
    assert count("ballot", CountKey(n=6)) == 225


def test_count_key_validation():
    with pytest.raises(DomainError):
        CountKey(n=4, i=1, j=1)
    with pytest.raises(DomainError):
        CountKey(n=4, i=1)
    with pytest.raises(DomainError):
        CountKey(n=4, d=2)
    with pytest.raises(DomainError):
        CountKey(n=4, i=4, j=1)
    with pytest.raises(DomainError):
        CountKey(n=0)
    with pytest.raises(DomainError):
        count("other", CountKey(n=4))


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
    assert str(exc.value) == "cell letters must satisfy 1 <= i != j <= 4, got (2, 2)"
    # a descent number outside [0, d_max] holds no member
    assert table.cell(3, 1, 2) == 0 and table.cell(-1, 1, 2) == 0


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


@pytest.mark.parametrize("stream, members, cell_fn", [
    (_ballot_stream, enumerate_ballot, ballot_cell),
    (_odd_stream, enumerate_odd_order, odd_cell),
], ids=["ballot", "odd"])
def test_fused_streams_match_the_standalone_classifier(stream, members, cell_fn):
    # the statistic and neighbor cell counted while streaming, against
    # classifying each finished member from scratch
    for n in range(1, 10):
        assert list(stream(n)) == [(m, *cell_fn(m)) for m in members(n)], n


@pytest.mark.parametrize("s", [2, 3])
def test_seeded_odd_stream_is_the_index_cell(s):
    # opening the first cycle with 1 n s streams exactly the members whose n
    # has cyclic neighbors (1, s), each with its weight, in index order
    for n in range(4, 10):
        by_d = {}
        for member, d, nb in _odd_stream(n, (1, n, s)):
            assert nb == (1, s) and odd_cell(member) == (d, (1, s)), (n, member)
            by_d.setdefault(d, []).append(member)
        idx = member_index("odd", n)
        assert {d: tuple(ms) for d, ms in by_d.items()} == \
            {d: idx.cell(d, 1, s) for d in range((n - 1) // 2 + 1) if idx.cell(d, 1, s)}, n


def test_odd_table_at_11():
    p = [count_table("odd", n).grand_total for n in (9, 10, 11)]
    assert p[2] == ballot_count_closed(11) == 893025 * 11
    assert p[2] == p[1] + 10 * 9 * p[0]
    table = count_table("odd", 11)
    assert len(table.totals) == 6 and len(table.cells[0]) == 10


def test_golden_matrices():
    for n, expected in GOLDEN_BALLOT.items():
        assert build_matrix("ballot", n).entries == expected


def test_odd_matrix_examples():
    assert build_matrix("odd", 4, 1).entries == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    with pytest.raises(DomainError):
        build_matrix("ballot", 2)
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


def stream_word_pair_vectors(n, pairs):
    """{(u, v): counts by statistic} by streaming the ballot members of [n].

    The enumerating counter the subset DP replaced, kept as its oracle: n
    occurs once, so only members whose n sits between u[-1] and v[0] are
    searched for the factor u n v.
    """
    by_anchor, counts = {}, {}
    for u, v in pairs:
        by_anchor.setdefault((u[-1], v[0]), []).append((u, v))
        counts[u, v] = [0] * ((n - 1) // 2 + 1)
    for p, stat, nb in _ballot_stream(n):
        for u, v in by_anchor.get(nb, ()):
            if find_factor(p, u + (n,) + v) is not None:
                counts[u, v][stat] += 1
    return counts


def test_count_word_pair_matches_oracle(ballot_factor_oracle):
    assert len(ORACLE_PAIRS) == 20 and len(set(ORACLE_PAIRS)) == 20
    for n in range(4, 10):
        pairs = [(u, v) for u, v in ORACLE_PAIRS if max(u + v) < n]
        if n == 9:  # past the filtered S_n, the pruned stream searched member by member
            expected = stream_word_pair_vectors(n, pairs)
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
])
def test_count_word_pair_refuses_words_it_can_never_find(monkeypatch, u, v, message):
    # refused before anything is counted, so the subset DP never runs
    def no_dp(n, pairs):
        raise AssertionError("the subset DP ran")

    monkeypatch.setattr(enumeration, "_ballot_dp", no_dp)
    with pytest.raises(DomainError, match=re.escape(message)):
        count_word_pair(5, 1, u, v)


def test_count_word_pair_reads_no_member_stream(monkeypatch):
    def no_stream(n):
        raise AssertionError("the ballot stream was drained")

    monkeypatch.setattr(enumeration, "_ballot_stream", no_stream)
    enumeration._word_pair_vectors.cache_clear()  # so the pair is counted afresh
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


def test_odd_stream_format_round_trip():
    for cycles in enumerate_odd_order(5):
        assert format_cycles(cycles).count("(") == len(cycles)
