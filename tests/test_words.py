import random
from collections import Counter

import pytest
from conftest import oracle_swap_letters
from hypothesis import given
from hypothesis import strategies as st

from permlab import enumeration
from permlab.bijections import contract, pivot_words
from permlab.cycles import cycles_from_one_line
from permlab.enumeration import anchor_classes, build_matrix, count, count_table, count_word_pair, member_index
from permlab.errors import DomainError
from permlab.toeplitz import shift, shift_inv
from permlab.verify import run_check
from permlab.words import (
    ascent_descent,
    check_permutation,
    check_word,
    find_factor,
    format_word,
    height,
    is_ballot,
    parse_word,
    reversal,
    swap_letters,
)

words = st.lists(st.integers(1, 200), max_size=12, unique=True).map(tuple)


def test_height_examples():
    assert height((1, 2, 3)) == 2
    assert height((2, 1)) == -1
    assert height((1, 5, 2, 3, 4)) == 2
    assert height(()) == 0


def test_descent_stats_examples():
    assert ascent_descent((2, 3, 1)) == (1, 1)
    assert ascent_descent(tuple(range(1, 8))) == (6, 0)
    assert ascent_descent((3, 8, 2, 5, 4, 9, 6, 7, 1)) == (4, 4)
    assert ascent_descent(()) == (0, 0)


def test_is_ballot_examples():
    assert is_ballot((2, 3, 4, 1))
    assert not is_ballot((2, 1, 3))
    assert is_ballot((1, 2, 3))
    assert is_ballot(())
    assert is_ballot((5,))


def test_reversal():
    assert reversal(()) == ()
    assert reversal((1, 2, 3)) == (3, 2, 1)
    assert reversal((7, 5, 9, 6)) == (6, 9, 5, 7)


def test_find_factor():
    host = (3, 8, 2, 5, 4, 9, 6, 7, 1)
    assert find_factor(host, (9, 6)) == 6
    assert find_factor(host, host) == 1
    assert find_factor((1, 2, 3), (2, 1)) is None
    with pytest.raises(DomainError):
        find_factor(host, ())


def _slice_scan(host, needle):
    """The leftmost factor start by comparing the slice at every start."""
    k = len(needle)
    for s in range(len(host) - k + 1):
        if host[s:s + k] == needle:
            return s + 1
    return None


def test_find_factor_agrees_with_a_slice_scan():
    # seeded random hosts over a small alphabet, so letters repeat and a
    # needle's first letter often occurs before the needle does; needles are
    # factors of the host, or random words that may not occur (the letter 6
    # never does), or longer than the host
    rng = random.Random(18)
    found = Counter()
    for _ in range(4000):
        host = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 12)))
        if host and rng.random() < 0.5:
            s = rng.randrange(len(host))
            needle = host[s:s + rng.randint(1, 4)]
        else:
            needle = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 14)))
        got = find_factor(host, needle)
        assert got == _slice_scan(host, needle), (host, needle)
        found[got is not None, len(set(host)) < len(host)] += 1
    assert set(found) == {(False, False), (False, True), (True, False), (True, True)}, found


def test_check_permutation_refuses_letters_that_are_not_ints():
    # floats and bools equal to an int used to pass the sorted test, and a
    # string next to an int made the sort raise TypeError
    for bad in ((1.0, 3, 2), (True, 2, 3), (2, 1, 3.0), ("1", 2)):
        with pytest.raises(DomainError) as exc:
            check_permutation(bad)
        assert str(exc.value) == f"not a one-line permutation of [{len(bad)}]: {bad}"
    assert check_permutation([2, 1, 3]) == (2, 1, 3)


def test_every_validator_refuses_letters_that_are_not_ints():
    # one letter rule serves check_word, check_permutation,
    # canonicalize_cycles and cycles_from_one_line: a bool used to pass
    # check_word, so a word pair holding True was counted and memoized as the
    # pair holding 1; cycles_from_one_line passed (True, 2) and let
    # (2, 1.0) escape as a TypeError
    with pytest.raises(DomainError, match="^letters must be positive integers, got True$"):
        check_word((True, 3))
    enumeration.clear_memo()
    with pytest.raises(DomainError, match="^letters must be positive integers, got True$"):
        count_word_pair(5, 1, (True,), (3,))
    # the same rule holds for sizes, statistics and cell letters: a bool or a
    # float used to be counted as its int, memoized under the int's key, or
    # escape as a TypeError (build_matrix compared a str n with 3)
    refusals = [
        (lambda: count("odd", True), "n must be an int of at least 1, got True"),
        (lambda: count("ballot", 6.0), "n must be an int of at least 1, got 6.0"),
        (lambda: count("ballot", 5, 1.5), "d must be an int with 0 <= d <= 2, got 1.5"),
        (lambda: count("ballot", 5, None, True, 2),
         "cell letters must be ints with 1 <= i != j <= 4, got (True, 2)"),
        (lambda: build_matrix("odd", 5, 1.0), "d must be an int with 0 <= d <= 2, got 1.0"),
        (lambda: build_matrix("odd", "5", 1), "n must be an int of at least 1, got '5'"),
        (lambda: build_matrix("odd", 5.0), "n must be an int of at least 1, got 5.0"),
        (lambda: build_matrix("ballot", True), "n must be an int of at least 1, got True"),
        (lambda: count_table("ballot", 5.0), "n must be an int of at least 1, got 5.0"),
        (lambda: member_index("odd", True), "n must be an int of at least 1, got True"),
        (lambda: count_word_pair(5, True, (1,), (2,)), "d must be an int, got True"),
        (lambda: count_word_pair(5, 1.0, (1,), (5,)), "word pair letters must lie in [1, n-1] = [1, 4]: (1,) and (5,)"),
        (lambda: count_word_pair(5.0, 1, (1,), (2,)), "n must be an int of at least 1, got 5.0"),
        (lambda: run_check("toeplitz_B", 5.0), "check toeplitz_B needs an int max_n >= 3, got 5.0"),
        (lambda: run_check("closed_form", True), "check closed_form needs an int max_n >= 1, got True"),
    ]
    # and for the maps' letters, in both forms and both directions: a float
    # used to escape as a TypeError or come back as a float letter, and True
    # was read as the letter 1
    shifted = "shift letters must be ints with 1 <= i != j <= n-2 = 3, got "
    contracted = "contract needs int letters with |i - j| = 1, got "
    pivots = "pivot words need ints with 1 <= i, i+2 <= j <= n-1, got "
    for x in (1.0, True):
        refusals += [
            (lambda x=x: shift((1, 5, 2, 3, 4), x, 2), f"{shifted}({x}, 2)"),
            (lambda x=x: shift_inv((1, 2, 5, 3, 4), x, 2), f"{shifted}({x}, 2)"),
            (lambda x=x: shift(((1, 5, 2), (3,), (4,)), x, 2, cyclic=True), f"{shifted}({x}, 2)"),
            (lambda x=x: shift_inv(((1,), (2, 5, 3), (4,)), x, 2, cyclic=True), f"{shifted}({x}, 2)"),
            (lambda x=x: contract((1, 5, 2, 3, 4), x, 2), f"{contracted}({x}, 2)"),
            (lambda x=x: contract((1, 2, 3), 2, x, inverse=True), f"{contracted}(2, {x})"),
            (lambda x=x: contract(((1, 5, 2), (3,), (4,)), x, 2), f"{contracted}({x}, 2)"),
            (lambda x=x: contract(((1,), (2,), (3,)), 2, x, inverse=True), f"{contracted}(2, {x})"),
            (lambda x=x: pivot_words(x, 3, 5), f"{pivots}i={x}, j=3, n=5"),
            (lambda x=x: anchor_classes(5, x, 3), f"{pivots}i={x}, j=3, n=5"),
        ]
    refusals.append((lambda: pivot_words(1, 3, 5.0), f"{pivots}i=1, j=3, n=5.0"))
    for call, message in refusals:
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message
    assert enumeration._TABLES == {}
    assert enumeration._rank_dp.cache_info().currsize == 0
    assert enumeration.member_index.cache_info().currsize == 0
    assert enumeration.anchor_classes.cache_info().currsize == 0
    # a warm memo is no way round the rule, though True == 1 and 3.0 == 3
    for warm, n in ((1, True), (3, 3.0)):
        member_index("odd", warm)
        with pytest.raises(DomainError, match=f"^n must be an int of at least 1, got {n}$"):
            member_index("odd", n)
    anchor_classes(5, 1, 3)
    with pytest.raises(DomainError) as exc:
        anchor_classes(5, True, 3)
    assert str(exc.value) == f"{pivots}i=True, j=3, n=5"
    for bad in ((True, 2), (2, 1.0)):
        with pytest.raises(DomainError) as exc:
            cycles_from_one_line(bad)
        assert str(exc.value) == f"not a one-line permutation: {bad}"
    assert check_word([3, 1]) == (3, 1) and cycles_from_one_line([2, 1]) == ((1, 2),)


def test_swap_letters():
    assert swap_letters((1, 5, 2, 4, 3), 2, 3) == (1, 5, 3, 4, 2)
    assert swap_letters((1, 2), 3, 4) == (1, 2)
    assert swap_letters((), 1, 2) == ()


def test_swap_letters_matches_the_comprehension():
    # seeded words holding both letters, one of them, neither, and a == b
    rng, seen = random.Random(7), set()
    for _ in range(3000):
        n = rng.randint(0, 12)
        w = tuple(rng.sample(range(1, 2 * n + 3), n))
        a, b = rng.randint(1, 2 * n + 2), rng.randint(1, 2 * n + 2)
        if rng.random() < 0.1:
            b = a
        got = swap_letters(w, a, b)
        assert type(got) is tuple and got == oracle_swap_letters(w, a, b), (w, a, b)
        seen.add("a == b" if a == b else (a in w) + (b in w))
    assert seen == {"a == b", 0, 1, 2}


def test_parse_and_format():
    assert parse_word("3 8 2 5 4 9 6 7 1") == (3, 8, 2, 5, 4, 9, 6, 7, 1)
    assert parse_word("3,8,2") == (3, 8, 2)
    assert format_word((3, 8, 2)) == "3 8 2"
    with pytest.raises(DomainError):
        parse_word("1 2 x")
    with pytest.raises(DomainError):
        parse_word("1 2 2")


@given(words)
def test_ascents_plus_descents(w):
    asc, des = ascent_descent(w)
    assert asc + des == max(len(w) - 1, 0)
    assert height(w) == asc - des


@given(words)
def test_reversal_negates_height(w):
    assert height(reversal(w)) == -height(w)
    assert reversal(reversal(w)) == w


@given(words)
def test_ballot_matches_prefix_scan(w):
    assert is_ballot(w) == all(height(w[:k]) >= 0 for k in range(1, len(w) + 1))


def test_reversal_on_ten_thousand_random_words():
    import random

    rng = random.Random(20260810)
    for _ in range(10_000):
        k = rng.randint(0, 12)
        w = tuple(rng.sample(range(1, 10_000), k))
        assert height(reversal(w)) == -height(w)
