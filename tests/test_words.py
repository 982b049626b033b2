import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlab.errors import DomainError
from permlab.words import (
    ascent_descent,
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


def test_swap_letters():
    assert swap_letters((1, 5, 2, 4, 3), 2, 3) == (1, 5, 3, 4, 2)
    assert swap_letters((1, 2), 3, 4) == (1, 2)


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
