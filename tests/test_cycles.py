import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlab.cycles import (
    _normalize,
    canonicalize_cycles,
    cycle_stats,
    cycles_from_one_line,
    format_cycles,
    max_letter_neighbors,
    parse_cycles,
    perm_weight,
)
from permlab.bijections import cycle_flip
from permlab.errors import DomainError
from permlab.toeplitz import lower_core, shift

cycle_words = st.lists(st.integers(1, 100), min_size=1, max_size=9, unique=True).map(tuple)


def test_cycle_stats_examples():
    assert cycle_stats((1, 4, 3)) == (2, 1, 1)
    assert cycle_stats((5,)) == (0, 1, 0)
    assert cycle_stats((1, 4, 5)) == (1, 2, 1)
    with pytest.raises(DomainError, match="empty cycle"):
        cycle_stats(())


def test_cycle_stats_matches_the_definition_exhaustive():
    # every cycle of every permutation of [n] for n <= 7, in each rotation:
    # descents c[t] > c[t+1] read around the cycle with the wrap-around pair
    seen = set()
    for n in range(1, 8):
        for p in itertools.permutations(range(1, n + 1)):
            for c in cycles_from_one_line(p):
                for form in (c[r:] + c[:r] for r in range(len(c))):
                    k = len(form)
                    cdes = sum(1 for t in range(k) if form[t] > form[(t + 1) % k])
                    assert cycle_stats(form) == (cdes, k - cdes, min(cdes, k - cdes)), form
                    seen.add((k, cdes))
    assert {(1, 0), (2, 1), (7, 1), (7, 6)} <= seen


def test_perm_weight_examples():
    identity = tuple((x,) for x in range(1, 7))
    assert perm_weight(identity) == 0
    assert perm_weight(((1, 6, 8, 2, 10), (3, 12, 9, 11, 7, 5, 4))) == 4
    assert perm_weight(((1, 4, 3), (2,))) == 1


def test_canonicalize_examples():
    raw = [(6, 8, 2, 10, 1), (3, 12, 9, 11, 7, 5, 4)]
    assert canonicalize_cycles(raw) == ((1, 6, 8, 2, 10), (3, 12, 9, 11, 7, 5, 4))
    already = ((1, 4, 5), (2,), (3,))
    assert canonicalize_cycles(already) == already


def test_canonicalize_rejects_bad_partitions():
    with pytest.raises(DomainError):
        canonicalize_cycles([(1, 2), (2, 3)])
    with pytest.raises(DomainError):
        canonicalize_cycles([(1,), (3,)])
    with pytest.raises(DomainError):
        canonicalize_cycles([(1,), ()])


def test_canonicalize_refuses_letters_that_are_not_ints():
    # floats and bools equal to an int used to pass the partition test
    for raw, letters in (([(1.0, 3, 2)], "[1.0, 3, 2]"), ([(True, 2, 3)], "[True, 2, 3]"),
                         ([(1, 3), (2.5,)], "[1, 3, 2.5]"), ([(1,), ("2",)], "[1, '2']")):
        with pytest.raises(DomainError) as exc:
            canonicalize_cycles(raw)
        assert str(exc.value) == f"cycle letters must be integers, got letters {letters}"
    assert canonicalize_cycles([[3, 1, 2]]) == ((1, 2, 3),)


def test_a_word_given_for_cycles_is_a_domain_error():
    # a one-line word where a decomposition is expected: its letters are not cycles
    for call, word in (
        (lambda: canonicalize_cycles((1, 2, 3)), (1, 2, 3)),
        (lambda: shift((1, 2, 3, 4), 1, 2, cyclic=True), (1, 2, 3, 4)),
        (lambda: lower_core((3, 1, 4, 2), 1, 2, cyclic=True), (3, 1, 4, 2)),
        (lambda: cycle_flip((1, 4, 2, 3)), (1, 4, 2, 3)),
    ):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == f"not a cycle decomposition: {word}"


def test_one_line_round_trip():
    assert cycles_from_one_line((2, 3, 1, 4)) == ((1, 2, 3), (4,))
    for p in itertools.permutations(range(1, 6)):
        cycles = cycles_from_one_line(p)
        assert sorted(x for c in cycles for x in c) == [1, 2, 3, 4, 5]
        for c in cycles:
            assert all(p[c[t] - 1] == c[(t + 1) % len(c)] for t in range(len(c)))


def test_max_letter_neighbors():
    assert max_letter_neighbors(((1, 4, 3), (2,))) == (1, 3)
    assert max_letter_neighbors(((1,), (2,), (3,))) is None
    assert max_letter_neighbors(((1, 2, 5, 3, 4),)) == (2, 3)


def test_parse_and_format_cycles():
    text = "(1 6 8 2 10)(3 12 9 11 7 5 4)"
    assert format_cycles(parse_cycles(text)) == text
    assert parse_cycles("(3,12,9,11,7,5,4)(6 8 2 10 1)") == parse_cycles(text.replace(" ", ","))
    with pytest.raises(DomainError):
        parse_cycles("1 2 3")
    with pytest.raises(DomainError):
        parse_cycles("(1 2)(3")
    with pytest.raises(DomainError, match=r"cannot parse cycle \(1 x\)"):
        parse_cycles("(1 x)")


@given(cycle_words, st.integers(0, 8))
def test_canonicalize_is_rotation_invariant(c, r):
    k = r % len(c)
    rotated = c[k:] + c[:k]
    assert _normalize([rotated]) == _normalize([c])
    assert _normalize([c])[0][0] == min(c)


def test_canonicalize_idempotent(small_odd):
    for cycles in small_odd[6]:
        assert canonicalize_cycles(cycles) == cycles


@given(cycle_words)
def test_cycle_reversal_exchanges_descents_and_ascents(c):
    cdes, casc, w = cycle_stats(c)
    rdes, rasc, rw = cycle_stats(tuple(reversed(c)))
    if len(c) >= 2:
        assert (rdes, rasc) == (casc, cdes)
    assert rw == w


def test_weight_invariant_under_reversal_exhaustive():
    # all cycles of length <= 9, up to order isomorphism
    for k in range(1, 10):
        for rest in itertools.permutations(range(2, k + 1)):
            c = (1,) + rest
            assert cycle_stats(tuple(reversed(c)))[2] == cycle_stats(c)[2]

