"""Each public map validates and normalizes its input once; its core trusts it.

The cores (``toeplitz._move``, ``bijections._contract``,
``bijections._cycle_flip``) normalize their images without validating them
again, which is sound because every rewrite is a letter bijection (pinned
by the relabel and contraction table tests).  These tests pin the boundary:
the public entries agree with the cores on any spelling of a member, and
bad input still gets the same refusal from every public map.
"""

from itertools import permutations

import pytest

from permlab.bijections import _contract, _cycle_flip, contract, cycle_flip, exchange_letters, flank_swap
from permlab.enumeration import _ballot_stream, _odd_stream
from permlab.errors import DomainError
from permlab.toeplitz import _move, lower_core, shift, shift_inv, upper_core


def outcome(call):
    """The call's value, or the message of the DomainError it raised."""
    try:
        return "value", call()
    except DomainError as exc:
        return "refused", str(exc)


def scrambled(cycles):
    """The same permutation spelled differently: a list of the cycles in
    reverse order, each rotated by one letter."""
    return [c[1:] + c[:1] for c in reversed(cycles)]


class SameAsCore:
    """Asserts that a public call and its core call have the same outcome, and
    records the ops that mapped some input, so a test can tell that each op
    was exercised on its domain and not only refused."""

    def __init__(self):
        self.mapped = set()

    def __call__(self, op, public, core, where):
        got = outcome(public)
        assert got == outcome(core), (op, where)
        if got[0] == "value":
            self.mapped.add(op)


def test_public_maps_equal_their_cores_on_any_spelling_of_a_cycle_member():
    same = SameAsCore()
    for n in range(1, 7):
        for p, _, _ in _odd_stream(n):
            raw = scrambled(p)
            for i, j in permutations(range(1, n - 1), 2):
                same("shift", lambda: shift(raw, i, j, cyclic=True),
                     lambda: _move(p, i, j, True, False)[0], (p, i, j))
                same("shift_inv", lambda: shift_inv(raw, i, j, cyclic=True),
                     lambda: _move(p, i, j, True, True)[0], (p, i, j))
            for i in range(1, n + 2):
                for j in (i - 1, i + 1):
                    same("contract", lambda: contract(raw, i, j),
                         lambda: _contract(p, i, j, False, True), (p, i, j))
                    same("expand", lambda: contract(raw, i, j, inverse=True),
                         lambda: _contract(p, i, j, True, True), (p, i, j))
            same("cycle_flip", lambda: cycle_flip(raw), lambda: _cycle_flip(p), p)
    assert same.mapped == {"shift", "shift_inv", "contract", "expand", "cycle_flip"}


def test_public_maps_equal_their_cores_on_a_word_given_as_a_list():
    same = SameAsCore()
    for n in range(1, 7):
        for p, _, _ in _ballot_stream(n):
            for i, j in permutations(range(1, n - 1), 2):
                same("shift", lambda: shift(list(p), i, j), lambda: _move(p, i, j, False, False)[0], (p, i, j))
                same("shift_inv", lambda: shift_inv(list(p), i, j),
                     lambda: _move(p, i, j, False, True)[0], (p, i, j))
            for i in range(1, n + 2):
                for j in (i - 1, i + 1):
                    same("contract", lambda: contract(list(p), i, j),
                         lambda: _contract(p, i, j, False, False), (p, i, j))
                    same("expand", lambda: contract(list(p), i, j, inverse=True),
                         lambda: _contract(p, i, j, True, False), (p, i, j))
    assert same.mapped == {"shift", "shift_inv", "contract", "expand"}


BAD_CYCLES = {
    "overlap": ([(1, 6, 2), (2, 3, 4, 5)],
                "cycles must partition {1, ..., n}, got letters [1, 2, 2, 3, 4, 5, 6]"),
    "missing": ([(1, 6, 2), (3, 4, 7)], "cycles must partition {1, ..., n}, got letters [1, 2, 3, 4, 6, 7]"),
    "letters": (((1, 6, 2), 3, 4, 5), "not a cycle decomposition: ((1, 6, 2), 3, 4, 5)"),
    "word": ((1, 6, 2, 3, 4, 5), "not a cycle decomposition: (1, 6, 2, 3, 4, 5)"),
    "float": ([(1.0, 6, 2), (3, 4, 5)], "cycle letters must be integers, got letters [1.0, 6, 2, 3, 4, 5]"),
    "bool": ([(True, 6, 2), (3, 4, 5)], "cycle letters must be integers, got letters [True, 6, 2, 3, 4, 5]"),
}
CYCLE_MAPS = {
    "shift": lambda c: shift(c, 1, 2, cyclic=True),
    "shift_inv": lambda c: shift_inv(c, 1, 2, cyclic=True),
    "lower_core": lambda c: lower_core(c, 1, 2, cyclic=True),
    "upper_core": lambda c: upper_core(c, 1, 2, cyclic=True),
    "contract": lambda c: contract(c, 1, 2),
    "expand": lambda c: contract(c, 1, 2, inverse=True),
    "cycle_flip": cycle_flip,
}


# contract tells the two forms apart by the first item, so a plain word is a
# word to it, not a bad decomposition
@pytest.mark.parametrize("op, case", [
    (op, case) for op in CYCLE_MAPS for case in BAD_CYCLES
    if not (case == "word" and op in ("contract", "expand"))
])
def test_each_public_map_refuses_a_bad_decomposition_alike(op, case):
    # overlapping cycles, a missing letter (6 letters, largest 7), loose
    # letters after a cycle, a one-line word, and letters equal to an int
    # that are not ints
    bad, message = BAD_CYCLES[case]
    with pytest.raises(DomainError) as exc:
        CYCLE_MAPS[op](bad)
    assert str(exc.value) == message


LINE_MAPS = {
    "shift": lambda p: shift(p, 1, 2),
    "shift_inv": lambda p: shift_inv(p, 1, 2),
    "lower_core": lambda p: lower_core(p, 1, 2),
    "upper_core": lambda p: upper_core(p, 1, 2),
    "contract": lambda p: contract(p, 1, 2),
    "expand": lambda p: contract(p, 1, 2, inverse=True),
    "flank_swap": lambda p: flank_swap(p, 1, 3),
    "exchange_letters": lambda p: exchange_letters(p, 1, 3),
}


@pytest.mark.parametrize("op", LINE_MAPS)
@pytest.mark.parametrize("first", [1.0, True], ids=["float", "bool"])
def test_each_public_map_refuses_a_word_whose_letters_are_not_ints(op, first):
    # 1 5 2 3 4 is ballot and holds 1 5 2, so only the letter 1 is at fault
    word = (first, 5, 2, 3, 4)
    with pytest.raises(DomainError) as exc:
        LINE_MAPS[op](word)
    assert str(exc.value) == f"not a one-line permutation of [5]: {word}"
