"""Every map keeps one contract: its public entry validates once, its core trusts its member.

A public entry checks the input's form, the map's domain and its letters,
once each, and normalizes the input.  The core that a check calls
(``toeplitz._move``, the ``bijections._contractor`` kernels,
``bijections._flank_swap``, ``bijections._cycle_flip``) trusts a canonical
member of its domain and checks only its factor; it normalizes its image
without validating it again, which is sound because every rewrite is a letter
bijection (pinned by the relabel and contraction table tests).  These tests
pin the boundary: on the core's domain a public entry agrees with its core on
any spelling of a member, elsewhere it agrees with itself on the canonical
spelling, and bad input still gets the same refusal from every public map.
Each core with per-key constants runs a kernel cached per key
(``toeplitz._mover``, ``bijections._contractor``); one key builds one
kernel, and a refused call builds none.
"""

from functools import partial
from itertools import permutations

import pytest
from conftest import outcome

from permlab.bijections import (
    _contractor, _cycle_flip, _flank_swap, contract, cycle_flip, exchange_letters, flank_swap, pivot_words,
)
from permlab.enumeration import _ballot_stream, _odd_stream
from permlab.errors import DomainError
from permlab.toeplitz import _move, _mover, lower_core, shift, shift_inv, upper_core


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


def same_contraction(same, raw, p, n, is_cycles):
    """``contract`` both ways at every adjacent (i, j) with letters up to n + 1: against
    its kernel where the letters lie in the kernel's range, else against itself on ``p``."""
    for i in range(1, n + 2):
        for j in (i - 1, i + 1):
            for op, inverse, size in (("contract", False, n), ("expand", True, n + 2)):
                public = partial(contract, raw, i, j, inverse)
                if 1 <= i <= size - 1 and 1 <= j <= size - 1:
                    same(op, public, partial(_contractor(size, i, j, inverse, is_cycles), p), (p, i, j))
                else:
                    same(op, public, partial(contract, p, i, j, inverse), (p, i, j))


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
            same_contraction(same, raw, p, n, True)
            # the flip's core trusts n >= 4, where every odd order member is in its domain
            same("cycle_flip", lambda: cycle_flip(raw), lambda: (_cycle_flip if n >= 4 else cycle_flip)(p), p)
    assert same.mapped == {"shift", "shift_inv", "contract", "expand", "cycle_flip"}


def test_public_maps_equal_their_cores_on_a_word_given_as_a_list():
    same = SameAsCore()
    for n in range(1, 7):
        for p, _, _ in _ballot_stream(n):
            for i, j in permutations(range(1, n - 1), 2):
                same("shift", lambda: shift(list(p), i, j), lambda: _move(p, i, j, False, False)[0], (p, i, j))
                same("shift_inv", lambda: shift_inv(list(p), i, j),
                     lambda: _move(p, i, j, False, True)[0], (p, i, j))
            same_contraction(same, list(p), p, n, False)
            # every ballot member is in the flank swap's domain, for pivot letters i + 2 <= j <= n - 1
            for i in range(1, n - 2):
                for j in range(i + 2, n):
                    forward, backward = pivot_words(i, j, n)
                    same("flank_swap", lambda: flank_swap(list(p), i, j), lambda: _flank_swap(p, forward, backward),
                         (p, i, j))
                    same("flank_swap_back", lambda: flank_swap(list(p), i, j, "backward"),
                         lambda: _flank_swap(p, backward, forward), (p, i, j))
    assert same.mapped == {"shift", "shift_inv", "contract", "expand", "flank_swap", "flank_swap_back"}


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


def _kernel_caches():
    return _mover.cache_info(), _contractor.cache_info()


def test_one_key_builds_one_kernel():
    # the single-call path: calls on members of one key read one cached
    # kernel, and lower_core reads the shift's
    _mover.cache_clear()
    _contractor.cache_clear()
    first, second = (1, 5, 2, 3, 4), (1, 5, 2, 4, 3)  # ballot, 5 flanked by (1, 2)
    for p in (first, second):
        shift(p, 1, 2)
    lower_core(first, 1, 2)
    for p in (first, second):
        contract(p, 1, 2)
    mover, contractor = _kernel_caches()
    assert (mover.misses, mover.hits, contractor.misses, contractor.hits) == (1, 2, 1, 1)


# Calls refused before any kernel is built, as (map, input, i, j, cyclic or inverse)
WORD, CYCLES, SMALL = (1, 5, 2, 3, 4), ((1, 5, 2), (3,), (4,)), (1, 2, 3)
REFUSED = [
    # shift letters out of range, equal, bool or float
    *((fn, p, i, j, cyclic) for fn in (shift, shift_inv, lower_core) for p, cyclic in ((WORD, False), (CYCLES, True))
      for i, j in ((0, 2), (1, 1), (1, 4), (4, 1), (-1, 2), (True, 2), (1, False), (1.0, 2))),
    # outside the shift's domain: not ballot, not of odd order
    (shift, (2, 1, 5, 3, 4), 1, 2, False),
    (shift, ((1, 5, 2, 3), (4,)), 1, 2, True),
    # the wrong form: a repeated letter, overlapping cycles, a word given as cycles
    *((fn, p, 1, 2, cyclic) for fn in (shift, shift_inv, lower_core)
      for p, cyclic in (((1, 1, 2, 3, 4), False), (((1, 5, 2), (2, 3, 4)), True), ((1, 5, 2, 3, 4), True))),
    # contraction letters at n or 0, where no factor i n j can hold them,
    # not adjacent, or bool, both ways; then inputs of the wrong form
    *((contract, p, i, j, False) for p in (WORD, CYCLES) for i, j in ((4, 5), (5, 4), (0, 1), (1, 3), (True, 2))),
    *((contract, SMALL, i, j, True) for i, j in ((4, 5), (5, 4), (0, 1), (1, 3), (True, 2))),
    *((contract, p, 1, 2, inverse) for p in ((1, 1, 2), ((1, 5, 2), (2, 3, 4)), (1.0, 2, 3)) for inverse in (False, True)),
]


def test_a_refused_call_builds_no_kernel():
    before = _kernel_caches()
    for fn, p, i, j, flag in REFUSED:
        with pytest.raises(DomainError):
            fn(p, i, j, cyclic=flag) if fn is not contract else fn(p, i, j, inverse=flag)
        assert _kernel_caches() == before, (fn.__name__, p, i, j, flag)
