from collections import Counter
from itertools import permutations

import pytest
from conftest import ballot_cell, odd_cell, oracle_cycle_mover

from permlab.cycles import cycle_stats, cycles_from_one_line, is_odd_order, parse_cycles, perm_weight
from permlab.enumeration import enumerate_ballot, enumerate_odd_order, member_index
from permlab.errors import DomainError
from permlab.toeplitz import _core_word, _move, _mover, _relabel, _run, lower_core, shift, shift_inv, upper_core
from permlab.words import descents, find_factor, is_ballot

PI_CYCLIC = parse_cycles("(1 6 8 2 10)(3 12 9 11 7 5 4)")
SIGMA_CYCLIC = parse_cycles("(1 3 6 2 7)(10 9 8 11 5 4 12)")


def shift_pairs(n):
    return [(i, j) for i in range(1, n - 1) for j in range(1, n - 1) if i != j]


def width_and_core(core):
    """(width, core): a core's width is its length minus 2."""
    return len(core) - 2, core


def test_lower_core_examples():
    core = lower_core((3, 8, 2, 5, 4, 9, 6, 7, 1), 4, 6)
    assert width_and_core(core) == (0, (9, 6))
    core = lower_core((1, 3, 4, 8, 7, 5, 9, 6, 2), 5, 6)
    assert width_and_core(core) == (2, (7, 5, 9, 6))
    core = lower_core(PI_CYCLIC, 3, 9, cyclic=True)
    assert width_and_core(core) == (3, (5, 4, 3, 12, 9))


def test_upper_core_examples():
    core = upper_core((1, 3, 4, 8, 6, 9, 7, 5, 2), 5, 6)
    assert width_and_core(core) == (2, (6, 9, 7, 5))
    # width 0: the core is the two-letter factor (i+1) n
    core = upper_core((3, 8, 2, 6, 4, 5, 9, 7, 1), 4, 6)
    assert width_and_core(core) == (0, (5, 9))
    core = upper_core(SIGMA_CYCLIC, 3, 9, cyclic=True)
    assert width_and_core(core) == (3, (4, 12, 10, 9, 8))


def test_core_invariants():
    for (m, M), core in (
        ((4, 6), lower_core((3, 8, 2, 5, 4, 9, 6, 7, 1), 4, 6)),
        ((5, 6), lower_core((1, 3, 4, 8, 7, 5, 9, 6, 2), 5, 6)),
        ((5, 6), upper_core((1, 3, 4, 8, 6, 9, 7, 5, 2), 5, 6)),
        ((3, 9), lower_core(PI_CYCLIC, 3, 9, cyclic=True)),
    ):
        assert 0 <= len(core) - 2 <= M - m + 1
        assert max(core) > M + 1  # the largest letter sits inside the core


def test_shift_printed_examples():
    assert shift((3, 8, 2, 5, 4, 9, 6, 7, 1), 4, 6) == (3, 8, 2, 6, 4, 5, 9, 7, 1)
    assert shift((1, 3, 4, 8, 7, 5, 9, 6, 2), 5, 6) == (1, 3, 4, 8, 6, 9, 7, 5, 2)
    assert shift(PI_CYCLIC, 3, 9, cyclic=True) == SIGMA_CYCLIC


def test_shift_inv_printed_examples():
    assert shift_inv((3, 8, 2, 6, 4, 5, 9, 7, 1), 4, 6) == (3, 8, 2, 5, 4, 9, 6, 7, 1)
    assert shift_inv((1, 3, 4, 8, 6, 9, 7, 5, 2), 5, 6) == (1, 3, 4, 8, 7, 5, 9, 6, 2)
    assert shift_inv(SIGMA_CYCLIC, 3, 9, cyclic=True) == PI_CYCLIC


def test_width_equality_on_examples():
    for p, (i, j) in (
        ((3, 8, 2, 5, 4, 9, 6, 7, 1), (4, 6)),
        ((1, 3, 4, 8, 7, 5, 9, 6, 2), (5, 6)),
    ):
        q = shift(p, i, j)
        assert len(lower_core(p, i, j)) == len(upper_core(q, i, j))
    assert len(lower_core(PI_CYCLIC, 3, 9, cyclic=True)) == \
        len(upper_core(SIGMA_CYCLIC, 3, 9, cyclic=True))


def test_linear_shift_exhaustive_small():
    for n in (5, 6):
        idx = member_index("ballot", n)
        for d in range((n - 1) // 2 + 1):
            for i, j in shift_pairs(n):
                domain = idx.cell(d, i, j)
                image = []
                for p in domain:
                    q = shift(p, i, j)
                    assert is_ballot(q)
                    assert descents(q) == d
                    assert shift_inv(q, i, j) == p
                    image.append(q)
                assert sorted(image) == sorted(idx.cell(d, i + 1, j + 1))


def test_cyclic_shift_exhaustive_small():
    for n in (5, 6, 7):
        idx = member_index("odd", n)
        for d in range((n - 1) // 2 + 1):
            for i, j in shift_pairs(n):
                domain = idx.cell(d, i, j)
                image = []
                for p in domain:
                    q = shift(p, i, j, cyclic=True)
                    assert perm_weight(q) == d
                    assert sorted((len(c), cycle_stats(c)[0]) for c in q) == \
                        sorted((len(c), cycle_stats(c)[0]) for c in p)
                    assert shift_inv(q, i, j, cyclic=True) == p
                    image.append(q)
                assert sorted(image) == sorted(idx.cell(d, i + 1, j + 1))


def test_shift_fixes_letters_outside_interval():
    p = (3, 8, 2, 5, 4, 9, 6, 7, 1)
    q = shift(p, 4, 6)
    fixed = set(range(1, 4)) | set(range(8, 9))  # [m-1] and [M+2, n-1]
    for t, letter in enumerate(p):
        if letter in fixed:
            assert q[t] == letter


def test_cyclic_width_bounds_when_core_is_whole_cycle():
    for n in (6, 7):
        idx = member_index("odd", n)
        for d in range((n - 1) // 2 + 1):
            for i, j in shift_pairs(n):
                for p in idx.cell(d, i, j):
                    core = lower_core(p, i, j, cyclic=True)
                    cycle = next(c for c in p if max(c) == n)
                    if len(core) == len(cycle):
                        assert 1 <= len(core) - 2 <= max(i, j) - min(i, j)


def test_shift_domain_errors():
    with pytest.raises(DomainError):
        shift((3, 8, 2, 5, 4, 9, 6, 7, 1), 4, 5)  # factor absent
    with pytest.raises(DomainError):
        shift((3, 8, 2, 5, 4, 9, 6, 7, 1), 4, 8)  # j > n-2
    with pytest.raises(DomainError):
        shift((3, 8, 2, 5, 4, 9, 6, 7, 1), 6, 6)  # i == j
    with pytest.raises(DomainError):
        shift((2, 1, 4, 5, 3), 1, 3)  # not ballot
    with pytest.raises(DomainError):
        lower_core((1, 2, 3, 4), 1, 2)  # factor absent
    with pytest.raises(DomainError):
        shift(((1, 2), (3, 6, 4, 5)), 3, 4, cyclic=True)  # even cycles inside
    # the inverse side, with exact messages
    letters = "shift letters must be ints with 1 <= i != j <= n-2 = 7, got "
    for call, message in (
        (lambda: shift_inv((3, 8, 2, 5, 4, 9, 6, 7, 1), 4, 6), "input does not contain the factor 5 9 7"),
        (lambda: shift_inv((3, 8, 2, 6, 4, 5, 9, 7, 1), 6, 6), letters + "(6, 6)"),
        (lambda: shift_inv((3, 8, 2, 6, 4, 5, 9, 7, 1), 4, 8), letters + "(4, 8)"),
        (lambda: shift_inv((2, 1, 4, 5, 3), 1, 3), "linear shift needs a ballot permutation"),
        (lambda: shift_inv(((1, 2), (3, 6, 4, 5)), 3, 4, cyclic=True),
         "cyclic shift needs an odd order permutation"),
        (lambda: upper_core((1, 2, 3, 4), 1, 2), "input does not contain the factor 2 4 3"),
    ):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message


@pytest.mark.parametrize("op, upper", [(shift, False), (shift_inv, True)], ids=["shift", "shift_inv"])
@pytest.mark.parametrize("cyclic, outside, outside_with_factor, inside", [
    (False, (2, 1, 3, 4), {False: (3, 1, 4, 2), True: (2, 4, 3, 1)}, (1, 2, 3, 4)),
    (True, ((1, 2), (3, 4)), {False: ((1, 4, 2, 3),), True: ((1, 2, 4, 3),)}, ((1,), (2,), (3,), (4,))),
], ids=["linear", "cyclic"])
def test_shift_refuses_the_domain_then_the_letters_then_the_factor(
        op, upper, cyclic, outside, outside_with_factor, inside):
    # n = 4 throughout, so the letters (1, 5) are out of range and (1, 2) are
    # fine; only the first rule that an input breaks is named
    def refusal(p, i, j):
        with pytest.raises(DomainError) as exc:
            op(p, i, j, cyclic=cyclic)
        return str(exc.value)

    domain = "cyclic shift needs an odd order permutation" if cyclic else "linear shift needs a ballot permutation"
    letters = "shift letters must be ints with 1 <= i != j <= n-2 = 2, got (1, 5)"
    left, right = (2, 3) if upper else (1, 2)
    factor = f"input does not contain the {'cyclic factor' if cyclic else 'factor'} {left} 4 {right}"
    assert refusal(outside, 1, 5) == domain  # all three broken
    assert refusal(outside, 1, 2) == domain  # domain and factor broken
    assert refusal(outside_with_factor[upper], 1, 2) == domain  # only the domain broken
    # the core readers check no domain, and find that input's core
    assert (upper_core if upper else lower_core)(outside_with_factor[upper], 1, 2, cyclic=cyclic)
    assert refusal(inside, 1, 5) == letters  # letters and factor broken
    assert refusal(inside, 1, 2) == factor


def occurs(host, needle, cyclic):
    """Whether ``needle`` is a factor of ``host``, read around it when cyclic."""
    return len(needle) <= len(host) and find_factor(host + host if cyclic else host, needle) is not None


def adjacent(host, x, y, cyclic):
    return occurs(host, (x, y), cyclic) or occurs(host, (y, x), cyclic)


def scan_core(host, i, j, cyclic, upper):
    """(width, core) by the definition: try every run length in turn,
    searching the whole host for the run and its reversal."""
    width, core = scan_width(host, i, j, cyclic, upper)
    assert occurs(host, core, cyclic), (host, core)
    return width, core


def scan_width(host, i, j, cyclic, upper):
    """(width, core) as in scan_core, whether or not the core occurs."""
    n = max(host)
    m, M = min(i, j), max(i, j)
    left, right = (i + 1, j + 1) if upper else (i, j)
    width = 0
    if not adjacent(host, *((m, m + 1) if upper else (M, M + 1)), cyclic):
        for length in range(1, M - m + 2):
            run = _run(m, M, length, upper)
            if not occurs(host, run, cyclic) and not occurs(host, run[::-1], cyclic):
                break
            width = length
    run = _run(m, M, width, upper)
    return width, (left, n) + run if (i < j) == upper else run[::-1] + (n, right)


def test_core_search_matches_the_per_length_scan():
    # every member of both kinds for n <= 7, at its own cell for lower_core and
    # one cell down for upper_core, wherever the maps accept the letters
    seen = {"whole cycle": 0, "adjacent pair": 0, "calls": 0}
    for n in range(4, 8):
        for members, cyclic in ((enumerate_ballot(n), False), (enumerate_odd_order(n), True)):
            for p in members:
                _, nb = (odd_cell if cyclic else ballot_cell)(p)
                if nb is None:
                    continue
                host = next(c for c in p if n in c) if cyclic else p
                a, b = nb
                for core_fn, i, j, upper in ((lower_core, a, b, False), (upper_core, a - 1, b - 1, True)):
                    if i == 0 or j == 0 or max(i, j) > n - 2:
                        continue
                    got = core_fn(p, i, j, cyclic=cyclic)
                    width, core = scan_core(host, i, j, cyclic, upper)
                    assert width_and_core(got) == (width, core), (p, i, j, upper)
                    m, M = min(i, j), max(i, j)
                    seen["calls"] += 1
                    seen["whole cycle"] += cyclic and len(core) == len(host)
                    seen["adjacent pair"] += adjacent(host, *((m, m + 1) if upper else (M, M + 1)), cyclic)
    assert min(seen.values()) > 0, seen


def scan_outcome(host, i, j, cyclic, upper):
    """(width, core) by the per-length scan, or the DomainError message of the
    first precondition that fails: bad letters, absent factor, unanchored run."""
    n = max(host)
    if i == j or not (1 <= i <= n - 2 and 1 <= j <= n - 2):
        return f"shift letters must be ints with 1 <= i != j <= n-2 = {n - 2}, got ({i}, {j})"
    left, right = (i + 1, j + 1) if upper else (i, j)
    if not occurs(host, (left, n, right), cyclic):
        return f"input does not contain the {'cyclic factor' if cyclic else 'factor'} {left} {n} {right}"
    width, core = scan_width(host, i, j, cyclic, upper)
    # The core search in src has no such guard: it reads the run outward from
    # n.  Any input reaching this branch would fail the test below, so the
    # branch is what shows that reading outward is enough.
    if not occurs(host, core, cyclic):
        return f"widest run is not anchored at the largest letter in {host}"
    return width, core


def test_core_search_matches_the_scan_on_every_input():
    # every permutation of [n] for n <= 6, in one-line and cycle form, at every
    # i, j in [0, n-1]: each call equals the scan or raises its precondition.
    # The scan's unanchored-run branch is never reached: once i n j is a
    # factor, the run can only grow away from n.
    seen = Counter()  # by outcome: a core, or the first word of the message
    for n in range(1, 7):
        for line in permutations(range(1, n + 1)):
            cycles = cycles_from_one_line(line)
            for p, host, cyclic in ((line, line, False), (cycles, next(c for c in cycles if n in c), True)):
                for i in range(n):
                    for j in range(n):
                        for core_fn, upper in ((lower_core, False), (upper_core, True)):
                            expected = scan_outcome(host, i, j, cyclic, upper)
                            try:
                                core = core_fn(p, i, j, cyclic=cyclic)
                            except DomainError as exc:
                                assert str(exc) == expected, (p, i, j, upper)
                                seen[str(exc).split()[0]] += 1
                            else:
                                assert width_and_core(core) == expected, (p, i, j, upper)
                                seen["core"] += 1
    assert set(seen) == {"shift", "input", "core"}, seen


def test_relabel_tables_are_the_order_preserving_rewrite():
    # the parent formula: the core's letters map in place onto the other core,
    # and the rest of [m, M+1] maps onto the rest in increasing order.  Every
    # width at every (n, i, j) up to n = 9 is a letter bijection fixing 0, a
    # superset of the keys the shift reads, so the shift's image of a
    # partition is one and needs normalizing only.
    for n in range(4, 10):
        for i, j in permutations(range(1, n - 1), 2):
            m, M = min(i, j), max(i, j)
            interval = set(range(m, M + 2))
            for width in range(M - m + 2):
                for upper in (False, True):
                    table = _relabel(n, i, j, width, upper)
                    assert sorted(table) == list(range(n + 1)) and table[0] == 0
                    core, new_core = (_core_word(n, i, j, width, end) for end in (upper, not upper))
                    mapping = dict(zip(core, new_core))
                    mapping.update(zip(sorted(interval - set(core)), sorted(interval - set(new_core))))
                    assert table[1:] == tuple(mapping.get(x, x) for x in range(1, n + 1))
                    # n trades places with a core letter; every other letter
                    # outside the interval is fixed
                    assert all(table[x] == x for x in range(1, n) if x not in interval)


def call_outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # any refusal must match in type and message
        return type(exc), str(exc)


def test_move_returns_the_image_and_the_width_it_read():
    # every permutation of [n] for n <= 6, in one-line and cycle form, at every
    # i, j in [0, n-1], both directions.  _move checks the letters and the
    # factor but not the domain: inside the domain it equals the public map,
    # with the width lower_core (upper_core) finds on the same input, and
    # refuses bad letters and a missing factor with the public map's message.
    # Outside it only the public map refuses for the domain, and _move
    # agrees with the core reader, which does not ask for the domain either.
    seen = Counter()
    for n in range(1, 7):
        for line in permutations(range(1, n + 1)):
            for p, cyclic in ((line, False), (cycles_from_one_line(line), True)):
                in_domain = is_odd_order(p) if cyclic else is_ballot(p)
                outside = "cyclic shift needs an odd order permutation" if cyclic \
                    else "linear shift needs a ballot permutation"
                for i in range(n):
                    for j in range(n):
                        for public, core_fn, upper in ((shift, lower_core, False),
                                                       (shift_inv, upper_core, True)):
                            expected = call_outcome(public, p, i, j, cyclic=cyclic)
                            core = call_outcome(core_fn, p, i, j, cyclic=cyclic)
                            got = call_outcome(_move, p, i, j, cyclic, upper)
                            where = (p, i, j, upper)
                            if not in_domain:
                                assert expected == (DomainError, outside), where
                                seen["outside"] += 1
                            if isinstance(core, tuple) and isinstance(core[0], type):
                                assert got == core, where
                                assert in_domain <= (got == expected), where
                                seen["refused", got[1].split()[0]] += 1
                            else:
                                assert got[1] == len(core) - 2, where
                                assert in_domain <= (got[0] == expected), where
                                seen["moved", cyclic, in_domain, got[1] > 0] += 1
    assert {("moved", c, d, w) for c in (False, True) for d in (False, True) for w in (False, True)} <= set(seen), seen
    assert {("refused", "shift"), ("refused", "input"), "outside"} <= set(seen), seen


def test_cycle_kernel_equals_the_relabel_every_cycle_kernel_on_every_odd_member(drained):
    # every odd order member of n = 4..8, at every key 1 <= i != j <= n-2, in
    # both directions: the kernel's (image, width), or its refusal, equals the
    # oracle kernel's, which relabels every cycle through tuple(map(...)).
    # T_roundtrip proves each cell's kernels a bijection onto the target
    # cell, not that they are T; this holds them to the kernel they replace.
    seen = Counter()
    for n in range(4, 9):
        members = [p for p, _, _ in drained("odd", n)]
        for i, j in shift_pairs(n):
            for upper in (False, True):
                move, oracle = _mover(n, i, j, True, upper), oracle_cycle_mover(n, i, j, upper)
                for p in members:
                    got = call_outcome(move, p)
                    assert got == call_outcome(oracle, p), (p, i, j, upper)
                    if isinstance(got[0], type):
                        seen["refused"] += 1
                    else:
                        seen["moved", got[1] > 0, min(map(len, p)) == 1] += 1
    assert {("moved", w, f) for w in (False, True) for f in (False, True)} <= set(seen), seen
    assert seen["refused"] > 0


@pytest.mark.parametrize("op", [shift, shift_inv, lower_core, upper_core])
def test_the_empty_decomposition_is_refused_for_its_missing_largest_letter(op):
    # an empty decomposition is of odd order and has n = 0, so the letter
    # rule would refuse any i, j; the probe for n = 0 speaks first
    with pytest.raises(DomainError) as exc:
        op((), 1, 2, cyclic=True)
    assert str(exc.value) == "letter 0 not present in ()"
