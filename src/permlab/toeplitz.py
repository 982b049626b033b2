"""Diagonal shift maps between neighbor cells of the count matrices.

For letters i != j in [n-2], with m = min(i, j) and M = max(i, j), the shift
sends a permutation whose largest letter n has neighbors (i, j) to one with
neighbors (i+1, j+1), preserving the descent number (one-line form) or every
cycle's length and cyclic descent number (cycle form).  It works in two
steps:

* core replacement: locate the widest run of "discretely continuous" letters
  anchored next to n (the core), and rewrite it by the mirrored run on the
  other side of the interval [m, M+1];
* straightening: relabel the interval letters displaced by the rewrite in
  the order-preserving way.

Both steps together amount to one letter bijection, so the cycle structure
is carried along for free.  The inverse shift plays the same game from the
(i+1, j+1) side with the roles of the interval's ends exchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import (
    canonicalize_cycles,
    cycle_containing,
    decomposition_size,
    is_odd_order,
)
from .errors import DomainError
from .words import (
    Word,
    adjacent_in,
    check_permutation,
    find_cyclic_factor,
    find_factor,
    is_ballot,
)


def _run_up(m: int, M: int, length: int) -> Word:
    """Ascending run m, m+1, ... of the given length, writing M+1 in place of M."""
    return tuple(M + 1 if x == M else x for x in range(m, m + length))


def _run_down(m: int, M: int, length: int) -> Word:
    """Descending run M+1, M, ... of the given length, writing m in place of m+1."""
    return tuple(m if x == m + 1 else x for x in range(M + 1, M + 1 - length, -1))


@dataclass(frozen=True)
class CoreData:
    """Width and core of one permutation at one neighbor cell.

    ``core`` is a factor of the host (cyclic for decompositions) of length
    ``width + 2`` containing the largest letter; ``position`` is its 1-based
    start index, or (cycle index, offset) for the cyclic form.  ``m`` and
    ``M`` are min(i, j) and max(i, j).
    """

    m: int
    M: int
    width: int
    core: Word
    position: int | tuple[int, int]


def _occurs(host: Word, word: Word, cyclic: bool) -> bool:
    find = find_cyclic_factor if cyclic else find_factor
    return find(host, word) is not None or find(host, word[::-1]) is not None


def _max_width(host: Word, m: int, M: int, run, adjacency: tuple[int, int], cyclic: bool) -> int:
    """Largest length whose run (or its reversal) occurs in the host, or 0 when
    the adjacency pair sits together."""
    if adjacent_in(host, adjacency[0], adjacency[1], cyclic):
        return 0
    width = 0
    for length in range(1, M - m + 2):
        if _occurs(host, run(m, M, length), cyclic):
            width = length
        else:
            break
    return width


def _validate_letters(n: int, i: int, j: int) -> None:
    if i == j or not (1 <= i <= n - 2 and 1 <= j <= n - 2):
        raise DomainError(f"shift letters must satisfy 1 <= i != j <= n-2 = {n - 2}, got ({i}, {j})")


def _host(p, cyclic: bool):
    """(normalized input, host word, n, cycle index of host) where the host is
    the whole word, or the cycle containing n for decompositions."""
    if cyclic:
        cycles = canonicalize_cycles(p)
        n = decomposition_size(cycles)
        k, c = cycle_containing(cycles, n)
        return cycles, c, n, k
    word = check_permutation(p)
    return word, word, len(word), None


def _core_data(p, i: int, j: int, cyclic: bool, upper: bool) -> CoreData:
    normalized, host, n, k = _host(p, cyclic)
    _validate_letters(n, i, j)
    m, M = min(i, j), max(i, j)
    left, right = (i + 1, j + 1) if upper else (i, j)
    factor = (left, n, right)
    find = find_cyclic_factor if cyclic else find_factor
    if find(host, factor) is None:
        kind = "cyclic factor" if cyclic else "factor"
        raise DomainError(f"input does not contain the {kind} {left} {n} {right}")
    if upper:
        width = _max_width(host, m, M, _run_down, (m, m + 1), cyclic)
        core = (left, n) + _run_down(m, M, width) if i < j else _run_down(m, M, width)[::-1] + (n, right)
    else:
        width = _max_width(host, m, M, _run_up, (M, M + 1), cyclic)
        core = _run_up(m, M, width)[::-1] + (n, right) if i < j else (left, n) + _run_up(m, M, width)
    start = find(host, core)
    if start is None:
        raise DomainError(f"widest run is not anchored at the largest letter in {host}")
    return CoreData(
        m=m,
        M=M,
        width=width,
        core=core,
        position=start if not cyclic else (k + 1, start),
    )


def lower_core(p, i: int, j: int, *, cyclic: bool = False) -> CoreData:
    """Core anchored at the lower end of [m, M+1], for inputs with neighbor cell (i, j)."""
    return _core_data(p, i, j, cyclic, upper=False)


def upper_core(s, i: int, j: int, *, cyclic: bool = False) -> CoreData:
    """Core anchored at the upper end of [m, M+1], for inputs with neighbor cell (i+1, j+1)."""
    return _core_data(s, i, j, cyclic, upper=True)


def _letter_map(core: Word, new_core: Word, m: int, M: int) -> dict[int, int]:
    interval = set(range(m, M + 2))
    mapping = dict(zip(core, new_core))
    old_left = sorted(interval - set(core))
    new_left = sorted(interval - set(new_core))
    mapping.update(zip(old_left, new_left))
    return mapping


def _apply(normalized, mapping: dict[int, int], cyclic: bool):
    if cyclic:
        return canonicalize_cycles([tuple(mapping.get(x, x) for x in c) for c in normalized])
    return tuple(mapping.get(x, x) for x in normalized)


def _check_membership(normalized, cyclic: bool) -> None:
    if cyclic:
        if not is_odd_order(normalized):
            raise DomainError("cyclic shift needs an odd order permutation")
    elif not is_ballot(normalized):
        raise DomainError("linear shift needs a ballot permutation")


def shift(p, i: int, j: int, *, cyclic: bool = False):
    """Move a permutation from neighbor cell (i, j) to (i+1, j+1).

    The input must be ballot (cyclic=False) or of odd order (cyclic=True) and
    contain the (cyclic) factor i n j with 1 <= i != j <= n-2.  The statistic
    (descent number, or cyclic weight and all cycle lengths) is preserved.
    """
    normalized, _, n, _ = _host(p, cyclic)
    _check_membership(normalized, cyclic)
    cd = lower_core(normalized, i, j, cyclic=cyclic)
    m, M, w = cd.m, cd.M, cd.width
    new_core = (i + 1, n) + _run_down(m, M, w) if i < j else _run_down(m, M, w)[::-1] + (n, j + 1)
    return _apply(normalized, _letter_map(cd.core, new_core, m, M), cyclic)


def shift_inv(s, i: int, j: int, *, cyclic: bool = False):
    """Inverse of :func:`shift`: move neighbor cell (i+1, j+1) back to (i, j)."""
    normalized, _, n, _ = _host(s, cyclic)
    _check_membership(normalized, cyclic)
    cd = upper_core(normalized, i, j, cyclic=cyclic)
    m, M, w = cd.m, cd.M, cd.width
    new_core = _run_up(m, M, w)[::-1] + (n, j) if i < j else (i, n) + _run_up(m, M, w)
    return _apply(normalized, _letter_map(cd.core, new_core, m, M), cyclic)
