"""Diagonal shift maps between neighbor cells of the count matrices.

For letters i != j in [n-2], with m = min(i, j) and M = max(i, j), the shift
sends a permutation whose largest letter n has neighbors (i, j) to one with
neighbors (i+1, j+1), preserving the descent number (one-line form) or every
cycle's length and cyclic descent number (cycle form).

One routine serves both directions.  It finds the core at one end of the
interval [m, M+1]: the widest run of "discretely continuous" letters anchored
next to n.  The search walks positions: one map from letter to index in the
host, and the factor i n j, the run's width and the core's start are each
read by stepping from one position (around the cycle for decompositions),
never by scanning the host for each candidate length.  It then writes the
core of the same width at the other end and relabels the interval letters
displaced by the rewrite in the order-preserving way.  The shift reads the
core at the lower end (neighbors i, j) and writes it at the upper end
(neighbors i+1, j+1); its inverse reads and writes the other way round.
The two cores are mirror images under x -> m + M + 1 - x, and the whole
rewrite is one letter bijection, so the cycle structure is carried along for
free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .cycles import (
    canonicalize_cycles,
    cycle_containing,
    decomposition_size,
    is_odd_order,
)
from .errors import DomainError
from .words import Word, check_permutation, is_ballot


@cache
def _run(m: int, M: int, length: int, upper: bool) -> Word:
    """Run of the given length at one end of [m, M+1]: m, m+1, ... writing M+1
    in place of M at the lower end, or its mirror image M+1, M, ... writing m
    in place of m+1 at the upper end."""
    if upper:
        return tuple(m if x == m + 1 else x for x in range(M + 1, M + 1 - length, -1))
    return tuple(M + 1 if x == M else x for x in range(m, m + length))


@cache
def _core_word(n: int, i: int, j: int, width: int, upper: bool) -> Word:
    """The core of the given width next to n, at neighbors (i, j) on the lower
    end or (i+1, j+1) on the upper end."""
    left, right = (i + 1, j + 1) if upper else (i, j)
    run = _run(min(i, j), max(i, j), width, upper)
    return (left, n) + run if (i < j) == upper else run[::-1] + (n, right)


@dataclass(frozen=True)
class CoreData:
    """Width and core of one permutation at one neighbor cell.

    ``core`` is a factor of the host (cyclic for decompositions) of length
    ``width + 2`` containing the largest letter.  ``m`` and ``M`` are
    min(i, j) and max(i, j).
    """

    m: int
    M: int
    width: int
    core: Word


def _host(p, cyclic: bool):
    """(normalized input, host word) where the host is the whole word, or the
    cycle containing n for decompositions."""
    if cyclic:
        cycles = canonicalize_cycles(p)
        return cycles, cycle_containing(cycles, decomposition_size(cycles))[1]
    word = check_permutation(p)
    return word, word


def _walk(pos: dict[int, int], letters: Word, step: int, wrap: int | None) -> int:
    """How many leading ``letters`` sit at consecutive positions of the host,
    read from the first one in the direction of ``step`` (+1 or -1); positions
    are taken modulo ``wrap`` on a cycle.  0 when the first letter is absent."""
    t = pos.get(letters[0])
    if t is None:
        return 0
    count = 1
    for x in letters[1:]:
        t += step
        if wrap:
            t %= wrap
        if pos.get(x) != t:
            break
        count += 1
    return count


def _find_core(host: Word, i: int, j: int, cyclic: bool, upper: bool) -> CoreData:
    """The core at the lower (upper=False) or upper end of [m, M+1] in the host."""
    n = max(host)
    if i == j or not (1 <= i <= n - 2 and 1 <= j <= n - 2):
        raise DomainError(f"shift letters must satisfy 1 <= i != j <= n-2 = {n - 2}, got ({i}, {j})")
    m, M = min(i, j), max(i, j)
    left, right = (i + 1, j + 1) if upper else (i, j)
    # Letters are distinct, so a factor occurs exactly when its letters sit at
    # consecutive positions; every test below is a walk over one position map.
    pos = {x: t for t, x in enumerate(host)}
    wrap = len(host) if cyclic else None
    if _walk(pos, (left, n, right), 1, wrap) < 3:
        kind = "cyclic factor" if cyclic else "factor"
        raise DomainError(f"input does not contain the {kind} {left} {n} {right}")
    # The width is the largest length whose run (or its reversal) occurs in the
    # host, or 0 when M, M+1 (m, m+1 at the upper end) sit together.  Runs of
    # every length are prefixes of the full run, so the width is the longest
    # prefix of it that sits at consecutive positions, forwards or backwards.
    pair = (m, m + 1) if upper else (M, M + 1)
    width = 0
    if max(_walk(pos, pair, 1, wrap), _walk(pos, pair, -1, wrap)) < 2:
        run = _run(m, M, M - m + 1, upper)
        width = max(_walk(pos, run, 1, wrap), _walk(pos, run, -1, wrap))
    core = _core_word(n, i, j, width, upper)
    if _walk(pos, core, 1, wrap) < len(core):
        raise DomainError(f"widest run is not anchored at the largest letter in {host}")
    return CoreData(m=m, M=M, width=width, core=core)


def lower_core(p, i: int, j: int, *, cyclic: bool = False) -> CoreData:
    """Core anchored at the lower end of [m, M+1], for inputs with neighbor cell (i, j)."""
    return _find_core(_host(p, cyclic)[1], i, j, cyclic, upper=False)


def upper_core(s, i: int, j: int, *, cyclic: bool = False) -> CoreData:
    """Core anchored at the upper end of [m, M+1], for inputs with neighbor cell (i+1, j+1)."""
    return _find_core(_host(s, cyclic)[1], i, j, cyclic, upper=True)


def _move(p, i: int, j: int, cyclic: bool, upper: bool):
    """Replace the core at one end of [m, M+1] by the core of the same width at
    the other end, relabeling the rest of the interval in order."""
    normalized, host = _host(p, cyclic)
    if cyclic:
        if not is_odd_order(normalized):
            raise DomainError("cyclic shift needs an odd order permutation")
    elif not is_ballot(normalized):
        raise DomainError("linear shift needs a ballot permutation")
    cd = _find_core(host, i, j, cyclic, upper)
    new_core = _core_word(max(host), i, j, cd.width, not upper)
    interval = set(range(cd.m, cd.M + 2))
    mapping = dict(zip(cd.core, new_core))
    mapping.update(zip(sorted(interval - set(cd.core)), sorted(interval - set(new_core))))
    if cyclic:
        return canonicalize_cycles([tuple(mapping.get(x, x) for x in c) for c in normalized])
    return tuple(mapping.get(x, x) for x in normalized)


def shift(p, i: int, j: int, *, cyclic: bool = False):
    """Move a permutation from neighbor cell (i, j) to (i+1, j+1).

    The input must be ballot (cyclic=False) or of odd order (cyclic=True) and
    contain the (cyclic) factor i n j with 1 <= i != j <= n-2.  The statistic
    (descent number, or cyclic weight and all cycle lengths) is preserved.
    """
    return _move(p, i, j, cyclic, upper=False)


def shift_inv(s, i: int, j: int, *, cyclic: bool = False):
    """Inverse of :func:`shift`: move neighbor cell (i+1, j+1) back to (i, j)."""
    return _move(s, i, j, cyclic, upper=True)
