"""Diagonal shift maps between neighbor cells of the count matrices.

For letters i != j in [n-2], with m = min(i, j) and M = max(i, j), the shift
sends a permutation whose largest letter n has neighbors (i, j) to one with
neighbors (i+1, j+1), preserving the descent number (one-line form) or every
cycle's length and cyclic descent number (cycle form).

One routine serves both directions.  It finds the core at one end of the
interval [m, M+1]: the widest run of "discretely continuous" letters anchored
next to n.  The search is index arithmetic on the host (around the cycle for
decompositions), all read at fixed offsets from the position of n: the
factor i n j, the adjacent pair test, and one walk outward from n on the
core's side that counts how many letters of the full run follow in order.
Once i n j is a factor, the run's first letter is n's neighbor on that side,
so the run can only grow away from n and the walk finds its whole width.
The routine then writes the core of the same width at the other end and
relabels the interval letters displaced by the rewrite in the
order-preserving way.  That relabeling depends only on (n, i, j, width, end),
so it is built once per key as a table from letter to image.  The shift
reads the core at the lower end (neighbors i, j) and writes it at the upper
end (neighbors i+1, j+1); its inverse reads and writes the other way round.
The two cores are mirror images under x -> m + M + 1 - x, and the whole
rewrite is one letter bijection, so the cycle structure is carried along for
free.  The routine returns the image together with the width of the core it
read, so a check of the width invariant needs no second core search.
"""

from __future__ import annotations

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


def _host(p, cyclic: bool):
    """(normalized input, host word) where the host is the whole word, or the
    cycle containing n for decompositions."""
    if cyclic:
        cycles = canonicalize_cycles(p)
        return cycles, cycle_containing(cycles, decomposition_size(cycles))[1]
    word = check_permutation(p)
    return word, word


def _find_core(host: Word, i: int, j: int, cyclic: bool, upper: bool) -> int:
    """The width of the core at the lower (upper=False) or upper end of [m, M+1] in the host."""
    n = max(host)
    if i == j or not (1 <= i <= n - 2 and 1 <= j <= n - 2):
        raise DomainError(f"shift letters must satisfy 1 <= i != j <= n-2 = {n - 2}, got ({i}, {j})")
    m, M = min(i, j), max(i, j)
    left, right = (i + 1, j + 1) if upper else (i, j)
    # Letters are distinct, so a factor occurs exactly when its letters sit at
    # consecutive positions.  The factor and the core both hold n, so both are
    # read at fixed offsets from n's position t in a ring: the cycle written
    # twice, or the word padded with a letter 0 that matches nothing.
    t = host.index(n)
    if cyclic:
        ring = host + host
    else:
        ring, t = (0,) + host + (0,), t + 1
    if ring[t - 1] != left or ring[t + 1] != right:
        kind = "cyclic factor" if cyclic else "factor"
        raise DomainError(f"input does not contain the {kind} {left} {n} {right}")
    # The run's first letter is n's neighbor on the core's side, so the run
    # is read outward from n, one step at a time in the direction `step`.
    # M, M+1 (m, m+1 at the upper end) sit together exactly when the letter
    # beyond n's neighbor on the other side is M+1 (m); the width is then 0.
    step = 1 if (i < j) == upper else -1
    if ring[t - 2 * step] == (m if upper else M + 1):
        return 0
    # Otherwise the width is the longest prefix of the full run that follows n
    # in order.  The walk stays on the ring: it stops at the padding, or at
    # the latest where it comes round to n.
    width = 0
    for x in _run(m, M, M - m + 1, upper):
        if ring[t + step * (width + 1)] != x:
            break
        width += 1
    return width


def _core(p, i: int, j: int, cyclic: bool, upper: bool) -> Word:
    """The core at the lower (upper=False) or upper end of [m, M+1]: the factor
    of the host (cyclic for decompositions) that holds the largest letter."""
    host = _host(p, cyclic)[1]
    return _core_word(max(host), i, j, _find_core(host, i, j, cyclic, upper), upper)


def lower_core(p, i: int, j: int, *, cyclic: bool = False) -> Word:
    """Core anchored at the lower end of [m, M+1], for inputs with neighbor cell
    (i, j); the core's width is its length minus 2."""
    return _core(p, i, j, cyclic, upper=False)


def upper_core(s, i: int, j: int, *, cyclic: bool = False) -> Word:
    """Core anchored at the upper end of [m, M+1], for inputs with neighbor cell
    (i+1, j+1); the core's width is its length minus 2."""
    return _core(s, i, j, cyclic, upper=True)


@cache
def _relabel(n: int, i: int, j: int, width: int, upper: bool) -> Word:
    """Letter images, indexed by letter, of the rewrite that replaces the core at
    one end of [m, M+1] by the core of the same width at the other end and
    relabels the rest of the interval in order.  The core's letters are the
    interval's and n, which may change places with one of them; every other
    letter is fixed."""
    core, new_core = _core_word(n, i, j, width, upper), _core_word(n, i, j, width, not upper)
    interval = set(range(min(i, j), max(i, j) + 2))
    table = list(range(n + 1))
    for x, y in (*zip(core, new_core),
                 *zip(sorted(interval - set(core)), sorted(interval - set(new_core)))):
        table[x] = y
    return tuple(table)


def _move(p, i: int, j: int, cyclic: bool, upper: bool):
    """(image, width): rewrite the core at one end of [m, M+1] as the core of
    the same width at the other end, and return the width of the core read.

    The width is ``len(lower_core(p)) - 2`` for the shift (upper=False) and
    ``len(upper_core(p)) - 2`` for its inverse, so a caller that needs both
    the image and the width searches the core once.
    """
    normalized, host = _host(p, cyclic)
    if cyclic:
        if not is_odd_order(normalized):
            raise DomainError("cyclic shift needs an odd order permutation")
    elif not is_ballot(normalized):
        raise DomainError("linear shift needs a ballot permutation")
    width = _find_core(host, i, j, cyclic, upper)
    image = _relabel(max(host), i, j, width, upper).__getitem__
    if cyclic:
        return canonicalize_cycles([tuple(map(image, c)) for c in normalized]), width
    return tuple(map(image, normalized)), width


def shift(p, i: int, j: int, *, cyclic: bool = False):
    """Move a permutation from neighbor cell (i, j) to (i+1, j+1).

    The input must be ballot (cyclic=False) or of odd order (cyclic=True) and
    contain the (cyclic) factor i n j with 1 <= i != j <= n-2.  The statistic
    (descent number, or cyclic weight and all cycle lengths) is preserved.
    """
    return _move(p, i, j, cyclic, upper=False)[0]


def shift_inv(s, i: int, j: int, *, cyclic: bool = False):
    """Inverse of :func:`shift`: move neighbor cell (i+1, j+1) back to (i, j)."""
    return _move(s, i, j, cyclic, upper=True)[0]
