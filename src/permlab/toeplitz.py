"""Diagonal shift maps between neighbor cells of the count matrices.

For letters i != j in [n-2], with m = min(i, j) and M = max(i, j), the shift
sends a permutation whose largest letter n has neighbors (i, j) to one with
neighbors (i+1, j+1), preserving the descent number (one-line form) or every
cycle's length and cyclic descent number (cycle form).

One kernel serves both directions.  ``_mover(n, i, j, cyclic, upper)`` is
cached per key, at most 4(n-2)(n-3) kernels per n, and binds everything
that depends only on its key once: m and M, the factor letters it expects,
the walk direction, the width-0 stop letter, the full run and the relabel
table of every core width.  It returns a function of one member, so
``verify`` builds every kernel and table ``T_roundtrip`` reads while it
makes the cells, and a forked worker inherits them all.

The kernel finds the core at one end of the interval [m, M+1]: the widest
run of "discretely continuous" letters anchored next to n.  Its search is
the only one: ``lower_core`` and ``upper_core`` read their width from the
same kernel, which returns it with the image, so a check of the width
invariant needs no second search.  The kernel finds n in the word, or n's
cycle in its own loop, and reads everything at fixed offsets from n: the
factor i n j, the adjacent pair test, and one walk outward from n on the
core's side over the full run.  Once i n j is a factor, the run's first
letter is n's neighbor on that side, so the run can only grow away from n
and the walk finds its whole width.  The kernel then writes the core of the
same width at the other end and relabels the displaced interval letters in
order, by that width's table.  The shift reads the lower end (neighbors
i, j) and writes the upper end (neighbors i+1, j+1); its inverse the other
way round.  The two cores are mirror images under x -> m + M + 1 - x, and
the rewrite is one letter bijection, so the cycle structure is carried
along for free: each image cycle is relabeled and rotated min-first in one
loop, and the cycles are sorted once.

Each input rule is checked once: the public entries validate and normalize
their input, ``shift`` and ``shift_inv`` then refuse it outside the domain,
``_move`` refuses letters outside 1 <= i != j <= n-2, and the kernel checks
only the factor.  The image is normalized, not validated again.
"""

from __future__ import annotations

from functools import cache

from .cycles import canonicalize_cycles, cycle_containing, decomposition_size, is_odd_order
from .errors import DomainError
from .words import Word, _all_ints, check_permutation, is_ballot


def _run(m: int, M: int, length: int, upper: bool) -> Word:
    """Run of the given length at one end of [m, M+1]: m, m+1, ... writing M+1
    in place of M at the lower end, or its mirror image M+1, M, ... writing m
    in place of m+1 at the upper end."""
    if upper:
        return tuple(m if x == m + 1 else x for x in range(M + 1, M + 1 - length, -1))
    return tuple(M + 1 if x == M else x for x in range(m, m + length))


def _core_word(n: int, i: int, j: int, width: int, upper: bool) -> Word:
    """The core of the given width next to n, at neighbors (i, j) on the lower
    end or (i+1, j+1) on the upper end."""
    left, right = (i + 1, j + 1) if upper else (i, j)
    run = _run(min(i, j), max(i, j), width, upper)
    return (left, n) + run if (i < j) == upper else run[::-1] + (n, right)


def _checked(p, cyclic: bool):
    """The input validated and normalized: canonical cycles, or a one-line permutation."""
    return canonicalize_cycles(p) if cyclic else check_permutation(p)


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


@cache
def _mover(n: int, i: int, j: int, cyclic: bool, upper: bool):
    """The move at one key: a function p -> (image, width) that rewrites the
    core at one end of [m, M+1] (the lower end for the shift, upper=False)
    as the core of the same width at the other end, and returns the width of
    the core it read.

    Every per-key constant is bound here once.  The kernel trusts that p is
    normalized with n letters and 1 <= i != j <= n-2, and does not ask
    whether p is in the domain; it refuses only a member without the factor.
    """
    m, M = (i, j) if i < j else (j, i)
    left, right = (i + 1, j + 1) if upper else (i, j)
    # The run's first letter is n's neighbor on the core's side, so the run
    # is read outward from n, one step at a time in the direction `step`.
    # M, M+1 (m, m+1 at the upper end) sit together exactly when the letter
    # beyond n's neighbor on the other side is `stop`; the width is then 0.
    step = 1 if (i < j) == upper else -1
    stop = m if upper else M + 1
    run = _run(m, M, M - m + 1, upper)
    tables = tuple(_relabel(n, i, j, width, upper) for width in range(M - m + 2))

    def move(p):
        # Letters are distinct, so a factor occurs exactly when its letters
        # sit at consecutive positions.  The factor and the core both hold n,
        # so both are read at fixed offsets from n's position t in a ring:
        # the cycle written twice, or the word padded with a letter 0 that
        # matches nothing.
        if cyclic:
            for host in p:
                if n in host:
                    break
            t = host.index(n)
            ring = host + host
        else:
            t = p.index(n) + 1
            ring = (0,) + p + (0,)
        if ring[t - 1] != left or ring[t + 1] != right:
            kind = "cyclic factor" if cyclic else "factor"
            raise DomainError(f"input does not contain the {kind} {left} {n} {right}")
        # Unless `stop` makes it 0, the width is the longest prefix of the
        # full run that follows n in order.  The walk stays on the ring: it
        # stops at the padding, or at the latest where it comes round to n.
        width = 0
        if ring[t - 2 * step] != stop:
            for x in run:
                if ring[t + step * (width + 1)] != x:
                    break
                width += 1
        image = tables[width].__getitem__
        if not cyclic:
            return tuple(map(image, p)), width
        out = []  # _normalize, each image cycle rotated min-first as it is made
        for c in p:
            c = tuple(map(image, c))
            k = 0 if c[0] == min(c) else c.index(min(c))
            out.append(c[k:] + c[:k] if k else c)
        out.sort()
        return tuple(out), width

    return move


def _move(p, i: int, j: int, cyclic: bool, upper: bool):
    """(image, width) of one normalized input: the int letters 1 <= i != j <= n-2 are
    checked here, so a refused call builds no kernel, then ``_mover`` checks the factor."""
    n = decomposition_size(p) if cyclic else len(p)
    if not _all_ints((i, j)) or i == j or not (1 <= i <= n - 2 and 1 <= j <= n - 2):
        if cyclic:
            cycle_containing(p, n)  # the empty decomposition has no cycle holding n, and says so first
        raise DomainError(f"shift letters must be ints with 1 <= i != j <= n-2 = {n - 2}, got ({i}, {j})")
    return _mover(n, i, j, cyclic, upper)(p)


def _core(p, i: int, j: int, cyclic: bool, upper: bool) -> Word:
    """The core at the lower (upper=False) or upper end of [m, M+1]: the factor
    of the host (cyclic for decompositions) that holds the largest letter."""
    p = _checked(p, cyclic)
    width = _move(p, i, j, cyclic, upper)[1]
    return _core_word(decomposition_size(p) if cyclic else len(p), i, j, width, upper)


def lower_core(p, i: int, j: int, *, cyclic: bool = False) -> Word:
    """Core anchored at the lower end of [m, M+1], for inputs with neighbor cell
    (i, j); the core's width is its length minus 2."""
    return _core(p, i, j, cyclic, upper=False)


def upper_core(s, i: int, j: int, *, cyclic: bool = False) -> Word:
    """Core anchored at the upper end of [m, M+1], for inputs with neighbor cell
    (i+1, j+1); the core's width is its length minus 2."""
    return _core(s, i, j, cyclic, upper=True)


def _shift(p, i: int, j: int, cyclic: bool, upper: bool):
    """The image under the shift (upper=False) or its inverse of an input in
    the domain: ballot, or of odd order for decompositions."""
    p = _checked(p, cyclic)
    if not (is_odd_order(p) if cyclic else is_ballot(p)):
        raise DomainError("cyclic shift needs an odd order permutation" if cyclic
                          else "linear shift needs a ballot permutation")
    return _move(p, i, j, cyclic, upper)[0]


def shift(p, i: int, j: int, *, cyclic: bool = False):
    """Move a permutation from neighbor cell (i, j) to (i+1, j+1).

    The input must be ballot (cyclic=False) or of odd order (cyclic=True) and
    contain the (cyclic) factor i n j with 1 <= i != j <= n-2.  The statistic
    (descent number, or cyclic weight and all cycle lengths) is preserved.
    """
    return _shift(p, i, j, cyclic, upper=False)


def shift_inv(s, i: int, j: int, *, cyclic: bool = False):
    """Inverse of :func:`shift`: move neighbor cell (i+1, j+1) back to (i, j)."""
    return _shift(s, i, j, cyclic, upper=True)
