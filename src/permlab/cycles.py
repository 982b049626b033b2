"""Cycle decompositions in canonical form and their cyclic weight.

A cycle is stored rotated so that its minimum letter comes first; a
decomposition is a tuple of such cycles sorted by minimum letter, whose
letter sets partition {1, ..., n}.  Cyclic descents count the pairs
c[t] > c[t+1] read around the cycle including the wrap-around pair, and the
weight of a cycle is min(cyclic descents, cyclic ascents).

``_normalize`` is the one min-first rotation and sort, and keeps a cycle
that already starts with its minimum, as nearly every one does, as it is.
``canonicalize_cycles`` is the partition check followed by it.  The maps
validate their input with ``canonicalize_cycles`` once and pass their
images, letter bijections of a partition, through ``_normalize`` only (the
shift kernel makes the same rotation as it relabels each cycle).
"""

from __future__ import annotations

import operator
import re
from itertools import chain

from .errors import DomainError
from .words import Word, _all_ints

Cycle = tuple[int, ...]
CycleDecomposition = tuple[Cycle, ...]


def _normalize(cycles) -> CycleDecomposition:
    """Rotate each tuple cycle min-first unless it is, then sort the cycles by minimum; the letters are not checked."""
    out = []
    for c in cycles:
        k = 0 if c[0] == min(c) else c.index(min(c))
        out.append(c[k:] + c[:k] if k else c)
    out.sort()
    return tuple(out)


def canonicalize_cycles(raw) -> CycleDecomposition:
    """Validate a list of cycle words and normalize it: min-first rotations, sorted by minimum.

    The cycles' letters must be ints (no bools or floats) whose sets
    partition {1, ..., n}; overlapping or incomplete letter sets are
    rejected, and so are items that are not cycles, such as the letters of a
    one-line word.  Two inputs describing the same permutation yield
    identical output.
    """
    try:
        cycles = [tuple(c) for c in raw]
    except TypeError:
        raise DomainError(f"not a cycle decomposition: {raw}") from None
    if not all(cycles):
        raise DomainError("empty cycle")
    letters = list(chain.from_iterable(cycles))
    if not _all_ints(letters):
        raise DomainError(f"cycle letters must be integers, got letters {letters}")
    letters.sort()
    if letters != list(range(1, len(letters) + 1)):
        raise DomainError(f"cycles must partition {{1, ..., n}}, got letters {letters}")
    # the minima are distinct once the letters partition [n], so _normalize's
    # plain tuple sort is the order by minimum
    return _normalize(cycles)


def decomposition_size(cycles: CycleDecomposition) -> int:
    return sum(map(len, cycles))


def cycles_from_one_line(p: Word) -> CycleDecomposition:
    """Cycle decomposition of a one-line permutation of int letters, read as the map i -> p[i-1]."""
    n = len(p)
    if not _all_ints(p) or sorted(p) != list(range(1, n + 1)):
        raise DomainError(f"not a one-line permutation: {p}")
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = p[x - 1]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def cycle_stats(c: Cycle) -> tuple[int, int, int]:
    """(cyclic descents, cyclic ascents, weight) of one cycle.

    A singleton cycle has one cyclic ascent, no descent, weight 0.
    """
    if not c:
        raise DomainError("empty cycle")
    cdes = sum(map(operator.gt, c, c[1:] + c[:1]))
    casc = len(c) - cdes
    return cdes, casc, min(cdes, casc)


def perm_weight(cycles: CycleDecomposition) -> int:
    """Total cyclic weight: the sum of min(cdes, casc) over all cycles."""
    return sum(cycle_stats(c)[2] for c in cycles)


def is_odd_order(cycles: CycleDecomposition) -> bool:
    for c in cycles:
        if not len(c) % 2:
            return False
    return True


def cycle_containing(cycles: CycleDecomposition, letter: int) -> Cycle:
    """The cycle holding ``letter``."""
    for c in cycles:
        if letter in c:
            return c
    raise DomainError(f"letter {letter} not present in {cycles}")


def max_letter_neighbors(cycles: CycleDecomposition) -> tuple[int, int] | None:
    """Cyclic (predecessor, successor) of the largest letter, or None if it is fixed."""
    n = decomposition_size(cycles)
    c = cycle_containing(cycles, n)
    if len(c) == 1:
        return None
    t = c.index(n)
    return c[t - 1], c[(t + 1) % len(c)]


def format_cycles(cycles: CycleDecomposition) -> str:
    """Cycle text form: parenthesized groups, e.g. ``(1 6 8 2 10)(3 12 9 11 7 5 4)``."""
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)


def parse_cycles(text: str) -> CycleDecomposition:
    """Parse parenthesized cycle groups (letters separated by spaces or commas)."""
    stripped = text.strip()
    groups = re.findall(r"\(([^()]*)\)", stripped)
    if not groups or re.sub(r"\(([^()]*)\)|\s", "", stripped):
        raise DomainError(f"cannot parse {text!r} as parenthesized cycles")
    cycles = []
    for group in groups:
        parts = group.replace(",", " ").split()
        try:
            cycles.append(tuple(int(part) for part in parts))
        except ValueError:
            raise DomainError(f"cannot parse cycle ({group}) in {text!r}") from None
    return canonicalize_cycles(cycles)
