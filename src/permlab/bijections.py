"""Structure-preserving maps between classes of ballot and odd order permutations.

* anchor decomposition: split a ballot permutation around a distinguished
  factor into head, anchor, carry, tail so that head+anchor+carry has the
  anchor's height and the carry is as long as possible subject to a ballot
  side condition;
* flank swap: for the pivot words i n (j-1) j and (j-1) j n i (``pivot_words``),
  exchange the reversed head and carry around the other pivot word (a
  bijection between the two anchor classes);
* letter exchange: swap the letters j-1 and j on the complement of the first
  pivot word's anchor class, moving the neighbor cell (i, j-1) to (i, j);
* contract / expand: delete (re-insert) the letters j and n next to i when
  |i - j| = 1, dropping the statistic by one and the size by two;
* cycle flip: toggle the cyclic neighbors of the largest letter between
  (1, 2) and (1, 3) while preserving the cyclic weight.

``flank_swap``, ``contract`` and ``cycle_flip`` validate and normalize their input
once, then run their underscored cores, which trust the normalized form.  The
forward contraction reads i n j around n itself, and the cycle flip reads its
factor from the first cycle, which holds n after 1 exactly when it is (1 n s).

The maximal carry is found in one scan past the anchor.  For the leftmost
occurrence p[start:split] of the anchor, let rel(g) be the height of
p[split-1:split+g], the anchor's last letter followed by a carry of length g.
Then height(p[:split+g]) = height(p[:start+1]) + height(anchor) + rel(g), so the
height condition reads rel(g) = -height(p[:start+1]).  A word is ballot when
its prefixes have height >= 0, and height(reversed w) = -height(w), so the
reversed carry followed by the anchor's last letter is ballot exactly when
every suffix of p[split-1:split+g] has height <= 0.  The suffix that starts
after g' letters of the carry has height rel(g) - rel(g'), so that holds
exactly when rel(g) is a running minimum: rel(g) <= rel(g') for every g' <= g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .cycles import (
    CycleDecomposition,
    _normalize,
    canonicalize_cycles,
    decomposition_size,
    is_odd_order,
)
from .errors import DomainError
from .words import (
    Word,
    _all_ints,
    _swapped,
    check_permutation,
    find_factor,
    height,
    is_ballot,
    swap_letters,
)


@dataclass(frozen=True)
class AnchorDecomposition:
    """Split of a ballot permutation as head + anchor + carry + tail."""

    head: Word
    anchor: Word
    carry: Word
    tail: Word

    @property
    def carry_last(self) -> int:
        """Last letter of the carry, falling back to the anchor's when the carry is empty."""
        return self.carry[-1] if self.carry else self.anchor[-1]


def _carry_scan(p: Word, anchor: Word):
    """(start, split, fits, best) for the leftmost occurrence of ``anchor`` in ``p``:
    its start index, the index just past it, whether some carry meets the height
    condition, and the length of the longest carry that also passes the ballot
    test, or None; (None, None, False, None) when the anchor does not occur."""
    if not anchor:
        raise DomainError("anchor must be a nonempty word")
    pos = find_factor(p, anchor)
    if pos is None:
        return None, None, False, None
    start, split = pos - 1, pos - 1 + len(anchor)
    # rel is the height of p[split - 1:k + 1] and low its running minimum
    need, rel, low = -height(p[:start + 1]), 0, 0
    fits, best = need == 0, (0 if need == 0 else None)
    for k in range(split, len(p)):
        rel += 1 if p[k - 1] < p[k] else -1
        if rel < low:
            low = rel
        if rel == need == low:
            best = k + 1 - split
        fits = fits or rel == need
    return start, split, fits, best


def is_anchor_decomposable(p: Word, anchor: Word) -> bool:
    """Whether some factorization head + anchor + carry + tail of ``p`` gives
    head+anchor+carry the same height as the anchor."""
    return _carry_scan(tuple(p), tuple(anchor))[2]


def anchor_decompose(p: Word, anchor: Word) -> AnchorDecomposition | None:
    """The unique maximal-carry split of ``p`` around ``anchor``, or None.

    Among carries meeting the height condition, the longest one whose
    reversal followed by the anchor's last letter is still ballot is chosen.
    The leftmost occurrence of the anchor is used when it occurs more than
    once.  Absence (no occurrence, or no carry passing both filters) is a
    value, not an error.
    """
    p, anchor = tuple(p), tuple(anchor)
    start, split, _, best = _carry_scan(p, anchor)
    return None if best is None else AnchorDecomposition(
        head=p[:start], anchor=anchor, carry=p[split:split + best], tail=p[split + best:])


def pivot_words(i: int, j: int, n: int) -> tuple[Word, Word]:
    """The forward and backward pivot words i n (j-1) j and (j-1) j n i of the
    flank swap and the letter exchange at int letters (i, j) in [n]."""
    if not (_all_ints((i, j, n)) and 1 <= i and i + 2 <= j <= n - 1):
        raise DomainError(f"pivot words need ints with 1 <= i, i+2 <= j <= n-1, got i={i}, j={j}, n={n}")
    return (i, n, j - 1, j), (j - 1, j, n, i)


def flank_swap(p: Word, i: int, j: int, direction: str = "forward") -> Word:
    """Map (head, pivot, carry, tail) to carry' + other pivot + head' + tail.

    ``forward`` sends the class anchored at i n (j-1) j onto the class
    anchored at (j-1) j n i; ``backward`` is the inverse.
    """
    p = check_permutation(p)
    forward, backward = pivot_words(i, j, len(p))
    if direction == "forward":
        src, dst = forward, backward
    elif direction == "backward":
        src, dst = backward, forward
    else:
        raise DomainError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if not is_ballot(p):
        raise DomainError(f"{p} is not ballot, so not in the anchor class of {src}")
    return _flank_swap(p, src, dst)


def _flank_swap(p: Word, src: Word, dst: Word) -> Word:
    """:func:`flank_swap` of a ballot permutation from the pivot word ``src`` to ``dst``."""
    dec = anchor_decompose(p, src)
    if dec is None:
        raise DomainError(f"{p} is not anchor-decomposable for {src}")
    return dec.carry[::-1] + dst + dec.head[::-1] + dec.tail


def exchange_letters(p: Word, i: int, j: int) -> Word:
    """Swap the letters j-1 and j on the complement of the anchor class.

    Defined on ballot permutations containing the factor i n (j-1) that are
    not anchor-decomposable for i n (j-1) j; the image contains i n j.
    """
    p = check_permutation(p)
    n = len(p)
    forward, _ = pivot_words(i, j, n)
    if not is_ballot(p):
        raise DomainError(f"{p} is not ballot")
    if find_factor(p, (i, n, j - 1)) is None:
        raise DomainError(f"{p} does not contain the factor {i} {n} {j - 1}")
    if is_anchor_decomposable(p, forward):
        raise DomainError(f"{p} is anchor-decomposable for {forward}, outside the swap domain")
    return swap_letters(p, j - 1, j)


def contract(p, i: int, j: int, inverse: bool = False):
    """Remove (or re-insert, with inverse=True) the letters j and n around i.

    Needs int letters with |i - j| = 1.  Forward input must contain the
    factor i n j (a cyclic factor for decompositions); the remaining letters
    are relabeled in the order-preserving way by a kernel cached per key,
    which holds its tables.  Accepts a one-line permutation or a cycle
    decomposition, whose cycles may be tuples or lists, and returns the same kind.
    """
    if not _all_ints((i, j)) or abs(i - j) != 1:
        raise DomainError(f"contract needs int letters with |i - j| = 1, got ({i}, {j})")
    p = tuple(p)
    is_cycles = bool(p) and isinstance(p[0], (tuple, list))
    return _contract(canonicalize_cycles(p) if is_cycles else check_permutation(p), i, j, inverse, is_cycles)


def _contract(p, i: int, j: int, inverse: bool, is_cycles: bool):
    """:func:`contract` on canonical cycles (is_cycles=True) or a one-line permutation: its
    letters are checked here, so a refused call builds no kernel; the kernel checks the factor."""
    n = sum(map(len, p if is_cycles else (p,))) + (2 if inverse else 0)
    if not (1 <= i <= n - 1 and 1 <= j <= n - 1):
        if inverse:
            raise DomainError(f"letters must lie in [1, {n - 1}], got ({i}, {j})")
        raise _no_factor(p, i, n, j, is_cycles)
    return _contractor(n, i, j, inverse, is_cycles)(p)


def _no_factor(p, i: int, n: int, j: int, is_cycles: bool) -> DomainError:
    return DomainError(f"{p} does not contain the {'cyclic factor' if is_cycles else 'factor'} {i} {n} {j}")


@cache
def _contractor(n: int, i: int, j: int, inverse: bool, is_cycles: bool):
    """The contraction (expansion if inverse) at one key: a function of one input that
    trusts its form and letters and refuses only a forward input without the factor.
    Its tables are bound once: ``letter(r)`` is the letter of rank r among [n] without
    j and n (0 for r = 0), and ``rank(x)`` the rank of the letter x (0 for j and n)."""
    letter = (0, *(x for x in range(1, n) if x != j)).__getitem__
    rank = [0 if x in (j, n) else x - (x > j) for x in range(n + 1)].__getitem__

    def kernel(p):
        # A word is one non-cyclic row; a decomposition is its cycles.
        rows = p if is_cycles else (p,)
        if inverse:
            out = []
            for row in rows:
                row = tuple(map(letter, row))
                if i in row:
                    t = row.index(i) + 1
                    row = row[:t] + (n, j) + row[t:]
                out.append(row)
        else:
            for row in rows:  # n's row: t - 1 and t + 1 - len(row) wrap round a cycle; a word needs 0 < t < len - 1
                if n in row:
                    break
            t = row.index(n)
            if row[t - 1] != i or row[t + 1 - len(row)] != j or not (is_cycles or 0 < t < len(row) - 1):
                raise _no_factor(p, i, n, j, is_cycles)
            # No row empties: j and n share their row with i.  They rank 0, so
            # dropping the zeros drops them.
            out = [tuple(filter(None, map(rank, row))) for row in rows]
        return _normalize(out) if is_cycles else out[0]

    return kernel


def cycle_flip(cycles: CycleDecomposition) -> CycleDecomposition:
    """Toggle the cyclic neighbors of the largest letter between (1, 2) and (1, 3).

    When the cycle through the largest letter n reads (1 n a b rest) with
    {a, b} = {2, 3} and rest nonempty, it is replaced by (1 n b a rest'),
    which trades cyclic descents for ascents; otherwise the letters 2 and 3
    are exchanged throughout.  Either way the cyclic weight and all cycle
    lengths are preserved, and the map is an involution.
    """
    return _cycle_flip(canonicalize_cycles(cycles))


def _cycle_flip(cycles: CycleDecomposition) -> CycleDecomposition:
    """:func:`cycle_flip` on a canonical decomposition."""
    n = decomposition_size(cycles)
    if n < 4:
        raise DomainError(f"cycle flip needs n >= 4, got n={n}")
    if not is_odd_order(cycles):
        raise DomainError(f"cycle flip is defined on odd order permutations, got {cycles}")
    # n follows 1 exactly when n's cycle is the first, (1, n, small, ...), as is its flip.
    c = cycles[0]
    if not (len(c) >= 3 and c[1] == n and c[2] in (2, 3)):
        raise DomainError(f"no cycle with the largest letter flanked by 1 and 2 or 3: {cycles}")
    small, other = c[2], 5 - c[2]
    if len(c) >= 4 and c[3] == other:
        return ((1, n, other, small) + c[4:][::-1],) + cycles[1:]
    swap = {2: 3, 3: 2}.get  # one table for every cycle
    return _normalize([_swapped(cycle, swap) for cycle in cycles])
