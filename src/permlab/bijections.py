"""Structure-preserving maps between classes of ballot and odd order permutations.

* anchor decomposition: split a ballot permutation around a distinguished
  factor into head, anchor, carry, tail so that head+anchor+carry has the
  anchor's height and the carry is as long as possible subject to a ballot
  side condition;
* flank swap: for the pivot words i n (j-1) j and (j-1) j n i, exchange the
  reversed head and carry around the new pivot (a bijection between the two
  anchor classes);
* letter exchange: swap the letters j-1 and j on the complement of the
  anchor class, moving the neighbor cell (i, j-1) to (i, j);
* contract / expand: delete (re-insert) the letters j and n next to i when
  |i - j| = 1, dropping the statistic by one and the size by two;
* cycle flip: toggle the cyclic neighbors of the largest letter between
  (1, 2) and (1, 3) while preserving the cyclic weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .cycles import (
    CycleDecomposition,
    canonicalize_cycles,
    cycle_containing,
    decomposition_size,
    is_odd_order,
    max_letter_neighbors,
)
from .errors import DomainError
from .words import (
    Word,
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


def _carry_candidates(p: Word, anchor: Word):
    """(start, split, lengths): the start index of the leftmost anchor occurrence,
    the index just past it, and the carry lengths satisfying the height
    condition; None when the anchor does not occur."""
    if not anchor:
        raise DomainError("anchor must be a nonempty word")
    pos = find_factor(p, anchor)
    if pos is None:
        return None
    start, split = pos - 1, pos - 1 + len(anchor)
    target = height(anchor)
    return start, split, [g for g in range(len(p) - split + 1) if height(p[:split + g]) == target]


def is_anchor_decomposable(p: Word, anchor: Word) -> bool:
    """Whether some factorization head + anchor + carry + tail of ``p`` gives
    head+anchor+carry the same height as the anchor."""
    found = _carry_candidates(tuple(p), tuple(anchor))
    return found is not None and bool(found[2])


def anchor_decompose(p: Word, anchor: Word) -> AnchorDecomposition | None:
    """The unique maximal-carry split of ``p`` around ``anchor``, or None.

    Among carries meeting the height condition, the longest one whose
    reversal followed by the anchor's last letter is still ballot is chosen.
    The leftmost occurrence of the anchor is used when it occurs more than
    once.  Absence (no occurrence, or no carry passing both filters) is a
    value, not an error.
    """
    p, anchor = tuple(p), tuple(anchor)
    found = _carry_candidates(p, anchor)
    if found is None:
        return None
    start, split, lengths = found
    best = max((g for g in lengths if is_ballot(p[split:split + g][::-1] + (anchor[-1],))), default=None)
    if best is None:
        return None
    return AnchorDecomposition(head=p[:start], anchor=anchor,
                               carry=p[split:split + best], tail=p[split + best:])


@dataclass(frozen=True)
class ShiftAnchors:
    """The pivot pair for the flank swap at letters (i, j) in [n]: the words
    i n (j-1) j and (j-1) j n i."""

    i: int
    j: int
    n: int

    def __post_init__(self):
        if not (1 <= self.i and self.i + 2 <= self.j <= self.n - 1):
            raise DomainError(
                f"flank swap needs 1 <= i, i+2 <= j <= n-1, got i={self.i}, j={self.j}, n={self.n}"
            )

    @property
    def forward_word(self) -> Word:
        return (self.i, self.n, self.j - 1, self.j)

    @property
    def backward_word(self) -> Word:
        return (self.j - 1, self.j, self.n, self.i)


def flank_swap(p: Word, i: int, j: int, direction: str = "forward") -> Word:
    """Map (head, pivot, carry, tail) to carry' + other pivot + head' + tail.

    ``forward`` sends the class anchored at i n (j-1) j onto the class
    anchored at (j-1) j n i; ``backward`` is the inverse.
    """
    p = check_permutation(p)
    anchors = ShiftAnchors(i=i, j=j, n=len(p))
    if direction == "forward":
        src, dst = anchors.forward_word, anchors.backward_word
    elif direction == "backward":
        src, dst = anchors.backward_word, anchors.forward_word
    else:
        raise DomainError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if not is_ballot(p):
        raise DomainError(f"{p} is not ballot, so not in the anchor class of {src}")
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
    anchors = ShiftAnchors(i=i, j=j, n=len(p))
    n = len(p)
    if not is_ballot(p):
        raise DomainError(f"{p} is not ballot")
    if find_factor(p, (i, n, j - 1)) is None:
        raise DomainError(f"{p} does not contain the factor {i} {n} {j - 1}")
    if is_anchor_decomposable(p, anchors.forward_word):
        raise DomainError(f"{p} is anchor-decomposable for {anchors.forward_word}, outside the swap domain")
    return swap_letters(p, j - 1, j)


@cache
def _contract_tables(n: int, j: int) -> tuple[Word, Word]:
    """(kept, rank) for contracting [n] by the letters j and n.

    ``kept`` lists the other letters in increasing order after a leading 0,
    so ``kept[r]`` is the letter of rank r; ``rank`` is indexed by letter and
    holds each kept letter's rank, and 0 for j and n.
    """
    kept = (0, *(x for x in range(1, n + 1) if x not in (j, n)))
    rank = [0] * (n + 1)
    for r, x in enumerate(kept[1:], start=1):
        rank[x] = r
    return kept, tuple(rank)


def contract(p, i: int, j: int, inverse: bool = False):
    """Remove (or re-insert, with inverse=True) the letters j and n around i.

    Needs |i - j| = 1.  Forward input must contain the factor i n j (a cyclic
    factor for decompositions); the remaining letters are relabeled in the
    order-preserving way, read from tables cached per (n, j).  Accepts a
    one-line permutation or a cycle decomposition and returns the same kind.
    """
    if abs(i - j) != 1:
        raise DomainError(f"contract needs |i - j| = 1, got ({i}, {j})")
    p = tuple(p)
    is_cycles = bool(p) and isinstance(p[0], tuple)
    p = canonicalize_cycles(p) if is_cycles else check_permutation(p)
    # A word is one non-cyclic row; a decomposition is its cycles.
    rows = p if is_cycles else (p,)
    n = sum(map(len, rows)) + (2 if inverse else 0)
    out = []
    if inverse:
        if not (1 <= i <= n - 1 and 1 <= j <= n - 1):
            raise DomainError(f"letters must lie in [1, {n - 1}], got ({i}, {j})")
        letter = _contract_tables(n, j)[0].__getitem__
        for row in rows:
            row = tuple(map(letter, row))
            if i in row:
                t = row.index(i) + 1
                row = row[:t] + (n, j) + row[t:]
            out.append(row)
    else:
        found = max_letter_neighbors(p) == (i, j) if is_cycles else find_factor(p, (i, n, j)) is not None
        if not found:
            kind = "cyclic factor" if is_cycles else "factor"
            raise DomainError(f"{p} does not contain the {kind} {i} {n} {j}")
        # No row empties: j and n share their row with i.  They rank 0, so
        # dropping the zeros drops them.
        rank = _contract_tables(n, j)[1].__getitem__
        out = [tuple(filter(None, map(rank, row))) for row in rows]
    return canonicalize_cycles(out) if is_cycles else out[0]


def cycle_flip(cycles: CycleDecomposition) -> CycleDecomposition:
    """Toggle the cyclic neighbors of the largest letter between (1, 2) and (1, 3).

    When the cycle through the largest letter n reads (1 n a b rest) with
    {a, b} = {2, 3} and rest nonempty, it is replaced by (1 n b a rest'),
    which trades cyclic descents for ascents; otherwise the letters 2 and 3
    are exchanged throughout.  Either way the cyclic weight and all cycle
    lengths are preserved, and the map is an involution.
    """
    cycles = canonicalize_cycles(cycles)
    n = decomposition_size(cycles)
    if n < 4:
        raise DomainError(f"cycle flip needs n >= 4, got n={n}")
    if not is_odd_order(cycles):
        raise DomainError(f"cycle flip is defined on odd order permutations, got {cycles}")
    neighbors = max_letter_neighbors(cycles)
    if neighbors not in ((1, 2), (1, 3)):
        raise DomainError(f"no cycle with the largest letter flanked by 1 and 2 or 3: {cycles}")
    # A canonical cycle starts at its minimum, here 1, so it reads (1, n, small, ...).
    k, c = cycle_containing(cycles, n)
    small = neighbors[1]
    other = 5 - small
    if len(c) >= 4 and c[3] == other:
        rest = c[4:]
        flipped = (1, n, other, small) + rest[::-1]
        out = list(cycles)
        out[k] = flipped
        return canonicalize_cycles(out)
    return canonicalize_cycles([swap_letters(cycle, 2, 3) for cycle in cycles])
