"""Words over distinct positive integers and their descent statistics.

A word is a tuple of pairwise distinct positive integers; the empty tuple is
the empty word.  A one-line permutation of [n] is a word whose letter set is
exactly {1, ..., n}.  An adjacent pair (a, b) is an ascent when a < b and a
descent when a > b; the height of a word is ascents minus descents, and a
word is ballot when every prefix has nonnegative height.
"""

from __future__ import annotations

from .errors import DomainError

Word = tuple[int, ...]

_INT_ONLY = frozenset({int})


def _all_ints(letters) -> bool:
    """The one letter rule: every letter is an int (a bool or a float equal to one is not)."""
    return _INT_ONLY.issuperset(map(type, letters))


def check_word(letters) -> Word:
    """Validate and normalize a sequence of distinct positive integers."""
    w = tuple(letters)
    if not _all_ints(w) or (w and min(w) < 1):
        bad = next(x for x in w if not _all_ints((x,)) or x < 1)
        raise DomainError(f"letters must be positive integers, got {bad!r}")
    if len(set(w)) != len(w):
        raise DomainError(f"letters must be pairwise distinct, got {w}")
    return w


def check_permutation(letters) -> Word:
    """Validate a one-line permutation of [n]; its letters must be ints (no bools or floats)."""
    p = tuple(letters)
    n = len(p)
    if n == 0 or not _all_ints(p) or sorted(p) != list(range(1, n + 1)):
        raise DomainError(f"not a one-line permutation of [{n}]: {p}")
    return p


def ascent_descent(w: Word) -> tuple[int, int]:
    """Number of (ascents, descents) over the adjacent pairs of ``w``."""
    asc = des = 0
    for a, b in zip(w, w[1:]):
        if a < b:
            asc += 1
        else:
            des += 1
    return asc, des


def descents(w: Word) -> int:
    return ascent_descent(w)[1]


def height(w: Word) -> int:
    """Ascents minus descents; the empty word has height 0."""
    asc, des = ascent_descent(w)
    return asc - des


def is_ballot(w) -> bool:
    """True iff every prefix of ``w`` has nonnegative height (true for the empty word)."""
    h = 0
    for k in range(1, len(w)):
        h += 1 if w[k - 1] < w[k] else -1
        if h < 0:
            return False
    return True


def reversal(w: Word) -> Word:
    """Letters in reverse order; an involution, fixing the empty word."""
    return tuple(reversed(w))


def find_factor(host: Word, needle: Word) -> int | None:
    """1-based start of the leftmost occurrence of ``needle`` as a contiguous factor, or None."""
    if not needle:
        raise DomainError("factor search needs a nonempty word")
    first, k = needle[0], len(needle)
    # every occurrence starts at an occurrence of the needle's first letter
    s = -1
    try:
        while True:
            s = host.index(first, s + 1)
            if host[s:s + k] == needle:
                return s + 1
    except ValueError:
        return None


def swap_letters(w: Word, a: int, b: int) -> Word:
    """Exchange the letters ``a`` and ``b`` wherever they occur in ``w``."""
    return _swapped(w, {a: b, b: a}.get)


def _swapped(w: Word, swap) -> Word:
    """``w`` with each letter x read as ``swap(x, x)``: ``swap`` is the ``get`` of a
    dict sending each swapped letter to its partner, so every other letter stays.
    One table serves any number of words."""
    return tuple(map(swap, w, w))


def format_word(w: Word) -> str:
    """One-line text form: space-separated letters, e.g. ``3 8 2 5 4 9 6 7 1``."""
    return " ".join(str(x) for x in w)


def parse_word(text: str) -> Word:
    """Parse whitespace- or comma-separated letters into a word."""
    parts = text.replace(",", " ").split()
    try:
        letters = [int(part) for part in parts]
    except ValueError:
        raise DomainError(f"cannot parse {text!r} as a word") from None
    return check_word(letters)
