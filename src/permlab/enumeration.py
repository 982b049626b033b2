"""Ballot and odd order permutations: their member streams and their count tables.

The generators stream every member of one kind at one n and classify it
while they build it: the private streams yield each member with its
statistic d (descents for ballot permutations, cyclic weight for odd order
permutations) and the two neighbors (i, j) of the largest letter, read as
the factor i n j (cyclic inside the decomposition's cycles).  Member lists
and the test suite's reference tables read those triples, and the tests
hold the streams to classifiers that read a finished member from scratch.
Each stream is one generator frame that walks its search tree with a stack
and places the last letters of each member in place.
Nothing else is counted by classifying members: the rank patterns of ballot
prefixes and suffixes, built once per n, count the ballot table and every
word pair, a cell (i, j) being the pair ((i,), (j,)), and the exponential
formula over odd cycles, with the end-letter patterns of the cycle of n,
counts the odd order tables.  The test suite checks every table against the
classified member stream, which stays the oracle, the ballot tables and the
word pairs against a subset DP over letter sets, the rank DP's witness, and
the word pairs against a factor search over the members.  Both the stream
and the counts keep the same budgets.
``member_index`` and ``anchor_classes`` (the ballot cells split by the pivot
words) keep member lists under the "members" budget until ``clear_memo``;
``odd_head_index`` keeps the odd members of the cells (d, 1, 2) and
(d, 1, 3), streamed seeded, under the "odd" budget.

A pattern keeps a word only up to the relative order of its letters: its
length, the rank of one end letter and one more state (a height, or the rank
of the other end).  One rank insertion, ``_grow``, builds all three pattern
tables: a new end letter of rank s moves the old ranks >= s up one, and a
one-line rule per table says how the state moves and whether the step is a
descent.  Each builder then reads: grow the patterns, split the free letters
around the pinned ones (``_splits``), freeze the table (``_freeze``).

Each statistic vector of a count is one packed int: digit d, W = n!.bit_length()
bits wide, holds the count at statistic d.  A descent shifts a vector one digit
up (``vec << W``), a convolution is one product and a scaled sum is
``acc + ways * vec``.  No digit overflows: each counts distinct permutations of
at most n letters, fewer than n! < 2^W.  No count lands past d_max either, and
``_unpack``, the one step that reads a finished vector, refuses one that does.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import chain, cycle, permutations
from math import comb, factorial
from operator import getitem, lt

from .bijections import is_anchor_decomposable, pivot_words
from .errors import BudgetError, DomainError
from .words import Word, _all_ints, check_word, descents

KINDS = ("ballot", "odd")

# Desk-scale budgets, the largest n each resource serves; larger n fails fast instead of
# running unbounded.  "ballot" and "odd" bound the member streams and the tables of that
# kind, "members" bounds the member lists held in memory by member_index.
BUDGETS = {"ballot": 10, "odd": 11, "members": 9}


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")


def _check_n(n: int) -> None:
    """n must be an int (a bool or a float equal to one is not) of at least 1."""
    if not _all_ints((n,)) or n < 1:
        raise DomainError(f"n must be an int of at least 1, got {n!r}")


def _check_budget(resource: str, n: int) -> None:
    _check_n(n)
    if n > BUDGETS[resource]:
        raise BudgetError(f"{resource!r} is budgeted up to n={BUDGETS[resource]}, got n={n}")


def d_range(n: int) -> range:
    """The statistics d at n, 0 to (n-1)/2: descents of ballot, weights of odd order permutations."""
    return range((n - 1) // 2 + 1)


def _check_d(n: int, d: int | None) -> None:
    """A statistic d, when given, must be an int in ``d_range(n)``."""
    if d is not None and not (_all_ints((d,)) and d in d_range(n)):
        raise DomainError(f"d must be an int with 0 <= d <= {d_range(n)[-1]}, got {d!r}")


def _check_letters(n: int, i: int, j: int) -> None:
    """The neighbors (i, j) of n must be two distinct int letters of [n-1]."""
    if not (_all_ints((i, j)) and 1 <= i <= n - 1 and 1 <= j <= n - 1 and i != j):
        raise DomainError(f"cell letters must be ints with 1 <= i != j <= {n - 1}, got {(i, j)}")


def double_factorial(k: int) -> int:
    """k!! with the conventions (-1)!! = 0!! = 1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def ballot_count_closed(n: int) -> int:
    """Closed form for the number of ballot permutations of [n]."""
    _check_n(n)
    if n % 2 == 0:
        return double_factorial(n - 1) ** 2
    return double_factorial(n) * double_factorial(n - 2)


# The 3! relative orders of three letters, in lexicographic order: the ballot
# stream places the last three letters of each member by one of them.
_ORDERS3 = tuple(permutations(range(3)))


def _ballot_stream(n: int):
    """Yield (member, descents, neighbors of n) for the ballot permutations of [n],
    once each, in lexicographic order; the neighbors are None when n is last.

    Backtracking over one-line prefixes, pruned as soon as a prefix height
    would go negative.  A whole word of height h has (n - 1 - h) / 2 descents.
    One frame walks the prefixes depth first with a stack, so no generator is
    made per prefix and no member climbs a chain of frames.  A prefix that
    lacks three letters is finished in place: the three are placed in each
    relative order of ``_ORDERS3``, each placed letter taking the same height
    step as any other.  The order is the recursion's: a prefix's extensions
    are pushed largest letter first, so they pop smallest first and each is
    finished before the next, and the three letters left are sorted, so the
    relative orders, taken lexicographically, place them lexicographically.
    """
    _check_budget("ballot", n)
    if n < 3:  # too few letters for the tail: the identity is the one ballot word
        yield tuple(range(1, n + 1)), 0, None
        return
    # a virtual letter 0 at height -1 makes the first letter an ascent to height 0
    stack = [((), -1, 0, tuple(range(1, n + 1)))]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, h, last, avail = pop()
        if len(avail) > 3:
            for idx in range(len(avail) - 1, -1, -1):
                x = avail[idx]
                nh = h + 1 if x > last else h - 1
                if nh >= 0:
                    push((prefix + (x,), nh, x, avail[:idx] + avail[idx + 1:]))
            continue
        for a, b, c in _ORDERS3:
            x = avail[a]
            h1 = h + 1 if x > last else h - 1
            if h1 < 0:
                continue
            y = avail[b]
            h2 = h1 + 1 if y > x else h1 - 1
            if h2 < 0:
                continue
            z = avail[c]
            h3 = h2 + 1 if z > y else h2 - 1
            if h3 < 0:
                continue
            p = prefix + (x, y, z)
            pos = p.index(n)
            yield p, (n - 1 - h3) // 2, None if pos == n - 1 else (p[pos - 1], p[pos + 1])


def _odd_stream(n: int, head: Word = (1,)):
    """Yield (member, cyclic weight, cyclic neighbors of n) for the odd order
    permutations of [n], once each, as canonical decompositions; the neighbors
    are None when n is fixed.

    Cycles are built smallest available letter first; closing a cycle is
    offered before every extension, so the stream is lexicographic on the
    canonical cycle encoding.  The open cycle counts its descents as it grows;
    closing it adds the wrap-around descent back to its smallest letter, and
    the cycle's weight min(cdes, k - cdes) joins the total.  One frame walks
    the partial decompositions depth first with a stack, so no generator is
    made per node and no member climbs a chain of frames.  A node's
    extensions are pushed largest letter first and its closing last, so the
    closing pops first and the extensions smallest first, the recursion's
    order.  A node with two unused letters u < v is completed in place, in
    that same order: when the open cycle has odd length, closing it (u and v
    then fixed), then closing it after u v, then after v u; when even,
    extending it by u (v fixed), then by v (u fixed).  One helper, ``close``,
    is the weight and neighbor rule for those cycles and at every other node.

    ``head`` is the opening of the first cycle, which starts with 1: only the
    members whose canonical first cycle opens with these letters are yielded,
    in the same order as in the whole stream.  The members whose n has cyclic
    neighbors (1, s) are exactly those with head (1, n, s).
    """
    _check_budget("odd", n)

    def close(cyc, weight, des, nb):
        """(weight, neighbors of n) once the odd cycle ``cyc``, with ``des``
        descents from its first letter to its last, is closed."""
        k = len(cyc)
        if k == 1:  # a fixed point weighs nothing and gives n no neighbors
            return weight, nb
        des += 1  # the wrap-around descent back to the smallest letter
        if n in cyc:
            t = cyc.index(n)
            nb = cyc[t - 1], cyc[(t + 1) % k]
        return weight + min(des, k - des), nb

    rest = tuple(x for x in range(1, n + 1) if x not in head)
    stack = [((), head, rest, 0, descents(head), None)]
    pop, push = stack.pop, stack.append
    while stack:
        done, cyc, unused, weight, des, nb = pop()
        last, odd = cyc[-1], len(cyc) % 2
        if len(unused) == 2:
            u, v = unused
            if odd:
                yield (*done, cyc, (u,), (v,)), *close(cyc, weight, des, nb)
                yield (*done, cyc + (u, v)), *close(cyc + (u, v), weight, des + (last > u), nb)
                yield (*done, cyc + (v, u)), *close(cyc + (v, u), weight, des + (last > v) + 1, nb)  # v > u
            else:
                yield (*done, cyc + (u,), (v,)), *close(cyc + (u,), weight, des + (last > u), nb)
                yield (*done, cyc + (v,), (u,)), *close(cyc + (v,), weight, des + (last > v), nb)
            continue
        for idx in range(len(unused) - 1, -1, -1):
            x = unused[idx]
            push((done, cyc + (x,), unused[:idx] + unused[idx + 1:], weight, des + (last > x), nb))
        if odd:
            total, found = close(cyc, weight, des, nb)
            if unused:  # the next cycle opens at the smallest unused letter
                push((done + (cyc,), unused[:1], unused[1:], total, 0, found))
            else:
                yield done + (cyc,), total, found


def enumerate_ballot(n: int):
    """Yield the ballot permutations of [n] once each, in lexicographic order."""
    for member, _, _ in _ballot_stream(n):
        yield member


def enumerate_odd_order(n: int):
    """Yield the odd order permutations of [n] once each, as canonical decompositions,
    in lexicographic order of the cycle encoding."""
    for member, _, _ in _odd_stream(n):
        yield member


@dataclass(frozen=True)
class CountTable:
    """Full (d, i, j) classification of one kind at one n.

    ``totals[d]`` counts all members with statistic d; ``cells[d][i-1][j-1]``
    counts those whose largest letter has neighbors (i, j).  Counts are
    immutable mathematical facts and never invalidated.  A well-formed table
    has one total and one (n-1) x (n-1) layer per d in [0, d_max], every
    count a non-negative int, zero diagonals, layer sums of at most their
    totals, and totals summing to the closed form.  ``to_json_obj`` gives the
    four fields, with lists for the sequences; ``from_json_obj`` reads them
    back, checked without recounting, and refuses other keys, an unknown
    kind, an n that is not an int >= 1, other sequences or a malformed table.
    """

    kind: str
    n: int
    totals: tuple[int, ...]
    cells: tuple[tuple[tuple[int, ...], ...], ...]

    def to_json_obj(self) -> dict:
        return {"cells": [[list(row) for row in layer] for layer in self.cells],
                "kind": self.kind, "n": self.n, "totals": list(self.totals)}

    @classmethod
    def from_json_obj(cls, obj) -> CountTable:
        """The table whose JSON form is ``obj``; a DomainError for anything else (see above)."""
        if type(obj) is not dict or obj.keys() != {"cells", "kind", "n", "totals"}:
            raise DomainError("a count table's JSON form needs exactly the keys cells, kind, n and totals")
        kind, n, totals, cells = obj["kind"], obj["n"], obj["totals"], obj["cells"]
        _check_kind(kind)
        _check_n(n)
        if not (type(totals) is type(cells) is list and {*map(type, cells)} <= {list}
                and {*map(type, chain.from_iterable(cells))} <= {list}):
            raise DomainError("a count table needs lists for its totals, layers and rows")
        table = cls(kind, n, tuple(totals), tuple(tuple(map(tuple, layer)) for layer in cells))
        if not (len(table.totals) == len(table.cells) == table.d_max + 1
                and {*map(len, table.cells), *map(len, chain.from_iterable(table.cells))} <= {n - 1}):
            raise DomainError(f"a count table at n={n} needs one total and one {n - 1} x {n - 1} layer per d")
        if not (_all_ints(table.totals) and min(table.totals) >= 0
                and _all_ints(chain.from_iterable(chain.from_iterable(table.cells)))
                and min(chain.from_iterable(chain.from_iterable(table.cells)), default=0) >= 0):
            raise DomainError("a count table needs ints of at least 0 for its counts")
        # row t of each layer holds its diagonal count at t; lt(total, s) is a layer sum s past its total
        if (any(map(getitem, chain.from_iterable(table.cells), cycle(range(n - 1))))
                or any(map(lt, table.totals, map(sum, map(chain.from_iterable, table.cells))))):
            raise DomainError("a count table needs zero diagonals and layer sums of at most their totals")
        if table.grand_total != ballot_count_closed(n):
            raise DomainError(f"a count table at n={n} needs totals that sum to {ballot_count_closed(n)}")
        return table

    @property
    def d_max(self) -> int:
        return len(d_range(self.n)) - 1

    @property
    def grand_total(self) -> int:
        return sum(self.totals)

    def _has_layer(self, d: int) -> bool:
        """Whether the int d lies in [0, d_max]; any other d, a bool or a float too, is refused."""
        if not _all_ints((d,)):
            raise DomainError(f"d must be an int, got {d!r}")
        return 0 <= d <= self.d_max

    def total(self, d: int | None = None) -> int:
        if d is None:
            return self.grand_total
        if not self._has_layer(d):
            return 0
        return self.totals[d]

    def cell(self, d: int | None, i: int, j: int) -> int:
        _check_letters(self.n, i, j)
        if d is None:
            return sum(layer[i - 1][j - 1] for layer in self.cells)
        if not self._has_layer(d):
            return 0
        return self.cells[d][i - 1][j - 1]


def _unpack(vec: int, n: int) -> tuple[int, ...]:
    """Digits 0..d_max of the packed statistic vector ``vec`` at n; a count past
    d_max is refused rather than dropped."""
    w, size = factorial(n).bit_length(), len(d_range(n))
    if vec >> (size * w):
        raise ValueError(f"statistic vector spills past d_max={size - 1} at n={n}")
    digit = (1 << w) - 1
    return tuple(vec >> (d * w) & digit for d in range(size))


def _freeze(kind: str, n: int, totals: int, cell) -> CountTable:
    """A CountTable from the packed totals and ``cell(i, j)``, the packed vector of each cell."""
    zero = (0,) * len(d_range(n))
    rows = [[zero if i == j else _unpack(cell(i, j), n) for j in range(1, n)] for i in range(1, n)]
    cells = tuple(tuple(tuple(vec[d] for vec in row) for row in rows) for d in d_range(n))
    return CountTable(kind=kind, n=n, totals=_unpack(totals, n), cells=cells)


def _splits(below: int, between: int, above: int, term) -> int:
    """Sum of C(below, x) C(between, y) C(above, z) term(x, y, z) over the ways to
    choose x free letters below two pinned letters, y between and z above them."""
    row, total = [comb(above, z) for z in range(above + 1)], 0
    for x in range(below + 1):
        for y in range(between + 1):
            ways = comb(below, x) * comb(between, y)
            for z, c in enumerate(row):
                total += ways * c * term(x, y, z)
    return total


def _grow(first: dict, start: int, stop: int, w: int, step) -> list[dict[tuple[int, int], int]]:
    """Pattern levels up to length ``stop``, ``first`` at ``start``, each level mapping
    (rank r of the growing end, state x) to a packed descent vector.  The rule
    ``step(length, r, x, s)`` gives (new x, whether it counts a descent) for a
    new end letter of rank s, or None where the pattern may not grow."""
    levels = [{}] * start + [first]
    for length in range(start, stop):
        ranks = range(1, length + 2)
        grown: dict[tuple[int, int], int] = {}
        get = grown.get
        for (r, x), vec in levels[length].items():
            down = vec << w
            for s in ranks:
                moved = step(length, r, x, s)
                if moved is not None:
                    y, descent = moved
                    key = s, y
                    grown[key] = get(key, 0) + (down if descent else vec)
        levels.append(grown)
    return levels


@cache
def _rank_dp(n: int):
    """(totals, join) at n, built once and shared by the ballot table and every word pair.

    Whether a word is ballot, and its descents, depend only on the relative
    order of its letters, so prefixes and suffixes are counted as patterns by
    length, by the rank of their last or first letter and by height.  ``join``
    joins them across a pinned walk; ``totals`` counts the whole words.
    """
    w = factorial(n).bit_length()
    # forward[a][(r, h)]: the ballot words on [a] that end with rank r at height
    # h; the first letter climbs from a virtual 0 at -1
    forward = _grow({(0, -1): 1}, 0, n, w,
                    lambda a, r, h, s: (h + 1, False) if s > r else (h - 1, True) if h else None)
    # suffix[b][(s, h)]: the words R on [b] that start with rank s at height h
    # and stay at height >= 0, grown as their reversals, so an ascent of the
    # reversal is a descent of R.  R follows n - b letters, and one step among
    # them is the descent from n, so h < n - 1 - b.
    suffix = _grow({(1, h): 1 for h in range(n - 2)}, 1, n - 2, w,
                   lambda b, r, h, s: ((h + 1, True) if h < n - 3 - b else None) if s > r
                   else (h - 1, False) if h else None)

    @cache
    def join(a: int, b: int, r: int, s: int, rise: int, low: int) -> int:
        """Packed descent vector of L on [a] ending with rank r, a walk of this rise and
        lowest point, and R on [b] starting with rank s, less the walk's own descents."""
        left, right = forward[a], suffix[b]
        return sum(left.get((r, h), 0) * right.get((s, h + rise), 0) for h in range(-low, a))

    return sum(forward[n].values()), join


def _pair_vector(n: int, u: Word, v: Word) -> int:
    """Packed descent vector of the ballot permutations of [n] holding u n v.

    Such a member reads A u n v C.  L = A u[0] is a ballot prefix ending at
    some height h; the pinned steps u[1:] n v are a fixed walk with its own
    rise, lowest point and descents; R = v[-1] C stays at height >= 0 from h
    plus the rise.  Choosing which free letters below, between and above u[0]
    and v[-1] join L fixes the length of L and both ranks.  The cell (i, j) of
    the table is the pair ((i,), (j,)).  Every join counted is part of a
    ballot word of [n], so no count lies past d_max.
    """
    join = _rank_dp(n)[1]
    walk = u + (n,) + v
    rise = low = des = 0
    for x, y in zip(walk, walk[1:]):
        rise += 1 if y > x else -1
        low, des = min(low, rise), des + (y < x)
    lo, hi = sorted((u[0], v[-1]))
    free = [x for x in range(1, n) if x not in walk]
    below, between = sum(x < lo for x in free), sum(lo < x < hi for x in free)
    above, size = len(free) - below - between, len(free) + 2  # size: L and R together

    def term(x: int, y: int, z: int) -> int:
        # the ranks of u[0] in L and of v[-1] in R
        r, s = (x + 1, below - x + between - y + 1) if u[0] < v[-1] else (x + y + 1, below - x + 1)
        a = 1 + x + y + z
        return join(a, size - a, r, s, rise, low)

    return _splits(below, between, above, term) << des * factorial(n).bit_length()


def _ballot_table(n: int) -> CountTable:
    """B(n, .): the cell (i, j) is the word pair ((i,), (j,))."""
    return _freeze("ballot", n, _rank_dp(n)[0], lambda i, j: _pair_vector(n, (i,), (j,)))


def _odd_table(n: int) -> CountTable:
    """P(n, .) by counting the cycle of n and the odd order rest separately.

    Written from n, a k-cycle on [k] with a -> k -> b reads (k b ... a); its
    cyclic descents are the descents of the one-line word b ... a on [k-1]
    plus one (k > b), so its weight is min(des + 1, k - des - 1).  The class
    vectors P(m) follow the exponential formula over the cycle of the
    smallest letter.  For a cell (i, j), the other k - 3 letters of n's
    cycle are chosen below, between and above i and j, which fixes the
    ranks of i and j inside that cycle; the remaining n - k letters form any
    odd order permutation.

    Vectors are packed ints, W bits a digit, and ``weights`` alone reads
    digits: it folds descents (up to n - 3) into weights of at most (k - 1) / 2,
    so no count lies past d_max, and each digit counts fewer than n! permutations.
    """
    w = factorial(n).bit_length()
    # ends[m][(last, first)]: the permutations of [m] with these end ranks
    ends = _grow({(1, 1): 1}, 1, n - 1, w, lambda m, q, f, s: (f + (s <= f), s <= q))
    digit = (1 << w) - 1

    def weights(k: int, vec: int) -> int:
        """Packed weight vector of k-cycles whose word after k has packed descent vector ``vec``."""
        return sum((vec >> (des * w) & digit) << (min(des + 1, k - des - 1) * w) for des in range(k - 1))

    # cycles[k]: weight vector of all k-cycles on [k]; weights is linear
    cycles = {1: 1} | {k: weights(k, sum(ends[k - 1].values())) for k in range(3, n + 1, 2)}
    classes = [1]  # classes[m]: weight vector of P(m)
    for m in range(1, n + 1):
        classes.append(sum(comb(m - 1, k - 1) * cycles[k] * classes[m - k] for k in range(1, m + 1, 2)))

    @cache
    def with_rest(up: bool, x: int, y: int, z: int) -> int:
        """Packed weight vector of n's k-cycle, k = 3 + x + y + z, holding x, y and z
        letters below, between and above i and j (i < j when ``up``), times any rest."""
        k = 3 + x + y + z
        a, b = (x + 1, x + y + 2) if up else (x + y + 2, x + 1)  # a -> n -> b by rank
        return 0 if k % 2 == 0 else weights(k, ends[k - 1][a, b]) * classes[n - k]

    def cell(i: int, j: int) -> int:
        lo, hi = sorted((i, j))
        return _splits(lo - 1, hi - lo - 1, n - 1 - hi, partial(with_rest, i < j))

    return _freeze("odd", n, classes[n], cell)


_BUILDERS = {"ballot": _ballot_table, "odd": _odd_table}


_TABLES: dict[tuple[str, int], CountTable] = {}


def count_table(kind: str, n: int, store=None) -> CountTable:
    """Memoized count table; optionally backed by an on-disk store (load/save)."""
    _check_kind(kind)
    _check_budget(kind, n)
    key = (kind, n)
    table = _TABLES.get(key)
    if table is not None:
        return table
    if store is not None:
        table = store.load(kind, n)
        if table is not None:
            _TABLES[key] = table
            return table
    table = _BUILDERS[kind](n)
    _TABLES[key] = table
    if store is not None:
        store.save(table)
    return table


def count(kind: str, n: int, d: int | None = None, i: int | None = None, j: int | None = None,
          store=None) -> int:
    """Refined count b(n, d, i, j) or p(n, d, i, j): the class total when d and
    the letters are None, else the members with statistic d, neighbor cell
    (i, j), or both.  n, then d, then the letters are checked before any
    table is built; ``count_table`` then checks the kind and the budget."""
    _check_n(n)
    _check_d(n, d)
    if (i is None) != (j is None):
        raise DomainError("letters i and j must be given together")
    if i is not None:
        _check_letters(n, i, j)
    table = count_table(kind, n, store=store)
    return table.total(d) if i is None else table.cell(d, i, j)


@dataclass(frozen=True)
class CountMatrix:
    """(n-1) x (n-1) matrix of neighbor-cell counts, zero on the diagonal."""

    kind: str
    n: int
    d: int | None
    entries: tuple[tuple[int, ...], ...]

    def to_text(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.entries)

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "d": self.d,
            "entries": [list(row) for row in self.entries],
        }

    def to_csv(self) -> str:
        header = "i\\j," + ",".join(str(j) for j in range(1, self.n))
        lines = [header]
        for i, row in enumerate(self.entries, start=1):
            lines.append(f"{i}," + ",".join(str(v) for v in row))
        return "\n".join(lines)


def build_matrix(kind: str, n: int, d: int | None = None, store=None) -> CountMatrix:
    """Count matrix for one kind at one n; d=None sums over all statistics.

    An n that is not an int is refused as ``count`` refuses it, an int n
    below 3 as too small for a matrix."""
    if _all_ints((n,)) and n < 3:
        raise DomainError(f"count matrices need n >= 3, got {n}")
    _check_n(n)
    _check_d(n, d)
    cells = count_table(kind, n, store=store).cells
    # every layer is zero on its diagonal, so the layers are the matrices
    entries = cells[d] if d is not None else tuple(tuple(map(sum, zip(*rows))) for rows in zip(*cells))
    return CountMatrix(kind=kind, n=n, d=d, entries=entries)


def count_word_pair(n: int, d: int, u, v) -> int:
    """Ballot permutations of [n] with statistic d containing the factor u n v.

    n must be an int within the "ballot" budget, whatever d is, and d an int.
    The letters of u and v must be pairwise distinct integers in [1, n-1]; any
    other pair could never occur.  Each is refused before anything is counted.
    The count is ``_pair_vector``'s split sum over the rank patterns
    ``_rank_dp(n)``, built once per n and shared with the ballot table.
    """
    _check_budget("ballot", n)
    try:
        u, v = tuple(u), tuple(v)
    except TypeError:
        raise DomainError(f"word-pair counts need two words of letters, got {u!r} and {v!r}") from None
    if not u or not v:
        raise DomainError("word-pair counts need nonempty words on both sides")
    check_word(u + v)
    if max(u + v) > n - 1:
        raise DomainError(f"word pair letters must lie in [1, n-1] = [1, {n - 1}]: {u} and {v}")
    if not _all_ints((d,)):
        raise DomainError(f"d must be an int, got {d!r}")
    return _unpack(_pair_vector(n, u, v), n)[d] if d in d_range(n) else 0


class MemberIndex:
    """The members of a classified stream of (member, d, neighbors) triples, grouped.

    The stream may be whole, as ``member_index`` passes it, or seeded, such as
    the odd stream's members with one head.  ``by_d`` maps each statistic to
    the members streamed with it; ``by_cell`` maps (d, i, j) to those whose
    largest letter has neighbors (i, j).  Each group keeps stream order.
    """

    def __init__(self, stream):
        by_d, by_cell = defaultdict(list), defaultdict(list)
        for member, d, nb in stream:
            by_d[d].append(member)
            if nb is not None:
                by_cell[d, nb[0], nb[1]].append(member)
        self.by_d = {d: tuple(ms) for d, ms in by_d.items()}
        self.by_cell = {k: tuple(ms) for k, ms in by_cell.items()}

    def stat_class(self, d: int):
        return self.by_d.get(d, ())

    def cell(self, d: int, i: int, j: int):
        return self.by_cell.get((d, i, j), ())

    def cell_union(self, i: int, j: int):
        """All members containing the factor i n j, any statistic, by increasing statistic."""
        out = []
        for d in sorted(self.by_d):
            out.extend(self.by_cell.get((d, i, j), ()))
        return tuple(out)


@lru_cache(maxsize=None, typed=True)  # typed: 3.0 and True are refused, not read as 3 and 1
def member_index(kind: str, n: int) -> MemberIndex:
    """The whole member stream of one kind at one n, grouped."""
    _check_kind(kind)
    _check_budget("members", n)
    return MemberIndex((_ballot_stream if kind == "ballot" else _odd_stream)(n))


@lru_cache(maxsize=None, typed=True)  # typed, as member_index: True is refused, not read as 1
def anchor_classes(n: int, i: int, j: int) -> tuple[tuple, tuple, tuple]:
    """In ``cell_union`` order: the forward pivot anchor class in the ballot cell (i, j-1),
    the rest of that cell (the letter exchange's domain), the backward class in (j, i)."""
    forward, backward = pivot_words(i, j, n)
    idx = member_index("ballot", n)
    inside, outside = [], []
    for p in idx.cell_union(i, j - 1):
        (inside if is_anchor_decomposable(p, forward) else outside).append(p)
    return (tuple(inside), tuple(outside),
            tuple(p for p in idx.cell_union(j, i) if is_anchor_decomposable(p, backward)))


@lru_cache(maxsize=None, typed=True)  # typed, as member_index: True is refused, not read as 1
def odd_head_index(n: int) -> MemberIndex:
    """The odd order members of [n] in the cells (d, 1, 2) and (d, 1, 3), grouped: those
    whose canonical first cycle opens with 1 n 2, then 1 n 3, each in stream order."""
    _check_budget("odd", n)
    return MemberIndex(chain.from_iterable(_odd_stream(n, (1, n, s)) for s in (2, 3) if s < n))


def clear_memo() -> None:
    """Clear the memos ``_TABLES``, ``member_index``, ``anchor_classes``,
    ``odd_head_index`` and ``_rank_dp``, the rank patterns per n (mainly for
    tests)."""
    _TABLES.clear()
    member_index.cache_clear()
    anchor_classes.cache_clear()
    odd_head_index.cache_clear()
    _rank_dp.cache_clear()
