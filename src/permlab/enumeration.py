"""Ballot and odd order permutations: their member streams and their count tables.

The generators stream every member of one kind at one n and classify it
while they build it: the private streams yield each member with its
statistic d (descents for ballot permutations, cyclic weight for odd order
permutations) and the two neighbors (i, j) of the largest letter, read as
the factor i n j (cyclic inside the decomposition's cycles).  Member lists
and the test suite's reference tables read those triples; ``ballot_cell`` and
``odd_cell`` classify a finished member from scratch, and the tests hold the
streams to them.  Nothing else is counted by classifying members: one subset
DP over ballot prefixes and suffixes counts the ballot tables and the
word-pair counts, and the exponential formula over odd cycles counts the
odd order tables.  The test suite checks every table against the classified
member stream, which stays the oracle, and the word pairs against a factor
search over the members.  Both the stream and the counts keep the same budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

from .cycles import CycleDecomposition, max_letter_neighbors, perm_weight
from .errors import BudgetError, DomainError
from .words import Word, check_word, descents

KINDS = ("ballot", "odd")

# Desk-scale budgets, the largest n each resource serves; larger n fails fast instead of
# running unbounded.  "ballot" and "odd" bound the member streams and the tables of that
# kind, "members" bounds the member lists held in memory by member_index.
BUDGETS = {"ballot": 10, "odd": 11, "members": 9}


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def _check_budget(resource: str, n: int) -> None:
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    cap = BUDGETS[resource]
    if n > cap:
        what = "member lists are" if resource == "members" else f"exhaustive {resource} enumeration is"
        raise BudgetError(f"{what} budgeted up to n={cap}, got n={n}")


def double_factorial(k: int) -> int:
    """k!! with the conventions (-1)!! = 0!! = 1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def ballot_count_closed(n: int) -> int:
    """Closed form for the number of ballot permutations of [n]."""
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    if n % 2 == 0:
        return double_factorial(n - 1) ** 2
    return double_factorial(n) * double_factorial(n - 2)


def _ballot_stream(n: int):
    """Yield (member, descents, neighbors of n) for the ballot permutations of [n],
    once each, in lexicographic order; the neighbors are None when n is last.

    Backtracking over one-line prefixes, pruned as soon as a prefix height
    would go negative.  A whole word of height h has (n - 1 - h) / 2 descents.
    """
    _check_budget("ballot", n)

    def rec(prefix, h, last, avail):
        if len(avail) == 1:  # the last letter completes the word
            x = avail[0]
            h += 1 if x > last else -1
            if h >= 0:
                p = prefix + (x,)
                pos = p.index(n)
                yield p, (n - 1 - h) // 2, None if pos == n - 1 else (p[pos - 1], p[pos + 1])
            return
        for idx, x in enumerate(avail):
            nh = h + 1 if x > last else h - 1
            if nh >= 0:
                yield from rec(prefix + (x,), nh, x, avail[:idx] + avail[idx + 1:])

    # a virtual letter 0 at height -1 makes the first letter an ascent to height 0
    yield from rec((), -1, 0, tuple(range(1, n + 1)))


def _odd_stream(n: int, head: Word = (1,)):
    """Yield (member, cyclic weight, cyclic neighbors of n) for the odd order
    permutations of [n], once each, as canonical decompositions; the neighbors
    are None when n is fixed.

    Cycles are built smallest available letter first; closing a cycle is
    offered before every extension, so the stream is lexicographic on the
    canonical cycle encoding.  The open cycle counts its descents as it grows;
    closing it adds the wrap-around descent back to its smallest letter, and
    the cycle's weight min(cdes, k - cdes) joins the total.

    ``head`` is the opening of the first cycle, which starts with 1: only the
    members whose canonical first cycle opens with these letters are yielded,
    in the same order as in the whole stream.  The members whose n has cyclic
    neighbors (1, s) are exactly those with head (1, n, s).
    """
    _check_budget("odd", n)

    def rec(done, cyc, unused, weight, des, nb):
        k = len(cyc)
        if k % 2 == 1:
            cdes = des + (k > 1)
            total = weight + min(cdes, k - cdes)
            found = nb
            if k > 1 and n in cyc:
                t = cyc.index(n)
                found = cyc[t - 1], cyc[(t + 1) % k]
            if not unused:
                yield done + (cyc,), total, found
            else:  # the next cycle opens at the smallest unused letter
                yield from rec(done + (cyc,), unused[:1], unused[1:], total, 0, found)
        last = cyc[-1]
        for idx, x in enumerate(unused):
            yield from rec(done, cyc + (x,), unused[:idx] + unused[idx + 1:], weight, des + (last > x), nb)

    rest = tuple(x for x in range(1, n + 1) if x not in head)
    yield from rec((), head, rest, 0, descents(head), None)


def enumerate_ballot(n: int):
    """Yield the ballot permutations of [n] once each, in lexicographic order."""
    for member, _, _ in _ballot_stream(n):
        yield member


def enumerate_odd_order(n: int):
    """Yield the odd order permutations of [n] once each, as canonical decompositions,
    in lexicographic order of the cycle encoding."""
    for member, _, _ in _odd_stream(n):
        yield member


def ballot_cell(p: Word) -> tuple[int, tuple[int, int] | None]:
    """(descents, neighbors of n) for a ballot permutation; None when n is last."""
    n = len(p)
    pos = p.index(n)
    nb = None if pos == n - 1 else (p[pos - 1], p[pos + 1])
    return descents(p), nb


def odd_cell(cycles: CycleDecomposition) -> tuple[int, tuple[int, int] | None]:
    """(cyclic weight, cyclic neighbors of n) for a decomposition; None when n is fixed."""
    return perm_weight(cycles), max_letter_neighbors(cycles)


@dataclass(frozen=True)
class CountTable:
    """Full (d, i, j) classification of one kind at one n.

    ``totals[d]`` counts all members with statistic d; ``cells[d][i-1][j-1]``
    counts those whose largest letter has neighbors (i, j).  Counts are
    immutable mathematical facts and never invalidated.
    """

    kind: str
    n: int
    totals: tuple[int, ...]
    cells: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def d_max(self) -> int:
        return (self.n - 1) // 2

    @property
    def grand_total(self) -> int:
        return sum(self.totals)

    def total(self, d: int | None = None) -> int:
        if d is None:
            return self.grand_total
        if d < 0 or d > self.d_max:
            return 0
        return self.totals[d]

    def cell(self, d: int | None, i: int, j: int) -> int:
        if not (1 <= i <= self.n - 1 and 1 <= j <= self.n - 1 and i != j):
            raise DomainError(f"cell letters must satisfy 1 <= i != j <= {self.n - 1}, got ({i}, {j})")
        if d is None:
            return sum(layer[i - 1][j - 1] for layer in self.cells)
        if d < 0 or d > self.d_max:
            return 0
        return self.cells[d][i - 1][j - 1]


def _add(acc: list[int], vec, shift: int = 0, scale: int = 1) -> None:
    """acc[t + shift] += scale * vec[t]; entries that would land past the end of acc are zero."""
    for t, c in enumerate(vec[:len(acc) - shift]):
        acc[t + shift] += scale * c


def _convolve(a, b, size: int) -> list[int]:
    """The first ``size`` entries of the convolution of two statistic vectors."""
    out = [0] * size
    for s, x in enumerate(a[:size]):
        if x:
            _add(out, b, s, x)
    return out


def _letters(mask: int):
    """The letters of a bit set, bit x - 1 standing for letter x."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _freeze(kind: str, n: int, totals, by_pair) -> CountTable:
    """A CountTable from totals and the statistic vectors ``by_pair[i, j]`` of the cells."""
    cells = tuple(
        tuple(tuple(0 if i == j else by_pair[i, j][d] for j in range(1, n)) for i in range(1, n))
        for d in range(len(totals))
    )
    return CountTable(kind=kind, n=n, totals=tuple(totals), cells=cells)


def _ballot_dp(n: int, pairs) -> tuple[list[int], list[list[int]]]:
    """Descent vectors of the ballot permutations of [n] and, for each word pair
    (u, v), of those holding u n v: they read w u n v x.  A forward DP over the
    letter sets of prefixes counts w u[0] and the whole words; u[1:] n v steps on
    from the height of u[0], and a suffix DP counts x after v[-1].  One pass over
    the prefixes serves every pair, grouped by u[0].
    """
    size = (n - 1) // 2 + 1
    full = (1 << n) - 1
    # forward[mask][(last, h)]: descent vector of the ballot words on the
    # letters of mask that end with last at height h
    forward: list[dict[tuple[int, int], list[int]]] = [{} for _ in range(full + 1)]
    forward[0][0, -1] = [1] + [0] * (size - 1)  # the first letter climbs from a virtual 0 at -1
    for mask in range(full):
        for (last, h), vec in forward[mask].items():
            for y in _letters(full & ~mask):
                if y > last:
                    key, shift = (y, h + 1), 0
                elif h:
                    key, shift = (y, h - 1), 1
                else:
                    continue
                _add(forward[mask | 1 << (y - 1)].setdefault(key, [0] * size), vec, shift)
    totals = [0] * size
    for vec in forward[full].values():
        _add(totals, vec)

    @cache
    def suffix(rest: int, first: int, h: int) -> list[int]:
        """Descent vector of the words on ``rest`` that start with ``first``
        at height h and stay at height >= 0."""
        vec = [0] * size
        after = rest & ~(1 << (first - 1))
        if not after:
            vec[0] = 1
        for y in _letters(after):
            if y > first:
                _add(vec, suffix(after, y, h + 1))
            elif h:
                _add(vec, suffix(after, y, h - 1), 1)
        return vec

    vectors = [[0] * size for _ in pairs]
    by_u0: dict[int, list] = {}
    for acc, (u, v) in zip(vectors, pairs):
        steps = u[1:] + (n,) + v
        by_u0.setdefault(u[0], []).append((acc, steps, sum(1 << (x - 1) for x in steps)))
    for mask in range(1 << (n - 1)):  # n is pinned, so no prefix holds it
        for (u0, h0), vec in forward[mask].items():
            for acc, steps, pinned in by_u0.get(u0, ()):
                if mask & pinned:
                    continue
                last, h, shift = u0, h0, 0
                for y in steps:
                    h, shift = (h + 1, shift) if y > last else (h - 1, shift + 1)
                    last = y
                    if h < 0:
                        break
                else:
                    rest = full & ~mask & ~pinned | 1 << (last - 1)
                    _add(acc, _convolve(vec, suffix(rest, last, h), size), shift)
    return totals, vectors


def _ballot_table(n: int) -> CountTable:
    """B(n, .): the neighbor cell (i, j) counts the ballot permutations holding i n j."""
    cells = [(i, j) for i in range(1, n) for j in range(1, n) if i != j]
    totals, vectors = _ballot_dp(n, [((i,), (j,)) for i, j in cells])
    return _freeze("ballot", n, totals, dict(zip(cells, vectors)))


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
    """
    size = (n - 1) // 2 + 1
    # ends[m][(first, last)]: descent vector of the permutations of [m] with
    # these end letters, grown by appending a letter of each relative rank
    ends: list[dict[tuple[int, int], list[int]]] = [{}, {(1, 1): [1]}]
    for m in range(1, n - 1):
        grown: dict[tuple[int, int], list[int]] = {}
        for (f, q), vec in ends[m].items():
            for r in range(1, m + 2):
                # the new last letter has rank r: old ranks >= r move up one,
                # and it is a descent when it lands below the old last letter
                acc = grown.setdefault((f + (r <= f), r), [0] * (m + 1))
                _add(acc, vec, 1 if r <= q else 0)
        ends.append(grown)

    def weights(k: int, vec) -> list[int]:
        """Weight vector of k-cycles whose word after k has descent vector ``vec``."""
        out = [0] * size
        for des, c in enumerate(vec):
            out[min(des + 1, k - des - 1)] += c
        return out

    cycles = {1: [1] + [0] * (size - 1)}  # cycles[k]: weight vector of all k-cycles on [k]
    for k in range(3, n + 1, 2):
        cycles[k] = [0] * size
        for vec in ends[k - 1].values():
            _add(cycles[k], weights(k, vec))
    classes = [[1] + [0] * (size - 1)]  # classes[m]: weight vector of P(m)
    for m in range(1, n + 1):
        out = [0] * size
        for k in range(1, m + 1, 2):
            _add(out, _convolve(cycles[k], classes[m - k], size), 0, comb(m - 1, k - 1))
        classes.append(out)

    @cache
    def with_rest(k: int, a: int, b: int) -> list[int]:
        """Weight vector of n's k-cycle, with a -> n -> b by rank, times any rest."""
        return _convolve(weights(k, ends[k - 1][b, a]), classes[n - k], size)

    by_pair = {}
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                continue
            lo, hi = min(i, j), max(i, j)
            acc = by_pair[i, j] = [0] * size
            for k in range(3, n + 1, 2):
                for x in range(k - 2):
                    for y in range(k - 2 - x):
                        ways = comb(lo - 1, x) * comb(hi - lo - 1, y) * comb(n - 1 - hi, k - 3 - x - y)
                        if ways:
                            r_lo, r_hi = x + 1, x + y + 2
                            a, b = (r_lo, r_hi) if i < j else (r_hi, r_lo)
                            _add(acc, with_rest(k, a, b), 0, ways)
    return _freeze("odd", n, classes[n], by_pair)


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


@dataclass(frozen=True)
class CountKey:
    """Query key for refined counts: n, optional statistic d, optional letters (i, j)."""

    n: int
    d: int | None = None
    i: int | None = None
    j: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be at least 1, got {self.n}")
        if self.d is not None and not 0 <= self.d <= (self.n - 1) // 2:
            raise DomainError(f"d must satisfy 0 <= d <= {(self.n - 1) // 2}, got {self.d}")
        if (self.i is None) != (self.j is None):
            raise DomainError("letters i and j must be given together")
        if self.i is not None:
            if not (1 <= self.i <= self.n - 1 and 1 <= self.j <= self.n - 1):
                raise DomainError(f"letters must lie in [1, {self.n - 1}], got ({self.i}, {self.j})")
            if self.i == self.j:
                raise DomainError("letters i and j must differ")


def count(kind: str, key: CountKey, store=None) -> int:
    """Refined count for ``key``: total, by statistic, by neighbor cell, or both."""
    table = count_table(_check_kind(kind), key.n, store=store)
    if key.i is None:
        return table.total(key.d)
    return table.cell(key.d, key.i, key.j)


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
    """Count matrix for one kind at one n; d=None sums over all statistics."""
    if n < 3:
        raise DomainError(f"count matrices need n >= 3, got {n}")
    if d is not None and not 0 <= d <= (n - 1) // 2:
        raise DomainError(f"d must satisfy 0 <= d <= {(n - 1) // 2}, got {d}")
    table = count_table(_check_kind(kind), n, store=store)
    entries = tuple(
        tuple(0 if i == j else table.cell(d, i, j) for j in range(1, n))
        for i in range(1, n)
    )
    return CountMatrix(kind=kind, n=n, d=d, entries=entries)


def count_word_pair(n: int, d: int, u, v) -> int:
    """Ballot permutations of [n] with statistic d containing the factor u n v.

    The letters of u and v must be pairwise distinct integers in [1, n-1]; any
    other pair could never occur, and is refused before anything is counted.
    An n past the "ballot" budget is refused whatever d is.  The count is read
    from ``_word_pair_vectors`` as a batch of one pair.
    """
    u, v = tuple(u), tuple(v)
    if not u or not v:
        raise DomainError("word-pair counts need nonempty words on both sides")
    check_word(u + v)
    if max(u + v) > n - 1:
        raise DomainError(f"word pair letters must lie in [1, n-1] = [1, {n - 1}]: {u} and {v}")
    _check_budget("ballot", n)
    if d < 0 or d > (n - 1) // 2:
        return 0
    return _word_pair_vectors(n, ((u, v),))[0][d]


@cache
def _word_pair_vectors(n: int, pairs: tuple[tuple[Word, Word], ...]) -> tuple[tuple[int, ...], ...]:
    """Per word pair (u, v), the ballot permutations of [n] holding u n v by statistic."""
    return tuple(map(tuple, _ballot_dp(n, pairs)[1]))


class MemberIndex:
    """Member lists of one kind at one n, classified by (d, i, j).

    ``by_d`` maps each statistic to all members; ``by_cell`` maps (d, i, j)
    to the members whose largest letter has neighbors (i, j).
    """

    def __init__(self, kind: str, n: int):
        self.n = n
        by_d: dict[int, list] = {}
        by_cell: dict[tuple[int, int, int], list] = {}
        for member, d, nb in (_ballot_stream if kind == "ballot" else _odd_stream)(n):
            by_d.setdefault(d, []).append(member)
            if nb is not None:
                by_cell.setdefault((d, nb[0], nb[1]), []).append(member)
        self.by_d = {d: tuple(ms) for d, ms in by_d.items()}
        self.by_cell = {k: tuple(ms) for k, ms in by_cell.items()}

    def stat_class(self, d: int):
        return self.by_d.get(d, ())

    def cell(self, d: int, i: int, j: int):
        return self.by_cell.get((d, i, j), ())

    def cell_union(self, i: int, j: int):
        """All members containing the factor i n j, any statistic."""
        out = []
        for d in range((self.n - 1) // 2 + 1):
            out.extend(self.by_cell.get((d, i, j), ()))
        return tuple(out)


@cache
def member_index(kind: str, n: int) -> MemberIndex:
    _check_kind(kind)
    _check_budget("members", n)
    return MemberIndex(kind, n)


def clear_memo() -> None:
    """Clear the memos ``_TABLES``, ``member_index`` and ``_word_pair_vectors`` (mainly for tests)."""
    _TABLES.clear()
    member_index.cache_clear()
    _word_pair_vectors.cache_clear()
