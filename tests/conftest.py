import itertools
from functools import cache
from math import factorial

import pytest
from hypothesis import HealthCheck, settings

from permlab.cycles import max_letter_neighbors, perm_weight
from permlab.enumeration import _ballot_stream, _odd_stream
from permlab.words import descents, height, is_ballot

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


# Independent reference enumerations: plain filters over S_n, kept apart from
# the pruned generators they are used to check.

def oracle_ballot(n):
    return [p for p in itertools.permutations(range(1, n + 1)) if is_ballot(p)]


def oracle_cycle_form(p):
    n, seen, cycles = len(p), set(), []
    for start in range(1, n + 1):
        if start in seen:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = p[x - 1]
        k = cyc.index(min(cyc))
        cycles.append(tuple(cyc[k:] + cyc[:k]))
    return tuple(sorted(cycles, key=lambda c: c[0]))


def oracle_odd_order(n):
    out = []
    for p in itertools.permutations(range(1, n + 1)):
        cycles = oracle_cycle_form(p)
        if all(len(c) % 2 == 1 for c in cycles):
            out.append(cycles)
    return out


def oracle_anchor_split(p, anchor):
    """(fits, parts) of ``p`` around a nonempty ``anchor`` by the two-filter search.

    The search the one-scan carry replaced, kept as its oracle: a plain slice
    search for the leftmost occurrence, the height of every prefix
    p[:split + g] against the anchor's, then the ballot test of each reversed
    carry followed by the anchor's last letter.  ``fits`` is whether some
    carry meets the height condition, and ``parts`` the (head, anchor, carry,
    tail) with the longest carry passing both filters, or None.
    """
    k = len(anchor)
    start = next((s for s in range(len(p) - k + 1) if p[s:s + k] == anchor), None)
    if start is None:
        return False, None
    split = start + k
    lengths = [g for g in range(len(p) - split + 1) if height(p[:split + g]) == height(anchor)]
    kept = [g for g in lengths if is_ballot(p[split:split + g][::-1] + anchor[-1:])]
    if not kept:
        return bool(lengths), None
    g = max(kept)
    return True, (p[:start], anchor, p[split:split + g], p[split + g:])


def oracle_swap_letters(w, a, b):
    """The letter swap as the comprehension it was first written as."""
    return tuple(b if x == a else a if x == b else x for x in w)


def oracle_normalize(cycles):
    """Min-first rotation and sort as first written: every cycle rotated at its
    minimum's index, even a cycle that already starts with its minimum."""
    out = []
    for c in cycles:
        k = c.index(min(c))
        out.append(c[k:] + c[:k] if k else c)
    out.sort()
    return tuple(out)


def oracle_member_index(stream):
    """(by_d, by_cell) of a classified stream, grouped as first written: one
    ``setdefault`` per member and key, then each group frozen in stream order."""
    by_d, by_cell = {}, {}
    for member, d, nb in stream:
        by_d.setdefault(d, []).append(member)
        if nb is not None:
            by_cell.setdefault((d, nb[0], nb[1]), []).append(member)
    return ({d: tuple(ms) for d, ms in by_d.items()},
            {k: tuple(ms) for k, ms in by_cell.items()})


def ballot_cell(p):
    """(descents, neighbors of n) for a ballot permutation; None when n is last."""
    n = len(p)
    pos = p.index(n)
    nb = None if pos == n - 1 else (p[pos - 1], p[pos + 1])
    return descents(p), nb


def odd_cell(cycles):
    """(cyclic weight, cyclic neighbors of n) for a decomposition; None when n is fixed."""
    return perm_weight(cycles), max_letter_neighbors(cycles)


@pytest.fixture(scope="session")
def small_ballot():
    return {n: oracle_ballot(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def ballot_factor_oracle(small_ballot):
    """(n, needle) -> {d: ballot members of [n] with d descents holding ``needle``}.

    Plain tuple-slice factor search over the filtered S_n, for n <= 8; the
    empty needle selects every member.
    """
    members = {**small_ballot, 8: oracle_ballot(8)}

    def lookup(n, needle=()):
        k, by_d = len(needle), {}
        for w in members[n]:
            if any(w[s:s + k] == needle for s in range(n - k + 1)):
                d = sum(1 for a, b in zip(w, w[1:]) if a > b)
                by_d.setdefault(d, []).append(w)
        return by_d

    return lookup


@pytest.fixture(scope="session")
def small_odd():
    return {n: oracle_odd_order(n) for n in range(1, 8)}


STREAMS = {"ballot": _ballot_stream, "odd": _odd_stream}


@pytest.fixture(scope="session")
def drained():
    """(kind, n) -> the (member, statistic, neighbors) triples of that stream, in order.

    The streams up to n = 9 are read by several tests (the reference tables,
    the classifier comparison, the word-pair oracle), so each is drained once
    a session and kept as a list.  An n = 10 stream, about 900 000 members,
    is read by the reference tables alone, so it is streamed, not kept.
    """
    kept = {}

    def triples(kind, n):
        if n > 9:
            return STREAMS[kind](n)
        if (kind, n) not in kept:
            kept[kind, n] = list(STREAMS[kind](n))
        return kept[kind, n]

    return triples


def reference_table(triples, n):
    """(totals, cells) of one count table, by classifying every streamed member.

    The exhaustive builder the exact counting DP replaced, kept as its oracle:
    one pass over the pruned generator's triples, each member with its
    statistic and neighbor cell; test_enumeration holds those to the
    standalone classifiers ballot_cell and odd_cell.
    """
    d_max = (n - 1) // 2
    totals = [0] * (d_max + 1)
    cells = [[[0] * (n - 1) for _ in range(n - 1)] for _ in range(d_max + 1)]
    for _, d, nb in triples:
        totals[d] += 1
        if nb is not None:
            cells[d][nb[0] - 1][nb[1] - 1] += 1
    return tuple(totals), tuple(tuple(tuple(row) for row in layer) for layer in cells)


@pytest.fixture(scope="session")
def enumeration_reference(drained):
    return lambda kind, n: reference_table(drained(kind, n), n)


def _letters(mask):
    """The letters of a bit set, bit x - 1 standing for letter x."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def subset_dp(n, pairs):
    """(totals, [vector per word pair (u, v)]) of the ballot permutations of [n],
    packed as ``enumeration._pair_vector`` packs them, by a DP over letter sets.

    The subset DP the relative-rank DP replaced, kept as its witness.  A member
    holding u n v reads w u n v x: a forward DP over the letter sets of
    prefixes counts w u[0] and the whole words; u[1:] n v steps on from the
    height of u[0], and a suffix DP over letter sets counts x after v[-1].  It
    takes 2^n steps, so it serves n <= 11 or so.
    """
    w = factorial(n).bit_length()
    full = (1 << n) - 1
    # forward[mask][(last, h)]: packed descent vector of the ballot words on
    # the letters of mask that end with last at height h
    forward = [{} for _ in range(full + 1)]
    forward[0][0, -1] = 1  # the first letter climbs from a virtual 0 at -1
    for mask in range(full):
        free = [(y, forward[mask | 1 << (y - 1)]) for y in _letters(full & ~mask)]
        for (last, h), vec in forward[mask].items():
            down = vec << w
            for y, grown in free:
                if y > last:
                    key = y, h + 1
                    grown[key] = grown.get(key, 0) + vec
                elif h:
                    key = y, h - 1
                    grown[key] = grown.get(key, 0) + down
    totals = sum(forward[full].values())

    @cache
    def suffix(rest, first, h):
        """Packed descent vector of the words on ``rest`` that start with
        ``first`` at height h and stay at height >= 0."""
        after = rest & ~(1 << (first - 1))
        vec = 0 if after else 1  # the empty word after ``first``
        for y in _letters(after):
            if y > first:
                vec += suffix(after, y, h + 1)
            elif h:
                vec += suffix(after, y, h - 1) << w
        return vec

    # walks[u0, h0]: the pairs whose steps u[1:] n v, walked from u0 at height
    # h0, stay at height >= 0, each as (its index, the letters of the steps,
    # the letters left for x plus v[-1], v[-1], the height of v[-1])
    walks = {}
    for t, (u, v) in enumerate(pairs):
        steps = u[1:] + (n,) + v
        pinned = sum(1 << (x - 1) for x in steps)
        keep = full & ~pinned | 1 << (v[-1] - 1)
        for h0 in range(n):
            last, h = u[0], h0
            for y in steps:
                h += 1 if y > last else -1
                last = y
                if h < 0:
                    break
            else:
                walks.setdefault((u[0], h0), []).append((t, pinned, keep, last, h))
    vectors = [0] * len(pairs)
    for mask in range(1 << (n - 1)):  # n is pinned, so no prefix holds it
        for key, vec in forward[mask].items():
            for t, pinned, keep, last, h in walks.get(key, ()):
                if not mask & pinned:
                    vectors[t] += vec * suffix(keep & ~mask, last, h)
    return totals, [vec << (descents(u + (n,) + v) * w) for vec, (u, v) in zip(vectors, pairs)]


@pytest.fixture(scope="session")
def ballot_subset_dp():
    return subset_dp
