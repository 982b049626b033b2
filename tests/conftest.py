import itertools

import pytest
from hypothesis import HealthCheck, settings

from permlab.enumeration import _ballot_stream, _odd_stream
from permlab.words import is_ballot

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
