"""Named exhaustive checks of every counting identity against the count tables and member streams.

Each check is a generator of the cells at one size n.  ``run_check`` owns the
one sweep, from the check's ``min_n`` up to the requested bound: it makes the
cells of every size, then evaluates and counts them.  A cell is one of two
kinds: ``_same`` compares the two sides of an identity between table cells
(or class sizes) exactly and is the list of counterexamples it found, and a
map cell certifies a map between member cells by round trip through its
inverse (so the map is injective), per-member invariants, and image-set
equality against exhaustive enumeration; a member that either map refuses is
a counterexample of its cell.  ``T_roundtrip``'s map cell, ``_shift_cell``,
calls its two shift kernels itself; the other map checks' is ``_bijection``,
and both end in ``_verdict``.  Both read their per-member callables once,
when the cell starts, and ``_verdict`` holds the image to the target by size
and containment, building the target's set only to word a counterexample;
``_cycle_profile``, the ``cycle_stats`` invariant, builds its list in one
loop and sorts it in place.  The map checks call the maps' cores, which
trust the streams' canonical members and check only their factor, and
``phi_bijection`` calls ``words._swapped`` with one table per (i, j); the
three anchor checks share one split per cell, ``anchor_classes``.  The public maps and core searches
imported beside the cores are bound only for perfbench's traced catalog run,
which rebinds them (tests/test_verify.py holds the list).  Every violated
cell is recorded, so conjecture-style checks report counterexamples instead
of raising and the harness doubles as a counterexample search at larger
budgets.  Reports are deterministic apart from wall time.

The five map checks (``lemma21``, ``thm23_bijection``, ``phi_bijection``,
``T_roundtrip``, ``lemma42``) yield their map cells deferred, as partials
with every argument bound, and read every memo they need (member indexes,
anchor classes, the seeded odd index of ``lemma42``, the shift and
contraction kernels with every table they read) while they make them, so
the memos stay in this process when ``_run_cells`` forks.
``_run_cells`` runs the deferred cells on every CPU in the process's
affinity, with at least ``_MEMBERS_PER_WORKER`` members a worker so that a
fork never costs more than the work it takes over, and merges the results
in cell order, so a report does not depend on the worker count.  No option
sets that count: ``taskset -c 0`` runs every cell in one process, as does a
process without ``os.fork`` or ``os.sched_getaffinity``, or with a second
thread, which could hold a lock that a child would wait on forever.  Each
child writes one pickle envelope, (True, its cells' counterexamples) or
(False, the exception a cell raised): pickle carries exceptions as well as
results, so the parent raises a child's exception again with its type.  A
child exits with status 0 only once its envelope is written, so an envelope
that does not load, from a child that died or whose exception does not
pickle or unpickle, is reported by that status.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass
from functools import partial
from itertools import permutations
from operator import gt
from typing import Callable, Iterable

from .bijections import _contractor, _cycle_flip, _flank_swap, anchor_decompose, pivot_words
from .bijections import contract, cycle_flip, exchange_letters, flank_swap, is_anchor_decomposable  # noqa: F401
from .cycles import format_cycles
from .enumeration import (
    BUDGETS,
    KINDS,
    anchor_classes,
    ballot_count_closed,
    count_table,
    count_word_pair,
    d_range,
    member_index,
    odd_head_index,
)
from .errors import BudgetError, DomainError
from .toeplitz import _mover, lower_core, shift, shift_inv, upper_core  # noqa: F401
from .words import _all_ints, _swapped, format_word, height, is_ballot


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check: pass/fail with the violated cells listed."""

    check: str
    max_n: int
    cells_checked: int
    status: str
    counterexamples: tuple[dict, ...]
    wall_time_ms: float

    def to_json_obj(self) -> dict:
        return dict(asdict(self), counterexamples=list(self.counterexamples))


def _ce(params: dict, lhs, rhs, **more) -> dict:
    return {"params": dict(params, **more), "lhs": lhs, "rhs": rhs}


def _fmt(member) -> str:
    if member and isinstance(member[0], tuple):
        return format_cycles(member)
    return format_word(member)


def _same(params: dict, lhs, rhs) -> list:
    """One cell of an identity: its counterexample when the two sides differ."""
    return [] if lhs == rhs else [_ce(params, lhs, rhs)]


def _bijection(params: dict, domain, target, fwd, inv, invariants=()) -> list:
    """One cell of a bijection: counterexamples unless ``fwd`` maps ``domain`` onto ``target``.

    Each member p is mapped once to q = fwd(p), and ``inv`` must send q back
    to p, which proves fwd injective; the image must then equal the target as
    a set.  Each invariant is a (property, broken) pair, where ``broken(p, q)``
    returns None while the invariant holds and otherwise the (lhs, rhs) pair
    to report for p.  A member that fwd or inv refuses with a DomainError is
    reported with the message, and the cell goes on to the next member.
    """
    bad, image, roundtrip = [], set(), True
    keep = image.add
    for p in domain:
        try:
            q = fwd(p)
            roundtrip &= inv(q) == p
        except DomainError as exc:
            bad.append(_ce(params, str(exc), "mapped", property="refused", perm=_fmt(p)))
            continue
        for prop, broken in invariants:
            sides = broken(p, q)
            if sides is not None:
                bad.append(_ce(params, *sides, property=prop, perm=_fmt(p)))
        keep(q)
    return _verdict(params, bad, roundtrip, image, target)


def _verdict(params: dict, bad: list, roundtrip: bool, image: set, target) -> list:
    """A map cell's counterexamples: its members' ``bad``, a broken round trip, an image off the target.

    The target, a cell or class of one member stream, holds distinct members, so the image equals
    it as a set exactly when the two are as large and the image holds every target member; the
    target's own set is built only to word the counterexample."""
    if not roundtrip:
        bad.append(_ce(params, "round trip", "identity", property="roundtrip"))
    if not (len(image) == len(target) and image.issuperset(target)):
        wanted = set(target)
        bad.append(_ce(params, "missing " + "; ".join(_fmt(x) for x in sorted(wanted - image)[:3]),
                       "extra " + "; ".join(_fmt(x) for x in sorted(image - wanted)[:3]), property="image"))
    return bad


def _spread_pairs(n: int):
    """(i, j) with 1 <= i and i+2 <= j <= n-1."""
    for i in range(1, n - 2):
        for j in range(i + 2, n):
            yield i, j


def _closed_form(n: int):
    b = count_table("ballot", n).grand_total
    p = count_table("odd", n).grand_total
    c = ballot_count_closed(n)
    yield [] if b == c == p else [_ce({"n": n}, f"ballot={b} odd={p}", f"closed_form={c}")]


def _recurrence(kind: str, n: int):
    lhs, prev, prev2 = (count_table(kind, m).grand_total for m in (n, n - 1, n - 2))
    yield _same({"kind": kind, "n": n}, lhs, prev + (n - 1) * (n - 2) * prev2)


def _lemma21(n: int):
    for kind, cyclic in (("ballot", False), ("odd", True)):
        idx = member_index(kind, n)
        small = member_index(kind, n - 2)
        for i in range(1, n):
            for j in (i - 1, i + 1):
                if not 1 <= j <= n - 1:
                    continue
                maps = _contractor(n, i, j, False, cyclic), _contractor(n, i, j, True, cyclic)
                for d in d_range(n):
                    yield partial(_bijection, {"kind": kind, "n": n, "d": d, "i": i, "j": j},
                                  idx.cell(d, i, j), small.stat_class(d - 1) if d >= 1 else (), *maps)


def _lemma22(n: int):
    # only members of a pivot word's anchor class can split around it
    for i, j in _spread_pairs(n):
        forward, backward = pivot_words(i, j, n)
        forward_class, _, backward_class = anchor_classes(n, i, j)
        for word, members in ((forward, forward_class), (backward, backward_class)):
            for p in members:
                dec = anchor_decompose(p, word)
                broken = dec is None or (dec.tail and not is_ballot(dec.tail)
                                         and not (dec.carry_last > dec.tail[0] and height(word) != 1))
                if not broken:
                    yield []
                    continue
                params = {"n": n, "i": i, "j": j, "anchor": format_word(word), "perm": format_word(p)}
                if dec is None:
                    # a class member that does not split is a fault, not a skip
                    yield [_ce(params, "no split", "a split around the anchor", property="no split")]
                else:
                    yield [_ce(params, f"carry_last={dec.carry_last} tail_1={dec.tail[0]}",
                               f"anchor_height={height(word)}")]


def _thm23(n: int):
    for i, j in _spread_pairs(n):
        forward, backward = pivot_words(i, j, n)
        forward_class, _, backward_class = anchor_classes(n, i, j)
        yield partial(_bijection, {"n": n, "i": i, "j": j}, forward_class, backward_class,
                      partial(_flank_swap, src=forward, dst=backward),
                      partial(_flank_swap, src=backward, dst=forward))


def _x_lambda(n: int):
    table = count_table("ballot", n)
    for i, j in _spread_pairs(n):
        forward_class, _, backward_class = anchor_classes(n, i, j)
        yield _same({"n": n, "i": i, "j": j, "side": "forward"}, len(forward_class),
                    table.cell(None, i, j - 1) - table.cell(None, i, j))
        yield _same({"n": n, "i": i, "j": j, "side": "backward"}, len(backward_class),
                    table.cell(None, j, i) - table.cell(None, j - 1, i))


def _phi(n: int):
    idx = member_index("ballot", n)
    for i, j in _spread_pairs(n):
        # on its domain exchange_letters is the swap of j-1 and j, its own inverse
        swap = partial(_swapped, swap={j - 1: j, j: j - 1}.get)
        yield partial(_bijection, {"n": n, "i": i, "j": j}, anchor_classes(n, i, j)[1], idx.cell_union(i, j),
                      swap, swap)


def _toeplitz(kind: str, n: int):
    # every layer is zero on its diagonal, so the layers are the matrices
    for d, layer in enumerate(count_table(kind, n).cells):
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                yield _same({"kind": kind, "n": n, "d": d, "i": i, "j": j},
                            layer[i - 1][j - 1], layer[i][j])


def _symmetry_p(n: int):
    table = count_table("odd", n)
    for d in d_range(n):
        for i in range(1, n):
            for j in range(i + 1, n):
                yield _same({"n": n, "d": d, "i": i, "j": j}, table.cell(d, i, j), table.cell(d, j, i))


def _cycle_profile(cycles):
    """(length, cyclic descents) of each cycle, sorted: one loop builds the list, sorted in place.
    A cycle's descents compare each letter with the one before it, its first with its last."""
    out = []
    for c in cycles:
        out.append((len(c), sum(map(gt, c[-1:] + c, c))) if len(c) > 1 else (1, 0))
    out.sort()
    return out


def _shift_cell(params: dict, domain, target, forward, backward, cyclic: bool) -> list:
    """One ``T_roundtrip`` cell: ``_bijection`` with its two shift kernels called in place.  Each
    move returns the width of the core it read, so the width invariant compares p's lower core with
    q's upper core; on decompositions each cycle's length and cyclic descents must also stay."""
    bad, image, roundtrip = [], set(), True
    profile, keep = _cycle_profile, image.add  # read once per cell, when the cell starts
    for p in domain:
        try:
            q, lower = forward(p)
            back, upper = backward(q)
        except DomainError as exc:
            bad.append(_ce(params, str(exc), "mapped", property="refused", perm=_fmt(p)))
            continue
        roundtrip &= back == p
        if lower != upper:
            bad.append(_ce(params, lower, upper, property="width", perm=_fmt(p)))
        if cyclic and (before := profile(p)) != (after := profile(q)):
            bad.append(_ce(params, str(before), str(after), property="cycle_stats", perm=_fmt(p)))
        keep(q)
    return _verdict(params, bad, roundtrip, image, target)


def _t_roundtrip(n: int):
    for kind, cyclic in (("ballot", False), ("odd", True)):
        idx = member_index(kind, n)
        for d in d_range(n):
            for i, j in permutations(range(1, n - 1), 2):
                yield partial(_shift_cell, {"kind": kind, "n": n, "d": d, "i": i, "j": j},
                              idx.cell(d, i, j), idx.cell(d, i + 1, j + 1),
                              _mover(n, i, j, cyclic, False), _mover(n, i, j, cyclic, True), cyclic)


def _conj_spiro(n: int):
    bt = count_table("ballot", n)
    pt = count_table("odd", n)
    for d in d_range(n):
        yield _same({"n": n, "d": d}, bt.total(d), pt.total(d))


def _conj_refined(n: int):
    bt = count_table("ballot", n)
    pt = count_table("odd", n)
    for d in d_range(n):
        for j in range(2, n):
            yield _same({"n": n, "d": d, "j": j}, bt.cell(d, 1, j) + bt.cell(d, j, 1), 2 * pt.cell(d, 1, j))


def _prop41(n: int):
    bt = count_table("ballot", n)
    pt = count_table("odd", n)
    yield _same({"n": n, "d": 1, "cell": "b(1,2)"}, bt.cell(1, 1, 2), 1)
    yield _same({"n": n, "d": 1, "cell": "b(2,1)"}, bt.cell(1, 2, 1), 1)
    yield _same({"n": n, "d": 1, "cell": "p(1,2)"}, pt.cell(1, 1, 2), 1)
    for j in range(3, n):
        for label, lhs, rhs in (("b(j,1)", bt.cell(1, j, 1), 2 ** (j - 2)),
                                ("b(1,j)", bt.cell(1, 1, j), 0),
                                ("p(1,j)", pt.cell(1, 1, j), 2 ** (j - 3))):
            yield _same({"n": n, "d": 1, "j": j, "cell": label}, lhs, rhs)


def _lemma42(n: int):
    def lengths(p, q):
        return None if sorted(map(len, p)) == sorted(map(len, q)) else (_fmt(p), _fmt(q))

    # only the cells (d, 1, 2) and (d, 1, 3) are streamed, once per n, never the whole member list
    idx = odd_head_index(n)
    for d in d_range(n):
        yield partial(_bijection, {"n": n, "d": d}, idx.cell(d, 1, 2), idx.cell(d, 1, 3),
                      _cycle_flip, _cycle_flip, (("cycle_lengths", lengths),))


# The word pairs (u, v) of prop43_words by label: two ascending, each equated
# with the class total of [n-3] one statistic down, then two descending, two down.
_PROP43_PAIRS = {"u=1 v=23": ((1,), (2, 3)), "u=23 v=1": ((2, 3), (1,)),
                 "u=1 v=32": ((1,), (3, 2)), "u=32 v=1": ((3, 2), (1,))}


def _prop43(n: int):
    bt = count_table("ballot", n)
    small = count_table("ballot", n - 3)
    for d in d_range(n):
        counts = [count_word_pair(n, d, u, v) for u, v in _PROP43_PAIRS.values()]
        for k, (label, lhs) in enumerate(zip(_PROP43_PAIRS, counts)):
            yield _same({"n": n, "d": d, "pair": label}, lhs, small.total(d - 1 - k // 2))
        right_up, left_up, right_down, left_down = counts
        yield _same({"n": n, "d": d, "identity": "right pairs"}, bt.cell(d, 1, 2) - bt.cell(d, 1, 3),
                    right_up - right_down)
        yield _same({"n": n, "d": d, "identity": "left pairs"}, bt.cell(d, 3, 1) - bt.cell(d, 2, 1),
                    left_up - left_down)


def _eq_bnd_pnd(n: int):
    for kind in KINDS:
        table = count_table(kind, n)
        prev = count_table(kind, n - 1)
        for d in d_range(n):
            # every layer is zero on its diagonal, so its sum is the sum over i != j
            yield _same({"kind": kind, "n": n, "d": d}, table.total(d),
                        prev.total(d) + sum(map(sum, table.cells[d])))


@dataclass(frozen=True)
class CheckInfo:
    """One catalog entry.

    ``reads`` names the budgets in ``enumeration.BUDGETS`` that the cells draw
    on: "ballot" or "odd" for the streams, count tables and word-pair counts
    of that kind, "members" for whole member lists.  The cells at size n read
    no size above n, so the check's cap is the smallest budget it reads.
    """

    name: str
    description: str
    default_max_n: int
    min_n: int
    cells: Callable[[int], Iterable[list]]  # the cells at one size n, each its counterexamples
    reads: tuple[str, ...]

    @property
    def budget_cap(self) -> int:
        return min(BUDGETS[resource] for resource in self.reads)


CHECKS: dict[str, CheckInfo] = {info.name: info for info in (
    CheckInfo("closed_form",
              "enumerated ballot and odd order totals match the double factorial closed form",
              10, 1, _closed_form, ("ballot", "odd")),
    CheckInfo("recurrence_b",
              "ballot totals satisfy b(n) = b(n-1) + (n-1)(n-2) b(n-2)",
              10, 3, partial(_recurrence, "ballot"), ("ballot",)),
    CheckInfo("recurrence_p",
              "odd order totals satisfy p(n) = p(n-1) + (n-1)(n-2) p(n-2)",
              10, 3, partial(_recurrence, "odd"), ("odd",)),
    CheckInfo("lemma21",
              "cells with adjacent neighbor letters contract bijectively onto the class two letters down",
              8, 3, _lemma21, ("members",)),
    CheckInfo("lemma22",
              "anchor splits with a non-ballot tail have a descending junction and anchor height != 1",
              7, 4, _lemma22, ("members",)),
    CheckInfo("thm23_bijection",
              "the flank swap is a bijection between the two pivot anchor classes",
              8, 4, _thm23, ("members",)),
    CheckInfo("x_lambda_identity",
              "anchor class sizes equal differences of adjacent neighbor cell counts",
              8, 4, _x_lambda, ("members", "ballot")),
    CheckInfo("phi_bijection",
              "swapping the letters j-1 and j maps the complement class onto the shifted cell",
              8, 4, _phi, ("members",)),
    CheckInfo("toeplitz_B",
              "ballot count matrices are constant along diagonals for every descent number",
              8, 3, partial(_toeplitz, "ballot"), ("ballot",)),
    CheckInfo("toeplitz_P",
              "odd order count matrices are constant along diagonals for every weight",
              9, 3, partial(_toeplitz, "odd"), ("odd",)),
    CheckInfo("symmetry_P",
              "odd order count matrices are symmetric",
              9, 3, _symmetry_p, ("odd",)),
    CheckInfo("T_roundtrip",
              "diagonal shifts round-trip, preserve statistics, and hit the whole target cell",
              8, 4, _t_roundtrip, ("members",)),
    CheckInfo("conj_spiro",
              "descent counts of ballot permutations match weight counts of odd order permutations",
              9, 1, _conj_spiro, ("ballot", "odd")),
    CheckInfo("conj_refined",
              "b(n,d,1,j) + b(n,d,j,1) = 2 p(n,d,1,j) for every cell",
              8, 3, _conj_refined, ("ballot", "odd")),
    CheckInfo("prop41",
              "single-descent neighbor cells follow the powers-of-two formulas",
              10, 4, _prop41, ("ballot", "odd")),
    CheckInfo("lemma42",
              "the weight-preserving cycle flip gives p(n,d,1,2) = p(n,d,1,3)",
              9, 4, _lemma42, ("odd",)),
    CheckInfo("prop43_words",
              "word-pair counts reduce to whole-class totals three letters down",
              8, 4, _prop43, ("ballot",)),
    CheckInfo("eq_bnd_pnd",
              "class totals split over the neighbor cells of the largest letter",
              8, 2, _eq_bnd_pnd, ("ballot", "odd")),
)}


def list_checks() -> list[tuple[str, str, int]]:
    """The fixed catalog: (check id, description, recommended max_n) triples."""
    return [(info.name, info.description, info.default_max_n) for info in CHECKS.values()]


# Each worker beyond this process costs one fork here, 3.0-3.8 ms with warm
# memos, and the cheapest map core certifies a member in about 5 us (the
# letter swap of phi_bijection; both on a 2-vCPU x86-64 host, CPython 3.11),
# so a worker takes at least this many members.
_MEMBERS_PER_WORKER = 700


def _workers(members: int) -> int:
    """How many processes share deferred cells of ``members`` members in all:
    one per CPU in this process's affinity, but no more than give each
    ``_MEMBERS_PER_WORKER`` members, where the process can fork and runs one
    thread; otherwise 1, this process alone."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), members // _MEMBERS_PER_WORKER))


def _deal(loads: dict[int, int], workers: int) -> list[list[int]]:
    """The deferred cells' indices dealt to the workers, each hand in cell order.

    ``loads`` maps each deferred cell's index to its member count.  Cells go
    largest first, each to the worker holding the fewest members so far, so
    every worker maps about as many members.
    """
    held, hands = [0] * workers, [[] for _ in range(workers)]
    for k in sorted(loads, key=loads.get, reverse=True):
        w = held.index(min(held))
        hands[w].append(k)
        held[w] += loads[k]
    return [sorted(hand) for hand in hands]


def _run_cells(cells: list) -> list[list]:
    """Each cell's counterexamples, in cell order.

    A cell is its list of counterexamples, or a deferred map cell, a
    ``partial`` whose ``args[1]`` is its domain, whose size is its load.
    The deferred cells are dealt to the workers (``_workers``, ``_deal``):
    this process runs hand 0, and a child forked here runs each other hand.
    Every child is reaped before this returns or raises.
    """
    loads = {k: len(cell.args[1]) for k, cell in enumerate(cells) if callable(cell)}
    hands = _deal(loads, _workers(sum(loads.values())))
    found = list(cells)
    children = []  # (pid, read end of its pipe) of each child not yet reaped, in worker order
    try:
        for hand in hands[1:]:
            import pickle  # only a check that forks needs it

            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if not pid:  # the child never returns into this stack
                status = 1
                try:
                    os.close(read)
                    try:
                        envelope = (True, [cells[k]() for k in hand])
                    except BaseException as exc:  # raised again in the parent
                        envelope = (False, exc)
                    blob = pickle.dumps(envelope)
                    with open(write, "wb") as pipe:
                        pipe.write(blob)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, open(read, "rb")))
        for k in hands[0]:
            found[k] = cells[k]()
        for hand in hands[1:]:
            pid, pipe = children[0]
            with pipe:
                blob = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            try:
                ok, payload = pickle.loads(blob)
            except Exception as exc:
                raise RuntimeError(f"the results of a check worker did not load (exit status {status})") from exc
            if not ok:
                raise payload
            for k, result in zip(hand, payload, strict=True):
                found[k] = result
    finally:
        if children:  # only after an error: stop the children still running
            import signal

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return found


def run_check(name: str, max_n: int | None = None) -> VerificationReport:
    """Run one named check up to ``max_n`` (its recommended budget by default).

    ``max_n`` may not pass the check's cap, the smallest budget its cells
    read; a larger bound is refused before any work starts.
    """
    info = CHECKS.get(name) if isinstance(name, str) else None
    if info is None:
        raise DomainError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    if max_n is None:
        max_n = info.default_max_n
    if not (_all_ints((max_n,)) and max_n >= info.min_n):
        raise DomainError(f"check {name} needs an int max_n >= {info.min_n}, got {max_n!r}")
    if max_n > info.budget_cap:
        raise BudgetError(
            f"check {name} reads {' and '.join(info.reads)}, "
            f"budgeted up to n={info.budget_cap}; got max_n={max_n}"
        )
    start = time.perf_counter()
    cells = [cell for n in range(info.min_n, max_n + 1) for cell in info.cells(n)]
    counterexamples = [ce for found in _run_cells(cells) for ce in found]
    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)
    return VerificationReport(
        check=name,
        max_n=max_n,
        cells_checked=len(cells),
        status="pass" if not counterexamples else "fail",
        counterexamples=tuple(counterexamples),
        wall_time_ms=elapsed_ms,
    )
