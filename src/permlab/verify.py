"""Named exhaustive checks of every counting identity against the count tables and member streams.

Each check sweeps all of its parameter cells up to a requested size bound,
compares both sides exactly (or certifies a bijection by codomain membership,
round trip, and image-set equality against exhaustive enumeration), and
records every violated cell.  Conjecture-style checks report counterexamples
instead of raising, so the harness doubles as a counterexample search at
larger budgets.  Reports are deterministic apart from wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .bijections import (
    ShiftAnchors,
    anchor_decompose,
    contract,
    cycle_flip,
    exchange_letters,
    flank_swap,
    is_anchor_decomposable,
)
from .cycles import cycle_stats, format_cycles
from .enumeration import (
    KINDS,
    MAX_MEMBER_N,
    ballot_count_closed,
    count_table,
    count_word_pair,
    member_index,
)
from .errors import BudgetError, DomainError
from .toeplitz import lower_core, shift, shift_inv, upper_core
from .words import format_word, height, is_ballot


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
        return {
            "check": self.check,
            "max_n": self.max_n,
            "cells_checked": self.cells_checked,
            "status": self.status,
            "counterexamples": list(self.counterexamples),
            "wall_time_ms": self.wall_time_ms,
        }


def _ce(params: dict, lhs, rhs) -> dict:
    return {"params": params, "lhs": lhs, "rhs": rhs}


def _fmt(member) -> str:
    if member and isinstance(member[0], tuple):
        return format_cycles(member)
    return format_word(member)


def _spread_pairs(n: int):
    """(i, j) with 1 <= i and i+2 <= j <= n-1."""
    for i in range(1, n - 2):
        for j in range(i + 2, n):
            yield i, j


def _shift_pairs(n: int):
    """(i, j) with 1 <= i != j <= n-2."""
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            if i != j:
                yield i, j


def _entry(table, d, i, j) -> int:
    return 0 if i == j else table.cell(d, i, j)


def _anchor_class(idx, i: int, j: int, word, cell: tuple[int, int]) -> list:
    """Members of the anchor class for ``word``, drawn from one neighbor cell."""
    return [p for p in idx.cell_union(*cell) if is_anchor_decomposable(p, word)]


def _check_bijection(bad: list, params: dict, target, image, roundtrip_ok: bool) -> None:
    """Record counterexamples unless the image round-trips and equals the target set."""
    if not roundtrip_ok:
        bad.append(_ce(dict(params, property="roundtrip"), "round trip", "identity"))
    if len(image) != len(set(image)):
        bad.append(_ce(dict(params, property="injective"), len(image), len(set(image))))
    if set(image) != set(target):
        missing = sorted(set(target) - set(image))
        extra = sorted(set(image) - set(target))
        bad.append(_ce(
            dict(params, property="image"),
            "missing " + "; ".join(_fmt(x) for x in missing[:3]),
            "extra " + "; ".join(_fmt(x) for x in extra[:3]),
        ))


def _run_closed_form(max_n: int):
    cells, bad = 0, []
    for n in range(1, max_n + 1):
        b = count_table("ballot", n).grand_total
        p = count_table("odd", n).grand_total
        c = ballot_count_closed(n)
        cells += 1
        if not b == c == p:
            bad.append(_ce({"n": n}, f"ballot={b} odd={p}", f"closed_form={c}"))
    return cells, bad


def _run_recurrence(kind: str, max_n: int):
    cells, bad = 0, []
    for n in range(3, max_n + 1):
        lhs = count_table(kind, n).grand_total
        rhs = (count_table(kind, n - 1).grand_total
               + (n - 1) * (n - 2) * count_table(kind, n - 2).grand_total)
        cells += 1
        if lhs != rhs:
            bad.append(_ce({"kind": kind, "n": n}, lhs, rhs))
    return cells, bad


def _run_lemma21(max_n: int):
    cells, bad = 0, []
    for kind in KINDS:
        for n in range(3, max_n + 1):
            idx = member_index(kind, n)
            small = member_index(kind, n - 2)
            for i in range(1, n):
                for j in (i - 1, i + 1):
                    if not 1 <= j <= n - 1:
                        continue
                    for d in range((n - 1) // 2 + 1):
                        cells += 1
                        params = {"kind": kind, "n": n, "d": d, "i": i, "j": j}
                        domain = idx.cell(d, i, j)
                        target = small.stat_class(d - 1) if d >= 1 else ()
                        image = []
                        ok = True
                        for p in domain:
                            q = contract(p, i, j)
                            if contract(q, i, j, inverse=True) != p:
                                ok = False
                            image.append(q)
                        _check_bijection(bad, params, target, image, ok)
    return cells, bad


def _run_lemma22(max_n: int):
    cells, bad = 0, []
    for n in range(4, max_n + 1):
        idx = member_index("ballot", n)
        for i, j in _spread_pairs(n):
            anchors = ShiftAnchors(i=i, j=j, n=n)
            for word, cell in ((anchors.forward_word, (i, j - 1)),
                               (anchors.backward_word, (j, i))):
                for p in idx.cell_union(*cell):
                    dec = anchor_decompose(p, word)
                    if dec is None:
                        continue
                    cells += 1
                    if dec.tail and not is_ballot(dec.tail):
                        if not (dec.carry_last > dec.tail[0] and height(word) != 1):
                            bad.append(_ce(
                                {"n": n, "i": i, "j": j, "anchor": format_word(word),
                                 "perm": format_word(p)},
                                f"carry_last={dec.carry_last} tail_1={dec.tail[0]}",
                                f"anchor_height={height(word)}",
                            ))
    return cells, bad


def _run_thm23(max_n: int):
    cells, bad = 0, []
    for n in range(4, max_n + 1):
        idx = member_index("ballot", n)
        for i, j in _spread_pairs(n):
            anchors = ShiftAnchors(i=i, j=j, n=n)
            forward_class = _anchor_class(idx, i, j, anchors.forward_word, (i, j - 1))
            backward_class = _anchor_class(idx, i, j, anchors.backward_word, (j, i))
            cells += 1
            params = {"n": n, "i": i, "j": j}
            image = []
            ok = True
            for p in forward_class:
                q = flank_swap(p, i, j, "forward")
                if flank_swap(q, i, j, "backward") != p:
                    ok = False
                image.append(q)
            _check_bijection(bad, params, backward_class, image, ok)
    return cells, bad


def _run_x_lambda(max_n: int):
    cells, bad = 0, []
    for n in range(4, max_n + 1):
        idx = member_index("ballot", n)
        table = count_table("ballot", n)
        for i, j in _spread_pairs(n):
            anchors = ShiftAnchors(i=i, j=j, n=n)
            forward_size = len(_anchor_class(idx, i, j, anchors.forward_word, (i, j - 1)))
            backward_size = len(_anchor_class(idx, i, j, anchors.backward_word, (j, i)))
            cells += 1
            rhs = table.cell(None, i, j - 1) - table.cell(None, i, j)
            if forward_size != rhs:
                bad.append(_ce({"n": n, "i": i, "j": j, "side": "forward"}, forward_size, rhs))
            cells += 1
            rhs = table.cell(None, j, i) - table.cell(None, j - 1, i)
            if backward_size != rhs:
                bad.append(_ce({"n": n, "i": i, "j": j, "side": "backward"}, backward_size, rhs))
    return cells, bad


def _run_phi(max_n: int):
    cells, bad = 0, []
    for n in range(4, max_n + 1):
        idx = member_index("ballot", n)
        for i, j in _spread_pairs(n):
            anchors = ShiftAnchors(i=i, j=j, n=n)
            complement = [p for p in idx.cell_union(i, j - 1)
                          if not is_anchor_decomposable(p, anchors.forward_word)]
            target = idx.cell_union(i, j)
            cells += 1
            params = {"n": n, "i": i, "j": j}
            image = [exchange_letters(p, i, j) for p in complement]
            _check_bijection(bad, params, target, image, True)
    return cells, bad


def _run_toeplitz(kind: str, max_n: int):
    cells, bad = 0, []
    for n in range(3, max_n + 1):
        table = count_table(kind, n)
        for d in range((n - 1) // 2 + 1):
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    cells += 1
                    lhs = _entry(table, d, i, j)
                    rhs = _entry(table, d, i + 1, j + 1)
                    if lhs != rhs:
                        bad.append(_ce({"kind": kind, "n": n, "d": d, "i": i, "j": j}, lhs, rhs))
    return cells, bad


def _run_symmetry_p(max_n: int):
    cells, bad = 0, []
    for n in range(3, max_n + 1):
        table = count_table("odd", n)
        for d in range((n - 1) // 2 + 1):
            for i in range(1, n):
                for j in range(i + 1, n):
                    cells += 1
                    lhs, rhs = table.cell(d, i, j), table.cell(d, j, i)
                    if lhs != rhs:
                        bad.append(_ce({"n": n, "d": d, "i": i, "j": j}, lhs, rhs))
    return cells, bad


def _cycle_profile(cycles):
    return sorted((len(c), cycle_stats(c)[0]) for c in cycles)


def _run_t_roundtrip(max_n: int):
    cells, bad = 0, []
    for kind, cyclic in (("ballot", False), ("odd", True)):
        for n in range(4, max_n + 1):
            idx = member_index(kind, n)
            for d in range((n - 1) // 2 + 1):
                for i, j in _shift_pairs(n):
                    domain = idx.cell(d, i, j)
                    target = idx.cell(d, i + 1, j + 1)
                    if not domain and not target:
                        cells += 1
                        continue
                    cells += 1
                    params = {"kind": kind, "n": n, "d": d, "i": i, "j": j}
                    image = []
                    ok = True
                    for p in domain:
                        q = shift(p, i, j, cyclic=cyclic)
                        if shift_inv(q, i, j, cyclic=cyclic) != p:
                            ok = False
                        if lower_core(p, i, j, cyclic=cyclic).width != upper_core(q, i, j, cyclic=cyclic).width:
                            bad.append(_ce(dict(params, property="width", perm=_fmt(p)),
                                           lower_core(p, i, j, cyclic=cyclic).width,
                                           upper_core(q, i, j, cyclic=cyclic).width))
                        if cyclic and _cycle_profile(p) != _cycle_profile(q):
                            bad.append(_ce(dict(params, property="cycle_stats", perm=_fmt(p)),
                                           str(_cycle_profile(p)), str(_cycle_profile(q))))
                        image.append(q)
                    _check_bijection(bad, params, target, image, ok)
    return cells, bad


def _run_conj_spiro(max_n: int):
    cells, bad = 0, []
    for n in range(1, max_n + 1):
        bt = count_table("ballot", n)
        pt = count_table("odd", n)
        for d in range((n - 1) // 2 + 1):
            cells += 1
            if bt.total(d) != pt.total(d):
                bad.append(_ce({"n": n, "d": d}, bt.total(d), pt.total(d)))
    return cells, bad


def _run_conj_refined(max_n: int):
    cells, bad = 0, []
    for n in range(3, max_n + 1):
        bt = count_table("ballot", n)
        pt = count_table("odd", n)
        for d in range((n - 1) // 2 + 1):
            for j in range(2, n):
                cells += 1
                lhs = bt.cell(d, 1, j) + bt.cell(d, j, 1)
                rhs = 2 * pt.cell(d, 1, j)
                if lhs != rhs:
                    bad.append(_ce({"n": n, "d": d, "j": j}, lhs, rhs))
    return cells, bad


def _run_prop41(max_n: int):
    cells, bad = 0, []
    for n in range(4, max_n + 1):
        bt = count_table("ballot", n)
        pt = count_table("odd", n)
        for label, lhs, rhs in (
            ("b(1,2)", bt.cell(1, 1, 2), 1),
            ("b(2,1)", bt.cell(1, 2, 1), 1),
            ("p(1,2)", pt.cell(1, 1, 2), 1),
        ):
            cells += 1
            if lhs != rhs:
                bad.append(_ce({"n": n, "d": 1, "cell": label}, lhs, rhs))
        for j in range(3, n):
            for label, lhs, rhs in (
                ("b(j,1)", bt.cell(1, j, 1), 2 ** (j - 2)),
                ("b(1,j)", bt.cell(1, 1, j), 0),
                ("p(1,j)", pt.cell(1, 1, j), 2 ** (j - 3)),
            ):
                cells += 1
                if lhs != rhs:
                    bad.append(_ce({"n": n, "d": 1, "j": j, "cell": label}, lhs, rhs))
    return cells, bad


def _run_lemma42(max_n: int):
    cells, bad = 0, []
    for n in range(4, max_n + 1):
        idx = member_index("odd", n)
        for d in range((n - 1) // 2 + 1):
            domain = idx.cell(d, 1, 2)
            target = idx.cell(d, 1, 3)
            cells += 1
            params = {"n": n, "d": d}
            image = []
            ok = True
            for p in domain:
                q = cycle_flip(p)
                if cycle_flip(q) != p:
                    ok = False
                if sorted(len(c) for c in p) != sorted(len(c) for c in q):
                    bad.append(_ce(dict(params, property="cycle_lengths", perm=_fmt(p)),
                                   _fmt(p), _fmt(q)))
                image.append(q)
            _check_bijection(bad, params, target, image, ok)
    return cells, bad


def _run_prop43(max_n: int):
    cells, bad = 0, []
    for n in range(4, max_n + 1):
        bt = count_table("ballot", n)
        small = count_table("ballot", n - 3)
        for d in range((n - 1) // 2 + 1):
            ascending = {
                "u=1 v=23": count_word_pair(n, d, (1,), (2, 3)),
                "u=23 v=1": count_word_pair(n, d, (2, 3), (1,)),
            }
            for label, lhs in ascending.items():
                cells += 1
                rhs = small.total(d - 1)
                if lhs != rhs:
                    bad.append(_ce({"n": n, "d": d, "pair": label}, lhs, rhs))
            descending = {
                "u=1 v=32": count_word_pair(n, d, (1,), (3, 2)),
                "u=32 v=1": count_word_pair(n, d, (3, 2), (1,)),
            }
            for label, lhs in descending.items():
                cells += 1
                rhs = small.total(d - 2)
                if lhs != rhs:
                    bad.append(_ce({"n": n, "d": d, "pair": label}, lhs, rhs))
            cells += 1
            lhs = bt.cell(d, 1, 2) - bt.cell(d, 1, 3)
            rhs = ascending["u=1 v=23"] - descending["u=1 v=32"]
            if lhs != rhs:
                bad.append(_ce({"n": n, "d": d, "identity": "right pairs"}, lhs, rhs))
            cells += 1
            lhs = bt.cell(d, 3, 1) - bt.cell(d, 2, 1)
            rhs = ascending["u=23 v=1"] - descending["u=32 v=1"]
            if lhs != rhs:
                bad.append(_ce({"n": n, "d": d, "identity": "left pairs"}, lhs, rhs))
    return cells, bad


def _run_eq_bnd_pnd(max_n: int):
    cells, bad = 0, []
    for kind in KINDS:
        for n in range(2, max_n + 1):
            table = count_table(kind, n)
            prev = count_table(kind, n - 1)
            for d in range((n - 1) // 2 + 1):
                cells += 1
                rhs = prev.total(d) + sum(table.cell(d, i, j)
                                          for i in range(1, n)
                                          for j in range(1, n) if i != j)
                lhs = table.total(d)
                if lhs != rhs:
                    bad.append(_ce({"kind": kind, "n": n, "d": d}, lhs, rhs))
    return cells, bad


@dataclass(frozen=True)
class CheckInfo:
    name: str
    description: str
    default_max_n: int
    budget_cap: int
    min_n: int
    runner: Callable[[int], tuple[int, list]]
    member_lists: bool = False  # the runner draws on member_index up to max_n


_CATALOG: tuple[CheckInfo, ...] = (
    CheckInfo("closed_form",
              "enumerated ballot and odd order totals match the double factorial closed form",
              10, 10, 1, _run_closed_form),
    CheckInfo("recurrence_b",
              "ballot totals satisfy b(n) = b(n-1) + (n-1)(n-2) b(n-2)",
              10, 10, 3, lambda m: _run_recurrence("ballot", m)),
    CheckInfo("recurrence_p",
              "odd order totals satisfy p(n) = p(n-1) + (n-1)(n-2) p(n-2)",
              10, 11, 3, lambda m: _run_recurrence("odd", m)),
    CheckInfo("lemma21",
              "cells with adjacent neighbor letters contract bijectively onto the class two letters down",
              8, 9, 3, _run_lemma21, member_lists=True),
    CheckInfo("lemma22",
              "anchor splits with a non-ballot tail have a descending junction and anchor height != 1",
              7, 8, 4, _run_lemma22, member_lists=True),
    CheckInfo("thm23_bijection",
              "the flank swap is a bijection between the two pivot anchor classes",
              8, 9, 4, _run_thm23, member_lists=True),
    CheckInfo("x_lambda_identity",
              "anchor class sizes equal differences of adjacent neighbor cell counts",
              8, 9, 4, _run_x_lambda, member_lists=True),
    CheckInfo("phi_bijection",
              "swapping the letters j-1 and j maps the complement class onto the shifted cell",
              8, 9, 4, _run_phi, member_lists=True),
    CheckInfo("toeplitz_B",
              "ballot count matrices are constant along diagonals for every descent number",
              8, 10, 3, lambda m: _run_toeplitz("ballot", m)),
    CheckInfo("toeplitz_P",
              "odd order count matrices are constant along diagonals for every weight",
              9, 11, 3, lambda m: _run_toeplitz("odd", m)),
    CheckInfo("symmetry_P",
              "odd order count matrices are symmetric",
              9, 11, 3, _run_symmetry_p),
    CheckInfo("T_roundtrip",
              "diagonal shifts round-trip, preserve statistics, and hit the whole target cell",
              8, 9, 4, _run_t_roundtrip, member_lists=True),
    CheckInfo("conj_spiro",
              "descent counts of ballot permutations match weight counts of odd order permutations",
              9, 10, 1, _run_conj_spiro),
    CheckInfo("conj_refined",
              "b(n,d,1,j) + b(n,d,j,1) = 2 p(n,d,1,j) for every cell",
              8, 10, 3, _run_conj_refined),
    CheckInfo("prop41",
              "single-descent neighbor cells follow the powers-of-two formulas",
              10, 10, 4, _run_prop41),
    CheckInfo("lemma42",
              "the weight-preserving cycle flip gives p(n,d,1,2) = p(n,d,1,3)",
              9, 9, 4, _run_lemma42, member_lists=True),
    CheckInfo("prop43_words",
              "word-pair counts reduce to whole-class totals three letters down",
              8, 10, 4, _run_prop43),
    CheckInfo("eq_bnd_pnd",
              "class totals split over the neighbor cells of the largest letter",
              8, 10, 2, _run_eq_bnd_pnd),
)

CHECKS: dict[str, CheckInfo] = {info.name: info for info in _CATALOG}


def list_checks() -> list[tuple[str, str, int]]:
    """The fixed catalog: (check id, description, recommended max_n) triples."""
    return [(info.name, info.description, info.default_max_n) for info in _CATALOG]


def run_check(name: str, max_n: int | None = None, budget_override: int | None = None) -> VerificationReport:
    """Run one named check up to ``max_n`` (its recommended budget by default).

    Raising ``max_n`` past the check's budget cap needs an explicit
    ``budget_override``; the global enumeration budgets still apply, and a
    check that needs member lists past their budget is refused before any
    work starts.
    """
    info = CHECKS.get(name)
    if info is None:
        raise DomainError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    if max_n is None:
        max_n = info.default_max_n
    if max_n < info.min_n:
        raise DomainError(f"check {name} needs max_n >= {info.min_n}, got {max_n}")
    cap = budget_override if budget_override is not None else info.budget_cap
    if max_n > cap:
        raise BudgetError(
            f"check {name} is budgeted up to max_n={cap}; "
            f"pass a budget override to go further"
        )
    if info.member_lists and max_n > MAX_MEMBER_N:
        raise BudgetError(
            f"check {name} needs member lists, which are budgeted up to n={MAX_MEMBER_N}; "
            f"got max_n={max_n}"
        )
    start = time.perf_counter()
    cells, counterexamples = info.runner(max_n)
    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)
    return VerificationReport(
        check=name,
        max_n=max_n,
        cells_checked=cells,
        status="pass" if not counterexamples else "fail",
        counterexamples=tuple(counterexamples),
        wall_time_ms=elapsed_ms,
    )
