"""The three permlab workloads: seeded inputs, a timed run and an output oracle.

Each workload drives the library through public functions only: ``catalog``
through ``verify.run_check``, ``queries`` through ``cli.main`` and ``maps``
through the bijections and the diagonal shift.  A run has one process and one
thread, starts from an empty memo (``enumeration.clear_memo``) and, for
``queries``, from an empty cache directory the benchmark owns.

Every workload has a cold phase, timed as ``cold_s``, and a warm phase, a
closed loop of operations that runs for the requested seconds.  Times are
scaled by the host speed sampled while they were taken (speed.py), except
in traced runs:

* ``catalog``: cold is the 18 checks at their default budgets from an empty
  memo, the certification path.  ``verify`` takes no store, so it is
  cache-cold by construction.  One warm operation is the whole catalog again
  with the memo filled, which leaves the checks' own logic and the maps.
* ``queries``: cold is one cache miss per (kind, n), which enumerates the
  table and writes the cache file; the median of three cold phases, each on
  a fresh cache.  One warm operation is one CLI command answered from the
  disk cache after ``clear_memo``, as a fresh shell sees it.
* ``maps``: nothing is memoized, so cold is one pass over the generated
  inputs, the median of nine passes.  One warm operation is one map call and
  its inverse.  No enumeration happens here, so it is the control for any
  table-side change.

``run`` returns the timings and the oracle's counts; ``trace`` repeats the
run with spans and returns the per-layer metrics of ``spans.PER_LAYER``.
"""

from __future__ import annotations

import array
import collections
import contextlib
import gc
import io
import json
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import spans
from speed import RawSpeed

PINS = Path(__file__).with_name("catalog_pins.json")
STREAM_LEN = 1 << 16


def _warm_loop(seconds: float, op, speed) -> tuple[list[float], float]:
    """Call ``op(k)`` for k = 0, 1, ... until ``seconds`` pass: per-call seconds and
    the seconds of the whole loop, both scaled to the nominal speed."""
    marks = array.array("d")  # start and end of each call: 16 bytes, so peak memory barely tracks speed
    gc.collect()
    start = perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        t0 = perf_counter()
        op(k)
        t1 = perf_counter()
        marks.append(t0)
        marks.append(t1)
        k += 1
        if t1 >= deadline:
            return ([speed.scaled(marks[i], marks[i + 1]) for i in range(0, len(marks), 2)],
                    speed.scaled(start, t1))


def _drain(gen) -> float:
    t0 = perf_counter()
    collections.deque(gen, maxlen=0)
    return perf_counter() - t0


# --------------------------------------------------------------------------- catalog


class Catalog:
    """The 18 named checks at their default budgets, by name."""

    @staticmethod
    def inputs(lib, rng):
        # The catalog is fixed; the seed is recorded but selects nothing.
        return [name for name, _, _ in lib.verify.list_checks()]

    @staticmethod
    def _pass(names, pins, run_check, speed):
        """One pass over the catalog: per-check seconds, reports, reports off their pin."""
        times, reports, failed = [], [], 0
        for name in names:
            t0 = perf_counter()
            try:
                obj = run_check(name).to_json_obj()
            except Exception:  # a check that raises is a failed check
                obj = {}
            times.append(speed.scaled(t0, perf_counter()))
            obj.pop("wall_time_ms", None)
            reports.append(obj)
            failed += obj != pins[name]
        return times, reports, failed

    @classmethod
    def _cold(cls, lib, names, pins, run_check, speed):
        lib.enumeration.clear_memo()
        gc.collect()
        t0 = perf_counter()
        times, reports, failed = cls._pass(names, pins, run_check, speed)
        return speed.scaled(t0, perf_counter()), times, reports, failed

    @classmethod
    def run(cls, lib, names, seconds, workdir, speed):
        pins = json.loads(PINS.read_text())
        cold_s, _, _, failed = cls._cold(lib, names, pins, lib.verify.run_check, speed)
        counts = []
        times, busy = _warm_loop(
            seconds, lambda k: counts.append(cls._pass(names, pins, lib.verify.run_check, speed)[2]), speed)
        return {"cold_s": cold_s, "op_s": times, "busy_s": busy,
                "attempted": len(names) * (1 + len(times)), "failed": failed + sum(counts)}

    @classmethod
    def trace(cls, lib, names, seconds, workdir):
        pins = json.loads(PINS.read_text())
        raw = RawSpeed()
        untraced_s, _, _, failed = cls._cold(lib, names, pins, lib.verify.run_check, raw)
        tracer = spans.Tracer()
        v = lib.verify
        sizes = {"count_table": lambda a, r: (a[0], a[1], r.grand_total),
                "member_index": lambda a, r: (a[0], a[1], sum(map(len, r.by_d.values())))}
        with contextlib.ExitStack() as stack:
            for layer, fns in (
                ("enumeration", ("count_table", "member_index", "count_word_pair", "ballot_count_closed")),
                ("bijections", ("anchor_decompose", "is_anchor_decomposable", "flank_swap",
                                "exchange_letters", "contract", "cycle_flip")),
                ("toeplitz", ("shift", "shift_inv", "lower_core", "upper_core")),
            ):
                for fn in fns:
                    stack.enter_context(tracer.patched(v, fn, f"{layer}.{fn}", detail=sizes.get(fn)))
            # flank_swap finds its anchor split through the module global
            stack.enter_context(tracer.patched(lib.bijections, "anchor_decompose",
                                               "bijections.anchor_decompose"))
            traced_s, _, _, more = cls._cold(
                lib, names, pins, tracer.wrap("verify.run_check", v.run_check), raw)
        warm_times, reports, again = cls._pass(names, pins, v.run_check, raw)
        rows = tracer.rows()

        m = spans.empty_metrics()
        spans.layer_summary(rows, m)
        tables = spans.builds(rows, "enumeration.count_table")
        indexes = spans.builds(rows, "enumeration.member_index")
        e = lib.enumeration
        drains = {key: _drain((e.enumerate_ballot if key[0] == "ballot" else e.enumerate_odd_order)(key[1]))
                  for key in tables}
        m["enumeration.table_s_total"] = sum(own for own, _ in tables.values())
        m["enumeration.drain_s"] = sum(drains.values())
        m["enumeration.classify_s"] = m["enumeration.table_s_total"] - m["enumeration.drain_s"]
        for kind in e.KINDS:
            if (kind, 10) in tables:
                m[f"enumeration.table_s.{kind}10"] = tables[kind, 10][0]
                m[f"enumeration.{kind}_members_per_s"] = tables[kind, 10][1] / drains[kind, 10]
        m["enumeration.index_s"] = sum(own for own, _ in indexes.values())
        m["enumeration.word_pair_s"] = sum(spans.durations(rows, "enumeration.count_word_pair"))
        m["enumeration.tables_built"] = len(tables)
        m["enumeration.indexes_built"] = len(indexes)
        m["enumeration.members_classified"] = sum(n for _, n in (*tables.values(), *indexes.values()))
        _map_layer_metrics(rows, m)

        ballot9, odd9 = list(e.enumerate_ballot(9)), list(e.enumerate_odd_order(9))
        for metric, fn, members in (("words.descents_us", lib.words.descents, ballot9),
                                    ("cycles.perm_weight_us", lib.cycles.perm_weight, odd9),
                                    ("cycles.max_letter_neighbors_us", lib.cycles.max_letter_neighbors, odd9)):
            m[metric] = _drain(map(fn, members)) / len(members) * 1e6
        for name, check_s, report in zip(names, warm_times, reports):
            m[f"verify.check_s.{name}"] = check_s
            m[f"verify.cells_checked.{name}"] = report.get("cells_checked", 0)
        m["trace_cold_s"] = traced_s
        m["trace_overhead_frac"] = traced_s / untraced_s - 1.0
        return m, 3 * len(names), failed + more + again


# --------------------------------------------------------------------------- queries

QUERY_KINDS = ("ballot", "odd")
QUERY_NS = range(3, 10)
FORMATS = ("text", "json", "csv")
QUERY_COLD_PHASES = 3


def _query_group(rng, kind: str, n: int) -> list[list[str]]:
    """Command lines for one (kind, n); the first is the plain total."""
    base = ["--kind", kind, "--n", str(n)]

    def some_d():
        return ["--d", str(rng.randint(0, (n - 1) // 2))]

    i, j = rng.sample(range(1, n), 2)
    return [
        ["count", *base],
        ["count", *base, *some_d()],
        ["count", *base, "--i", str(i), "--j", str(j), *rng.choice(([], some_d()))],
        *(["matrix", *base, *rng.choice(([], some_d())), "--format", fmt] for fmt in FORMATS),
    ]


class Queries:
    """A seeded stream of ``count`` and ``matrix`` commands through ``cli.main``."""

    @staticmethod
    def inputs(lib, rng):
        pool, totals, groups = [], {}, []
        for kind in QUERY_KINDS:
            for n in QUERY_NS:
                lines = _query_group(rng, kind, n)
                totals[len(pool)] = lib.enumeration.ballot_count_closed(n)
                group = list(range(len(pool), len(pool) + len(lines)))
                rng.shuffle(group)  # the first one is the cold miss
                groups.append(group)
                pool.extend(lines)
        rng.shuffle(groups)
        stream = [rng.randrange(len(pool)) for _ in range(STREAM_LEN)]
        return {"pool": pool, "totals": totals, "groups": groups, "stream": stream}

    @staticmethod
    def _session(lib, inputs, seconds, workdir, main, repeats, speed):
        """``repeats`` cold phases, each on a fresh cache, then phase two (hits)
        on the last cache.  In a cold phase each (kind, n) makes one miss; the
        other command lines of that (kind, n) are answered from the memo the
        miss filled, without the cache, and are the reference for the hits."""
        pool, totals = inputs["pool"], inputs["totals"]
        clear = lib.enumeration.clear_memo

        def ask(k, cache=None):
            argv = pool[k] if cache is None else ["--cache-dir", str(cache), *pool[k]]
            out = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out):
                rc = main(argv)
            return speed.scaled(t0, perf_counter()), (rc, out.getvalue())

        answers, cold_s, failed = None, [], 0
        for _ in range(repeats):
            cache = _fresh_dir(workdir)
            got, spent = {}, 0.0
            gc.collect()
            for miss, *rest in inputs["groups"]:
                clear()
                dt, got[miss] = ask(miss, cache)
                spent += dt
                for k in rest:
                    got[k] = ask(k)[1]
            cold_s.append(spent)
            if answers is None:
                answers = got
                failed += sum(rc != 0 for rc, _ in got.values())
                failed += sum(got[k][1] != f"{total}\n" for k, total in totals.items())
            else:
                failed += sum(got[k] != answers[k] for k in got)
        stream = inputs["stream"]
        wrong = []

        def hit(k):
            idx = stream[k % len(stream)]
            clear()
            wrong.append(ask(idx, cache)[1] != answers[idx])

        times, busy = _warm_loop(seconds, hit, speed)
        return {"cold_s": statistics.median(cold_s), "op_s": times, "busy_s": busy,
                "phase_one": repeats * len(pool), "cache": cache,
                "attempted": repeats * len(pool) + len(times), "failed": failed + sum(wrong)}

    @classmethod
    def run(cls, lib, inputs, seconds, workdir, speed):
        return cls._session(lib, inputs, seconds, workdir, lib.cli.main, QUERY_COLD_PHASES, speed)

    @classmethod
    def trace(cls, lib, inputs, seconds, workdir):
        untraced = cls._session(lib, inputs, min(seconds, 1.0), workdir, lib.cli.main,
                                QUERY_COLD_PHASES, RawSpeed())
        tracer = spans.Tracer()
        cli, e = lib.cli, lib.enumeration
        build_parser = cli.build_parser

        def traced_parser():
            parser = build_parser()
            parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
            return parser

        with contextlib.ExitStack() as stack:
            for owner, attr, name, fn, detail in (
                (cli, "build_parser", "cli.build_parser", traced_parser, None),
                (cli.DiskCache, "load", "cli.DiskCache.load", None, lambda a, r: r is not None),
                (cli.DiskCache, "save", "cli.DiskCache.save", None, None),
                (e, "count", "enumeration.count", None, None),
                (e, "build_matrix", "enumeration.build_matrix", None, None),
                (e, "count_table", "enumeration.count_table", None,
                 lambda a, r: (a[0], a[1], r.grand_total)),
                *((e.CountMatrix, fmt, "enumeration.CountMatrix." + fmt, None, None)
                  for fmt in ("to_text", "to_json_obj", "to_csv")),
            ):
                stack.enter_context(tracer.patched(owner, attr, name, fn, detail))
            traced = cls._session(lib, inputs, seconds, workdir, tracer.wrap("cli.main", cli.main),
                                  QUERY_COLD_PHASES, RawSpeed())
        rows = tracer.rows()
        # phase two starts at the first root span after the reference answers
        roots = [idx for idx, row in enumerate(rows) if row[3] == idx]
        hits = rows[roots[traced["phase_one"]]:]

        m = spans.empty_metrics()
        spans.layer_summary(rows, m)
        tables = spans.builds(rows, "enumeration.count_table")
        m["enumeration.table_s_total"] = sum(own for own, _ in tables.values())
        m["enumeration.tables_built"] = len(tables)
        m["enumeration.members_classified"] = sum(n for _, n in tables.values())
        matrix_roots = {root for span, _, _, root, _ in hits if span == "enumeration.build_matrix"}
        m["enumeration.matrix_us"] = 1e6 * spans.p50(spans.per_root(
            [row for row in hits if row[3] in matrix_roots],
            {"enumeration.build_matrix", "enumeration.CountMatrix.to_text",
             "enumeration.CountMatrix.to_json_obj", "enumeration.CountMatrix.to_csv"}))
        m["cli.parse_us"] = 1e6 * spans.p50(spans.per_root(hits, {"cli.build_parser", "cli.parse_args"},
                                                           self_time=False))
        m["cli.cache_load_us"] = 1e6 * spans.p50(spans.durations(hits, "cli.DiskCache.load"))
        m["cli.cache_save_ms"] = 1e3 * spans.p50(spans.durations(rows, "cli.DiskCache.save"))
        loads = [detail for span, _, _, _, detail in rows if span == "cli.DiskCache.load"]
        m["cli.cache_hits"] = sum(loads)
        m["cli.cache_misses"] = len(loads) - sum(loads)
        m["cli.cache_bytes"] = sum(f.stat().st_size for f in traced["cache"].iterdir())
        m["trace_cold_s"] = traced["cold_s"]
        m["trace_overhead_frac"] = traced["cold_s"] / untraced["cold_s"] - 1.0
        return (m, untraced["attempted"] + traced["attempted"],
                untraced["failed"] + traced["failed"])


def _fresh_dir(workdir: Path) -> Path:
    """A new empty cache directory under the run's own working directory."""
    return Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))


# --------------------------------------------------------------------------- maps

MAP_OPS = ("shift_linear", "shift_cyclic", "flank_swap", "exchange_letters",
           "contract_linear", "contract_cyclic", "cycle_flip")
POOL_PER_OP = 256
POOL_PASSES = 9


def _line_cell(p):
    """Neighbors (left, right) of the largest letter of a one-line word, or None."""
    k = p.index(len(p))
    return None if k in (0, len(p) - 1) else (p[k - 1], p[k + 1])


def _random_line(rng, n: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def _sample_map_input(lib, rng, op: str):
    """One (op, member, i, j) for ``op``, by rejection from uniform permutations."""
    w, c, b = lib.words, lib.cycles, lib.bijections
    while True:
        if op == "flank_swap":
            n = rng.randint(7, 9)
        else:
            n = rng.randint(10, 16)
        if op == "cycle_flip":
            # uniform over the permutations sending 1 -> n -> s, s in {2, 3}
            s = rng.choice((2, 3))
            rest = [x for x in range(1, n) if x != s]
            rng.shuffle(rest)
            cycles = c.cycles_from_one_line((n, *rest, s))
            if c.is_odd_order(cycles):
                return op, cycles, 1, s
            continue
        if op.endswith("_cyclic"):
            p = c.cycles_from_one_line(_random_line(rng, n))
            cell = c.max_letter_neighbors(p) if c.is_odd_order(p) else None
        else:
            p = _random_line(rng, n)
            cell = _line_cell(p) if w.is_ballot(p) else None
        if cell is None:
            continue
        a, bb = cell
        if op.startswith("shift") and max(a, bb) <= n - 2:
            return op, p, a, bb
        if op.startswith("contract") and abs(a - bb) == 1:
            return op, p, a, bb
        if op == "exchange_letters" and a + 1 <= bb <= n - 2 \
                and not b.is_anchor_decomposable(p, (a, n, bb, bb + 1)):
            return op, p, a, bb + 1
        if op == "flank_swap":
            k = p.index(n)
            if k + 2 < n and p[k + 2] == bb + 1 and a + 2 <= bb + 1 \
                    and b.anchor_decompose(p, (a, n, bb, bb + 1)) is not None:
                return op, p, a, bb + 1


def map_calls(lib, wrap=lambda name, fn: fn):
    """op -> function of (member, i, j) returning (image, image of the inverse)."""
    b, t = lib.bijections, lib.toeplitz
    shift, shift_inv = wrap("toeplitz.shift", t.shift), wrap("toeplitz.shift_inv", t.shift_inv)
    flank = wrap("bijections.flank_swap", b.flank_swap)
    exchange = wrap("bijections.exchange_letters", b.exchange_letters)
    contract = wrap("bijections.contract", b.contract)
    flip = wrap("bijections.cycle_flip", b.cycle_flip)

    def shift_pair(cyclic):
        return lambda p, i, j: (q := shift(p, i, j, cyclic=cyclic), shift_inv(q, i, j, cyclic=cyclic))

    def contract_pair(p, i, j):
        q = contract(p, i, j)
        return q, contract(q, i, j, inverse=True)

    return {
        "shift_linear": shift_pair(False),
        "shift_cyclic": shift_pair(True),
        "flank_swap": lambda p, i, j: (q := flank(p, i, j, "forward"), flank(q, i, j, "backward")),
        # the letter exchange has no public inverse; the oracle swaps the letters back
        "exchange_letters": lambda p, i, j: (exchange(p, i, j), None),
        "contract_linear": contract_pair,
        "contract_cyclic": contract_pair,
        "cycle_flip": lambda p, i, j: (q := flip(p), flip(q)),
    }


def _map_ok(lib, op, p, i, j, out) -> bool:
    """Round trip to identity, the image in its stated cell, the statistic preserved."""
    w, c, b = lib.words, lib.cycles, lib.bijections
    q, back = out
    if op == "exchange_letters":
        back = w.swap_letters(q, j - 1, j)
    if back != p:
        return False
    if op == "shift_linear":
        return w.is_ballot(q) and _line_cell(q) == (i + 1, j + 1) and w.descents(q) == w.descents(p)
    if op == "shift_cyclic":
        profile = [sorted((len(x), c.cycle_stats(x)) for x in perm) for perm in (p, q)]
        return (c.is_odd_order(q) and c.max_letter_neighbors(q) == (i + 1, j + 1)
                and profile[0] == profile[1])
    if op == "cycle_flip":
        return (c.is_odd_order(q) and c.max_letter_neighbors(q) == (1, 5 - j)
                and sorted(map(len, p)) == sorted(map(len, q)) and c.perm_weight(q) == c.perm_weight(p))
    n = len(p)
    if op == "flank_swap":
        return (w.is_ballot(q) and _line_cell(q) == (j, i)
                and b.anchor_decompose(q, (j - 1, j, n, i)) is not None)
    if op == "exchange_letters":
        return w.is_ballot(q) and _line_cell(q) == (i, j)
    if op == "contract_linear":
        return len(q) == n - 2 and w.is_ballot(q) and w.descents(q) == w.descents(p) - 1
    return (c.is_odd_order(q) and c.decomposition_size(q) == c.decomposition_size(p) - 2
            and c.perm_weight(q) == c.perm_weight(p) - 1)


class Maps:
    """Single map calls and their inverses on members sampled at n = 10..16."""

    @staticmethod
    def inputs(lib, rng):
        pool = [_sample_map_input(lib, rng, op) for op in MAP_OPS for _ in range(POOL_PER_OP)]
        stream = [rng.randrange(len(pool)) for _ in range(STREAM_LEN)]
        return {"pool": pool, "stream": stream}

    @staticmethod
    def _session(lib, inputs, seconds, calls, passes, speed):
        """``passes`` timed passes over the pool, then the warm stream."""
        pool, stream = inputs["pool"], inputs["stream"]

        def one_pass():
            out = []
            for op, p, i, j in pool:
                try:
                    out.append(calls[op](p, i, j))
                except Exception:  # a map refusing a member of its domain is a failed operation
                    out.append(None)
            return out

        gc.collect()
        pass_s, outputs, failed = [], None, 0
        for _ in range(passes):
            t0 = perf_counter()
            got = one_pass()
            pass_s.append(speed.scaled(t0, perf_counter()))
            outputs = outputs or got
            failed += sum(a != b for a, b in zip(got, outputs))
        failed += sum(out is None or not _map_ok(lib, *item, out) for item, out in zip(pool, outputs))
        wrong = 0

        def op(k):
            nonlocal wrong
            idx = stream[k % len(stream)]
            kind, p, i, j = pool[idx]
            try:
                wrong += calls[kind](p, i, j) != outputs[idx]
            except Exception:
                wrong += 1

        times, busy = _warm_loop(seconds, op, speed)
        return {"cold_s": statistics.median(pass_s), "op_s": times, "busy_s": busy,
                "attempted": passes * len(pool) + len(times), "failed": failed + wrong}

    @classmethod
    def run(cls, lib, inputs, seconds, workdir, speed):
        return cls._session(lib, inputs, seconds, map_calls(lib), POOL_PASSES, speed)

    @classmethod
    def trace(cls, lib, inputs, seconds, workdir):
        untraced = cls._session(lib, inputs, min(seconds, 1.0), map_calls(lib), POOL_PASSES, RawSpeed())
        tracer = spans.Tracer()
        with tracer.patched(lib.bijections, "anchor_decompose", "bijections.anchor_decompose"):
            traced = cls._session(lib, inputs, seconds, map_calls(lib, tracer.wrap), POOL_PASSES,
                                  RawSpeed())
        rows = tracer.rows()
        m = spans.empty_metrics()
        spans.layer_summary(rows, m)
        _map_layer_metrics(rows, m)
        m["trace_cold_s"] = traced["cold_s"]
        m["trace_overhead_frac"] = traced["cold_s"] / untraced["cold_s"] - 1.0
        return (m, untraced["attempted"] + traced["attempted"],
                untraced["failed"] + traced["failed"])


def _map_layer_metrics(rows, m) -> None:
    for span in ("bijections.flank_swap", "bijections.exchange_letters", "bijections.contract",
                 "bijections.cycle_flip", "bijections.anchor_decompose",
                 "toeplitz.shift", "toeplitz.shift_inv"):
        m[f"{span}_us"] = 1e6 * spans.p50(spans.durations(rows, span))


WORKLOADS = {"catalog": Catalog, "queries": Queries, "maps": Maps}
