"""Spans recorded from the benchmark's side around calls into permlab.

Tracing edits no library file.  It wraps the callables the benchmark itself
calls, and for calls made inside the library it rebinds names at run time
(the names ``verify`` imported, module attributes the CLI looks up, a few
methods) and restores them when the traced block ends.  Each span keeps its
name, start, end, the span that caused it and an optional detail taken from
the call; spans stay in memory until the run is summarised.
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter

CHECK_NAMES = (
    "closed_form", "recurrence_b", "recurrence_p", "lemma21", "lemma22",
    "thm23_bijection", "x_lambda_identity", "phi_bijection", "toeplitz_B",
    "toeplitz_P", "symmetry_P", "T_roundtrip", "conj_spiro", "conj_refined",
    "prop41", "lemma42", "prop43_words", "eq_bnd_pnd",
)

# (name, unit, better).  Every traced run reports all of them; a metric of a
# layer the workload does not exercise reads 0.
PER_LAYER = (
    ("enumeration.ballot_members_per_s", "1/s", "higher"),
    ("enumeration.odd_members_per_s", "1/s", "higher"),
    ("enumeration.table_s.ballot10", "s", "lower"),
    ("enumeration.table_s.odd10", "s", "lower"),
    ("enumeration.table_s_total", "s", "lower"),
    ("enumeration.drain_s", "s", "lower"),
    ("enumeration.classify_s", "s", "lower"),
    ("enumeration.index_s", "s", "lower"),
    ("enumeration.word_pair_s", "s", "lower"),
    ("enumeration.tables_built", "count", "lower"),
    ("enumeration.indexes_built", "count", "lower"),
    ("enumeration.members_classified", "count", "lower"),
    ("enumeration.matrix_us", "us", "lower"),
    ("enumeration.self_s", "s", "lower"),
    ("words.descents_us", "us", "lower"),
    ("cycles.perm_weight_us", "us", "lower"),
    ("cycles.max_letter_neighbors_us", "us", "lower"),
    ("bijections.flank_swap_us", "us", "lower"),
    ("bijections.exchange_letters_us", "us", "lower"),
    ("bijections.contract_us", "us", "lower"),
    ("bijections.cycle_flip_us", "us", "lower"),
    ("bijections.anchor_decompose_us", "us", "lower"),
    ("bijections.calls", "count", "lower"),
    ("bijections.self_s", "s", "lower"),
    ("toeplitz.shift_us", "us", "lower"),
    ("toeplitz.shift_inv_us", "us", "lower"),
    ("toeplitz.calls", "count", "lower"),
    ("toeplitz.self_s", "s", "lower"),
    *((f"verify.check_s.{name}", "s", "lower") for name in CHECK_NAMES),
    *((f"verify.cells_checked.{name}", "count", "higher") for name in CHECK_NAMES),
    ("verify.self_s", "s", "lower"),
    ("cli.parse_us", "us", "lower"),
    ("cli.cache_load_us", "us", "lower"),
    ("cli.cache_save_ms", "ms", "lower"),
    ("cli.cache_hits", "count", "higher"),
    ("cli.cache_misses", "count", "lower"),
    ("cli.cache_bytes", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace_cold_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)

LAYERS = ("enumeration", "bijections", "toeplitz", "verify", "cli")


class Tracer:
    """An in-memory span list: [name, start, end, parent index, detail]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open = [-1]

    def wrap(self, name: str, fn, detail=None):
        """``fn`` recording one span per call; ``detail(args, result)`` is kept with it."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1], None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                open_.pop()
            if detail is not None:
                rec[4] = detail(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, owner, attr: str, name: str, fn=None, detail=None):
        """Rebind ``owner.attr`` to a traced callable for the duration of the block."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, fn or original, detail))
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def rows(self):
        """(name, duration, self time, root index, detail) for every span."""
        spans = self.spans
        child = [0.0] * len(spans)
        root = list(range(len(spans)))
        for idx, (_, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                root[idx] = root[parent]
        return [(name, t1 - t0, t1 - t0 - child[idx], root[idx], detail)
                for idx, (name, t0, t1, _, detail) in enumerate(spans)]


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def durations(rows, name: str) -> list[float]:
    return [dur for span, dur, _, _, _ in rows if span == name]


def per_root(rows, names, self_time: bool = True) -> list[float]:
    """Per root span, the summed (self) time of the spans named ``names``."""
    sums: dict[int, float] = {}
    for span, dur, own, root, _ in rows:
        if span in names:
            sums[root] = sums.get(root, 0.0) + (own if self_time else dur)
    return list(sums.values())


def layer_summary(rows, metrics: dict) -> None:
    """Fill the self time of every traced layer, and its calls where that is a metric."""
    for layer in LAYERS:
        own = [o for span, _, o, _, _ in rows if span.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = sum(own)
        if f"{layer}.calls" in metrics:
            metrics[f"{layer}.calls"] = len(own)


def builds(rows, name: str) -> dict:
    """First span per (kind, n) key of a memoized builder: key -> (self time, members)."""
    out: dict = {}
    for span, _, own, _, detail in rows:
        if span == name and detail is not None and detail[:2] not in out:
            out[detail[:2]] = (own, detail[2])
    return out


def empty_metrics() -> dict:
    return {name: 0 for name, _, _ in PER_LAYER}
