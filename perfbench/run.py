"""permlab benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

``--workload`` is ``catalog``, ``queries``, ``maps`` or ``all`` (each of the
three in turn, in its own process).  With ``--trace 0`` the last line of
stdout is one JSON object whose metrics are the end-to-end metrics below,
measured with tracing off; with ``--trace 1`` a separate traced run reports
the per-layer metrics of ``spans.PER_LAYER`` instead.  The line before it
names the same numbers the way each workload knows them (``catalog_s``,
``query_p50_ms``, ``map_p50_us``, ...) together with the seed, a digest of
the generated inputs and the environment.

End-to-end metrics, the same five for every workload (see workloads.py for
what the cold phase and one warm operation are in each):

* ``setup_s``: import plus input generation, the median of seven set-ups;
* ``cold_s``: the cold phase;
* ``ops_per_s``: warm operations completed per second;
* ``op_p50_ms``: median warm operation latency;
* ``peak_rss_mb``: the process's peak resident set.

Every end-to-end time is scaled to the host's nominal speed by samples of a
fixed loop that a timer takes while the run goes on (see speed.py);
per-layer times are raw seconds.

Operations whose output fails the oracle are counted in ``failed``; the exit
status is 1 when any did.  The library is imported from ``src/`` of the
checkout; a directory without it is refused with exit status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
from speed import Speed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("words", "cycles", "enumeration", "bijections", "toeplitz", "verify", "cli")
SETUP_REPEATS = 7
END_TO_END = {"setup_s": "s", "cold_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def load_library() -> SimpleNamespace:
    """Import permlab afresh, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "permlab" or m.startswith("permlab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"permlab.{m}") for m in MODULES})


def setup(workload, seed: int, speed: Speed):
    """(library, inputs, median set-up seconds) over SETUP_REPEATS fresh set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lib = load_library()
        inputs = workload.inputs(lib, random.Random(seed))
        times.append(speed.scaled(t0, perf_counter()))
    return lib, inputs, statistics.median(times)


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "permlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def p99(times: list[float]) -> float | None:
    """The 99th percentile, when at least ten samples lie beyond it."""
    if len(times) < 1000:
        return None
    return statistics.quantiles(times, n=100)[98]


def named_metrics(name: str, e2e: dict, times: list[float], failed: int, attempted: int) -> dict:
    """The end-to-end numbers under the names the workload gives them."""
    tail = p99(times)
    out = {"setup_s": (e2e["setup_s"], "s")}
    if name == "catalog":
        out["catalog_s"] = (e2e["cold_s"], "s")
        out["catalog_warm_s"] = (e2e["op_p50_ms"] / 1e3, "s")
    elif name == "queries":
        out["query_cold_s"] = (e2e["cold_s"], "s")
        out["queries_per_s"] = (e2e["ops_per_s"], "1/s")
        out["query_p50_ms"] = (e2e["op_p50_ms"], "ms")
        out["query_p99_ms"] = (tail and tail * 1e3, "ms")
    else:
        out["maps_cold_s"] = (e2e["cold_s"], "s")
        out["maps_per_s"] = (e2e["ops_per_s"], "1/s")
        out["map_p50_us"] = (e2e["op_p50_ms"] * 1e3, "us")
        out["map_p99_us"] = (tail and tail * 1e6, "us")
    out["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
    out["errors"] = (failed, "count")
    out["attempted"] = (attempted, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def run_one(name: str, seed: int, seconds: int, traced: bool) -> int:
    workload = WORKLOADS[name]
    speed = Speed()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as workdir:
        with speed.sampling():
            lib, inputs, setup_s = setup(workload, seed, speed)
            lib.enumeration.clear_memo()
            if not traced:
                result = workload.run(lib, inputs, seconds, Path(workdir), speed)
        if traced:  # spans need no timer signals in the middle of them
            metrics, attempted, failed = workload.trace(lib, inputs, seconds, Path(workdir))
            units = {metric: unit for metric, unit, _ in spans.PER_LAYER}
            named = None
        else:
            times, attempted, failed = result["op_s"], result["attempted"], result["failed"]
            metrics = {
                "setup_s": setup_s,
                "cold_s": result["cold_s"],
                "ops_per_s": len(times) / result["busy_s"],
                "op_p50_ms": statistics.median(times) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            named = named_metrics(name, metrics, times, failed, attempted)
    with contextlib.suppress(OSError):  # left in place while another run still uses it
        (ROOT / ".perfbench").rmdir()
    blob = json.dumps(inputs, sort_keys=True).encode()
    detail = {
        "workload": name,
        "seed": seed,
        "inputs_sha256": hashlib.sha256(blob).hexdigest(),
        "env": environment(),
        "speed_scale": speed.median_scale(),
        "named": named,
    }
    if not traced:
        detail["warm_ops"] = len(times)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: int, traced: bool) -> int:
    """Each workload in its own process, one after another."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if len(lines) < 2:
            return child.returncode or 1
        print(lines[-2])
        result = json.loads(lines[-1])
        status = status or child.returncode
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "permlab" / "__init__.py").is_file():
        print(f"perfbench: no permlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    os.environ.pop("PERMLAB_CACHE", None)
    sys.path.insert(0, str(SRC))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
