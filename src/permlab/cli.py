"""Command-line front end with machine-readable output and an on-disk count cache.

Subcommands: count, matrix, enumerate, map, verify.  Payload goes to stdout,
diagnostics to stderr.  Exit codes: 0 success or pass, 1 a check found a
counterexample, 2 usage or domain error, 141 (128 + SIGPIPE) stdout closed
before the payload was written.  This is the only module that touches the
filesystem or environment; the cache directory comes from ``--cache-dir`` or
the PERMLAB_CACHE environment variable.

``main`` builds its parser on its first call and reuses it for every later
call in the process, so in-process callers (tests, notebooks, the
benchmark) pay for the argparse tree once.  Handlers and the
``verify --check`` choices are bound when that parser is built.
``build_parser`` itself returns a fresh parser on every call.

That parser's ``parse_args`` hands a plain line, ``COMMAND ARGS`` or
``--cache-dir DIR COMMAND ARGS``, straight to the subcommand's parser and
sets ``cache_dir`` and ``command`` itself; argparse's top-level pass would
only read those tokens and hand ARGS to the same subparser.  Every other
line (help or an unknown command at the top level, ``--cache-dir=DIR``, an
abbreviation such as ``--cache``, a ``--`` token, leftover arguments) takes
argparse's full parse, so help, usage errors and exit codes are argparse's
own; a subparser's error reads the same on either route, because both hand
ARGS to the same subparser.  ``_Parser`` states the rule exactly.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile

from . import bijections, enumeration, toeplitz, verify
from .cycles import format_cycles, parse_cycles
from .enumeration import CountMatrix, CountTable
from .errors import BudgetError, DomainError
from .words import format_word, parse_word

CACHE_ENV_VAR = "PERMLAB_CACHE"
CACHE_FORMAT_VERSION = 2


class DiskCache:
    """Count tables persisted as checksummed JSON files, one per (kind, n).

    A file is two lines: the table's JSON form (``CountTable.to_json_obj``)
    with the format version as compact, key-sorted JSON, then the hex SHA-256
    of exactly those bytes, written atomically (temp file, then rename).  It
    is trusted only if the digest and the version match, ``from_json_obj``
    accepts the rest and the table is the (kind, n) asked for; any other
    file is recomputed.  Other versions have other names and are never opened.
    """

    def __init__(self, root):
        self.root = os.fspath(root)

    def _path(self, kind: str, n: int) -> str:
        return os.path.join(self.root, f"{kind}-n{n}.v{CACHE_FORMAT_VERSION}.json")

    def load(self, kind: str, n: int) -> CountTable | None:
        """The table cached at (kind, n), or None unless the file passes every rule above."""
        try:
            with open(self._path(kind, n), "rb", buffering=0) as fh:
                payload, digest, rest = fh.read().split(b"\n")
            if rest or hashlib.sha256(payload).hexdigest().encode() != digest:
                return None
            blob = json.loads(payload)
            version = blob.pop("format_version", None) if type(blob) is dict else None
            if type(version) is not int or version != CACHE_FORMAT_VERSION:
                return None
            table = CountTable.from_json_obj(blob)  # a DomainError is a ValueError
        except (OSError, ValueError, RecursionError):
            return None
        return table if (table.kind, table.n) == (kind, n) else None

    def save(self, table: CountTable) -> None:
        """Write one table; a cache directory that cannot be written is a DomainError."""
        payload = json.dumps(dict(table.to_json_obj(), format_version=CACHE_FORMAT_VERSION),
                             sort_keys=True, separators=(",", ":")).encode()
        tmp = None
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload + b"\n" + hashlib.sha256(payload).hexdigest().encode() + b"\n")
            os.replace(tmp, self._path(table.kind, table.n))
        except OSError as exc:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
            raise DomainError(f"cache directory {self.root} cannot be written: {exc}") from exc


def _store(args) -> DiskCache | None:
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    return DiskCache(cache_dir) if cache_dir else None


def _cmd_count(args) -> int:
    print(enumeration.count(args.kind, args.n, args.d, args.i, args.j, store=_store(args)))
    return 0


def _matrix_text(matrix: CountMatrix, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(matrix.to_json_obj())
    if fmt == "csv":
        return matrix.to_csv()
    return matrix.to_text()


def _cmd_matrix(args) -> int:
    matrix = enumeration.build_matrix(args.kind, args.n, args.d, store=_store(args))
    print(_matrix_text(matrix, args.format))
    return 0


def _cmd_enumerate(args) -> int:
    if args.kind == "ballot":
        for p in enumeration.enumerate_ballot(args.n):
            print(format_word(p))
    else:
        for cycles in enumeration.enumerate_odd_order(args.n):
            print(format_cycles(cycles))
    return 0


_FORMS = {"linear": "one-line permutations", "cyclic": "cycle decompositions"}
_BOTH = tuple(_FORMS)

# Every `map` op: the forms it accepts, whether it needs --i and --j, and its
# call on (perm, i, j, cyclic).
_MAP_OPS = {
    "T": (_BOTH, True, lambda p, i, j, cyclic: toeplitz.shift(p, i, j, cyclic=cyclic)),
    "Tinv": (_BOTH, True, lambda p, i, j, cyclic: toeplitz.shift_inv(p, i, j, cyclic=cyclic)),
    "f": (("linear",), True, lambda p, i, j, _: bijections.flank_swap(p, i, j, "forward")),
    "g": (("linear",), True, lambda p, i, j, _: bijections.flank_swap(p, i, j, "backward")),
    "phi": (("linear",), True, lambda p, i, j, _: bijections.exchange_letters(p, i, j)),
    "contract": (_BOTH, True, lambda p, i, j, _: bijections.contract(p, i, j)),
    "expand": (_BOTH, True, lambda p, i, j, _: bijections.contract(p, i, j, inverse=True)),
    "flip": (("cyclic",), False, lambda p, i, j, _: bijections.cycle_flip(p)),
}


def _cmd_map(args) -> int:
    forms, needs_letters, call = _MAP_OPS[args.op]
    cyclic = args.kind == "cyclic"
    perm = parse_cycles(args.perm) if cyclic else parse_word(args.perm)
    if args.kind not in forms:
        raise DomainError(f"map --op {args.op} is defined on {_FORMS[forms[0]]} only")
    if needs_letters and (args.i is None or args.j is None):
        raise DomainError(f"map --op {args.op} needs --i and --j")
    result = call(perm, args.i, args.j, cyclic)
    print(format_cycles(result) if cyclic else format_word(result))
    return 0


def _report_text(report: verify.VerificationReport) -> str:
    line = (f"{report.check}: {report.status.upper()} "
            f"(max_n={report.max_n}, cells={report.cells_checked}, "
            f"{report.wall_time_ms:.1f} ms)")
    for ce in report.counterexamples:
        line += f"\n  counterexample {ce['params']}: lhs={ce['lhs']} rhs={ce['rhs']}"
    return line


def _verify_bounds(args) -> dict[str, int | None]:
    """The bound each requested check runs at, all resolved before the first one starts.

    Under ``--check all`` a blanket ``--max-n`` of at least 1 is brought into
    each check's range ``[min_n, budget_cap]``, where the cap is the smallest
    budget the check reads.  Each check bounded below or raised above
    ``--max-n`` is named on stderr.
    """
    if args.check != "all":
        return {args.check: args.max_n}
    if args.max_n is not None and args.max_n < 1:
        raise DomainError(f"--max-n must be at least 1, got {args.max_n}")
    bounds = {}
    for info in verify.CHECKS.values():
        max_n = args.max_n
        if max_n is not None:
            max_n = max(info.min_n, min(max_n, info.budget_cap))
            if max_n != args.max_n:
                side = "below" if max_n < args.max_n else "above"
                print(f"permlab: {info.name} runs at max_n={max_n}, {side} --max-n {args.max_n}",
                      file=sys.stderr)
        bounds[info.name] = max_n
    return bounds


def _cmd_verify(args) -> int:
    failed = False
    for name, max_n in _verify_bounds(args).items():
        report = verify.run_check(name, max_n=max_n)
        if args.format == "json":
            print(json.dumps(report.to_json_obj()))
        else:
            print(_report_text(report))
        failed = failed or report.status != "pass"
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """The top-level parser, whose ``parse_args`` hands a plain line to its subcommand's parser.

    A plain line is ``COMMAND ARGS`` or ``--cache-dir DIR COMMAND ARGS``,
    where ``--cache-dir`` is its own token, DIR does not start with ``-``,
    COMMAND is a subcommand's exact name, and no token is ``--`` or starts
    with ``--=`` (on some CPython releases argparse's top-level pass
    refuses that one as an abbreviation of both ``--help`` and
    ``--cache-dir``).  Every other line, and a plain line with arguments
    left over, takes argparse's full parse.
    """

    commands: dict[str, argparse.ArgumentParser] = {}

    def parse_args(self, args=None, namespace=None):
        argv = sys.argv[1:] if args is None else list(args)
        at = 2 if argv[:1] == ["--cache-dir"] else 0
        if (namespace is None and len(argv) > at and argv[at] in self.commands
                and not (at and argv[1].startswith("-"))
                and not any(arg == "--" or arg.startswith("--=") for arg in argv)):
            parsed, rest = self.commands[argv[at]].parse_known_args(argv[at + 1:])
            if not rest:
                parsed.cache_dir = argv[1] if at else None
                parsed.command = argv[at]
                return parsed
        return super().parse_args(argv, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permlab",
        description="Exhaustive laboratory for ballot and odd order permutations.",
    )
    parser.add_argument("--cache-dir", default=None,
                        help=f"directory for on-disk count tables (or ${CACHE_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    count = sub.add_parser("count", help="refined count for one query key")
    count.add_argument("--kind", choices=enumeration.KINDS, required=True)
    count.add_argument("--n", type=int, required=True)
    count.add_argument("--d", type=int, default=None)
    count.add_argument("--i", type=int, default=None)
    count.add_argument("--j", type=int, default=None)
    count.set_defaults(fn=_cmd_count)

    matrix = sub.add_parser("matrix", help="neighbor-cell count matrix")
    matrix.add_argument("--kind", choices=enumeration.KINDS, required=True)
    matrix.add_argument("--n", type=int, required=True)
    matrix.add_argument("--d", type=int, default=None)
    matrix.add_argument("--format", choices=("text", "json", "csv"), default="text")
    matrix.set_defaults(fn=_cmd_matrix)

    enum = sub.add_parser("enumerate", help="stream all members of one class")
    enum.add_argument("--kind", choices=enumeration.KINDS, required=True)
    enum.add_argument("--n", type=int, required=True)
    enum.set_defaults(fn=_cmd_enumerate)

    map_cmd = sub.add_parser("map", help="apply one of the structure-preserving maps")
    map_cmd.add_argument("--op", choices=tuple(_MAP_OPS), required=True)
    map_cmd.add_argument("--kind", choices=_BOTH, default="linear")
    map_cmd.add_argument("--i", type=int, default=None)
    map_cmd.add_argument("--j", type=int, default=None)
    map_cmd.add_argument("--perm", required=True,
                         help='one-line form "3 8 2 ..." or cycle form "(1 3)(2)"')
    map_cmd.set_defaults(fn=_cmd_map)

    ver = sub.add_parser("verify", help="run one named check, or all of them")
    check_names = [name for name, _, _ in verify.list_checks()]
    ver.add_argument("--check", choices=check_names + ["all"], required=True)
    ver.add_argument("--max-n", type=int, default=None, dest="max_n")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(fn=_cmd_verify)

    return parser


@functools.lru_cache(maxsize=1)
def _parser(build) -> argparse.ArgumentParser:
    """The parser ``build()`` returns, built once per builder.

    Keyed on the builder, not held in one global, so that rebinding
    ``build_parser`` (a tracer does) gets a parser from the new builder;
    only the latest builder's parser is kept.
    """
    return build()


def main(argv: list[str] | None = None) -> int:
    args = _parser(build_parser).parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # The reader closed stdout early (say, `| head`).  Point stdout at
        # devnull so that the interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except BudgetError as exc:
        print(f"permlab: budget error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"permlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
