"""Command-line front end: solvers, closed forms, certificates, and sweeps.

Every run prints one report.  JSON reports carry {command, params, result,
timing_ms, cache} with insertion-ordered keys and compact separators, so
output on identical inputs is byte-identical except for the timing field.
CSV is available for the tabular payloads (ppos, heatmap).  Every command
that searches runs a solver of its own, so the `cache` block, and the file
`--cache` saves, hold this run's table and nothing from earlier calls; the
other commands refuse `--cache`.  A cache file is JSON lines: a
version-and-tag header, then arrays of [key, value] pairs whose types are
checked as they are read; any fault loads nothing, and no file can make the
loader run code.

Exit codes: 0 success, 1 domain errors (bad position, unknown ruleset),
2 resource limits (memo cap, stream horizon), 3 verification suites that
found counterexamples, 64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import islice
from operator import attrgetter

from .core import (
    Convention,
    HorizonExceeded,
    MemoLimitExceeded,
    Outcome,
    Ruleset,
    Solver,
)
from .heaps import BASE_ORACLES, RULESETS, ZERUCLID, subtraction
from .push import (
    COMPOUND_ORACLES,
    COMPOUNDS,
    Phase,
    PushPosition,
    compound_ruleset,
    push_p_oracle,
)

# `periodicity`, `zeruclid`, `cram` and `verify` are imported by the handlers
# that run them, so a command loads only the modules it uses.


def __getattr__(name: str):
    # `cli.CRAM` is one of the names the benchmark's tracer rebinds; it
    # resolves to `cram.CRAM` without loading `cram` for every command.
    if name == "CRAM":
        from .cram import CRAM

        return CRAM
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EX_OK = 0
EX_DOMAIN = 1
EX_RESOURCE = 2
EX_COUNTEREXAMPLES = 3
EX_USAGE = 64

CACHE_VERSION = 4  # 2: Cram keys are ints; 3: pre-button push keys are bare; 4: JSON lines
CACHE_BATCH = 1024  # [key, value] pairs per line
#: Deepest nesting a cache line holds: the line, a [key, value] pair, an
#: ["after", inner] key and a heap tuple inside it.
CACHE_DEPTH = 4


class UsageError(Exception):
    """Malformed flags or flag combinations; maps to exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract wants 64
        raise UsageError(message)


# -- small parsers -----------------------------------------------------------


def _int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad {what} {text!r}: expected comma-separated integers")
    return values


def _ruleset_from_string(text: str) -> Ruleset:
    if text in RULESETS:
        return RULESETS[text]
    if text.startswith("subtraction:"):
        return subtraction(_int_list(text.split(":", 1)[1], "subtraction set"))
    known = ", ".join([*RULESETS, "subtraction:LIST"])
    raise ValueError(f"unknown ruleset {text!r}; known: {known}")


def _game(args) -> tuple[Solver, object, dict]:
    """Fresh solver, root position and report params from --ruleset/--compound/--pos."""
    heaps = _int_list(args.pos, "position")  # the ruleset's canonical form checks them
    if args.compound:
        if len(heaps) != 2:  # every compound is a two-heap game
            raise ValueError(f"expected 2 heaps, got {heaps!r}")
        ruleset = compound_ruleset(args.compound)
    else:
        ruleset = _ruleset_from_string(args.ruleset)
    params = {"ruleset": args.ruleset, "compound": args.compound, "pos": list(heaps)}
    return Solver(ruleset), heaps, params


# -- cache file (best-effort, version-tagged, type-checked, ignored on fault) --


def _cache_tag(solver: Solver, key: Convention | None) -> str:
    kind = "grundy" if key is None else f"outcome:{key.value}"
    return f"{solver.ruleset.name}|{kind}"


def _cache_header(tag: str) -> str:
    return json.dumps({"version": CACHE_VERSION, "tag": tag}, separators=(",", ":")) + "\n"


_OUTCOMES = {o.value: o for o in Outcome}
#: bytes.translate arguments that keep only a line's brackets, braces as brackets.
_BRACKETS_ONLY = (
    bytes(range(256)).replace(b"{", b"[").replace(b"}", b"]"),
    bytes(b for b in range(256) if b not in b"[]{}"),
)


def _nests_too_deep(line: str) -> bool:
    """True when `line` opens arrays or objects more than CACHE_DEPTH deep.

    On the line's brackets alone, each pass deletes the innermost pairs, at C
    speed; what stays open after CACHE_DEPTH passes is deeper (or never
    closes).  The JSON decoder recurses once per level on the C stack, so
    under a high recursion limit a deep enough line would crash the
    interpreter before any RecursionError.
    """
    brackets = line.encode().translate(*_BRACKETS_ONLY)
    for _ in range(CACHE_DEPTH):
        brackets = brackets.replace(b"[]", b"")
    return b"[" in brackets


def _cache_key(raw, outer: bool = True):
    if raw.__class__ is int:
        return raw
    if raw.__class__ is list:
        if outer and len(raw) == 2 and raw[0] == "after":
            return PushPosition(Phase.AFTER, _cache_key(raw[1], False))
        if all(h.__class__ is int for h in raw):
            return tuple(raw)
    raise TypeError(f"bad cache key {raw!r}")


def _grundy_value(raw) -> int:
    if raw.__class__ is not int or raw < 0:
        raise TypeError(f"bad Grundy value {raw!r}")
    return raw


def _cache_load(path: str, table: dict, tag: str, room: int) -> int:
    """Merge a cache file into a live memo table; 0 on any fault or mismatch.

    Keys are ints (Push Cram), int lists (heap tuples) or ["after", either];
    values are "P"/"N" or, in the Grundy table, non-negative ints.  Classes
    are checked exactly, so no bool or float gets in.  A file of more than
    `room` records, the entries the memo cap leaves free, is a fault too.
    """
    value_of = _grundy_value if tag.endswith("|grundy") else _OUTCOMES.__getitem__
    records = {}
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline() != _cache_header(tag):
                return 0
            for line in fh:
                if _nests_too_deep(line):
                    raise ValueError("a cache line nests deeper than its format")
                batch = json.loads(line)
                if batch.__class__ is not list:
                    raise TypeError("a cache line must be a list of pairs")
                for key, value in batch:
                    records[_cache_key(key)] = value_of(value)
                if len(records) > room:
                    return 0
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return 0  # missing, corrupt or foreign file: run cold rather than fail
    table.update(records)
    return len(records)


def _cache_save(path: str, table: dict, tag: str) -> bool:
    # Batches keep the encoder's token list small; tuples (PushPositions
    # among them) become arrays and enums write their value.
    encode = json.JSONEncoder(separators=(",", ":"), default=attrgetter("value")).encode
    items = iter(table.items())
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_cache_header(tag))
            while batch := list(islice(items, CACHE_BATCH)):
                fh.write(encode(batch) + "\n")
    except OSError:
        return False
    return True


def _with_cache(args, solver: Solver, key: Convention | None, compute):
    """Preload the matching memo table, run `compute`, persist, report stats."""
    if not args.cache:
        result = compute()
        return result, solver.cache_stats()
    table = solver.table(key)
    tag = _cache_tag(solver, key)
    room = solver.memo_cap - solver.entry_count()
    loaded = _cache_load(args.cache, table, tag, room)
    result = compute()
    saved = _cache_save(args.cache, table, tag)
    stats = solver.cache_stats()
    stats.update({"file": args.cache, "loaded": loaded, "saved": saved})
    return result, stats


# -- subcommands -------------------------------------------------------------


def _cmd_solve(args):
    convention = Convention(args.convention)
    solver, position, params = _game(args)
    result, cache = _with_cache(
        args, solver, convention, lambda: {"outcome": solver.outcome(position, convention).value}
    )
    params["convention"] = convention.value
    return params, result, cache, EX_OK


def _cmd_grundy(args):
    solver, position, params = _game(args)
    result, cache = _with_cache(
        args, solver, None, lambda: {"grundy": solver.grundy(position)}
    )
    return params, result, cache, EX_OK


def _closed_form_pairs(oracle: str, limit: int) -> list[list[int]]:
    if oracle in COMPOUND_ORACLES:
        test = lambda pair: push_p_oracle(oracle, pair) is Outcome.P
        start = 0
    elif oracle in BASE_ORACLES:
        test = BASE_ORACLES[oracle]
        start = 1 if oracle.startswith("euclid") else 0  # euclid forms need a,b >= 1
    else:
        known = ", ".join([*COMPOUND_ORACLES, *BASE_ORACLES])
        raise ValueError(f"unknown oracle {oracle!r}; known: {known}")
    return [
        [a, b]
        for a in range(start, limit + 1)
        for b in range(a, limit + 1)
        if test((a, b))
    ]


def _cmd_ppos(args):
    if args.max < 0:
        raise ValueError(f"--max must be non-negative, got {args.max}")
    pairs = _closed_form_pairs(args.compound, args.max)
    params = {"compound": args.compound, "max": args.max}
    return params, {"pairs": pairs, "count": len(pairs)}, None, EX_OK


def _cmd_heatmap(args):
    from .zeruclid import grundy_heatmap

    solver = Solver(ZERUCLID)
    result, cache = _with_cache(
        args, solver, None, lambda: {"grid": grundy_heatmap(args.max, solver)}
    )
    params = {"max": args.max}
    return params, result, cache, EX_OK


def _cmd_period(args):
    from . import periodicity

    interval_form = args.k1 is not None or args.k2 is not None
    set_form = args.s1 is not None or args.r2 is not None
    if interval_form == set_form:
        raise UsageError("period needs either --k1/--k2 or --s1/--r2")
    convention = Convention(args.convention)
    if interval_form:
        if args.k1 is None or args.k2 is None:
            raise UsageError("period needs both --k1 and --k2")
        cert = periodicity.interval_compound_certificate(args.k1, args.k2, convention)
        params = {"k1": args.k1, "k2": args.k2, "convention": convention.value}
        result = {
            "predicted": periodicity.predicted_period(args.k1, args.k2),
            "certified": cert._asdict(),
        }
        return params, result, None, EX_OK
    if args.s1 is None or args.r2 is None:
        raise UsageError("period needs both --s1 and --r2")
    s1 = _int_list(args.s1, "--s1 subtraction set")
    s2 = _int_list(args.r2, "--r2 subtraction set")
    certs = periodicity.compound_certificates(s1, s2, convention)
    params = {
        "s1": list(s1),
        "r2": list(s2),
        "convention": convention.value,
    }
    order = ("r2", "r2_values", "outcome", "values")
    result = {name: certs[name]._asdict() for name in order if name in certs}
    return params, result, None, EX_OK


def _cmd_cram(args):
    from . import cram

    solver = Solver(cram.CRAM)

    def compute():
        if args.bluff:
            report = cram.bluff_report(args.rows, args.cols, solver)._asdict()
            return {"outcome": report.pop("outcome").value, "bluff": report}
        return {"outcome": solver.outcome(cram.GridBoard(args.rows, args.cols)).value}

    result, cache = _with_cache(args, solver, Convention.NORMAL, compute)
    params = {"rows": args.rows, "cols": args.cols, "bluff": bool(args.bluff)}
    return params, result, cache, EX_OK


def _cmd_verify(args):
    from . import verify

    if args.suite != "all" and args.suite not in verify.SUITES:
        known = ", ".join([*verify.SUITES, "all"])
        raise UsageError(f"unknown suite {args.suite!r}; known: {known}")
    reports = verify.run_suite(args.suite)
    found = sum(len(r["counterexamples"]) for r in reports)
    params = {"suite": args.suite}
    result = {"reports": reports, "counterexamples": found}
    return params, result, None, EX_OK if found == 0 else EX_COUNTEREXAMPLES


_HANDLERS = {
    "solve": _cmd_solve,
    "grundy": _cmd_grundy,
    "ppos": _cmd_ppos,
    "heatmap": _cmd_heatmap,
    "period": _cmd_period,
    "cram": _cmd_cram,
    "verify": _cmd_verify,
}


# -- rendering ---------------------------------------------------------------


def _render_csv(command: str, result: dict) -> str:
    if command == "ppos":
        lines = ["a,b"] + [f"{a},{b}" for a, b in result["pairs"]]
    else:  # heatmap; `main` rejects csv for every other command
        grid = result["grid"]
        width = len(grid[0])
        lines = ["a\\b," + ",".join(str(b) for b in range(width))]
        for a, row in enumerate(grid):
            lines.append(f"{a}," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(command: str, params: dict, result: dict, ms: float, cache) -> str:
    report = {
        "command": command,
        "params": params,
        "result": result,
        "timing_ms": round(ms, 3),
        "cache": cache,
    }
    return json.dumps(report, separators=(",", ":"), default=str)


# -- entry point -------------------------------------------------------------


def _add_global_flags(parser: argparse.ArgumentParser, trailing: bool) -> None:
    # The same flags are declared on the main parser (with real defaults) and
    # on every subparser (defaults suppressed, so a trailing flag overrides
    # the leading value instead of being reset by the subparser's default).
    suppress = {"default": argparse.SUPPRESS} if trailing else {}
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        **(suppress or {"default": "json"}),
    )
    parser.add_argument(
        "--cache", metavar="FILE", help="memo table persistence file", **suppress
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gamelab",
        description="Exact analysis of impartial heap games and push-the-button compounds.",
    )
    _add_global_flags(parser, trailing=False)
    flags = argparse.ArgumentParser(add_help=False)
    _add_global_flags(flags, trailing=True)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_game_flags(p):
        which = p.add_mutually_exclusive_group(required=True)
        which.add_argument("--ruleset", help="nim, wythoff, euclid, zeruclid, or subtraction:LIST")
        which.add_argument("--compound", choices=tuple(COMPOUNDS))
        p.add_argument("--pos", required=True, help="comma-separated heap sizes")

    p = sub.add_parser("solve", parents=[flags], help="outcome of one position")
    add_game_flags(p)
    p.add_argument("--convention", choices=("normal", "misere"), default="normal")

    p = sub.add_parser("grundy", parents=[flags], help="Grundy value of one position (normal play)")
    add_game_flags(p)

    p = sub.add_parser("ppos", parents=[flags], help="closed-form P-position pairs up to a bound")
    p.add_argument(
        "--compound",
        required=True,
        metavar="ORACLE",
        help=f"one of: {', '.join([*COMPOUND_ORACLES, *BASE_ORACLES])}",
    )
    p.add_argument("--max", type=int, required=True)

    p = sub.add_parser("heatmap", parents=[flags], help="Grundy grid of three-heap positions (1,a,b)")
    p.add_argument("--max", type=int, required=True)

    p = sub.add_parser("period", parents=[flags], help="periodicity certificates for subtraction compounds")
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)
    p.add_argument("--s1", metavar="LIST")
    p.add_argument("--r2", metavar="LIST")
    p.add_argument("--convention", choices=("normal", "misere"), default="normal")

    p = sub.add_parser("cram", parents=[flags], help="outcome of an empty board, or its bluff report")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--bluff", action="store_true")

    p = sub.add_parser("verify", parents=[flags], help="run a verification suite")
    p.add_argument("suite", help="a suite name, or all")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format == "csv" and args.command not in ("ppos", "heatmap"):
            raise UsageError("--format csv is only available for ppos and heatmap")
        if args.cache is not None and args.command not in ("solve", "grundy", "heatmap", "cram"):
            raise UsageError("--cache is only available for solve, grundy, heatmap and cram")
        start = time.perf_counter()
        params, result, cache, code = _HANDLERS[args.command](args)
        ms = (time.perf_counter() - start) * 1000.0
        if args.format == "csv":
            sys.stdout.write(_render_csv(args.command, result))
        else:
            print(_render_json(args.command, params, result, ms, cache))
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DOMAIN
    except (MemoLimitExceeded, HorizonExceeded) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EX_RESOURCE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
