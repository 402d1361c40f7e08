"""Command-line front end: solvers, closed forms, certificates, and sweeps.

Every run prints one report.  JSON reports carry {command, params, result,
timing_ms, cache} with insertion-ordered keys and compact separators, so
output on identical inputs is byte-identical except for the timing field.
CSV is available for the tabular payloads (ppos, heatmap).  `solve`, `grundy`
and `cram` search with a solver of their own, so the `cache` block, and the
file `--cache` saves, hold this run's table and nothing from earlier calls;
`heatmap` and `cram --bluff` use the shared solvers, which keep those too.

Exit codes: 0 success, 1 domain errors (bad position, unknown ruleset),
2 resource limits (memo cap, stream horizon), 3 verification suites that
found counterexamples, 64 usage errors.
"""

from __future__ import annotations

import argparse
import io
import json
import pickle
import struct
import sys
import time

from . import verify as verify_mod
from .core import (
    Convention,
    MemoLimitExceeded,
    Outcome,
    Ruleset,
    Solver,
    solver_for,
)
from .cram import CRAM, bluff_report, empty_board
from .heaps import BASE_ORACLES, RULESETS, ZERUCLID, base_p_oracle, subtraction
from .periodicity import (
    HorizonExceeded,
    compound_certificates,
    interval_compound_certificate,
    predicted_period,
)
from .push import (
    COMPOUND_ORACLES,
    COMPOUNDS,
    Phase,
    PushPosition,
    compound_ruleset,
    push_p_oracle,
)
from .zeruclid import grundy_heatmap

EX_OK = 0
EX_DOMAIN = 1
EX_RESOURCE = 2
EX_COUNTEREXAMPLES = 3
EX_USAGE = 64

CACHE_MAGIC = b"GLMC"
CACHE_VERSION = 3  # 2: Cram keys are ints; 3: pre-button push keys are bare


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


def _game_position(args) -> tuple[Ruleset, object]:
    """The (ruleset, position) pair selected by --ruleset/--compound/--pos."""
    heaps = _int_list(args.pos, "position")
    if any(h < 0 for h in heaps):
        raise ValueError(f"heap sizes must be non-negative, got {heaps}")
    if args.compound:
        phase = Phase.AFTER if args.phase == "after" else Phase.BEFORE
        return compound_ruleset(args.compound), PushPosition(phase, heaps)
    if args.phase is not None:
        raise UsageError("--phase applies only to --compound games")
    return _ruleset_from_string(args.ruleset), heaps


# -- cache file (best-effort, version-tagged, ignored on mismatch) ----------


def _cache_tag(solver: Solver, key: Convention | None) -> str:
    kind = "grundy" if key is None else f"outcome:{key.value}"
    return f"{solver.ruleset.name}|{kind}"


def _cache_load(path: str, table: dict, tag: str) -> int:
    """Merge a cache file into a live memo table; 0 on any mismatch."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return 0
    try:
        if blob[:4] != CACHE_MAGIC:
            return 0
        off = 4
        (version,) = struct.unpack_from(">H", blob, off)
        off += 2
        if version != CACHE_VERSION:
            return 0
        (tag_len,) = struct.unpack_from(">H", blob, off)
        off += 2
        if blob[off : off + tag_len].decode("utf-8") != tag:
            return 0
        off += tag_len
        records = {}
        while off < len(blob):
            (key_len,) = struct.unpack_from(">I", blob, off)
            off += 4
            key = pickle.loads(blob[off : off + key_len])
            off += key_len
            (val_len,) = struct.unpack_from(">I", blob, off)
            off += 4
            records[key] = pickle.loads(blob[off : off + val_len])
            off += val_len
    except Exception:
        return 0  # corrupt or foreign file: run cold rather than fail
    table.update(records)
    return len(records)


def _cache_save(path: str, table: dict, tag: str) -> bool:
    out = io.BytesIO()
    out.write(CACHE_MAGIC)
    out.write(struct.pack(">H", CACHE_VERSION))
    raw_tag = tag.encode("utf-8")
    out.write(struct.pack(">H", len(raw_tag)))
    out.write(raw_tag)
    for key, value in table.items():
        for blob in (pickle.dumps(key), pickle.dumps(value)):
            out.write(struct.pack(">I", len(blob)))
            out.write(blob)
    try:
        with open(path, "wb") as fh:
            fh.write(out.getvalue())
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
    loaded = _cache_load(args.cache, table, tag)
    result = compute()
    saved = _cache_save(args.cache, table, tag)
    stats = solver.cache_stats()
    stats.update({"file": args.cache, "loaded": loaded, "saved": saved})
    return result, stats


# -- subcommands -------------------------------------------------------------


def _cmd_solve(args):
    convention = Convention(args.convention)
    ruleset, position = _game_position(args)
    solver = Solver(ruleset)
    result, cache = _with_cache(
        args, solver, convention, lambda: {"outcome": solver.outcome(position, convention).value}
    )
    params = {
        "ruleset": args.ruleset,
        "compound": args.compound,
        "pos": list(position.inner if args.compound else position),
        "phase": (args.phase or "before") if args.compound else None,
        "convention": convention.value,
    }
    return params, result, cache, EX_OK


def _cmd_grundy(args):
    ruleset, position = _game_position(args)
    solver = Solver(ruleset)
    result, cache = _with_cache(
        args, solver, None, lambda: {"grundy": solver.grundy(position)}
    )
    params = {
        "ruleset": args.ruleset,
        "compound": args.compound,
        "pos": list(position.inner if args.compound else position),
        "phase": (args.phase or "before") if args.compound else None,
    }
    return params, result, cache, EX_OK


def _closed_form_pairs(oracle: str, limit: int) -> list[list[int]]:
    if oracle in COMPOUND_ORACLES:
        test = lambda a, b: push_p_oracle(oracle, (a, b)) is Outcome.P
        start = 0
    elif oracle in BASE_ORACLES:
        test = lambda a, b: base_p_oracle(oracle, (a, b)) is Outcome.P
        start = 1 if oracle.startswith("euclid") else 0  # euclid forms need a,b >= 1
    else:
        known = ", ".join([*COMPOUND_ORACLES, *BASE_ORACLES])
        raise ValueError(f"unknown oracle {oracle!r}; known: {known}")
    return [
        [a, b]
        for a in range(start, limit + 1)
        for b in range(a, limit + 1)
        if test(a, b)
    ]


def _cmd_ppos(args):
    if args.max < 0:
        raise ValueError(f"--max must be non-negative, got {args.max}")
    pairs = _closed_form_pairs(args.compound, args.max)
    params = {"compound": args.compound, "max": args.max}
    return params, {"pairs": pairs, "count": len(pairs)}, None, EX_OK


def _cmd_heatmap(args):
    solver = solver_for(ZERUCLID)
    result, cache = _with_cache(
        args, solver, None, lambda: {"grid": grundy_heatmap(args.max)}
    )
    params = {"max": args.max}
    return params, result, cache, EX_OK


def _cmd_period(args):
    interval_form = args.k1 is not None or args.k2 is not None
    set_form = args.s1 is not None or args.r2 is not None
    if interval_form == set_form:
        raise UsageError("period needs either --k1/--k2 or --s1/--r2")
    if interval_form:
        if args.k1 is None or args.k2 is None:
            raise UsageError("period needs both --k1 and --k2")
        cert = interval_compound_certificate(args.k1, args.k2)
        params = {"k1": args.k1, "k2": args.k2}
        result = {
            "predicted": predicted_period(args.k1, args.k2),
            "certified": cert.to_dict(),
        }
        return params, result, None, EX_OK
    if args.s1 is None or args.r2 is None:
        raise UsageError("period needs both --s1 and --r2")
    s1 = _int_list(args.s1, "--s1 subtraction set")
    s2 = _int_list(args.r2, "--r2 subtraction set")
    convention = Convention(args.convention)
    certs = compound_certificates(s1, s2, convention)
    params = {
        "s1": list(s1),
        "r2": list(s2),
        "convention": convention.value,
    }
    order = ("r2", "r2_values", "outcome", "values")
    result = {name: certs[name].to_dict() for name in order if name in certs}
    return params, result, None, EX_OK


def _cmd_cram(args):
    if args.bluff:

        def bluff():
            report = bluff_report(args.rows, args.cols)._asdict()
            return {"outcome": report.pop("outcome").value, "bluff": report}

        result, cache = _with_cache(args, solver_for(CRAM), Convention.NORMAL, bluff)
    else:
        solver = Solver(CRAM)
        board = empty_board(args.rows, args.cols)
        result, cache = _with_cache(
            args,
            solver,
            Convention.NORMAL,
            lambda: {"outcome": solver.outcome(board).value},
        )
    params = {"rows": args.rows, "cols": args.cols, "bluff": bool(args.bluff)}
    return params, result, cache, EX_OK


def _cmd_verify(args):
    reports = verify_mod.run_suite(args.suite)
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
    elif command == "heatmap":
        grid = result["grid"]
        width = len(grid[0]) if grid else 0
        lines = ["a\\b," + ",".join(str(b) for b in range(width))]
        for a, row in enumerate(grid):
            lines.append(f"{a}," + ",".join(str(v) for v in row))
    else:
        raise UsageError("--format csv is only available for ppos and heatmap")
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
    shared = argparse.ArgumentParser(add_help=False)
    _add_global_flags(shared, trailing=True)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_game_flags(p):
        which = p.add_mutually_exclusive_group(required=True)
        which.add_argument("--ruleset", help="nim, wythoff, euclid, zeruclid, or subtraction:LIST")
        which.add_argument("--compound", choices=tuple(COMPOUNDS))
        p.add_argument("--pos", required=True, help="comma-separated heap sizes")
        p.add_argument("--phase", choices=("before", "after"), default=None)

    p = sub.add_parser("solve", parents=[shared], help="outcome of one position")
    add_game_flags(p)
    p.add_argument("--convention", choices=("normal", "misere"), default="normal")

    p = sub.add_parser("grundy", parents=[shared], help="Grundy value of one position (normal play)")
    add_game_flags(p)

    p = sub.add_parser("ppos", parents=[shared], help="closed-form P-position pairs up to a bound")
    p.add_argument(
        "--compound",
        required=True,
        metavar="ORACLE",
        help=f"one of: {', '.join([*COMPOUND_ORACLES, *BASE_ORACLES])}",
    )
    p.add_argument("--max", type=int, required=True)

    p = sub.add_parser("heatmap", parents=[shared], help="Grundy grid of three-heap positions (1,a,b)")
    p.add_argument("--max", type=int, required=True)

    p = sub.add_parser("period", parents=[shared], help="periodicity certificates for subtraction compounds")
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)
    p.add_argument("--s1", metavar="LIST")
    p.add_argument("--r2", metavar="LIST")
    p.add_argument("--convention", choices=("normal", "misere"), default="normal")

    p = sub.add_parser("cram", parents=[shared], help="outcome of an empty board, or its bluff report")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--bluff", action="store_true")

    p = sub.add_parser("verify", parents=[shared], help="run a verification suite")
    p.add_argument("suite", choices=(*verify_mod.SUITES, "all"))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
