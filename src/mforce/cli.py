"""Command line front end: mforce <min|check|construct|search|verify>.

Patterns are given as built-in names (i2, h2, i3, b3, c3, d3, e3, h3, i4,
perm:2413, ...), as paths to matrix text files, or as '-' for stdin. All
user-facing indices are 1-based. Exit codes: 0 success (and "yes" for
checks, all-pass for suites), 1 check answered "no" or a suite row failed,
2 invalid input or precondition, a verify suite with no row at its limits,
or a brute-force oracle over its placement cap.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import astuple, fields
from pathlib import Path

from . import __version__
from .bitmatrix import BitMatrix, check_fit, check_sides, direct_sum, identity, parse, serialize
from .forcing import (
    core,
    corner_functions,
    is_forcing,
    min_ones,
    minimal_forcing,
)
from .oracle import EnumerationCapError
from .patterns import _FAMILY, named
from .strong_forcing import (
    ResultsCache,
    SearchConfig,
    extremal_132_witness,
    extremal_identity_witness,
    find_witness,
    is_strongly_forcing,
    linear_zero_construction,
    search_max,
    split_witness,
)
from .verification import FAIL, SUITES, VerifyRow, run_suite


class CliError(Exception):
    """Invalid invocation or input; maps to exit code 2."""


def _read_matrix(spec: str) -> BitMatrix:
    # A matrix file path, or '-' for stdin.
    return parse(sys.stdin.read() if spec == "-" else Path(spec).read_text())


def load_pattern(spec: str) -> BitMatrix:
    """Resolve a pattern argument: built-in name, then file path, then stdin."""
    try:
        return named(spec)
    except ValueError as exc:
        # A perm: word or i/h/j family name reports its own fault: a bad word, a side too long.
        key = spec.lower()
        if (key.startswith("perm:") or _FAMILY.fullmatch(key)) and not Path(spec).exists():
            raise CliError(str(exc)) from None
    if spec != "-" and not Path(spec).exists():
        raise CliError(
            f"pattern {spec!r} is neither a built-in name nor an existing file"
        )
    return _read_matrix(spec)


def _report(command: str, inputs: dict, outputs: dict, passed: bool, started: float) -> str:
    report = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "passed": passed,
        "timing_ms": int((time.monotonic() - started) * 1000),
    }
    return json.dumps(report, indent=2, sort_keys=True)


def cmd_min(args: argparse.Namespace) -> int:
    started = time.monotonic()
    pattern = load_pattern(args.pattern)
    result = min_ones(args.m, args.n, pattern)
    outputs: dict = {"count": result.value, "method": result.method}
    lines = []
    if args.emit in ("count", "both"):
        lines.append(f"count {result.value}")
        lines.append(f"method {result.method}")
    if args.emit in ("matrix", "both"):
        text = serialize(minimal_forcing(args.m, args.n, pattern))
        outputs["matrix"] = text
        lines.append(text.rstrip("\n"))
    if args.explain:
        corners = corner_functions(pattern)
        borders = core(pattern)
        outputs["corners"] = corners.to_json_dict()
        outputs["core"] = borders.to_json_dict()
        lines.append(
            "corners nw=%d sw=%d ne=%d se=%d"
            % (len(corners.nw), len(corners.sw), len(corners.ne), len(corners.se))
        )
        lines.append(
            "core top=%d bottom=%d left=%d right=%d"
            % (borders.top_zero_rows, borders.bottom_zero_rows,
               borders.left_zero_cols, borders.right_zero_cols)
        )
    if args.format == "json":
        print(_report(
            "min",
            {"m": args.m, "n": args.n, "pattern": args.pattern},
            outputs, True, started,
        ))
    else:
        print("\n".join(lines))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.witness and args.kind != "strong":
        raise CliError("--witness applies only to check strong")
    if args.ambient == "-" and args.pattern == "-":
        raise CliError("--ambient and --pattern cannot both read stdin ('-')")
    ambient = _read_matrix(args.ambient)
    pattern = load_pattern(args.pattern)
    if args.kind == "forcing":
        verdict = is_forcing(ambient, pattern)
        outputs: dict = {"forcing": verdict}
    elif args.witness:
        # The per-entry witnesses decide the verdict: yes iff none is missing.
        check_fit(ambient.rows, ambient.cols, pattern)
        embeddings = []
        for pos in ambient.iter_ones():
            witness = find_witness(ambient, pattern, pos)
            embeddings.append({
                "entry": [pos.row + 1, pos.col + 1],
                "witness": witness.to_json_dict() if witness else None,
            })
        verdict = all(item["witness"] is not None for item in embeddings)
        outputs = {"strongly_forcing": verdict, "witnesses": embeddings}
    else:
        verdict = is_strongly_forcing(ambient, pattern)
        outputs = {"strongly_forcing": verdict}
    if args.format == "json":
        print(_report(
            "check",
            {"kind": args.kind, "ambient": args.ambient, "pattern": args.pattern},
            outputs, verdict, started,
        ))
    else:
        print("yes" if verdict else "no")
        if args.witness:
            for item in outputs["witnesses"]:
                entry = item["entry"]
                if item["witness"] is None:
                    print(f"({entry[0]},{entry[1]}) uncovered")
                else:
                    rows = ",".join(map(str, item["witness"]["rows"]))
                    cols = ",".join(map(str, item["witness"]["cols"]))
                    print(f"({entry[0]},{entry[1]}) rows [{rows}] cols [{cols}]")
    return 0 if verdict else 1


def cmd_construct(args: argparse.Namespace) -> int:
    which = args.which

    def need(name: str):
        value = getattr(args, name.replace("-", "_"), None)
        if value is None:
            raise CliError(f"construct {which} requires --{name}")
        return value

    if which == "a-mnq":
        matrix = minimal_forcing(need("m"), need("n"), load_pattern(need("pattern")))
    elif which == "s-n":
        matrix = extremal_identity_witness(need("n"), 3)
    elif which == "t-n":
        matrix = extremal_132_witness(need("n"))
    elif which == "s-nk":
        matrix = extremal_identity_witness(need("n"), need("k"))
    elif which == "linear-zero":
        matrix = linear_zero_construction(need("m"), need("n"), load_pattern(need("pattern")))
    elif which == "extremal-2x2":
        matrix = split_witness(need("n"), named(args.variant))
    else:
        n1, n2 = need("n1"), need("n2")
        check_sides(n1 + n2, n1 + n2)
        matrix = direct_sum(
            split_witness(n1, identity(need("k1"))),
            split_witness(n2, identity(need("k2"))),
        )
    text = serialize(matrix)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    pattern = load_pattern(args.pattern)
    config = SearchConfig(
        node_budget=args.node_budget,
        time_budget=args.time_budget,
        use_dihedral_reduction=args.dihedral_reduction,
        enumerate_all_extremal=args.all_extremal,
    )
    cache = ResultsCache(args.cache) if args.cache else None
    outcome = search_max(args.n, pattern, config, cache)
    print(json.dumps(outcome.to_json_dict(), indent=2, sort_keys=True))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    rows = [row for name in names
            for row in run_suite(name, n_max=args.n_max, k_max=args.k_max)]
    failed = sum(1 for row in rows if row.status == FAIL)
    if args.format == "json":
        print(_report(
            "verify",
            {"suite": args.suite, "n_max": args.n_max, "k_max": args.k_max},
            {
                "rows": [row.to_json_dict() for row in rows],
                "failed": failed,
                "total": len(rows),
            },
            failed == 0, started,
        ))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(field.name for field in fields(VerifyRow))
        writer.writerows(map(astuple, rows))
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mforce",
        description="Extremal pattern-forcing computations on (0,1)-matrices.",
    )
    parser.add_argument("--version", action="version", version=f"mforce {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_min = sub.add_parser("min", help="minimum ones for a forcing matrix")
    p_min.add_argument("--m", type=int, required=True)
    p_min.add_argument("--n", type=int, required=True)
    p_min.add_argument("--pattern", required=True)
    p_min.add_argument("--emit", choices=("count", "matrix", "both"), default="count")
    p_min.add_argument("--format", choices=("text", "json"), default="text")
    p_min.add_argument("--explain", action="store_true",
                       help="also report corner cardinalities and core offsets")
    p_min.set_defaults(func=cmd_min)

    p_check = sub.add_parser("check", help="test the forcing or strong-forcing property")
    p_check.add_argument("kind", choices=("forcing", "strong"))
    p_check.add_argument("--ambient", required=True, help="matrix file, or - for stdin")
    p_check.add_argument("--pattern", required=True)
    p_check.add_argument("--witness", action="store_true",
                         help="with strong: emit one embedding per 1-entry")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=cmd_check)

    p_construct = sub.add_parser("construct", help="emit a named construction")
    p_construct.add_argument(
        "which",
        choices=("a-mnq", "s-n", "t-n", "s-nk", "linear-zero", "extremal-2x2", "block"),
    )
    p_construct.add_argument("--m", type=int)
    p_construct.add_argument("--n", type=int)
    p_construct.add_argument("--k", type=int)
    p_construct.add_argument("--pattern")
    p_construct.add_argument("--variant", choices=("i2", "h2"), default="i2")
    p_construct.add_argument("--n1", type=int)
    p_construct.add_argument("--k1", type=int)
    p_construct.add_argument("--n2", type=int)
    p_construct.add_argument("--k2", type=int)
    p_construct.add_argument("--out", help="write the matrix here instead of stdout")
    p_construct.set_defaults(func=cmd_construct)

    p_search = sub.add_parser("search", help="exact maximum ones for strong forcing")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--pattern", required=True)
    p_search.add_argument("--node-budget", type=int)
    p_search.add_argument("--time-budget", type=float, help="seconds")
    p_search.add_argument("--all-extremal", action="store_true",
                          help="collect the whole maximum level set")
    p_search.add_argument("--dihedral-reduction", action="store_true",
                          help="search the canonical pattern and map witnesses back")
    p_search.add_argument("--cache", help="JSON results cache path")
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify", help="run a named verification suite, or all of them")
    p_verify.add_argument("--suite", required=True, choices=[*SUITES, "all"],
                          help="all runs every suite in name order")
    p_verify.add_argument("--n-max", type=int)
    p_verify.add_argument("--k-max", type=int)
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, EnumerationCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
