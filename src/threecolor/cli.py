"""Command-line front end: generate, count, verify, report.

Each command returns its exit code and the chunks of its output; `main` alone
writes them, to stdout or to `--output`.  Exit codes: 0 success, 1 verification failure,
2 usage or domain error, 3 I/O failure.  All output is deterministic for fixed flags.
The bit budget for bound computations defaults to $THREECOLOR_BIT_BUDGET or 10^7 bits.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import os
import sys
from typing import Iterable

from . import bounds, counting, serialize, suites
from .gadgets import build_T, checked_vertex_count
from .graphs import COLORS

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
VERIFY_OPTIONS = ("ell_max", "k_max", "b_max", "bit_budget")


def _bit_budget(flag: int | None = None) -> int:
    """The --bit-budget flag if given, else $THREECOLOR_BIT_BUDGET or the default, if >= 0."""
    raw = os.environ.get("THREECOLOR_BIT_BUDGET", str(bounds.DEFAULT_BIT_BUDGET))
    try:
        budget = int(raw) if flag is None else flag
    except ValueError as exc:
        raise ValueError(f"invalid THREECOLOR_BIT_BUDGET: {raw!r}") from exc
    if budget < 0:
        raise ValueError(f"the bit budget must be >= 0, not {budget}")
    return budget


def _write_output(chunks: Iterable[str], path: str | None) -> None:
    """Write each chunk as it comes, then a newline unless the text ends in one."""
    with (contextlib.nullcontext(sys.stdout) if path in (None, "-")
          else open(path, "w", encoding="ascii")) as fh:
        last = ""
        for chunk in chunks:
            fh.write(chunk)
            last = chunk or last
        if not last.endswith("\n"):
            fh.write("\n")


def cmd_generate(args) -> tuple[int, Iterable[str]]:
    if args.faces and args.format != "json":
        raise ValueError(f"--faces does not apply to --format {args.format}")
    if args.format == "graph6":  # refused before anything is built
        serialize.check_graph6_size(checked_vertex_count(args.k, args.ell))
    gadget = build_T(args.k, args.ell, check=not args.no_check)
    if args.format == "json":
        return EXIT_OK, serialize.json_chunks(
            serialize.gadget_descriptor(gadget, include_faces=args.faces))
    if args.format == "dot":
        return EXIT_OK, (serialize.to_dot(gadget.graph, name=f"T_{args.k}_{args.ell}"),)
    return EXIT_OK, (serialize.to_graph6(gadget.graph),)


def _parse_fix(raw: str | None):
    if raw is None:
        return None
    try:
        cu, cv = map(int, raw.split(","))
    except ValueError:  # not two parts, or a part that is not an integer
        raise ValueError("--fix expects two comma-separated colors, e.g. 1,2") from None
    if cu not in COLORS or cv not in COLORS:
        raise ValueError("--fix colors must be in {1,2,3}")
    return cu, cv


def cmd_count(args) -> tuple[int, Iterable[str]]:
    budget = _bit_budget(args.bit_budget)  # read (and checked) for every method
    if args.bit_budget is not None and args.method != "dp":
        raise ValueError(f"--bit-budget does not apply to --method {args.method}")
    fix = _parse_fix(args.fix)
    if args.method == "dp":
        pc = counting.gadget_pair_counts(args.k, args.ell, bit_budget=budget)
        if fix is None:
            value = counting.total_colorings(pc)
        else:
            value = pc.same if fix[0] == fix[1] else pc.diff
    else:
        n = checked_vertex_count(args.k, args.ell)
        counting.check_free_vertices(n - (0 if fix is None else 2))
        gadget = build_T(args.k, args.ell, check=False)
        fixed = None if fix is None else {0: fix[0], 1: fix[1]}
        value = counting.count_colorings_bruteforce(gadget.graph, fixed)
    if args.json:
        doc = {
            "k": args.k,
            "ell": args.ell,
            "method": args.method,
            "fixed_terminal_colors": list(fix) if fix is not None else None,
            "count": {"bit_length": value.bit_length()},
        }
        if args.full:  # exact in JSON: a decimal string, never a number
            doc["count"]["decimal_string"] = bounds.int_to_decimal(value)
        return EXIT_OK, serialize.json_chunks(doc)
    lines = [f"bit_length: {value.bit_length()}\n"]
    if args.full:
        lines.append(f"count: {bounds.int_to_decimal(value)}\n")
    return EXIT_OK, lines


def cmd_verify(args) -> tuple[int, Iterable[str]]:
    budget = _bit_budget(args.bit_budget)  # read (and checked) for every suite
    run = suites.SUITES[args.suite]
    takes = inspect.signature(run).parameters  # its options; it owns every default
    for name in VERIFY_OPTIONS:
        if getattr(args, name) is not None and name not in takes:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to --suite {args.suite}")
    given = dict(vars(args), bit_budget=budget)  # the flag's, else the environment's
    results = run(**{name: given[name] for name in takes if given[name] is not None})
    results = results if isinstance(results, list) else [results]
    passed = all(r.passed for r in results)
    if args.json:
        chunks = serialize.json_chunks(
            {"passed": passed, "suites": [dataclasses.asdict(r) for r in results]})
    else:
        chunks = [line + "\n" for r in results for line in r.lines()]
    return EXIT_OK if passed else EXIT_VERIFY_FAILED, chunks


def cmd_report(args) -> tuple[int, Iterable[str]]:
    rows = bounds.emit_report(range(args.ell_min, args.ell_max + 1),
                              bit_budget=_bit_budget(args.bit_budget))
    if args.json:
        chunks = serialize.report_chunks(rows, full=args.full)
    else:
        chunks = [bounds.report_to_text(rows)]
        if args.full:
            chunks += (f"\nc({row.ell}) = {bounds.int_to_decimal(row.c)}"
                       for row in rows if row.c is not None)
    return EXIT_OK if all(row.ok for row in rows) else EXIT_VERIFY_FAILED, chunks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threecolor",
        description="Triangle-free planar gadgets with few 3-colorings: "
        "generation, exact counting, and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="build T(u,v,k,ell) and export it")
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--ell", type=int, required=True)
    p_gen.add_argument("--format", choices=("json", "dot", "graph6"), default="json")
    p_gen.add_argument("--faces", action="store_true",
                       help="include traced faces in the JSON descriptor")
    p_gen.add_argument("--no-check", action="store_true",
                       help="skip the construction-time certification")
    p_gen.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    p_gen.set_defaults(func=cmd_generate)

    p_cnt = sub.add_parser("count", help="count proper 3-colorings of T(u,v,k,ell)")
    p_cnt.add_argument("--k", type=int, required=True)
    p_cnt.add_argument("--ell", type=int, required=True)
    p_cnt.add_argument("--method", choices=("dp", "brute"), default="dp")
    p_cnt.add_argument("--fix", default=None, metavar="CU,CV",
                       help="fix the terminal colors, e.g. 1,1 or 1,2")
    p_cnt.add_argument("--full", action="store_true", help="print the full decimal count")
    p_cnt.add_argument("--bit-budget", type=int, default=None)
    p_cnt.add_argument("--json", action="store_true")
    p_cnt.set_defaults(func=cmd_count)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", required=True, choices=tuple(suites.SUITES))
    for name in VERIFY_OPTIONS:
        p_ver.add_argument("--" + name.replace("_", "-"), type=int, default=None)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("report", help="emit the per-level bound report")
    p_rep.add_argument("--ell-min", type=int, default=1)
    p_rep.add_argument("--ell-max", type=int, default=8)
    p_rep.add_argument("--full", action="store_true",
                       help="include full decimal counts")
    p_rep.add_argument("--bit-budget", type=int, default=None)
    p_rep.add_argument("--json", action="store_true")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, chunks = args.func(args)
        _write_output(chunks, getattr(args, "output", None))
        return code
    except (ValueError, bounds.BitBudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
