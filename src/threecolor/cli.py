"""Command-line front end: generate, count, verify, report.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 I/O failure.  All output is deterministic for fixed flags.  The bit budget
for bound computations defaults to $THREECOLOR_BIT_BUDGET or 10^7 bits.
"""
from __future__ import annotations

import argparse
import contextlib
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


def cmd_generate(args) -> int:
    if args.faces and args.format != "json":
        raise ValueError(f"--faces does not apply to --format {args.format}")
    if args.format == "graph6":  # refused before anything is built
        serialize.check_graph6_size(checked_vertex_count(args.k, args.ell))
    gadget = build_T(args.k, args.ell, check=not args.no_check)
    if args.format == "json":
        chunks = serialize.json_chunks(
            serialize.gadget_descriptor(gadget, include_faces=args.faces))
    elif args.format == "dot":
        chunks = (serialize.to_dot(gadget.graph, name=f"T_{args.k}_{args.ell}"),)
    else:
        chunks = (serialize.to_graph6(gadget.graph),)
    _write_output(chunks, args.output)
    return EXIT_OK


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


def cmd_count(args) -> int:
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
        _write_output(serialize.json_chunks(doc), None)
    else:
        print(f"bit_length: {value.bit_length()}")
        if args.full:
            print(f"count: {bounds.int_to_decimal(value)}")
    return EXIT_OK


# Each suite's runner and the options it takes; the suites own every default.
VERIFY_SUITES = {
    "lemma2": (suites.run_lemma2, ()),
    "remark": (suites.run_remark, ("b_max",)),
    "lemma3": (suites.run_lemma3, ("ell_max", "bit_budget")),
    "eq3": (suites.run_eq3, ("ell_max", "bit_budget")),
    "theorem": (suites.run_theorem, ("ell_max", "bit_budget")),
    "embedding": (suites.run_embedding, ("ell_max", "k_max")),
    "all": (suites.run_all, ("bit_budget",)),
}


def cmd_verify(args) -> int:
    budget = _bit_budget(args.bit_budget)  # read (and checked) for every suite
    run, takes = VERIFY_SUITES[args.suite]
    for name in ("ell_max", "k_max", "b_max", "bit_budget"):
        if getattr(args, name) is not None and name not in takes:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to --suite {args.suite}")
    options = {name: getattr(args, name) for name in takes if getattr(args, name) is not None}
    if "bit_budget" in takes:
        options["bit_budget"] = budget
    results = run(**options)
    results = results if isinstance(results, list) else [results]
    passed = all(r.passed for r in results)
    if args.json:
        doc = {
            "passed": passed,
            "suites": [
                {"suite": r.suite, "passed": r.passed, "checks": r.checks}
                for r in results
            ],
        }
        _write_output(serialize.json_chunks(doc), None)
    else:
        for r in results:
            for line in r.lines():
                print(line)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_report(args) -> int:
    rows = bounds.emit_report(range(args.ell_min, args.ell_max + 1),
                              bit_budget=_bit_budget(args.bit_budget))
    if args.json:
        print(serialize.report_to_json(rows, full=args.full))
    else:
        print(bounds.report_to_text(rows))
        if args.full:
            for row in rows:
                if row.c is not None:
                    print(f"c({row.ell}) = {bounds.int_to_decimal(row.c)}")
    return EXIT_OK if all(row.ok for row in rows) else EXIT_VERIFY_FAILED


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
    p_ver.add_argument("--suite", required=True, choices=tuple(VERIFY_SUITES))
    p_ver.add_argument("--ell-max", type=int, default=None)
    p_ver.add_argument("--k-max", type=int, default=None)
    p_ver.add_argument("--b-max", type=int, default=None)
    p_ver.add_argument("--bit-budget", type=int, default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, bounds.BitBudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
