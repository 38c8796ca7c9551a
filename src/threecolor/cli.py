"""Command-line front end: generate, count, verify, report.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 I/O failure.  All output is deterministic for fixed flags.  The bit budget
for bound computations defaults to $THREECOLOR_BIT_BUDGET or 10^7 bits.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import bounds, counting, serialize, suites
from .gadgets import build_T, vertex_count_closed_form

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _env_bit_budget() -> int:
    raw = os.environ.get("THREECOLOR_BIT_BUDGET")
    if raw is None:
        return bounds.DEFAULT_BIT_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"invalid THREECOLOR_BIT_BUDGET: {raw!r}") from exc


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def cmd_generate(args) -> int:
    gadget = build_T(args.k, args.ell, check=not args.no_check)
    if args.format == "json":
        text = serialize.gadget_to_json(gadget, include_faces=args.faces)
    elif args.format == "dot":
        text = serialize.to_dot(gadget.graph, name=f"T_{args.k}_{args.ell}")
    else:
        text = serialize.to_graph6(gadget.graph)
    _write_output(text, args.output)
    return EXIT_OK


def _parse_fix(raw: str | None):
    if raw is None:
        return None
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError("--fix expects two comma-separated colors, e.g. 1,2")
    cu, cv = (int(p) for p in parts)
    if cu not in (1, 2, 3) or cv not in (1, 2, 3):
        raise ValueError("--fix colors must be in {1,2,3}")
    return cu, cv


def cmd_count(args) -> int:
    fix = _parse_fix(args.fix)
    if args.method == "dp":
        pc = counting.gadget_pair_counts(args.k, args.ell)
        if fix is None:
            value = counting.total_colorings(pc)
        else:
            value = pc.same if fix[0] == fix[1] else pc.diff
    else:
        n = vertex_count_closed_form(args.k, args.ell)
        if n > args.cutoff and not args.force:
            raise counting.BruteForceCutoffError(
                f"{n} vertices exceeds the brute-force cutoff {args.cutoff}"
                " (use --force to override)"
            )
        gadget = build_T(args.k, args.ell, check=False)
        fixed = None if fix is None else {0: fix[0], 1: fix[1]}
        value = counting.count_colorings_bruteforce(
            gadget.graph, fixed, cutoff=args.cutoff, force=args.force
        )
    if args.json:
        doc = {
            "k": args.k,
            "ell": args.ell,
            "method": args.method,
            "fixed_terminal_colors": list(fix) if fix is not None else None,
            "count": serialize.count_to_json_dict(value, include_decimal=args.full),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"bit_length: {value.bit_length()}")
        if args.full:
            print(f"count: {bounds.int_to_decimal(value)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    budget = args.bit_budget
    if args.suite == "lemma2":
        results = [suites.run_lemma2()]
    elif args.suite == "remark":
        results = [suites.run_remark(args.b_max)]
    elif args.suite == "lemma3":
        results = [suites.run_lemma3(args.ell_max if args.ell_max is not None else 2)]
    elif args.suite == "eq3":
        results = [suites.run_eq3(args.ell_max if args.ell_max is not None else 6, budget)]
    elif args.suite == "theorem":
        results = [suites.run_theorem(args.ell_max if args.ell_max is not None else 8, budget)]
    elif args.suite == "embedding":
        results = [suites.run_embedding(
            args.ell_max if args.ell_max is not None else 4, args.k_max)]
    else:
        results = suites.run_all()
    passed = all(r.passed for r in results)
    if args.json:
        doc = {
            "passed": passed,
            "suites": [
                {"suite": r.suite, "passed": r.passed, "checks": r.checks}
                for r in results
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in results:
            for line in r.lines():
                print(line)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_report(args) -> int:
    report = bounds.emit_report(
        range(args.ell_min, args.ell_max + 1),
        bit_budget=args.bit_budget,
        include_decimal=args.full,
    )
    if args.json:
        print(bounds.report_to_json(report))
    else:
        print(bounds.report_to_text(report))
        if args.full:
            for row in report.rows:
                if row.c_decimal is not None:
                    print(f"c({row.ell}) = {row.c_decimal}")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


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
    p_cnt.add_argument("--force", action="store_true",
                       help="run the brute-force oracle past its cutoff")
    p_cnt.add_argument("--cutoff", type=int, default=counting.DEFAULT_BRUTE_FORCE_CUTOFF)
    p_cnt.add_argument("--json", action="store_true")
    p_cnt.set_defaults(func=cmd_count)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", required=True,
                       choices=("lemma2", "remark", "lemma3", "eq3",
                                "theorem", "embedding", "all"))
    p_ver.add_argument("--ell-max", type=int, default=None)
    p_ver.add_argument("--k-max", type=int, default=6)
    p_ver.add_argument("--b-max", type=int, default=12)
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
        if getattr(args, "bit_budget", None) is None and hasattr(args, "bit_budget"):
            args.bit_budget = _env_bit_budget()
        return args.func(args)
    except (ValueError, counting.BruteForceCutoffError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except bounds.BitBudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
