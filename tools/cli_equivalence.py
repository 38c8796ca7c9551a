#!/usr/bin/env python3
"""Run the same commands against two checkouts and report any difference.

    python tools/cli_equivalence.py BEFORE AFTER [--extra "report --ell-max 13"]...

The commands are every `threecolor ...` line of the README's "Command line"
section, then each `--extra` command, then every `demos/*.py` script.  Each
command runs once per checkout, as `python -m threecolor.cli ARGS` (a demo as
`python <checkout>/demos/NAME`), in its own empty working directory with
`PYTHONPATH=<checkout>/src`.  Stdout, stderr, the exit code and every file
the command writes are compared byte for byte.  A command still running
after TIMEOUT_S seconds is killed and counts as a difference.  The last
line gives the lines of `src/threecolor/*.py` in each checkout, as `wc -l`
counts them.  Exits 1 if anything differs, 0 otherwise.  Standard library only.
"""
from __future__ import annotations

import argparse
import filecmp
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Seconds that one command may run per checkout before it is killed; far above
# the about 10 s of `generate --k 6 --ell 8 --format json --faces`.
TIMEOUT_S = 300


def readme_commands(checkout: Path) -> list[list[str]]:
    """The `threecolor` example lines of the README's "Command line" section."""
    text = (checkout / "README.md").read_text()
    section = re.search(r"^## Command line\n(.*?)(?=^## )", text, re.S | re.M)
    if section is None:
        raise SystemExit(f"no 'Command line' section in {checkout / 'README.md'}")
    commands = []
    for line in section.group(1).splitlines():
        if line.startswith("threecolor "):  # prose may hold an unpaired quote
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def run(checkout: Path, command: list[str], where: Path) -> int | None:
    """Run one command for one checkout; outputs land in `where`.  Returns
    the exit code, or None if the command timed out."""
    cwd = where / "cwd"
    cwd.mkdir(parents=True)
    if command[0].startswith("demos/"):
        argv = [sys.executable, str(checkout / command[0])]
    else:
        argv = [sys.executable, "-m", "threecolor.cli", *command]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with open(where / "stdout", "wb") as out, open(where / "stderr", "wb") as err:
        try:
            return subprocess.run(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                  timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return None


def source_lines(checkout: Path) -> int:
    """The newlines in the checkout's `src/threecolor/*.py`, the total of `wc -l`."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "threecolor").glob("*.py"))


def written_files(cwd: Path) -> set[str]:
    return {str(p.relative_to(cwd)) for p in cwd.rglob("*") if p.is_file()}


def differences(before: Path, after: Path, codes: tuple[int | None, int | None]) -> list[str]:
    found = [f"{side} timed out after {TIMEOUT_S} s"
             for side, code in zip(("before", "after"), codes) if code is None]
    if None not in codes and codes[0] != codes[1]:
        found.append(f"exit code {codes[0]} != {codes[1]}")
    for stream in ("stdout", "stderr"):
        if not filecmp.cmp(before / stream, after / stream, shallow=False):
            found.append(stream)
    files_before = written_files(before / "cwd")
    files_after = written_files(after / "cwd")
    if files_before != files_after:
        found.append(f"written files {sorted(files_before)} != {sorted(files_after)}")
    for name in sorted(files_before & files_after):
        if not filecmp.cmp(before / "cwd" / name, after / "cwd" / name, shallow=False):
            found.append(f"file {name}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, help="checkout to compare against")
    parser.add_argument("after", type=Path, help="checkout under test")
    parser.add_argument("--extra", action="append", default=[], metavar="ARGS",
                        help="one more threecolor command line (repeatable)")
    args = parser.parse_args(argv)
    checkouts = (args.before.resolve(), args.after.resolve())
    commands = readme_commands(checkouts[1]) + [shlex.split(e) for e in args.extra]
    demos = sorted({p.name for c in checkouts for p in (c / "demos").glob("*.py")})
    commands += [[f"demos/{name}"] for name in demos]

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, command in enumerate(commands):
            where = (Path(tmp) / str(i) / "before", Path(tmp) / str(i) / "after")
            start = time.perf_counter()
            codes = tuple(run(c, command, w) for c, w in zip(checkouts, where))
            found = differences(*where, codes)
            seconds = time.perf_counter() - start
            verdict = "same" if not found else "DIFFERENT: " + "; ".join(found)
            print(f"{shlex.join(command)}  [exit {codes[1]}, {seconds:.1f} s]  {verdict}",
                  flush=True)
            failed += bool(found)
            shutil.rmtree(where[0].parent)
    print(f"{len(commands) - failed}/{len(commands)} commands identical")
    print("src/threecolor/*.py: {} -> {} lines".format(*map(source_lines, checkouts)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
