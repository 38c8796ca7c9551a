"""The threecolor benchmark.

    python3 perfbench/run.py --workload {structure,bounds,oracle,all}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run from the repository root.  Each round runs the workload's whole job list
as a closed loop (one client, one job after another) in a fresh
single-threaded process, so that caches start cold as they do for a CLI
user.  Rounds repeat until ``--seconds`` is spent (at least three untraced
rounds).  Set-up time is sampled by extra processes that only import and
draw the job list, and on every round.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, medians over
the rounds; job seconds are scaled to a reference host speed by a
calibration loop timed beside the jobs (see workloads.CALIBRATIONS).
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of BENCHMARK.json from the traced rounds' spans, plus the
tracing overhead (traced minus untraced wall_s).  The last line of
standard output is one JSON object; the full record (interpreter, nproc,
platform, job list, rounds and spans) goes to ``perfbench/out/``.  The exit
code is 1 if any job fails its output check, 2 if the benchmark cannot run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import span_totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("structure", "bounds", "oracle")
WORK_NAMES = {"structure": ("vertices_per_s", "vertices/s"),
              "bounds": ("count_bits_per_s", "bits/s"),
              "oracle": ("colorings_per_s", "colorings/s")}
SETUP_PROBES = 9
MIN_PLAIN_ROUNDS = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} round of {workload} passed the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["t_ready"] - start
    return result


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    began = time.monotonic()
    deadline = began + DEADLINE_S
    probes = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_PROBES)]
    setups = [r["setup_s"] for r in probes]
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(spawn(workload, seed, "plain", deadline))
        if trace:
            traced.append(spawn(workload, seed, "traced", deadline))
        now = time.monotonic()
        per_cycle = (now - start) / len(plain)
        enough = trace or len(plain) >= MIN_PLAIN_ROUNDS
        if (enough and now - start + per_cycle > seconds) or now + per_cycle > deadline:
            break
    setups += [r["setup_s"] for r in plain + traced]
    return {"jobs": probes[0]["jobs"], "setups": setups, "plain": plain, "traced": traced}


def list_seconds(rounds, scaled=True) -> float:
    """Seconds for the whole job list: each job's median over the rounds,
    summed, after scaling each job to the calibration loop's reference speed
    (see workloads.CALIBRATIONS).  A job's median over rounds run at
    different times is steadier than one round's total."""
    per_round = [[t * (f if scaled else 1.0) for t, f in zip(r["job_s"], r["scale"])]
                 for r in rounds]
    return sum(statistics.median(times) for times in zip(*per_round))


def layer_value(name: str, totals: dict, selfs: dict, counts: dict) -> float:
    if name.endswith(".self_s"):
        return selfs.get(name[:-len(".self_s")], 0.0)
    if name.endswith(".s"):
        return totals.get(name[:-len(".s")], 0.0)
    return counts.get(name, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that each seed gives one job list, inside its envelope")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "threecolor", "__init__.py")):
        print(f"error: no threecolor sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    status = 0
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        try:
            status = max(status, run_workload(workload, args, spec))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return status


def run_workload(workload: str, args, spec: dict) -> int:
    env = environment()
    rounds = run_rounds(workload, args.seed, args.seconds, bool(args.trace))
    plain, traced = rounds["plain"], rounds["traced"]
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    wall = list_seconds(plain)
    metrics, labels = {}, {}
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(plain)} untraced + {len(traced)} traced  "
          f"setup samples {len(rounds['setups'])}")
    if not args.trace:
        values = {
            "setup_s": statistics.median(rounds["setups"]),
            "wall_s": wall,
            "work_per_s": statistics.median(r["work"] for r in plain) / wall,
            "peak_rss_mib": statistics.median(r["rss_kib"] for r in plain) / 1024,
        }
        for metric in spec["end_to_end"]:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        alias, unit = WORK_NAMES[workload]
        labels["work_per_s"] = f"= {alias} ({unit})"
        labels["wall_s"] = f"(unscaled {list_seconds(plain, scaled=False):.4f} s)"
    else:
        per_round = []
        for r in traced:
            totals, selfs, computed = span_totals(r["spans"])
            counts = dict(r["counts"], **{"trace.spans": len(r["spans"])})
            per_round.append({m["name"]: layer_value(m["name"], totals, selfs, counts)
                              for m in spec["per_layer"]})
            for name in computed:
                labels[name + ".self_s"] = "(computed: minus re-timed inner calls)"
        traced_wall = list_seconds(traced)
        overhead = traced_wall - wall
        for metric in spec["per_layer"]:
            name = metric["name"]
            value = (overhead if name == "trace.overhead_s"
                     else statistics.median(p[name] for p in per_round))
            metrics[name] = {"value": value, "unit": metric["unit"]}
        labels["trace.overhead_s"] = f"(traced wall_s {traced_wall:.4f} - untraced {wall:.4f})"
        print("span parents (computed = re-timed on the same input):")
        for line in parent_summary(traced[-1]["spans"]):
            print("  " + line)

    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']:<6} {labels.get(name, '')}")
    print(f"  {'failed_frac':<40} {failed / attempted:>16.6g}        ({failed}/{attempted} jobs)")
    for r in plain + traced:
        for failure in r["failures"]:
            print(f"  FAILED {failure['job']}: {'; '.join(failure['problems'])}")
    print(f"env: {json.dumps(env)}")

    os.makedirs(OUT, exist_ok=True)
    record = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "env": env, "metrics": metrics, "attempted": attempted, "failed": failed,
              "jobs": rounds["jobs"], "setups": rounds["setups"], "rounds": plain + traced}
    path = os.path.join(OUT, f"{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def parent_summary(spans) -> list[str]:
    """One line per (span, parent) pair: calls, summed seconds, computed or not."""
    groups = {}
    for name, parent, start, end, computed in spans:
        parent_name = spans[parent][0] if parent is not None else "-"
        entry = groups.setdefault((name, parent_name, computed), [0, 0.0])
        entry[0] += 1
        entry[1] += end - start
    return [f"{name:<38} <- {parent:<30} {calls:>6} calls {secs:10.4f} s"
            + ("  computed" if computed else "")
            for (name, parent, computed), (calls, secs) in sorted(groups.items())]


def self_test() -> int:
    """Same seed, same job list (in this process and in a fresh one);
    different seeds, different lists; every list inside its envelope."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    problems = []
    for workload in WORKLOADS:
        lists = [json.dumps(workloads.draw_jobs(workload, seed)) for seed in range(10)]
        again = [json.dumps(workloads.draw_jobs(workload, seed)) for seed in range(10)]
        if lists != again:
            problems.append(f"{workload}: a seed gave two job lists")
        if len(set(lists)) < 2:
            problems.append(f"{workload}: every seed gave the same job list")
        fresh = spawn(workload, 3, "setup", time.monotonic() + 60)["jobs"]
        if json.dumps(fresh) != json.dumps(json.loads(lists[3])):
            problems.append(f"{workload}: a fresh process drew another job list for seed 3")
        try:
            workloads.check_envelope(workload, json.loads(lists[0]) * 2)
            problems.append(f"{workload}: a doubled job list passed the envelope")
        except workloads.EnvelopeError:
            pass
    for problem in problems:
        print(f"self-test: {problem}")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
