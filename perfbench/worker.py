"""One benchmark round in a fresh single-threaded process.

    python3 perfbench/worker.py --workload W --seed N --mode MODE

MODE is ``setup`` (import and draw the job list, print it and stop),
``plain`` (run the job list untraced) or ``traced`` (run it with spans,
re-timed inner calls and a tracemalloc probe).  The last line of
standard output is one JSON object; ``t_ready`` is the monotonic clock when
the first job could start.
"""
import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (imports threecolor from src/)
from tracing import NullTracer, Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    args = parser.parse_args()

    try:
        jobs = workloads.draw_jobs(args.workload, args.seed)
    except workloads.EnvelopeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    t_ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"t_ready": t_ready, "jobs": jobs}))
        return 0

    import resource

    tr = Tracer() if args.mode == "traced" else NullTracer()
    seconds, scale, work, failures = workloads.run_jobs(jobs, tr)
    result = {
        "t_ready": t_ready,
        "job_s": seconds,
        "scale": scale,
        "work": work,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures[:5],
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tr.enabled:
        probe = workloads.probe_gadget(jobs)
        if probe is not None:
            tr.count("gadgets.retained_mib", workloads.measure_retained_mib(*probe))
        result["spans"] = tr.spans
        result["counts"] = dict(tr.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
