"""The benchmark's calls into the library, run small.

One job of each kind goes through `perfbench/workloads.py` as the benchmark
runs it, untraced and traced, and must pass the job's own check.  A change
to a name, signature or result that the benchmark relies on fails here,
before any timed run.  Nothing under `perfbench/` is changed or written.
"""
import pathlib
import sys

import pytest

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import tracing  # noqa: E402
import workloads  # noqa: E402
sys.dont_write_bytecode = dont_write_bytecode

JOBS = [("gadget", 2, 2, True), ("row", 3), ("count", 3), ("fan", 40),
        ("brute", 1, 1, 1, 2), ("lemma3", 1, 1), ("lemma2",)]


def test_every_job_kind_is_run():
    assert sorted(job[0] for job in JOBS) == sorted(workloads.JOB_KINDS)


@pytest.mark.parametrize("tracer", [tracing.NullTracer, tracing.Tracer],
                         ids=["plain", "traced"])
@pytest.mark.parametrize("job", JOBS, ids=lambda job: job[0])
def test_job_passes_its_check(job, tracer):
    run, check = workloads.JOB_KINDS[job[0]]
    tr = tracer()
    work, problems = check(job, run(job, tr), tr)
    assert problems == []
    assert work > 0
