"""The benchmark's three workloads: seeded job lists, predicted work, and the
jobs themselves with an output check by an independent route.

structure  build_T + certify on large gadgets, one of them also exported as
           the JSON descriptor; graphs, gadgets, embedding and serialize do
           the work and counting does none.
bounds     the integer bound chain: theorem rows, decimal expansion and big
           fans; no graph is built.
oracle     the exhaustive small-graph routes: brute-force counts with fixed
           terminal colors, the lemma3 extension sweep and lemma2 on P(5).

A job is one public library call, or the short sequence of calls that one
CLI command makes.  Job lists are drawn from the seed before any timing.
Each job's work is predicted from closed forms written here, independently
of the library (vertices, count bits, DP coloring counts), and a draw whose
predicted work falls outside the workload's envelope is refused before any
work is done, so that every seed asks for the same amount of work.
"""
from __future__ import annotations

import gc
import json
import math
import random
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace as Outcome

from threecolor import bounds, counting, embedding, gadgets, graphs, serialize

WORKLOADS = ("structure", "bounds", "oracle")

# The library's default bit budget; every bounds row stays under it.
BIT_BUDGET = 10 ** 7


class EnvelopeError(ValueError):
    """A drawn job list lies outside its workload's envelope."""


# ---------------------------------------------------------------------------
# Closed forms, written independently of the library.

def vertices(k: int, ell: int) -> int:
    p = 3 ** ell
    return p * (2 ** k + 2) + (p - 1) // 2


def edge_count(k: int, ell: int) -> int:
    # m_0 = 2^(k+1) - 1 for the fan; each level adds the 9 frame edges.
    p = 3 ** ell
    return p * (2 ** (k + 1) - 1) + 9 * (p - 1) // 2


def inner_size(ell: int) -> int:
    return (5 * 3 ** ell - 1) // 2


def face_census(k: int, ell: int) -> dict[int, int]:
    """Face-length histogram: 3^l(2^k-2) quads, 3(3^l-1) pentagons, one hexagon."""
    p = 3 ** ell
    census = {4: p * (2 ** k - 2), 5: 3 * (p - 1), 6: 1}
    return {length: n for length, n in census.items() if n}


def choose_k(ell: int) -> int:
    k = 1
    while 2 ** (k + ell) < 3 ** ell:
        k += 1
    return k


def fib(n: int) -> int:
    """F(n) by fast doubling: F(2j) = F(j)(2F(j+1) - F(j)),
    F(2j+1) = F(j)^2 + F(j+1)^2."""
    def pair(j):
        if j == 0:
            return 0, 1
        a, b = pair(j >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if j & 1 else (c, d)
    return pair(n)[0]


def _frame(s: int, d: int) -> tuple[int, int]:
    # The 13 distinct-terminal frame patterns hold 3, 2 or 1 equal child
    # terminal pairs in 3, 6 and 4 cases; both equal-terminal ones hold 3.
    return 2 * s ** 3, s * (3 * s * s + 6 * s * d + 4 * d * d)


def pair_counts(k: int, ell: int) -> tuple[int, int]:
    """(S, D) of T(k, ell): the fan gives S = 2 and D = F(2^k + 2)."""
    s, d = 2, fib(2 ** k + 2)
    for _ in range(ell):
        s, d = _frame(s, d)
    return s, d


def inner_pair_counts(ell: int) -> tuple[int, int]:
    s, d = 1, 1
    for _ in range(ell):
        s, d = _frame(s, d)
    return s, d


def predicted_count_bits(k: int, ell: int) -> float:
    """log2 of c(T(k, ell)), by the frame recursion in floating point."""
    b = 2 ** k
    s = 1.0
    d = (b + 2) * math.log2((1 + 5 ** 0.5) / 2) - math.log2(5) / 2
    for _ in range(ell):
        s, d = 1 + 3 * s, s + 2 * d + math.log2(3 * 4 ** (s - d) + 6 * 2 ** (s - d) + 4)
    return d + math.log2(6 + 3 * 2 ** (s - d))


def predicted_digits(k: int, ell: int) -> int:
    return int(predicted_count_bits(k, ell) * math.log10(2)) + 1


# ---------------------------------------------------------------------------
# Job lists.  A job is a tuple whose first item names its kind.

# structure: every gadget is built and certified; one is also exported.
STRUCTURE_FAMILY = tuple(
    (k, ell) for k in range(1, 7) for ell in range(10)
    if 10_000 <= vertices(k, ell) <= 130_000
)
STRUCTURE_TOTAL = (440_000, 460_000)    # vertices certified per round
# Peak RSS is set by the largest gadget, so its size is held within 8%; the
# exported gadget stays small enough that export never sets the peak.
STRUCTURE_LARGEST = (120_000, 130_000)
STRUCTURE_EXPORT = (40_000, 50_000)

# bounds: the rows of `report --ell-max 13`, decimals of seeded rows, fans.
BOUNDS_ROWS = range(1, 14)
DECIMAL_ROWS = range(1, 13)
DECIMAL_ALWAYS = (11, 12)       # together >99% of the predicted decimal cost
FAN_RANGE = (2 ** 15, 2 ** 17)
FAN_TARGET = 2 * FAN_RANGE[1] ** 2   # sum of b^2: the transfer is quadratic in b

# oracle: brute-force counts on every T(k, ell) with n <= 40, each gadget
# with equal and with distinct fixed terminal colors unless the DP predicts
# more than BRUTE_MAX_COLORINGS.  The seed picks the colors; the classes and
# their repeats are fixed, because the cost per coloring differs twofold
# between gadgets and would otherwise move with the seed.
BRUTE_MAX_VERTICES = 40
BRUTE_MAX_COLORINGS = 30_000
BRUTE_REPEATS = 54              # about 2.0M predicted colorings per round
BRUTE_CLASSES = tuple(
    (k, ell, equal)
    for k in range(1, 7) for ell in range(3)
    if vertices(k, ell) <= BRUTE_MAX_VERTICES
    for equal in (True, False)
    if pair_counts(k, ell)[not equal] <= BRUTE_MAX_COLORINGS
)
COLOR_PAIRS = {equal: tuple((cu, cv) for cu in (1, 2, 3) for cv in (1, 2, 3)
                            if (cu == cv) == equal)
               for equal in (True, False)}
LEMMA3_CASES = ((1, 1), (2, 1), (1, 2), (2, 2))   # `verify --suite lemma3`


def _draw_structure(rng):
    largest = [g for g in STRUCTURE_FAMILY if _within(vertices(*g), STRUCTURE_LARGEST)]
    export = [g for g in STRUCTURE_FAMILY if _within(vertices(*g), STRUCTURE_EXPORT)]
    while True:
        chosen = {rng.choice(largest)}
        exported = rng.choice(export)
        chosen.add(exported)
        total = sum(vertices(*g) for g in chosen)
        rest = [g for g in STRUCTURE_FAMILY
                if g not in chosen and vertices(*g) < STRUCTURE_LARGEST[0]]
        rng.shuffle(rest)
        for g in rest:
            if total + vertices(*g) <= STRUCTURE_TOTAL[1]:
                chosen.add(g)
                total += vertices(*g)
        if total >= STRUCTURE_TOTAL[0]:
            # Largest first: the peak RSS is then that gadget's own, not the
            # fragmentation the smaller ones leave behind.
            order = sorted(chosen, key=lambda g: vertices(*g), reverse=True)
            return [("gadget", k, ell, (k, ell) == exported) for k, ell in order]


def _draw_bounds(rng):
    decimals = set(DECIMAL_ALWAYS)
    decimals.update(ell for ell in DECIMAL_ROWS if rng.random() < 0.5)
    lo, hi = FAN_RANGE
    while True:
        fans, rest = set(), FAN_TARGET
        while rest > hi * hi:
            b = rng.randint(lo, hi)
            if b not in fans:
                fans.add(b)
                rest -= b * b
        last = math.isqrt(rest)
        if last >= lo and last not in fans:
            fans.add(last)
            break
    return ([("row", ell) for ell in BOUNDS_ROWS]
            + [("count", ell) for ell in sorted(decimals)]
            + [("fan", b) for b in sorted(fans)])


_ORACLE_FIXED = [("lemma2",)] + [("lemma3", k, ell) for k, ell in LEMMA3_CASES]


def _draw_oracle(rng):
    brute = [("brute", k, ell) + rng.choice(COLOR_PAIRS[equal])
             for k, ell, equal in BRUTE_CLASSES for _ in range(BRUTE_REPEATS)]
    rng.shuffle(brute)
    return _ORACLE_FIXED + brute


def _within(value, band) -> bool:
    return band[0] <= value <= band[1]


def check_envelope(workload: str, jobs) -> None:
    """Refuse a job list outside the workload's envelope (raises EnvelopeError)."""
    jobs = [tuple(job) for job in jobs]
    problems = []
    if workload == "structure":
        sizes = [vertices(k, ell) for _, k, ell, _ in jobs]
        exported = [vertices(k, ell) for _, k, ell, export in jobs if export]
        if any(not (1 <= k <= 6 and 0 <= ell <= 9) for _, k, ell, _ in jobs):
            problems.append("gadget outside k <= 6, ell <= 9")
        if len(set(jobs)) != len(jobs):
            problems.append("repeated gadget")
        if not _within(sum(sizes), STRUCTURE_TOTAL):
            problems.append(f"{sum(sizes)} vertices outside {STRUCTURE_TOTAL}")
        if not sizes or not _within(max(sizes), STRUCTURE_LARGEST):
            problems.append(f"largest gadget outside {STRUCTURE_LARGEST}")
        if len(exported) != 1 or not _within(exported[0], STRUCTURE_EXPORT):
            problems.append(f"not one exported gadget within {STRUCTURE_EXPORT}")
    elif workload == "bounds":
        rows = [job[1] for job in jobs if job[0] == "row"]
        decimals = [job[1] for job in jobs if job[0] == "count"]
        fans = [job[1] for job in jobs if job[0] == "fan"]
        if rows != list(BOUNDS_ROWS):
            problems.append("theorem rows are not ell = 1..13")
        for ell in rows:
            k = choose_k(ell)
            if max(2 ** (k + ell) + 4 * 3 ** ell, 6 * 3 ** ell) + 1 > BIT_BUDGET:
                problems.append(f"row {ell} would exceed the bit budget")
        if len(set(decimals)) != len(decimals) or not set(decimals) <= set(DECIMAL_ROWS):
            problems.append(f"decimal rows repeat or leave {DECIMAL_ROWS}")
        if len(rows) + len(decimals) + len(fans) != len(jobs):
            problems.append("unknown job kind")
        cost = sum(predicted_digits(choose_k(ell), ell) ** 2 for ell in decimals)
        floor = sum(predicted_digits(choose_k(ell), ell) ** 2 for ell in DECIMAL_ALWAYS)
        if not floor <= cost <= 1.02 * floor:
            problems.append("predicted decimal cost outside its 2% window")
        if len(set(fans)) != len(fans) or not all(_within(b, FAN_RANGE) for b in fans):
            problems.append(f"fans repeat or leave {FAN_RANGE}")
        if not 0.99 * FAN_TARGET <= sum(b * b for b in fans) <= FAN_TARGET:
            problems.append("predicted fan cost outside its 1% window")
    elif workload == "oracle":
        brute = jobs[len(_ORACLE_FIXED):]
        if any(job[0] != "brute" or len(job) != 5 for job in brute):
            problems.append("only brute-force jobs may follow the lemma3 sweep")
        elif (Counter((k, ell, cu == cv) for _, k, ell, cu, cv in brute)
              != Counter(dict.fromkeys(BRUTE_CLASSES, BRUTE_REPEATS))):
            problems.append("brute-force jobs are not BRUTE_REPEATS per class")
        if jobs[:1 + len(LEMMA3_CASES)] != _ORACLE_FIXED:
            problems.append("lemma2 and the lemma3 sweep must lead the job list")
    else:
        problems.append(f"unknown workload {workload!r}")
    if problems:
        raise EnvelopeError(f"{workload}: " + "; ".join(problems))


def draw_jobs(workload: str, seed: int) -> list[tuple]:
    """The job list for (workload, seed), refused if outside the envelope."""
    drawers = {"structure": _draw_structure, "bounds": _draw_bounds,
               "oracle": _draw_oracle}
    if workload not in drawers:
        raise EnvelopeError(f"unknown workload {workload!r}")
    jobs = drawers[workload](random.Random(f"perfbench:{workload}:{seed}"))
    check_envelope(workload, jobs)
    return jobs


def probe_gadget(jobs):
    """The largest T(k, ell) the job list builds; tracemalloc measures it."""
    built = [(vertices(job[1], job[2]), job[1], job[2])
             for job in jobs if job[0] in ("gadget", "brute", "lemma3")]
    return max(built)[1:] if built else None


# ---------------------------------------------------------------------------
# Jobs.  `run_*` makes the library calls and is the timed part; `check_*`
# runs afterwards, untimed: it re-times inner calls when tracing, records
# counts, and checks the output.  Each check returns (work, problems).

def _expect(problems, ok, message):
    if not ok:
        problems.append(message)


def _edge_list(gadget):
    # The builder's own edge order, read back from the rotation system.
    return [(a, b) for a, nbrs in enumerate(gadget.rotation.order) for b in nbrs if a < b]


def _retime_graph(tr, gadget, parent):
    g = gadget.graph
    tr.retime("graphs.Graph", parent, graphs.Graph, g.vertex_count, _edge_list(gadget), g.labels)
    tr.count("gadgets.vertices", g.vertex_count)


def run_gadget(job, tr):
    _, k, ell, export = job
    with tr.span("gadgets.build_T") as build_span:
        gadget = gadgets.build_T(k, ell, check=False)
    with tr.span("embedding.certify") as certify_span:
        report = embedding.certify(gadget.tg, gadget.rotation)
    text = None
    if export:
        with tr.span("serialize.gadget_to_json"):
            text = serialize.gadget_to_json(gadget)
    return Outcome(gadget=gadget, report=report, text=text,
                   build_span=build_span, certify_span=certify_span)


def check_gadget(job, out, tr):
    _, k, ell, export = job
    gadget, report = out.gadget, out.report
    g = gadget.graph
    if tr.enabled:
        _retime_graph(tr, gadget, out.build_span)
        faces = tr.retime("embedding.trace_faces", out.certify_span,
                          embedding.trace_faces, g, gadget.rotation)
        tr.retime("embedding.euler_check", out.certify_span, embedding.euler_check, g, faces)
        tr.retime("graphs.triangle_count", out.certify_span, graphs.triangle_count, g)
        del faces
        tr.count("embedding.darts", 2 * g.edge_count)
        tr.count("embedding.faces", report["faces"])
    n, m = vertices(k, ell), edge_count(k, ell)
    problems = []
    _expect(problems, report["vertices"] == n == gadgets.vertex_count_closed_form(k, ell),
            f"n = {report['vertices']}, closed form {n}")
    _expect(problems, report["edges"] == m, f"m = {report['edges']}, closed form {m}")
    _expect(problems, len(gadget.registry.inner_set) == inner_size(ell) == gadgets.inner_set_size(ell),
            f"|V_l| = {len(gadget.registry.inner_set)}, closed form {inner_size(ell)}")
    _expect(problems, report["triangle_count"] == 0, f"{report['triangle_count']} triangles")
    _expect(problems, report["face_length_histogram"] == face_census(k, ell),
            f"faces {report['face_length_histogram']} != census {face_census(k, ell)}")
    _expect(problems, report["ok"], "certificate not ok")
    # Free the gadget before parsing its JSON, so the check never sets the peak RSS.
    out.gadget = gadget = g = None
    if export:
        text = out.text
        if tr.enabled:
            tr.count("serialize.bytes", len(text))
        doc = json.loads(text)
        _expect(problems, doc["vertex_count"] == n and len(doc["edges"]) == m
                and len(doc["rotation"]["order"]) == n and doc["terminals"] == [0, 1]
                and len(doc["inner_set"]) == inner_size(ell)
                and len(doc["leaf_pairs"]) == 3 ** ell,
                "JSON descriptor disagrees with the closed forms")
    return (0 if problems else n), problems


def run_row(job, tr):
    with tr.span("bounds.theorem_chain_check") as row_span:
        row = bounds.theorem_chain_check(job[1])
    return Outcome(row=row, row_span=row_span)


def check_row(job, out, tr):
    ell = job[1]
    row = out.row
    k = choose_k(ell)
    s, d = pair_counts(k, ell)
    c = 3 * s + 6 * d
    if tr.enabled:
        pc = tr.retime("counting.gadget_pair_counts", out.row_span,
                       counting.gadget_pair_counts, k, ell)
        tr.count("counting.count_bits", pc.same.bit_length() + pc.diff.bit_length())
    problems = []
    _expect(problems, row.error is None, f"row error: {row.error}")
    _expect(problems, len(row.checks) == 7 and all(row.checks.values()),
            f"checks {row.checks}")
    _expect(problems, (row.k, row.n, row.c_bits) == (k, vertices(k, ell), c.bit_length()),
            f"(k, n, c_bits) = {(row.k, row.n, row.c_bits)}")
    return (0 if problems else c.bit_length()), problems


def run_count(job, tr):
    # `count --k K --ell L --full`: the DP, then the full decimal.
    ell = job[1]
    with tr.span("counting.gadget_pair_counts"):
        pc = counting.gadget_pair_counts(choose_k(ell), ell)
    value = counting.total_colorings(pc)
    with tr.span("bounds.int_to_decimal"):
        digits = bounds.int_to_decimal(value)
    return Outcome(pc=pc, value=value, digits=digits)


def check_count(job, out, tr):
    ell = job[1]
    s, d = pair_counts(choose_k(ell), ell)
    c = 3 * s + 6 * d
    digits = out.digits
    if tr.enabled:
        tr.count("counting.count_bits", out.pc.same.bit_length() + out.pc.diff.bit_length())
        tr.count("bounds.decimal_digits", len(digits))
    n_digits = len(digits)
    problems = []
    _expect(problems, (out.pc.same, out.pc.diff) == (s, d) and out.value == c,
            "pair counts disagree with the frame recursion")
    _expect(problems, digits.isdigit() and digits[0] != "0"
            and 10 ** (n_digits - 1) <= c < 10 ** n_digits
            and int(digits[-18:]) == c % 10 ** 18,
            "decimal expansion disagrees with the count")
    return (0 if problems else c.bit_length()), problems


def run_fan(job, tr):
    with tr.span("counting.path_pair_counts"):
        pc = counting.path_pair_counts(job[1])
    return Outcome(pc=pc)


def check_fan(job, out, tr):
    pc = out.pc
    bits = pc.same.bit_length() + pc.diff.bit_length()
    if tr.enabled:
        tr.count("counting.count_bits", bits)
    problems = []
    _expect(problems, pc.same == 2, f"S = {pc.same}")
    _expect(problems, pc.diff == fib(job[1] + 2), "D != F(b+2)")
    return (0 if problems else bits), problems


def run_brute(job, tr):
    _, k, ell, cu, cv = job
    with tr.span("gadgets.build_T") as build_span:
        gadget = gadgets.build_T(k, ell, check=False)
    with tr.span("counting.count_colorings_bruteforce"):
        count = counting.count_colorings_bruteforce(gadget.graph, {0: cu, 1: cv}, force=True)
    return Outcome(gadget=gadget, count=count, build_span=build_span)


def check_brute(job, out, tr):
    _, k, ell, cu, cv = job
    if tr.enabled:
        _retime_graph(tr, out.gadget, out.build_span)
        tr.count("counting.colorings", out.count)
        tr.count("counting.count_bits", out.count.bit_length())
    expected = pair_counts(k, ell)[cu != cv]
    problems = []
    _expect(problems, out.count == expected, f"brute force {out.count} != DP {expected}")
    return (0 if problems else out.count), problems


def run_lemma3(job, tr):
    _, k, ell = job
    with tr.span("gadgets.build_T") as build_span:
        gadget = gadgets.build_T(k, ell, check=False)
    with tr.span("graphs.induced_subgraph"):
        sub, index_map = graphs.induced_subgraph(gadget.graph, gadget.registry.inner_set)
    back = {new: old for old, new in index_map.items()}
    with tr.span("counting.iter_colorings"):
        colorings = list(counting.iter_colorings(sub))
    extensions = []
    for col in colorings:
        psi = {back[v]: c for v, c in col.items()}
        with tr.span("counting.count_extensions"):
            extensions.append(counting.count_extensions(k, ell, psi, gadget=gadget))
    with tr.span("bounds.lemma3_bound"):
        bound = bounds.lemma3_bound(k, ell)
    return Outcome(gadget=gadget, colorings=len(colorings), extensions=extensions,
                   bound=bound, build_span=build_span)


def check_lemma3(job, out, tr):
    _, k, ell = job
    if tr.enabled:
        _retime_graph(tr, out.gadget, out.build_span)
        tr.count("counting.colorings", out.colorings)
        tr.count("counting.count_bits", sum(e.bit_length() for e in out.extensions))
    s, d = inner_pair_counts(ell)
    inner_total = 3 * s + 6 * d
    s, d = pair_counts(k, ell)
    problems = []
    _expect(problems, out.colorings == inner_total,
            f"{out.colorings} inner colorings, DP {inner_total}")
    _expect(problems, sum(out.extensions) == 3 * s + 6 * d,
            "extension sum != DP total")
    _expect(problems, out.bound == 2 ** (2 ** (k + ell) + 3 ** ell)
            and max(out.extensions) <= out.bound, "extension bound fails")
    return (0 if problems else out.colorings), problems


def run_lemma2(job, tr):
    with tr.span("gadgets.build_P") as build_span:
        fan = gadgets.build_P(5, check=False)
    with tr.span("counting.iter_colorings"):
        colorings = list(counting.iter_colorings(fan.graph))
    verdicts = []
    for psi in colorings:
        with tr.span("counting.lemma2_classify"):
            verdicts.append(counting.lemma2_classify(psi))
    return Outcome(gadget=fan, colorings=colorings, verdicts=verdicts, build_span=build_span)


def check_lemma2(job, out, tr):
    if tr.enabled:
        _retime_graph(tr, out.gadget, out.build_span)
        tr.count("counting.colorings", len(out.colorings))
    s, d = 2, fib(7)
    problems = []
    _expect(problems, len(out.colorings) == 3 * s + 6 * d == 84,
            f"{len(out.colorings)}/84 colorings")
    for psi, verdict in zip(out.colorings, out.verdicts):
        witness = frozenset(i for i in (1, 2, 3) if psi[i + 1] == psi[i + 3])
        if (verdict.case_a_witness != witness or not witness
                or verdict.case_b_applies != (psi[0] == psi[1])
                or (psi[0] == psi[1] and witness != {1, 2, 3})):
            problems.append(f"lemma2 verdict wrong for {psi}")
            break
    return (0 if problems else len(out.colorings)), problems


JOB_KINDS = {
    "gadget": (run_gadget, check_gadget),
    "row": (run_row, check_row),
    "count": (run_count, check_count),
    "fan": (run_fan, check_fan),
    "brute": (run_brute, check_brute),
    "lemma3": (run_lemma3, check_lemma3),
    "lemma2": (run_lemma2, check_lemma2),
}


def measure_retained_mib(k: int, ell: int) -> float:
    """MiB that a freshly built T(k, ell) keeps allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        gadget = gadgets.build_T(k, ell, check=False)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del gadget
    return retained / 2 ** 20


# ---------------------------------------------------------------------------
# Host-speed calibration.  On a shared host the speed of interpreted code
# drifts by 20-40% over tens of seconds, more than any bound worth having.
# Next to the jobs, each round times short fixed loops that do the same kind
# of work as the jobs without calling the library, and scales each job's
# seconds by the reference seconds of its kind's loop over the loop's seconds
# around that job.  The kind matters: the host slows interpreted loops far
# more than str() of a huge integer, for instance.
# Scaled seconds are seconds at the loop's reference speed; a change to the
# library moves them, a busy neighbour mostly does not.

def _calibrate_graph():
    # Graph-building work: edge set, sorted adjacency, a dart index, labels.
    n = 6000
    edges = [(i, (7 * i + 1) % n) for i in range(n)] + [(i, (i + 1) % n) for i in range(n)]
    edge_set = {(a, b) if a < b else (b, a) for a, b in edges if a != b}
    adj = [[] for _ in range(n)]
    for a, b in edge_set:
        adj[a].append(b)
        adj[b].append(a)
    adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
    index = {a * n + b: i for a in range(n) for i, b in enumerate(adj[a])}
    labels = {f"T{i % 3}.T{i % 7}.v{i}" for i in range(n)}
    return len(index) + len(labels)


def _calibrate_arithmetic():
    # Big-integer work: a long addition chain and a few products.
    a, b = 1, 1
    for _ in range(25_000):
        a, b = b, a + b
    return (a * b * a).bit_length()


_DECIMAL_PROBE = 3 ** 8_000


def _calibrate_decimal():
    # str() of a 3,818-digit integer, under the default 4,300-digit limit.
    return sum(len(str(_DECIMAL_PROBE + i)) for i in range(30))


def _calibrate_backtrack():
    # Backtracking work: the 3-colorings of the 14-cycle.
    n = 14
    color = [0] * n

    def rec(i):
        if i == n:
            return 1
        used = {color[i - 1], color[(i + 1) % n]}
        total = 0
        for c in (1, 2, 3):
            if c not in used:
                color[i] = c
                total += rec(i + 1)
        color[i] = 0
        return total
    return rec(0)


# Each job kind's loop, with the loop's median seconds on the host the
# benchmark was defined on (Intel Xeon at 2.1 GHz, CPython 3.11.7).
CALIBRATIONS = {
    "graph": (_calibrate_graph, 0.018),
    "arithmetic": (_calibrate_arithmetic, 0.012),
    "decimal": (_calibrate_decimal, 0.008),
    "backtrack": (_calibrate_backtrack, 0.011),
}
KIND_CALIBRATION = {
    "gadget": "graph",
    "row": "arithmetic", "fan": "arithmetic", "count": "decimal",
    "brute": "backtrack", "lemma3": "backtrack", "lemma2": "backtrack",
}
CALIBRATE_EVERY_S = 0.5


def _time_calibration(loop) -> float:
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def _run_one(job, tr):
    """(seconds, work, problems) of one job; a job that raises has failed."""
    run, check = JOB_KINDS[job[0]]
    start = time.perf_counter()
    try:
        with tr.span("job." + job[0]):
            out = run(job, tr)
    except Exception as exc:
        return time.perf_counter() - start, 0, [f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    try:
        work, problems = check(job, out, tr)
    except Exception as exc:
        work, problems = 0, [f"{type(exc).__name__} in the check: {exc}"]
    return seconds, work, problems


def run_jobs(jobs, tr):
    """Run a job list in order; returns (per-job seconds, per-job scale,
    work, failures).

    Only the library calls are timed; checks, re-timing, calibration and
    garbage collection between jobs are not.  A job's scale is its kind's
    reference seconds over the mean of that loop's seconds just before and
    just after it (the loops run every CALIBRATE_EVERY_S of job time).
    """
    loops = sorted({KIND_CALIBRATION[job[0]] for job in jobs})

    def calibrate():
        return {name: _time_calibration(CALIBRATIONS[name][0]) for name in loops}

    seconds, scale, pending = [], [], []
    work = 0
    failures = []
    before = calibrate()
    since = 0.0
    for index, job in enumerate(jobs):
        gc.collect()
        elapsed, done, problems = _run_one(job, tr)
        seconds.append(elapsed)
        work += done
        if problems:
            failures.append({"job": list(job), "problems": problems})
        since += elapsed
        pending.append(KIND_CALIBRATION[job[0]])
        if since >= CALIBRATE_EVERY_S or index == len(jobs) - 1:
            after = calibrate()
            scale += [2 * CALIBRATIONS[name][1] / (before[name] + after[name])
                      for name in pending]
            before, since, pending = after, 0.0, []
    return seconds, scale, work, failures
