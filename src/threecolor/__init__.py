"""Triangle-free planar gadget graphs with few proper 3-colorings.

A library for constructing the fan gadget P(u,v,b) and the recursive gadget
T(u,v,k,l), certifying their plane embeddings, counting their proper
3-colorings exactly, and machine-verifying the inequality chain that bounds
the count by 64^(n^g) with g = log base 9/2 of 3.
"""
from .bounds import (
    BitBudgetExceededError,
    DEFAULT_BIT_BUDGET,
    emit_report,
    eq3_check,
    lemma3_bound,
    report_to_json,
    report_to_text,
    theorem_chain_check,
)
from .counting import (
    BruteForceCutoffError,
    PairCounts,
    count_colorings_bruteforce,
    count_extensions,
    gadget_pair_counts,
    inner_subgraph,
    inner_subgraph_pair_counts,
    iter_colorings,
    lemma2_classify,
    path_interior_count,
    path_pair_counts,
    total_colorings,
)
from .embedding import (
    RotationSystem,
    certify,
    euler_check,
    face_length_histogram,
    min_bounded_face_length,
    outer_face_index,
    trace_faces,
)
from .gadgets import (
    Gadget,
    build_P,
    build_T,
    choose_k,
    inner_set_size,
    vertex_count_closed_form,
)
from .graphs import (
    Graph,
    TerminalGraph,
    induced_subgraph,
    is_proper,
    triangle_count,
)
from .serialize import gadget_descriptor, gadget_to_json, to_dot, to_graph6

__version__ = "0.1.0"

__all__ = [
    "BitBudgetExceededError",
    "BruteForceCutoffError",
    "DEFAULT_BIT_BUDGET",
    "Gadget",
    "Graph",
    "PairCounts",
    "RotationSystem",
    "TerminalGraph",
    "build_P",
    "build_T",
    "certify",
    "choose_k",
    "count_colorings_bruteforce",
    "count_extensions",
    "emit_report",
    "eq3_check",
    "euler_check",
    "face_length_histogram",
    "gadget_descriptor",
    "gadget_pair_counts",
    "gadget_to_json",
    "induced_subgraph",
    "inner_set_size",
    "inner_subgraph",
    "inner_subgraph_pair_counts",
    "is_proper",
    "iter_colorings",
    "lemma2_classify",
    "lemma3_bound",
    "min_bounded_face_length",
    "outer_face_index",
    "path_interior_count",
    "path_pair_counts",
    "report_to_json",
    "report_to_text",
    "theorem_chain_check",
    "to_dot",
    "to_graph6",
    "total_colorings",
    "trace_faces",
    "triangle_count",
    "vertex_count_closed_form",
]
