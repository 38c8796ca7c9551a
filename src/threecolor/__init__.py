"""Triangle-free planar gadget graphs with few proper 3-colorings.

A library for constructing the fan gadget P(u,v,b) and the recursive gadget
T(u,v,k,l), certifying their plane embeddings, counting their proper
3-colorings exactly, and machine-verifying the inequality chain that bounds
the count by 64^(n^g) with g = log base 9/2 of 3.
"""
from .bounds import emit_report, report_to_text, theorem_chain_check
from .counting import (
    count_colorings_bruteforce,
    count_extensions,
    gadget_pair_counts,
    inner_subgraph,
    iter_colorings,
    lemma2_classify,
    path_pair_counts,
    total_colorings,
)
from .embedding import certify
from .gadgets import build_P, build_T, vertex_count_closed_form
from .serialize import gadget_to_json, to_dot, to_graph6

__version__ = "0.1.0"

# What the README sketch and the demos import; the rest lives in modules.
__all__ = [
    "build_P",
    "build_T",
    "certify",
    "count_colorings_bruteforce",
    "count_extensions",
    "emit_report",
    "gadget_pair_counts",
    "gadget_to_json",
    "inner_subgraph",
    "iter_colorings",
    "lemma2_classify",
    "path_pair_counts",
    "report_to_text",
    "theorem_chain_check",
    "to_dot",
    "to_graph6",
    "total_colorings",
    "vertex_count_closed_form",
]
