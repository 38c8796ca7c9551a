#!/usr/bin/env python3
"""Build the two gadget families and look at their structure and exports.

P(u,v,b) is a fan: a path v1..vb with u joined to the odd-indexed vertices
and v to the even-indexed ones.  T(u,v,k,l) nests three smaller copies of
itself inside the bounded quadrilaterals of a P(u,v,5) frame; the innermost
copies are fans P(x,y,2^k).
"""
from threecolor import build_P, build_T, gadget_to_json, to_dot, to_graph6

fan = build_P(5)
print("P(u,v,5):", fan.graph)
print("  u's neighbors:", [fan.graph.label_of(w) for w in sorted(fan.graph.adjacency[0])])
print("  v's neighbors:", [fan.graph.label_of(w) for w in sorted(fan.graph.adjacency[1])])
print()

gadget = build_T(1, 1)
print("T(u,v,1,1):", gadget.graph)
print("  leaf pairs:", [
    (gadget.graph.label_of(x), gadget.graph.label_of(y))
    for x, y in gadget.registry.pairs
])
print("  inner vertex set V_1:", sorted(
    gadget.graph.label_of(w) for w in gadget.registry.inner_set
))
print()

print("graph6 line:", to_graph6(gadget.graph))
print()
print("DOT document:")
print(to_dot(gadget.graph, name="T_1_1"))

print("JSON descriptor (truncated):")
text = gadget_to_json(gadget)
print(text[:160], "...")

# The recursion path is readable off the labels.
deep = build_T(1, 3, check=False)
print()
print("T(1,3) has", deep.graph.vertex_count, "vertices; label of vertex 100:",
      deep.graph.label_of(100))
