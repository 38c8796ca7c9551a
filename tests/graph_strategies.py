"""Hypothesis strategies shared by the property tests."""
from hypothesis import strategies as st

from threecolor.graphs import Graph


@st.composite
def small_graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(possible)) if possible else st.just(set()))
    return Graph(n, edges)


@st.composite
def graphs_with_partial_colorings(draw, max_n=7):
    """(g, fixed): a small graph and colors for any subset of its vertices,
    so a fixed vertex may follow a free neighbor in index order and two
    fixed neighbors may share a color."""
    g = draw(small_graphs(max_n=max_n))
    vertices = st.sampled_from(range(g.vertex_count)) if g.vertex_count else st.nothing()
    return g, draw(st.dictionaries(vertices, st.sampled_from((1, 2, 3))))


@st.composite
def edge_lists_with_repeats(draw, max_n=8):
    """(n, edges) where edges may repeat a pair and use either orientation."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n) if pairs else st.just([]))
    # Append half of the list reversed and its first edge again, so that any
    # nonempty list repeats an edge, in both orientations from two edges on.
    return n, edges + [(b, a) for a, b in edges[: len(edges) // 2]] + edges[:1]


@st.composite
def dense_graphs(draw, min_n=3, max_n=30):
    """A graph on up to max_n vertices keeping each pair with a drawn
    probability of 0.3 to 0.9, so most draws hold many triangles."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    keep = draw(st.floats(min_value=0.3, max_value=0.9))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < keep])


@st.composite
def graphs_with_rotations(draw, max_n=8):
    """(g, order): a small graph and each vertex's neighbors in a drawn
    cyclic order, as tuples."""
    g = draw(small_graphs(max_n=max_n))
    rng = draw(st.randoms(use_true_random=False))
    return g, tuple(tuple(rng.sample(nbrs, len(nbrs))) for nbrs in g.adjacency)
