"""Differential tests: the structured CSF kernels against edge-subset enumeration.

``chromatic_symmetric_function`` picks a tree, unicyclic or vertex-bitmask
kernel per component and multiplies the results; ``oracles.subset_csf`` is the
definition, one signed term per edge subset.  They must agree exactly, and
``csf_value`` (the same kernels with every part code zero) must equal the
definition's terms summed at seeded weights.
"""

import random
import time
import tracemalloc
from itertools import combinations
from math import prod

import pytest

from csfkit import (
    Graph,
    ResourceLimitError,
    chromatic_symmetric_function,
    count_proper_colorings,
    enumerate_trees,
    specialize,
)
from csfkit.csf import csf_value
from csfkit.graph import _components

from oracles import cycle_vertices_by_stripping, subset_csf, unicyclic_canonical_key


def assert_kernels_match(g: Graph) -> None:
    want = subset_csf(g).terms
    assert chromatic_symmetric_function(g).terms == want, g
    rng = random.Random(repr(g))
    n = g.vertex_count
    for weights in ([rng.randint(-3, 3) for _ in range(n + 1)],  # zero and negatives too
                    [rng.randrange(-1 << 61, 1 << 61) for _ in range(n + 1)]):
        value = sum(c * prod(weights[s] for s in p) for p, c in want.items())
        assert csf_value(g, weights) == value, (g, weights)


def test_every_labelled_graph_up_to_5_vertices():
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            assert_kernels_match(Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1)))


def test_every_tree_up_to_9_vertices():
    for n in range(1, 10):
        for t in enumerate_trees(n):
            assert_kernels_match(t)


def test_every_unicyclic_class_up_to_8_vertices():
    for n in range(3, 9):
        seen = set()
        for t in enumerate_trees(n):
            for u, v in combinations(range(n), 2):
                if not t.has_edge(u, v):
                    g = t.with_edge_added(u, v)
                    key = unicyclic_canonical_key(g)
                    if key not in seen:
                        seen.add(key)
                        assert_kernels_match(g)
        assert len(seen) == {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89}[n]


def random_tree_unicyclic_dense(rng: random.Random, n: int) -> Graph:
    """Disjoint union of a tree, a unicyclic graph and a part with r >= 2,
    randomly labelled, so one graph runs every kernel and the product."""
    t_size = rng.randint(1, n - 7)
    u_size = rng.randint(3, n - t_size - 4)
    d_size = n - t_size - u_size
    perm = list(range(n))
    rng.shuffle(perm)
    tree_vs, uni_vs, dense_vs = perm[:t_size], perm[t_size:t_size + u_size], perm[t_size + u_size:]
    edges = [(tree_vs[rng.randrange(i)], tree_vs[i]) for i in range(1, t_size)]
    edges += [(uni_vs[rng.randrange(i)], uni_vs[i]) for i in range(1, u_size)]
    edges.append(rng.choice([(a, b) for a, b in combinations(uni_vs, 2)
                             if (a, b) not in edges and (b, a) not in edges]))
    dense_pairs = list(combinations(dense_vs, 2))
    rng.shuffle(dense_pairs)
    while True:  # connected, with at least two independent cycles
        chosen = dense_pairs[:rng.randint(d_size + 1, min(len(dense_pairs), d_size + 3))]
        part = Graph(n, tuple(sorted((min(e), max(e)) for e in chosen)))
        if len(_components(part.adjacency, [-1] * n)) == n - d_size + 1:
            break
        rng.shuffle(dense_pairs)
    edges += chosen
    return Graph(n, tuple(sorted((min(e), max(e)) for e in edges)))


def test_random_graphs_6_to_9_vertices():
    rng = random.Random(2013)
    for i in range(300):
        n = rng.randint(6, 9)
        if i % 3 == 0:
            g = random_tree_unicyclic_dense(rng, max(n, 8))
        else:
            pairs = list(combinations(range(n), 2))
            rng.shuffle(pairs)
            g = Graph(n, tuple(sorted(pairs[:rng.randint(0, 12)])))
        assert_kernels_match(g)


def test_mixed_components_cover_every_kernel():
    rng = random.Random(7)
    for _ in range(20):
        g = random_tree_unicyclic_dense(rng, rng.randint(8, 9))
        comps = [sorted(c) for c in _components(g.adjacency, [-1] * g.vertex_count)]
        ranks = [sum(1 for u, _ in g.edges if u in comp) - len(comp) + 1 for comp in comps]
        assert sorted(min(r, 2) for r in ranks) == [0, 1, 2]
        assert_kernels_match(g)
        # hang a new leaf on the unicyclic component and give it the component's
        # least label, so the traversal from the leaf skips an edge away from it
        comp, n = comps[ranks.index(1)], g.vertex_count
        swap = {comp[0]: n, n: comp[0]}
        edges = list(g.edges) + [(rng.choice(comp), n)]
        h = Graph(n + 1, tuple(sorted(tuple(sorted((swap.get(a, a), swap.get(b, b))))
                                      for a, b in edges)))
        assert comp[0] not in cycle_vertices_by_stripping(h)
        assert_kernels_match(h)


def test_specialization_matches_brute_force_colorings():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 8)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        g = Graph(n, tuple(sorted(pairs[:rng.randint(0, len(pairs))])))
        x = chromatic_symmetric_function(g)
        assert specialize(x, 3) == count_proper_colorings(g, 3)


def test_dense_component_refused_before_any_work():
    k24 = Graph(24, tuple(combinations(range(24), 2)))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceLimitError, match="2\\^24"):
            chromatic_symmetric_function(k24, max_edges=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1_000_000


def test_value_refuses_short_weights_and_keeps_the_limits():
    with pytest.raises(ValueError, match="weights"):
        csf_value(Graph(3, ((0, 1),)), [1, 1, 1])
    assert csf_value(Graph(0, ()), [5]) == 1
    with pytest.raises(ResourceLimitError, match="cap"):
        csf_value(Graph(3, ((0, 1), (1, 2))), [1] * 4, max_edges=1)
    k24 = Graph(24, tuple(combinations(range(24), 2)))
    with pytest.raises(ResourceLimitError, match="2\\^24"):
        csf_value(k24, [1] * 25, max_edges=1000)
