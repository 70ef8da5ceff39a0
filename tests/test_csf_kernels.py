"""Differential tests: the structured CSF kernels against edge-subset enumeration.

``chromatic_symmetric_function`` picks a tree, unicyclic or vertex-bitmask
kernel per component and multiplies the results; ``oracles.subset_csf`` is the
definition, one signed term per edge subset.  They must agree exactly, and
``csf_value`` (the same kernels with every part code zero) must equal the
definition's terms summed at seeded weights.
"""

import random
import re
import time
import tracemalloc
from itertools import combinations
from math import comb, prod

import pytest

from csfkit import (
    Graph,
    ResourceLimitError,
    chromatic_symmetric_function,
    count_proper_colorings,
    enumerate_trees,
    enumerate_unicyclic,
    extract_invariants,
    specialize,
    structural_report,
)
from csfkit import csf
from csfkit.csf import csf_codes, csf_value
from csfkit.graph import _components

from fixtures import path_with_k4
from oracles import (_partitions, cycle_vertices_by_stripping, relabelled, set_partition_steps,
                     sparse_merge_pairs, subset_csf, unicyclic_canonical_key)


def path(n: int) -> Graph:
    return Graph(n, tuple((v, v + 1) for v in range(n - 1)))


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


def test_value_kernel_on_seeded_forests_and_unicyclic_graphs():
    # relabelled, so cycles, roots and hanging trees fall anywhere in the labels;
    # a unicyclic graph may carry tree components beside it
    rng = random.Random(2026)
    for i in range(300):
        n = rng.randint(3, 11)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        if i % 2:
            edges = rng.sample(edges, rng.randint(0, n - 1))  # a forest
        else:
            cut = rng.randint(3, n)  # a unicyclic graph on the first cut vertices
            edges = [e for e in edges if e[1] < cut] + rng.sample(edges[cut - 1:], rng.randint(0, n - cut))
            edges.append(rng.choice([e for e in combinations(range(cut), 2) if e not in edges]))
        assert_kernels_match(relabelled(rng, n, edges))


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
        with pytest.raises(ResourceLimitError, match="set-partition DP on a component of 24 vertices"):
            chromatic_symmetric_function(k24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1_000_000


def test_codes_of_isolated_vertices_need_one_digit():
    # a part has at most m + 1 vertices, so the code table stops at size 1
    g = Graph(5000, ())
    tracemalloc.start()
    try:
        codes = csf_codes(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes == {5000: 1}  # p_1^5000: digit 0 counts 5,000 parts of size 1
    assert peak < 4_000_000


def test_value_refuses_short_weights_and_keeps_the_limits():
    with pytest.raises(ValueError, match="weights"):
        csf_value(Graph(3, ((0, 1),)), [1, 1, 1])
    assert csf_value(Graph(0, ()), [5]) == 1
    k24 = Graph(24, tuple(combinations(range(24), 2)))
    with pytest.raises(ResourceLimitError, match="set-partition DP on a component of 24 vertices"):
        csf_value(k24, [1] * 25)


def tree_dp_bound(g: Graph, codes: bool) -> int:
    """The tree DP's up-front bound on connected g, read off the refusal it
    gives when its limit is below every bound."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csf, "WORK_LIMIT", -1)
        with pytest.raises(ResourceLimitError) as info:
            csf_codes(g) if codes else csf_value(g, [1] * (g.vertex_count + 1))
    return int(re.search(r"may merge (\d+) state pairs", str(info.value)).group(1))


def test_tree_dp_bound_covers_its_merge_work():
    rng = random.Random(12)
    graphs = [t for n in range(1, 13) for t in enumerate_trees(n)]
    graphs += [g for n in range(3, 10) for g in enumerate_unicyclic(n)]
    for g in graphs + [relabelled(rng, g.vertex_count, g.edges) for g in graphs]:
        codes_pairs, value_pairs = sparse_merge_pairs(g)
        assert tree_dp_bound(g, True) >= codes_pairs, g
        assert tree_dp_bound(g, False) >= value_pairs, g


def test_tree_dp_bound_is_exact_on_paths_from_an_end():
    # partitions are counted for sizes below 64 only, whose bound is past the limit:
    # row 63 of the table, whose entry s sums p(j) for j < s, stops by s = 64
    row = csf._state_rows()[0][63]
    assert len(row) <= 65 and row[-1] > csf.WORK_LIMIT
    # every size multiset of a path's closed segments occurs
    for n in range(1, 21):
        p = Graph(n, tuple((v, v + 1) for v in range(n - 1)))
        assert tree_dp_bound(p, True) == sparse_merge_pairs(p)[0]
        assert tree_dp_bound(p, False) == sparse_merge_pairs(p)[1] == n * (n - 1) // 2


def test_tree_dp_bound_weighs_parts_by_the_largest_child_subtree():
    # a star's centre holds s states at s merged vertices: 1 + 2 + ... + (n - 1) pairs
    for n in (70, 200):
        assert tree_dp_bound(Graph(n, tuple((0, v) for v in range(1, n))), True) == n * (n - 1) // 2
    # a path or cycle from the root has one child per vertex, as large as it can be
    assert [tree_dp_bound(g, True) for g in (path(44), path(45), cycle(37), cycle(38))] == [
        1_751_584, 2_127_910, 2_046_045, 2_563_840]
    # 40 legs of two vertices close up to 80 vertices in parts of at most 2
    spider = Graph(81, tuple(edge for i in range(1, 80, 2) for edge in ((0, i), (i, i + 1))))
    assert tree_dp_bound(spider, True) >= sparse_merge_pairs(spider)[0]
    # a row's last entry, read for every later size, is above the limit
    assert all(row[-1] > csf.WORK_LIMIT for rows in csf._state_rows() for row in rows[2:])


def test_paths_run_by_default_within_the_tree_dp_limit():
    assert len(csf_codes(path(32))) == 8349  # p(32)
    assert len(csf_codes(path(40))) == 37338  # p(40)
    p200 = path(200)
    assert csf_value(p200, [3] * 201) == 3 * 2 ** 199  # k (k - 1)^(n - 1) colourings


def assert_refused_at_once(compute, message: str) -> None:
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceLimitError, match=message):
            compute()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1_000_000


def test_oversized_components_are_refused_before_any_work():
    assert_refused_at_once(lambda: csf_codes(path(70)), "tree DP on a component of 70 vertices")
    assert_refused_at_once(lambda: csf_codes(path(45)), "tree DP on a component of 45 vertices")
    for k in (16, 24):
        clique = Graph(k, tuple(combinations(range(k), 2)))
        assert_refused_at_once(lambda: csf_codes(clique),
                               f"set-partition DP on a component of {k} vertices")


def test_product_of_components_is_refused_above_the_pair_limit():
    # each P30 runs at once, but 5,604 x 5,604 term pairs are above the limit
    two = Graph(60, tuple((v, v + 1) for v in range(29)) + tuple((v, v + 1) for v in range(30, 59)))
    with pytest.raises(ResourceLimitError, match="multiplying 5604 by 5604 terms"):
        csf_codes(two)
    assert csf_value(two, [2] * 61) == 4  # two 2-colourings of each path


def cycle(n: int, *chords: tuple[int, int]) -> Graph:
    return Graph(n, tuple(sorted(((0, n - 1),) + tuple((v, v + 1) for v in range(n - 1)) + chords)))


def set_partition_bound(g: Graph, codes: bool) -> int:
    """The set-partition DP's bound on connected g, in the order the kernel uses."""
    order = _components(g.adjacency, [-1] * g.vertex_count)[0]
    return csf._set_partition_dp(order, g.adjacency, codes, csf.WORK_LIMIT)[0]


def test_set_partition_bound_covers_its_steps():
    rng = random.Random(19)
    graphs = [Graph(n, tuple(combinations(range(n), 2))) for n in range(3, 8)]
    graphs += [cycle(n, (0, n // 2)) for n in (5, 8)]
    while len(graphs) < 40:
        n = rng.randint(4, 8)
        pairs = list(combinations(range(n), 2))
        g = Graph(n, tuple(sorted(rng.sample(pairs, rng.randint(n + 1, len(pairs))))))
        if len(_components(g.adjacency, [-1] * n)) == 1:
            graphs.append(g)
    for g in graphs:
        for codes in (True, False):
            assert set_partition_bound(g, codes) >= set_partition_steps(g, codes), (g, codes)
    # the leaf rule at a least vertex keeps the scan off these sets; codes refuse 19 vertices
    for n in range(8, 21):
        for codes in (True, False) if n < 19 else (False,):
            g = path_with_k4(n)
            assert set_partition_bound(g, codes) >= set_partition_steps(g, codes), (n, codes)
    assert [set_partition_bound(path_with_k4(n), False) for n in (20, 21)] == [1_051_037, 2_099_934]
    with pytest.raises(ResourceLimitError):
        set_partition_bound(path_with_k4(19), True)
    with pytest.raises(ResourceLimitError):
        set_partition_bound(path_with_k4(22), False)


def test_set_partition_weights_count_partitions_into_at_most_i_parts():
    # q[i][d] from listed partitions of d into parts <= i, as many as into at most i parts;
    # without codes a remaining set's map holds one entry whenever it holds any
    counts = {(i, d): sum(1 for _ in _partitions(d, i)) for i in range(23) for d in range(24)}
    for k in range(24):
        for codes in (True, False):
            q = counts if codes else {key: min(1, x) for key, x in counts.items()}
            want = tuple(tuple(sum(comb(k - i - s, t) * q[i, k - s - t] for t in range(k - i - s + 1))
                               for s in range(k - i + 1)) for i in range(k))
            assert csf._set_dp_weights(k, codes) == want, (k, codes)


def grid(rows: int, cols: int) -> Graph:
    right = tuple((r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1))
    down = tuple((r * cols + c, r * cols + c + cols) for r in range(rows - 1) for c in range(cols))
    return Graph(rows * cols, tuple(sorted(right + down)))


def test_sparse_graphs_past_30_edges_run_by_default():
    # two 10-cycles sharing the chord 0-9: P(C10)^2 / (k (k - 1)) colourings
    theta = cycle(18, (0, 9))
    assert csf_value(theta, [3] * 19) == (2 ** 10 + 2) ** 2 // 6
    for g in (theta, grid(4, 4)):
        x = chromatic_symmetric_function(g)
        assert specialize(x, 3) == csf_value(g, [3] * (g.vertex_count + 1))
        report = extract_invariants(x)
        assert (report.edge_count, report.triangle_count) == (g.edge_count, 0)
        assert report.matching_counts == structural_report(g).matching_counts


def test_components_share_one_work_limit():
    # each P40 is within the limit on its own and takes about 2 s; three are
    # refused before any of them runs
    three = Graph(120, tuple((v, v + 1) for v in range(119) if v % 40 != 39))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="component of 40 vertices may merge"):
        csf_codes(three)
    assert time.perf_counter() - start < 1.0
    # 50 paths of 2,000 vertices: the second brings the sum past the limit
    paths = Graph(100_000, tuple((v, v + 1) for v in range(99_999) if v % 2000 != 1999))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="component of 2000 vertices may merge"):
        csf_value(paths, [3] * 100_001)
    assert time.perf_counter() - start < 1.0
    # 1,100 P3: each product is small, and their sum is refused
    p3s = Graph(3300, tuple((v, v + 1) for v in range(3299) if v % 3 != 2))
    with pytest.raises(ResourceLimitError, match="multiplying"):
        csf_codes(p3s)


def test_large_sparse_dense_kernel_component_refused_before_allocating():
    n = 20_000  # a cycle with two chords: cyclomatic number 3
    g = cycle(n, (0, n // 2), (1, n // 3))
    assert g.adjacency  # built before tracing: the kernel's per-vertex masks would be 50 MB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"set-partition DP on a component of {n} vertices"):
            csf_codes(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
