import math
import random
from itertools import combinations

import pytest

from csfkit import (
    Graph,
    chromatic_symmetric_function,
    combination_csf,
    csf_equal,
    path_split,
    triangle_split,
    wedge_split,
)
from csfkit import rewrite
from csfkit.errors import ResourceLimitError
from csfkit.graph import _edge_triangles

from fixtures import (
    PENTAGON,
    PENTAGON_WEDGE,
    TRIANGLE_DEMO_A,
    TRIANGLE_DEMO_A_INDICES,
    TRIANGLE_DEMO_B,
    TRIANGLE_DEMO_B_INDICES,
)
from oracles import first_triangle_by_pairs, merged_split_count, reduce_unmerged, relabelled

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
P3 = Graph(3, ((0, 1), (0, 2)))


def random_graph_with(rng, n, max_edges, need_triangle=False, need_open_wedge=False):
    """Random graph containing the requested local configurations."""
    while True:
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        g = Graph(n, tuple(sorted(pool[: rng.randint(2, min(max_edges, len(pool)))])))
        if need_triangle and find_triangle(g) is None:
            continue
        if need_open_wedge and find_open_wedge(g) is None:
            continue
        return g


def find_triangle(g: Graph):
    for i, j in combinations(range(g.edge_count), 2):
        shared = set(g.edges[i]) & set(g.edges[j])
        if len(shared) != 1:
            continue
        a = (set(g.edges[i]) - shared).pop()
        b = (set(g.edges[j]) - shared).pop()
        if g.has_edge(a, b):
            return i, j, g.index_of(a, b)
    return None


def find_open_wedge(g: Graph):
    for i, j in combinations(range(g.edge_count), 2):
        shared = set(g.edges[i]) & set(g.edges[j])
        if len(shared) != 1:
            continue
        a = (set(g.edges[i]) - shared).pop()
        b = (set(g.edges[j]) - shared).pop()
        if not g.has_edge(a, b):
            return i, j
    return None


# ---------------------------------------------------------------------------
# triangle rule


def test_triangle_split_k3():
    combo = triangle_split(K3, 0, 1, 2)
    coeffs = [c for c, _ in combo.terms]
    assert coeffs == [1, 1, -1]
    edge_sets = [g.edges for _, g in combo.terms]
    assert edge_sets == [((0, 2), (1, 2)), ((0, 1), (1, 2)), ((1, 2),)]
    identity = combination_csf(combo)
    assert csf_equal(identity, chromatic_symmetric_function(K3))


def test_triangle_split_drawn_instance():
    combo = triangle_split(TRIANGLE_DEMO_A, *TRIANGLE_DEMO_A_INDICES)
    e1, e2, _ = TRIANGLE_DEMO_A_INDICES
    expected = [
        (1, TRIANGLE_DEMO_A.with_edges_removed([e1])),
        (1, TRIANGLE_DEMO_A.with_edges_removed([e2])),
        (-1, TRIANGLE_DEMO_A.with_edges_removed([e1, e2])),
    ]
    assert list(combo.terms) == expected
    for _, h in combo.terms:
        assert h.edge_count < TRIANGLE_DEMO_A.edge_count


def test_triangle_split_requires_triangle():
    p4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(ValueError):
        triangle_split(p4, 0, 1, 2)
    with pytest.raises(ValueError):
        triangle_split(K3, 0, 0, 1)


def test_two_drawn_rows_have_equal_combinations():
    row_a = combination_csf(triangle_split(TRIANGLE_DEMO_A, *TRIANGLE_DEMO_A_INDICES))
    row_b = combination_csf(triangle_split(TRIANGLE_DEMO_B, *TRIANGLE_DEMO_B_INDICES))
    assert csf_equal(row_a, row_b)
    # hence the two source graphs collide
    assert csf_equal(
        chromatic_symmetric_function(TRIANGLE_DEMO_A),
        chromatic_symmetric_function(TRIANGLE_DEMO_B),
    )


# ---------------------------------------------------------------------------
# path rule


def test_path_split_smallest_instance():
    combo = path_split(P3, 0, 1)
    assert [(c, g.edges) for c, g in combo.terms] == [
        (1, ((0, 2), (1, 2))),
        (1, ((0, 1),)),
        (-1, ((1, 2),)),
    ]
    assert csf_equal(combination_csf(combo), chromatic_symmetric_function(P3))


def test_path_split_pentagon():
    combo = path_split(PENTAGON, *PENTAGON_WEDGE)
    expected = [
        (1, ((0, 1), (1, 2), (2, 4), (0, 3), (2, 3))),
        (1, ((0, 1), (1, 2), (3, 4), (0, 3))),
        (-1, ((0, 1), (1, 2), (0, 3), (2, 3))),
    ]
    assert [(c, g.edges) for c, g in combo.terms] == expected
    assert csf_equal(combination_csf(combo), chromatic_symmetric_function(PENTAGON))


def test_path_split_edge_counts():
    combo = path_split(PENTAGON, *PENTAGON_WEDGE)
    sizes = [g.edge_count for _, g in combo.terms]
    assert sizes == [PENTAGON.edge_count, PENTAGON.edge_count - 1, PENTAGON.edge_count - 1]


def test_path_split_preconditions():
    with pytest.raises(ValueError):
        path_split(K3, 0, 1)  # closing edge already present
    square = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        path_split(square, 0, 1)  # disjoint edges


# ---------------------------------------------------------------------------
# wedge rule


def test_wedge_split_k3():
    combo = wedge_split(K3, 0, 1, 2)
    assert [(c, g.edges) for c, g in combo.terms] == [
        (2, ((0, 1), (0, 2))),
        (1, ((1, 2),)),
        (-1, ((0, 1),)),
        (-1, ((0, 2),)),
    ]
    assert csf_equal(combination_csf(combo), chromatic_symmetric_function(K3))


def test_wedge_split_requires_triangle():
    with pytest.raises(ValueError):
        wedge_split(Graph(4, ((0, 1), (1, 2), (2, 3))), 0, 1, 2)


# ---------------------------------------------------------------------------
# identities over random graphs


def test_identities_on_random_graphs():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randint(4, 8)
        g = random_graph_with(rng, n, 10, need_triangle=True, need_open_wedge=True)
        xg = chromatic_symmetric_function(g)
        tri = find_triangle(g)
        assert csf_equal(combination_csf(triangle_split(g, *tri)), xg)
        assert csf_equal(combination_csf(wedge_split(g, *tri)), xg)
        wedge = find_open_wedge(g)
        assert csf_equal(combination_csf(path_split(g, *wedge)), xg)


def test_triangle_split_strictly_decreases_edges():
    rng = random.Random(22)
    for _ in range(20):
        g = random_graph_with(rng, rng.randint(4, 8), 10, need_triangle=True)
        for _, h in triangle_split(g, *find_triangle(g)).terms:
            assert h.edge_count < g.edge_count


def test_wedge_rule_derivable_from_other_two():
    # Chain: erase the triangle keeping its base edge, then trade the base
    # wedge for the erased edge; after cancellation the surviving terms are
    # the wedge-rule combination.
    from csfkit import GraphCombination

    rng = random.Random(23)
    for _ in range(20):
        g = random_graph_with(rng, rng.randint(4, 7), 9, need_triangle=True)
        e1, e2, e3 = find_triangle(g)
        first = triangle_split(g, e3, e1, e2)  # X = X_{g-e3} + X_{g-e1} - X_{g-e1-e3}
        g23 = g.with_edges_removed([e1])
        v, v1, v2 = _wedge_corners(g, e1, e2, e3)
        second = path_split(g23, g23.index_of(v2, v1), g23.index_of(v2, v))
        chained = [first.terms[0], *second.terms, first.terms[2]]

        wedge = wedge_split(g, e1, e2, e3)
        assert _edge_set_tally(chained) == _edge_set_tally(wedge.terms)
        chain_poly = combination_csf(GraphCombination(tuple(chained)))
        assert csf_equal(chain_poly, combination_csf(wedge))


def _edge_set_tally(terms):
    tally: dict = {}
    for coeff, h in terms:
        key = frozenset(h.edges)
        tally[key] = tally.get(key, 0) + coeff
    return {k: v for k, v in tally.items() if v}


def _wedge_corners(g, e1, e2, e3):
    shared = set(g.edges[e1]) & set(g.edges[e2])
    v = shared.pop()
    v1 = (set(g.edges[e1]) - {v}).pop()
    v2 = (set(g.edges[e2]) - {v}).pop()
    return v, v1, v2


def test_combination_rejects_mixed_vertex_counts():
    from csfkit import GraphCombination

    combo = GraphCombination(((1, K3), (1, Graph(4, ()))))
    with pytest.raises(ValueError):
        combination_csf(combo)


def test_zero_coefficients_dropped():
    from csfkit import GraphCombination

    combo = GraphCombination(((0, K3), (2, P3)))
    assert len(combo.terms) == 1


def test_reduce_split_budget_is_exact(monkeypatch):
    k5 = Graph(5, tuple(combinations(range(5), 2)))
    full = rewrite.reduce_triangle_free(k5)
    assert reduce_within(monkeypatch, k5, 41) == full
    assert combination_csf(full).terms == chromatic_symmetric_function(k5).terms


def reduce_within(monkeypatch, g: Graph, splits: int):
    """Reduce g under a budget of exactly `splits`, after checking that one
    split fewer is refused: g needs exactly that many splits."""
    monkeypatch.setattr(rewrite, "REDUCE_WORK_LIMIT", splits - 1)
    with pytest.raises(ResourceLimitError, match=f"more than {splits - 1} splits"):
        rewrite.reduce_triangle_free(g)
    monkeypatch.setattr(rewrite, "REDUCE_WORK_LIMIT", splits)
    return rewrite.reduce_triangle_free(g)


# ---------------------------------------------------------------------------
# triangle reduce: merged level by level against the depth-first route


def clique(n: int) -> Graph:
    return Graph(n, tuple(combinations(range(n), 2)))


# The eight 7-vertex graphs of the benchmark's triangle-reduce commands:
# concatenated "uv" digit pairs, in edge order.
SEVEN_VERTEX_CODES = (
    "01020512141516232425263545",
    "03040513141623242635364546",
    "0304061213141523243536454656",
    "0102030406131416242526354656",
    "010203121415162325263435364556",
    "010304051415232425263435454656",
    "01030405061213232425263536454656",
    "01020304050612131423242634354546",
)


def decode(code: str) -> Graph:
    return Graph(7, tuple((int(code[k]), int(code[k + 1])) for k in range(0, len(code), 2)))


def first_kept_triangle(table, mask: int):
    """The first triangle of a ``_triangle_table`` whose three edges the mask keeps."""
    for e1, pairs in table:
        for e2, e3 in pairs:
            if all(mask >> e & 1 for e in (e1, e2, e3)):
                return e1, e2, e3
    return None


def test_first_triangle_matches_pair_scan():
    rng = random.Random(61)
    free = 0
    for _ in range(2400):
        n = rng.randint(1, 8)
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        g = Graph(n, tuple(pool[: rng.randint(0, len(pool))]))
        table = rewrite._triangle_table(g)
        for mask in ((1 << g.edge_count) - 1, rng.getrandbits(g.edge_count)):
            kept = [i for i in range(g.edge_count) if mask >> i & 1]
            sub = Graph(n, tuple(g.edges[i] for i in kept))
            want = find_triangle(sub)
            assert want == first_triangle_by_pairs(sub)
            free += want is None
            # The subgraph's edge i is g's edge kept[i].
            expected = None if want is None else tuple(kept[i] for i in want)
            assert first_kept_triangle(table, mask) == expected, (g, mask)
    assert 1000 < free < 3800


def test_reduce_matches_unmerged_depth_first_route():
    graphs = [clique(4), clique(5), clique(6)] + [decode(code) for code in SEVEN_VERTEX_CODES]
    rng = random.Random(62)
    for _ in range(300):
        n = rng.randint(3, 7)
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        graphs.append(relabelled(rng, n, pool[: rng.randint(0, min(len(pool), 12))]))
    for g in graphs:
        assert rewrite.reduce_triangle_free(g) == reduce_unmerged(g), g


@pytest.mark.parametrize("n, splits", [(5, 41), (6, 256), (7, 1807)])
def test_reduce_split_counts_on_cliques(monkeypatch, n, splits):
    assert len(reduce_within(monkeypatch, clique(n), splits).terms) == math.factorial(n) // 2


def test_every_triangle_is_split_at_least_once(monkeypatch):
    # the up-front refusal rests on this: splits >= triangles
    rng = random.Random(63)
    graphs = [clique(n) for n in range(3, 7)] + [decode(code) for code in SEVEN_VERTEX_CODES]
    for _ in range(200):
        n = rng.randint(3, 8)
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        graphs.append(relabelled(rng, n, pool[: rng.randint(0, min(len(pool), 14))]))
    for g in graphs:
        splits = merged_split_count(g)
        assert splits >= sum(_edge_triangles(g)) // 3, g
        if splits:  # the reduce counts the same splits
            reduce_within(monkeypatch, g, splits)


def disjoint_triangles(k: int) -> Graph:
    return Graph(3 * k, tuple(e for t in range(3 * k)[::3] for e in ((t, t + 1), (t, t + 2), (t + 1, t + 2))))


@pytest.mark.parametrize("g, message", [
    (clique(200), "of 1313400 triangles needs more than 32768 splits, each counted 311 times for its "
                  "19900 triangle edges"),
    (disjoint_triangles(2000), "of 2000 triangles needs more than 32768 splits, each counted 94 times "
                               "for its 6000 triangle edges"),
], ids=["K200", "2000-triangles"])
def test_reduce_refuses_from_counts_before_any_mask(g, message):
    import tracemalloc

    g.adjacency  # built with the graph, not by the reduce
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as info:
            rewrite.reduce_triangle_free(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == "triangle reduce " + message
    # one 19,900-bit mask per K200 triangle would take 3.3 GB
    assert peak < 4 << 20


def test_reduce_masks_hold_only_the_triangle_edges(monkeypatch):
    # a 2,000-vertex path with 20 chords closing triangles: 2,019 edges, of
    # which 60 lie in a triangle, so each split counts one 64-bit word
    path = [(v, v + 1) for v in range(1999)]
    g = Graph(2000, tuple(sorted(path + [(3 * t, 3 * t + 2) for t in range(20)])))
    monkeypatch.setattr(rewrite, "REDUCE_WORK_LIMIT", 1000)
    with pytest.raises(ResourceLimitError) as info:
        rewrite.reduce_triangle_free(g)
    assert str(info.value) == "triangle reduce needs more than 1000 splits"
    # K12's 66 edges all lie in triangles, so each split counts two words
    with pytest.raises(ResourceLimitError) as info:
        rewrite.reduce_triangle_free(clique(12))
    assert str(info.value) == ("triangle reduce needs more than 1000 splits, each counted 2 times "
                               "for its 66 triangle edges")


def test_reduce_k7_sums_to_its_csf():
    combo = rewrite.reduce_triangle_free(clique(7))
    assert len(combo.terms) == 2520
    assert combination_csf(combo) == chromatic_symmetric_function(clique(7))


def test_reduce_refusal_holds_a_bounded_frontier(monkeypatch):
    import tracemalloc

    monkeypatch.setattr(rewrite, "REDUCE_WORK_LIMIT", 4096)
    k16 = clique(16)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="more than 4096 splits"):
            rewrite.reduce_triangle_free(k16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Masks keep this near 0.2 MB; a frontier keyed by edge tuples takes 1.9 MB.
    assert peak < 1 << 20


def test_reduce_builds_a_graph_only_per_returned_term(monkeypatch):
    k6, k16 = clique(6), clique(16)
    made = []
    validate = Graph.__post_init__

    def counting_post_init(self):
        made.append(self.edges)
        validate(self)

    monkeypatch.setattr(Graph, "__post_init__", counting_post_init)
    combo = rewrite.reduce_triangle_free(k6)
    assert len(made) == len(combo.terms) == 360
    assert sorted(made) == sorted(h.edges for _, h in combo.terms)
    made.clear()
    monkeypatch.setattr(rewrite, "REDUCE_WORK_LIMIT", 4096)
    with pytest.raises(ResourceLimitError, match="more than 4096 splits"):
        rewrite.reduce_triangle_free(k16)
    assert made == []
