import random
import time
from itertools import combinations
from math import comb, factorial

import pytest

from csfkit import (
    Graph,
    GraphParseError,
    NotATreeError,
    ResourceLimitError,
    RootedTree,
    canonical_tree_code,
    centroid,
    chromatic_symmetric_function,
    cycle_stats,
    enumerate_trees,
    enumerate_unicyclic,
    parse_graph,
    pi_type,
    structural_report,
    vertex_weights,
)
from csfkit import graph
from csfkit.graph import (_bfs, _components, _hanging_trees, _reroot_on_cycle, _tree_centers, cycle_vertices,
                          is_forest, require_tree, rooted_code)

from fixtures import (
    ATTRACTION_TREE17,
    CHROMATIC_TREE7,
    CHROMATIC_TREE7_TEXT,
    COLLISION_LEFT6,
    COLLISION_RIGHT6,
    ONE_CENTROID_TREE17,
    ONE_CENTROID_WEIGHTS17,
    TWO_CENTROID_TREE16,
    TWO_CENTROID_WEIGHTS16,
    TYPE_DEMO_GRAPH11,
)
from oracles import (
    all_labelled_trees,
    brute_force_isomorphic,
    component_orders,
    cycle_vertices_by_stripping,
    girth_by_edge_removal,
    matching_counts_by_recursion,
    relabelled,
)

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))


# ---------------------------------------------------------------------------
# parsing


def test_parse_triangle():
    g = parse_graph("3 3\n0 1\n0 2\n1 2")
    assert g == K3


def test_parse_chromatic_tree():
    assert parse_graph(CHROMATIC_TREE7_TEXT) == CHROMATIC_TREE7


def test_parse_refuses_a_vertex_count_above_the_limit_before_allocating():
    assert parse_graph(f"{graph.MAX_VERTICES} 0\n").vertex_count == graph.MAX_VERTICES
    with pytest.raises(ResourceLimitError, match=f"line 1: {graph.MAX_VERTICES + 1} vertices"):
        parse_graph(f"{graph.MAX_VERTICES + 1} 0\n")
    # refused from the header alone, before the body is read
    with pytest.raises(ResourceLimitError, match="above the limit of 100000"):
        parse_graph("100000000 2\n0 1\n")


def test_parse_errors_name_the_line():
    with pytest.raises(GraphParseError, match="line 3"):
        parse_graph("2 2\n0 1\n0 1")
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("2 1\n1 1")
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("2 1\n0 5")
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("2 1\nnope")
    with pytest.raises(GraphParseError, match="line 1"):
        parse_graph("banana")


@pytest.mark.parametrize("text, line, message", [
    ("3 2\n0 1\n2 2\n", 3, "self-loop at vertex 2"),
    ("3 2\n0 1\n2 1\n", 3, "edge (2, 1) out of range or not u < v"),
    ("3 1\n0 3\n", 2, "edge (0, 3) out of range or not u < v"),
    ("3 3\n0 1\n1 2\n0 1\n", 4, "duplicate edge (0, 1)"),
])
def test_parse_names_the_line_of_the_first_edge_graph_refuses(text, line, message):
    # Graph holds the one edge check; parsing only adds the line
    with pytest.raises(GraphParseError) as info:
        parse_graph(text)
    assert str(info.value) == f"line {line}: {message}"
    head, *rows = text.split("\n")[:-1]
    with pytest.raises(ValueError) as info:
        Graph(int(head.split()[0]), tuple(tuple(map(int, row.split())) for row in rows))
    assert str(info.value) == message


@pytest.mark.parametrize("edge", [(0.5, 1), (0, 1.0), ("0", 1), (False, 1), (None, 2)])
def test_graph_refuses_an_endpoint_that_is_not_an_int(edge):
    # refused when built, not later by a TypeError on reading the adjacency
    with pytest.raises(ValueError, match="endpoint that is not an int") as info:
        Graph(3, ((0, 2), edge))
    assert info.value.edge_index == 1


@pytest.mark.parametrize("text, line", [
    ("\u00b3 0\n", 1),  # superscript digits pass str.isdigit but not int()
    ("2 1\n0 \u00b9\n", 2),
])
def test_parse_rejects_non_decimal_digits(text, line):
    with pytest.raises(GraphParseError, match=f"line {line}:"):
        parse_graph(text)


def test_text_roundtrip():
    for g in (K3, CHROMATIC_TREE7, COLLISION_LEFT6, Graph(4, ())):
        assert parse_graph(g.to_text()) == g


def test_edge_indices_are_line_order():
    g = parse_graph("4 3\n1 2\n0 1\n0 3")
    assert g.edges == ((1, 2), (0, 1), (0, 3))
    assert g.index_of(0, 1) == 1


# ---------------------------------------------------------------------------
# subset types


def test_pi_type_full_set_demo():
    assert pi_type(TYPE_DEMO_GRAPH11, range(6)) == (4, 3, 2, 1, 1)


def test_pi_type_empty_and_full():
    assert pi_type(K3, []) == (1, 1, 1)
    assert pi_type(K3, [0, 1, 2]) == (3,)


def test_pi_type_part_count_matches_component_count():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 9)
        possible = list(combinations(range(n), 2))
        rng.shuffle(possible)
        g = Graph(n, tuple(sorted(possible[: rng.randint(0, len(possible))][:9])))
        subset = [i for i in range(g.edge_count) if rng.random() < 0.5]
        p = pi_type(g, subset)
        assert sum(p) == n
        # independent component count by BFS over the chosen edges only
        adj = {v: [] for v in range(n)}
        for i in subset:
            u, v = g.edges[i]
            adj[u].append(v)
            adj[v].append(u)
        seen, comps = set(), 0
        for s in range(n):
            if s in seen:
                continue
            comps += 1
            stack = [s]
            seen.add(s)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        assert len(p) == comps


def test_forest_subset_has_v_minus_s_parts():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            for r in range(t.edge_count + 1):
                for subset in combinations(range(t.edge_count), r):
                    assert len(pi_type(t, subset)) == n - r


# ---------------------------------------------------------------------------
# structural report


def test_structural_report_collision_pair():
    left = structural_report(COLLISION_LEFT6)
    right = structural_report(COLLISION_RIGHT6)
    assert left.degree_sequence == (4, 2, 2, 2, 1, 1)
    assert right.degree_sequence == (3, 3, 3, 1, 1, 1)
    for rep in (left, right):
        assert rep.sum_squared_degrees == 30
        assert rep.triangle_count == 1
        assert rep.girth == 3


def test_structural_report_k3():
    rep = structural_report(K3)
    assert rep.sum_squared_degrees == 12
    assert rep.triangle_count == 1
    assert rep.girth == 3
    assert rep.matching_counts == (3,)


def test_degree_sum_is_twice_edges():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 10)
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        g = Graph(n, tuple(sorted(pool[: rng.randint(0, len(pool))])))
        rep = structural_report(g)
        assert sum(rep.degree_sequence) == 2 * rep.edge_count


def test_girth_infinite_for_acyclic():
    assert structural_report(CHROMATIC_TREE7).girth is None
    assert structural_report(Graph(3, ())).girth is None


def test_girth_on_cycles_with_chords():
    c5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    assert structural_report(c5).girth == 5
    assert structural_report(c5.with_edge_added(0, 2)).girth == 3
    c6 = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
    assert structural_report(c6).girth == 6
    assert structural_report(c6.with_edge_added(0, 3)).girth == 4


def test_matching_counts_match_csf_coefficients():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 9)
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        g = Graph(n, tuple(sorted(pool[: min(9, rng.randint(0, len(pool)))])))
        rep = structural_report(g)
        x = chromatic_symmetric_function(g)
        for k, count in enumerate(rep.matching_counts, start=1):
            assert abs(x.coefficient((2,) * k + (1,) * (n - 2 * k))) == count


def random_graph(rng: random.Random, n: int, most: int) -> Graph:
    pool = list(combinations(range(n), 2))
    rng.shuffle(pool)
    return Graph(n, tuple(sorted(pool[: rng.randint(0, min(most, len(pool)))])))


def test_girth_matches_deleting_each_edge():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, 2 * n)  # sparse enough for long cycles and forests
        assert structural_report(g).girth == girth_by_edge_removal(g), g


def test_matching_counts_match_listing_every_matching():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 10)
        g = random_graph(rng, n, n * n)
        assert structural_report(g).matching_counts == matching_counts_by_recursion(g), g


def test_matching_counts_of_paths_and_complete_graphs():
    for n in (*range(1, 13), 60):  # P60 has about 2.5 * 10^12 matchings
        path = Graph(n, tuple((i, i + 1) for i in range(n - 1)))
        want = tuple(comb(n - k, k) for k in range(1, n // 2 + 1))
        assert structural_report(path).matching_counts == want
    for n in range(1, 17):
        kn = Graph(n, tuple(combinations(range(n), 2)))
        want = tuple(factorial(n) // (factorial(k) * 2 ** k * factorial(n - 2 * k))
                     for k in range(1, n // 2 + 1))
        assert structural_report(kn).matching_counts == want


# ---------------------------------------------------------------------------
# weights, centroids, cycle stats


def test_single_centroid_tree17():
    assert vertex_weights(ONE_CENTROID_TREE17) == list(ONE_CENTROID_WEIGHTS17)
    assert centroid(ONE_CENTROID_TREE17) == (9,)


def test_two_centroid_tree16():
    assert vertex_weights(TWO_CENTROID_TREE16) == list(TWO_CENTROID_WEIGHTS16)
    cents = centroid(TWO_CENTROID_TREE16)
    assert cents == (8, 9)
    assert TWO_CENTROID_TREE16.has_edge(*cents)


def test_two_vertex_tree_centroids():
    t = Graph(2, ((0, 1),))
    assert vertex_weights(t) == [1, 1]
    assert centroid(t) == (0, 1)


def test_weights_reject_non_trees():
    with pytest.raises(NotATreeError):
        vertex_weights(K3)
    with pytest.raises(NotATreeError):
        vertex_weights(Graph(2, ()))


def test_centroid_shape_on_all_trees_up_to_12():
    for n in range(1, 13):
        for t in enumerate_trees(n):
            cents = centroid(t)
            assert len(cents) in (1, 2)
            if len(cents) == 2:
                assert t.has_edge(*cents)


def test_cycle_stats_collision_pair():
    left = cycle_stats(COLLISION_LEFT6)
    right = cycle_stats(COLLISION_RIGHT6)
    assert (left.cycle_length, left.leaf_count, left.degree2_on_cycle) == (3, 2, 2)
    assert (right.cycle_length, right.leaf_count, right.degree2_on_cycle) == (3, 3, 0)
    assert (left.cycle_length - 1) * left.leaf_count + left.degree2_on_cycle == 6
    assert (right.cycle_length - 1) * right.leaf_count + right.degree2_on_cycle == 6


def test_cycle_stats_k3_and_rejections():
    stats = cycle_stats(K3)
    assert (stats.cycle_length, stats.leaf_count, stats.degree2_on_cycle) == (3, 0, 3)
    two_triangles = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    k4 = Graph(4, tuple(combinations(range(4), 2)))
    for g in (Graph(0, ()), CHROMATIC_TREE7, two_triangles, k4):
        for f in (cycle_stats, cycle_vertices):
            with pytest.raises(ValueError, match="connected unicyclic"):
                f(g)


def test_cycle_vertices_match_leaf_stripping():
    rng = random.Random(13)
    for n in range(3, 10):
        for g in enumerate_unicyclic(n):
            for h in (g, relabelled(rng, n, g.edges), relabelled(rng, n, g.edges)):
                assert cycle_vertices(h) == cycle_vertices_by_stripping(h), h


def assert_rerooted_on_cycle(g: Graph) -> list[int]:
    """``_reroot_on_cycle`` after a breadth-first pass from 0 on the connected
    unicyclic g gives an order listing each vertex after its parent, over
    tree edges of g, with the root its own parent, and the cycle as a closed
    path of parent links up to the root.  Returns the cycle."""
    n, adj = g.vertex_count, g.adjacency
    parent = [-1] * n
    order, cycle = _reroot_on_cycle(adj, _bfs(adj, 0, parent), parent)
    place = {v: i for i, v in enumerate(order)}
    assert sorted(order) == list(range(n))
    assert parent[order[0]] == order[0] == cycle[-1]
    assert all(place[parent[v]] < place[v] and parent[v] in adj[v] for v in order[1:])
    assert [parent[v] for v in cycle[:-1]] == cycle[1:]
    assert cycle[-1] in adj[cycle[0]] and len(set(cycle)) == len(cycle) >= 3
    return cycle


def test_reroot_on_cycle_gives_a_rooted_order_and_the_cycle():
    rng = random.Random(23)
    for n in range(3, 10):
        for g in enumerate_unicyclic(n):
            for h in (g, relabelled(rng, n, g.edges)):
                assert sorted(assert_rerooted_on_cycle(h)) == cycle_vertices_by_stripping(h), h


def test_reroot_on_a_long_cycle_needs_no_recursion():
    # a 5,000-vertex cycle with 3,000 vertices hung on it as random trees;
    # every parent path is walked in a loop, far past the recursion limit
    rng, p, n = random.Random(5), 5000, 8000
    edges = [(v, v + 1) for v in range(p - 1)] + [(0, p - 1)] + [(rng.randrange(v), v) for v in range(p, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    g = Graph(n, tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)))
    assert sorted(assert_rerooted_on_cycle(g)) == cycle_vertices(g) == sorted(perm[:p])


def test_hanging_tree_parents_are_listed_once_per_rank(monkeypatch):
    ranks, calls = len(_hanging_trees(9)), []
    real = graph._level_parents
    monkeypatch.setattr(graph, "_level_parents", lambda levels: calls.append(levels) or real(levels))
    assert sum(1 for _ in enumerate_unicyclic(9)) == 240
    assert len(calls) <= ranks


# ---------------------------------------------------------------------------
# canonical codes and enumeration


def test_canonical_code_relabeling_invariance():
    p4a = Graph(4, ((0, 1), (1, 2), (2, 3)))
    p4b = Graph(4, ((0, 2), (0, 1), (1, 3)))  # path 2-0-1-3
    assert canonical_tree_code(p4a) == canonical_tree_code(p4b)
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    assert canonical_tree_code(p4a) != canonical_tree_code(star)


def test_canonical_code_rejects_non_trees():
    with pytest.raises(NotATreeError):
        canonical_tree_code(K3)


def test_canonical_code_agrees_with_brute_force_up_to_7():
    for n in range(1, 8):
        reps = list(enumerate_trees(n))
        for a, b in combinations(reps, 2):
            assert not brute_force_isomorphic(a, b)
            assert canonical_tree_code(a) != canonical_tree_code(b)
        for t in reps:
            shuffled = _relabel(t, seed=n)
            assert brute_force_isomorphic(t, shuffled)
            assert canonical_tree_code(t) == canonical_tree_code(shuffled)


def _relabel(g: Graph, seed: int) -> Graph:
    rng = random.Random(seed)
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
    return Graph(g.vertex_count, edges)


def test_enumerate_trees_counts():
    # OEIS A000055 through n = 16
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]
    for n, want in enumerate(expected, start=1):
        assert sum(1 for _ in enumerate_trees(n)) == want


def test_enumerate_trees_small_cases():
    n4 = [canonical_tree_code(t) for t in enumerate_trees(4)]
    assert canonical_tree_code(Graph(4, ((0, 1), (1, 2), (2, 3)))) in n4
    assert canonical_tree_code(Graph(4, ((0, 1), (0, 2), (0, 3)))) in n4
    assert list(enumerate_trees(2))[0] == Graph(2, ((0, 1),))


def test_enumerate_trees_matches_prufer_dedup():
    for n in range(2, 8):
        via_prufer = {canonical_tree_code(t) for t in all_labelled_trees(n)}
        via_generator = {canonical_tree_code(t) for t in enumerate_trees(n)}
        assert via_prufer == via_generator


def test_enumerated_trees_are_trees():
    for n in range(1, 10):
        for t in enumerate_trees(n):
            assert t.edge_count == n - 1
            assert is_forest(t)


def test_rooted_code_distinguishes_roots():
    path = Graph(3, ((0, 1), (1, 2)))
    assert rooted_code(path, 0) != rooted_code(path, 1)
    assert rooted_code(path, 0) == rooted_code(path, 2)


P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
P5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))


@pytest.mark.parametrize("g, root, error, match", [
    pytest.param(P4, -1, ValueError, "root -1 out of range 0..3", id="negative"),
    pytest.param(P4, 4, ValueError, "root 4 out of range 0..3", id="n"),
    # n - 1 edges, but vertex 3 is out of reach
    pytest.param(Graph(4, ((0, 1), (0, 2), (1, 2))), 0, NotATreeError,
                 "rooted_code requires a tree", id="non-tree"),
])
def test_rooted_code_checks_its_root(g, root, error, match):
    with pytest.raises(error, match=match):
        rooted_code(g, root)


@pytest.mark.parametrize("call, passes", [
    # the check from vertex 0, the longest path from where it ends, one code per centre
    pytest.param(lambda: canonical_tree_code(P5), 3, id="canonical_tree_code-one-centre"),
    pytest.param(lambda: canonical_tree_code(P4), 4, id="canonical_tree_code-two-centres"),
    pytest.param(lambda: rooted_code(P5, 3), 1, id="rooted_code"),
    pytest.param(lambda: vertex_weights(P5), 1, id="vertex_weights"),
    pytest.param(lambda: RootedTree(P5, 4), 1, id="RootedTree"),
])
def test_tree_operations_count_their_traversals(monkeypatch, call, passes):
    calls, bfs = [], graph._bfs

    def counting(adj, root, parent):
        calls.append(root)
        return bfs(adj, root, parent)

    monkeypatch.setattr(graph, "_bfs", counting)
    call()
    assert len(calls) == passes


def test_attraction_tree_is_well_formed():
    assert ATTRACTION_TREE17.edge_count == 16
    assert centroid(ATTRACTION_TREE17) == (8,)


# ---------------------------------------------------------------------------
# breadth-first routines against independent routes


def _eccentricity_centers(g: Graph) -> list[int]:
    """Vertices of minimum eccentricity, from Floyd-Warshall distances."""
    n = g.vertex_count
    dist = [[0 if i == j else n for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    ecc = [max(row) for row in dist]
    return [v for v in range(n) if ecc[v] == min(ecc)]


def test_weights_and_centers_match_brute_force_up_to_10():
    for n in range(1, 11):
        for k, t in enumerate(enumerate_trees(n)):
            g = _relabel(t, seed=100 * n + k)
            # T - v on n - 1 vertices: the labels above v shift down by one
            weights = [
                max(component_orders(n - 1, [(a - (a > v), b - (b > v))
                                             for a, b in g.edges if v not in (a, b)]), default=0)
                for v in range(n)
            ]
            assert vertex_weights(g) == weights
            assert _tree_centers(g, require_tree(g)[0][-1]) == _eccentricity_centers(g)


def test_pi_type_and_components_match_union_find():
    rng = random.Random(59)
    for _ in range(500):
        n = rng.randint(1, 9)
        pairs = list(combinations(range(n), 2))
        g = Graph(n, tuple(sorted(rng.sample(pairs, rng.randint(0, len(pairs))))))
        subset = [i for i in range(g.edge_count) if rng.random() < 0.5]
        assert pi_type(g, subset) == component_orders(n, [g.edges[i] for i in subset])
        parent = [-1] * n
        comps = _components(g.adjacency, parent)
        assert tuple(sorted(map(len, comps), reverse=True)) == component_orders(n, g.edges)
        assert sorted(v for c in comps for v in c) == list(range(n))
        # each starts at its least vertex, and each later vertex's parent is an
        # earlier neighbour in its order
        assert [c[0] for c in comps] == sorted(min(c) for c in comps)
        for c in comps:
            assert parent[c[0]] == c[0]
            assert all(g.has_edge(v, parent[v]) and c.index(parent[v]) < i
                       for i, v in enumerate(c) if i)


def _chain(k: int) -> str:
    """Rooted code of a k-vertex path rooted at one end."""
    return "(" * k + ")" * k


def _path_case():
    """P5001 in path order: weight max(i, n - 1 - i), centroid and center 2500."""
    n = 5001
    edges = [(i, i + 1) for i in range(n - 1)]
    return n, edges, [max(i, n - 1 - i) for i in range(n)], 2500, "(" + _chain(2500) * 2 + ")"


def _spider_case():
    """Center 0 with three legs of 1000; a leg vertex at distance d weighs 2000 + d."""
    edges = []
    for leg in range(3):
        first = 1 + 1000 * leg
        edges.append((0, first))
        edges += [(first + d, first + d + 1) for d in range(999)]
    weights = [1000] + [2000 + d for _ in range(3) for d in range(1, 1001)]
    return 3001, edges, weights, 0, "(" + _chain(1000) * 3 + ")"


def test_weights_and_centroid_of_a_long_path_take_linear_time():
    n = 100_000
    g = relabelled(random.Random(3), n, [(v, v + 1) for v in range(n - 1)])
    assert g.adjacency  # built before the clock starts
    start = time.perf_counter()
    weights, middle = vertex_weights(g), centroid(g)
    assert time.perf_counter() - start < 1.0
    assert sorted(weights) == sorted(max(i, n - 1 - i) for i in range(n))
    assert len(middle) == 2 and {weights[v] for v in middle} == {n // 2}


@pytest.mark.parametrize("case", [_path_case, _spider_case], ids=["path5001", "spider3x1000"])
def test_deep_trees_match_closed_forms(case):
    n, edges, weights, middle, code = case()
    t = Graph(n, tuple(edges))
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    g = Graph(n, tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)))
    assert canonical_tree_code(t) == canonical_tree_code(g) == code
    relabelled = [0] * n
    for v in range(n):
        relabelled[perm[v]] = weights[v]
    assert vertex_weights(t) == weights
    assert vertex_weights(g) == relabelled
    assert centroid(t) == (middle,)
    assert centroid(g) == (perm[middle],)
    assert _tree_centers(g, require_tree(g)[0][-1]) == [perm[middle]]
