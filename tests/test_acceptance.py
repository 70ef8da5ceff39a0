"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is exact (integer equality) and the stated runtime budgets are
asserted, not just observed.
"""

import random
import time
from itertools import combinations

from csfkit import (
    Graph,
    RootedTree,
    attracts_from_theta,
    canonical_tree_code,
    centroid,
    chromatic_symmetric_function,
    combination_csf,
    count_proper_colorings,
    csf_equal,
    cycle_stats,
    enumerate_trees,
    extract_invariants,
    glue_rooted_trees,
    path_split,
    rearrange,
    reconstruct_from_pairs,
    reconstruct_from_theta,
    specialize,
    structural_report,
    theta,
    theta_tables,
    triangle_split,
    wedge_split,
)
from csfkit.search import run_search
from csfkit.graph import _components, rooted_code
from csfkit.treedata import ThetaTable

from fixtures import (
    AMBIGUOUS_SINGLETONS_LEFT7,
    AMBIGUOUS_SINGLETONS_RIGHT7,
    CHROMATIC_TREE7,
    COLLISION_LEFT6,
    COLLISION_RIGHT6,
    CUT_TABLE13_TREE,
    NEAR_MISS_LEFT15,
    NEAR_MISS_RIGHT15,
    TWO_CENTROID_PAIR14_LEFT,
    TWO_CENTROID_PAIR14_RIGHT,
    cut_table13,
)
from oracles import all_rooted_trees, attracts_by_paths, unicyclic_csf
from test_rewrite import find_open_wedge, find_triangle, random_graph_with


def report(number: int, text: str) -> None:
    print(f"PASS  criterion {number:2d}: {text}")


def test_criterion_01_chromatic_polynomial_tree():
    start = time.monotonic()
    x = chromatic_symmetric_function(CHROMATIC_TREE7)
    for k in range(7):
        assert specialize(x, k) == k * (k - 1) ** 6
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"7-vertex tree specializes to k(k-1)^6 for k=0..6 ({elapsed:.2f}s)")


def test_criterion_02_unicyclic_collision():
    start = time.monotonic()
    xl = chromatic_symmetric_function(COLLISION_LEFT6)
    xr = chromatic_symmetric_function(COLLISION_RIGHT6)
    assert csf_equal(xl, xr)
    dl = structural_report(COLLISION_LEFT6).degree_sequence
    dr = structural_report(COLLISION_RIGHT6).degree_sequence
    assert dl == (4, 2, 2, 2, 1, 1) and dr == (3, 3, 3, 1, 1, 1)
    assert dl != dr
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"6-vertex unicyclic pair collides with distinct degrees ({elapsed:.2f}s)")


def test_criterion_03_near_miss_coefficient():
    start = time.monotonic()
    xl = chromatic_symmetric_function(NEAR_MISS_LEFT15)
    xr = chromatic_symmetric_function(NEAR_MISS_RIGHT15)
    assert xl.coefficient((8, 5, 1, 1)) == -9
    assert xr.coefficient((8, 5, 1, 1)) == -8
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(3, f"15-vertex trees carry -9 vs -8 at p_(8,5,1,1) ({elapsed:.2f}s)")


def test_criterion_04_rewrite_identities():
    rng = random.Random(104)
    for trial in range(50):
        g = random_graph_with(rng, rng.randint(4, 8), 10,
                              need_triangle=True, need_open_wedge=True)
        xg = chromatic_symmetric_function(g)
        tri = find_triangle(g)
        wedge = find_open_wedge(g)
        assert csf_equal(combination_csf(triangle_split(g, *tri)), xg)
        assert csf_equal(combination_csf(wedge_split(g, *tri)), xg)
        assert csf_equal(combination_csf(path_split(g, *wedge)), xg)
    report(4, "triangle/path/wedge identities exact on 50 random graphs each")


def test_criterion_05_extraction_matches_structure():
    rng = random.Random(105)
    for trial in range(200):
        n = rng.randint(1, 9)
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        g = Graph(n, tuple(sorted(pool[: rng.randint(0, min(11, len(pool)))])))
        rep = extract_invariants(chromatic_symmetric_function(g))
        direct = structural_report(g)
        assert rep.vertex_count == direct.vertex_count
        assert rep.edge_count == direct.edge_count
        assert rep.matching_counts == direct.matching_counts
        assert rep.sum_squared_degrees == direct.sum_squared_degrees
        assert rep.triangle_count == direct.triangle_count
    report(5, "coefficient extraction matches direct counts on 200 random graphs")


def test_criterion_06_glued_pairs_exhaustive():
    # All rooted-tree pairs up to 5 vertices.  Outputs up to 20 edges are
    # compared with an exact component-tracking expansion; on every output
    # small enough for direct subset enumeration the two evaluators are
    # asserted identical, so the fast path is cross-validated in this very
    # sweep (733 further cross-checks live in the unit suites).
    rooted = [RootedTree(t, r) for k in range(1, 6)
              for t, r in all_rooted_trees(k, enumerate_trees, rooted_code)]
    assert len(rooted) == 17
    pairs = direct_checks = 0
    for i in range(len(rooted)):
        for j in range(i, len(rooted)):
            h, jj = glue_rooted_trees(rooted[i], rooted[j])
            xh, xj = unicyclic_csf(h), unicyclic_csf(jj)
            assert csf_equal(xh, xj)
            if h.edge_count <= 13:
                assert csf_equal(xh, chromatic_symmetric_function(h))
                assert csf_equal(xj, chromatic_symmetric_function(jj))
                direct_checks += 1
            sh, sj = cycle_stats(h), cycle_stats(jj)
            lhs = (sh.cycle_length - 1) * sh.leaf_count + sh.degree2_on_cycle
            rhs = (sj.cycle_length - 1) * sj.leaf_count + sj.degree2_on_cycle
            assert lhs == rhs
            pairs += 1
    # the seed instance evaluates the relation to 6 = 6
    h, jj = glue_rooted_trees(RootedTree(Graph(1, ()), 0),
                              RootedTree(Graph(2, ((0, 1),)), 0))
    sh, sj = cycle_stats(h), cycle_stats(jj)
    assert (sh.cycle_length - 1) * sh.leaf_count + sh.degree2_on_cycle == 6
    assert (sj.cycle_length - 1) * sj.leaf_count + sj.degree2_on_cycle == 6
    report(6, f"all {pairs} glued rooted-tree pairs collide "
              f"({direct_checks} verified by direct enumeration too)")


def test_criterion_07_reconstruction_round_trips():
    checked = 0
    for n in range(1, 11):
        for t in enumerate_trees(n):
            if len(centroid(t)) != 1:
                continue
            code = canonical_tree_code(t)
            tbl = theta_tables(t)
            rebuilt, _ = reconstruct_from_theta(tbl)
            assert canonical_tree_code(rebuilt) == code
            pairs_only = ThetaTable(n=n, edge_labels=tbl.edge_labels,
                                    singletons={}, pairs=dict(tbl.pairs))
            rebuilt2, _ = reconstruct_from_pairs(pairs_only)
            assert canonical_tree_code(rebuilt2) == code
            checked += 1
    tbl = cut_table13(pairs_only=True)
    tree, assignment = reconstruct_from_pairs(tbl)
    assert tree.vertex_count == 13
    assert canonical_tree_code(tree) == canonical_tree_code(CUT_TABLE13_TREE)
    for (a, b), img in tbl.pairs.items():
        assert theta(tree, [assignment[a], assignment[b]]) == img
    report(7, f"round trips on {checked} single-centroid trees plus the "
              "13-vertex worked table, entry for entry")


def test_criterion_08_cut_data_equivalences():
    for n in range(2, 11):
        for t in enumerate_trees(n):
            tbl = theta_tables(t)
            labs = tbl.edge_labels
            for i, k in combinations(range(t.edge_count), 2):
                ta, tb = tbl.singletons[labs[i]], tbl.singletons[labs[k]]
                tab = tbl.pairs[(labs[i], labs[k])]
                assert attracts_from_theta(n, ta, tb, tab) == attracts_by_paths(t, i, k)
                hi, lo = max(ta[1], tb[1]), min(ta[1], tb[1])
                allowed = set()
                if hi == lo:
                    allowed.add(rearrange((n - 2 * hi, hi, hi)))
                else:
                    allowed.add(rearrange((n - hi - lo, hi, lo)))
                    allowed.add(rearrange((n - hi, hi - lo, lo)))
                assert tab in allowed
    for n in range(2, 13):
        for t in enumerate_trees(n):
            singles = [theta(t, [i]) for i in range(t.edge_count)]
            half = [i for i, img in enumerate(singles)
                    if n % 2 == 0 and img == (n // 2, n // 2)]
            assert len(half) <= 1
            if half:
                assert set(t.edges[half[0]]) == set(centroid(t))
            cents = centroid(t)
            if len(cents) != 1:
                continue
            c = cents[0]
            for ea in range(t.edge_count):
                far = _far_side(t, ea, c)
                for eb in range(t.edge_count):
                    if eb != ea and set(t.edges[eb]) <= far:
                        assert singles[ea][1] > singles[eb][1]
    report(8, "attraction criterion, split membership, half-split lemma and "
              "separation ordering hold on all trees in range")


def _far_side(t: Graph, edge_index: int, cent: int) -> set[int]:
    comps = _components(t.with_edges_removed([edge_index]).adjacency, [-1] * t.vertex_count)
    a, b = set(comps[0]), set(comps[1])
    return b if cent in a else a


def test_criterion_09_tree_search_clean_up_to_12():
    start = time.monotonic()
    totals = {}
    for n in range(1, 13):
        rep = run_search(n, "tree")
        assert rep.groups == ()
        totals[n] = rep.graph_count
    elapsed = time.monotonic() - start
    assert totals[12] == 551
    assert elapsed < 60.0
    report(9, f"no tree collisions for n<=12 ({sum(totals.values())} trees, {elapsed:.1f}s)")


def test_criterion_10_counterexample_fixtures():
    left_labels = tuple(sorted(TWO_CENTROID_PAIR14_LEFT, key=lambda s: int(s[1:])))
    lt = Graph(14, tuple(TWO_CENTROID_PAIR14_LEFT[lab] for lab in left_labels))
    rt = Graph(14, tuple(TWO_CENTROID_PAIR14_RIGHT[lab] for lab in left_labels))
    li = {lab: i for i, lab in enumerate(left_labels)}
    for a, b in combinations(left_labels, 2):
        assert theta(lt, [li[a], li[b]]) == theta(rt, [li[a], li[b]])
    assert canonical_tree_code(lt) != canonical_tree_code(rt)

    sing_left = sorted(theta(AMBIGUOUS_SINGLETONS_LEFT7, [i]) for i in range(6))
    sing_right = sorted(theta(AMBIGUOUS_SINGLETONS_RIGHT7, [i]) for i in range(6))
    assert sing_left == sing_right == [(4, 3), (5, 2), (6, 1), (6, 1), (6, 1), (6, 1)]
    assert canonical_tree_code(AMBIGUOUS_SINGLETONS_LEFT7) != \
        canonical_tree_code(AMBIGUOUS_SINGLETONS_RIGHT7)
    report(10, "pair-data and singleton-data counterexample pairs behave as stated")


def test_criterion_11_specialization_oracle():
    rng = random.Random(111)
    graphs = []
    for _ in range(100):
        n = rng.randint(1, 7)
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        graphs.append(Graph(n, tuple(sorted(pool[: rng.randint(0, len(pool))]))))
    for n in range(1, 8):
        graphs.extend(enumerate_trees(n))
    for g in graphs:
        x = chromatic_symmetric_function(g)
        for k in (1, 2, 3):
            assert specialize(x, k) == count_proper_colorings(g, k)
    report(11, f"specialization equals brute-force coloring counts on "
               f"{len(graphs)} graphs, k=1..3")
