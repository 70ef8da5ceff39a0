import pytest

from csfkit import (
    Graph,
    RootedTree,
    build_pair,
    chromatic_symmetric_function,
    csf_equal,
    cycle_stats,
    enumerate_trees,
    glue_rooted_trees,
    structural_report,
    verify_p1,
)
from csfkit import search
from csfkit.graph import rooted_code

from fixtures import COLLISION_LEFT6, COLLISION_RIGHT6
from oracles import (
    all_rooted_trees,
    brute_force_isomorphic,
    line_graph,
    unicyclic_canonical_key,
    unicyclic_csf,
)

SINGLE = RootedTree(Graph(1, ()), 0)
EDGE = RootedTree(Graph(2, ((0, 1),)), 0)


def glue_base(t1: RootedTree, t2: RootedTree) -> tuple[Graph, list[int]]:
    """Rebuild the glue base graph and its corner-swapping bijection."""
    h, _ = glue_rooted_trees(t1, t2)
    base = h.with_edges_removed([h.edge_count - 1])
    n = base.vertex_count
    size1 = t1.tree.vertex_count - 1
    size2 = t2.tree.vertex_count - 1
    phi = list(range(n))
    phi[0], phi[1], phi[2], phi[3] = 1, 0, 3, 2
    for off in range(size1):
        a, b = 4 + off, 4 + size1 + off
        phi[a], phi[b] = b, a
    for off in range(size2):
        a, b = 4 + 2 * size1 + off, 4 + 2 * size1 + size2 + off
        phi[a], phi[b] = b, a
    return base, phi


# ---------------------------------------------------------------------------
# verify_p1


def test_verify_p1_glued_configuration():
    base, phi = glue_base(SINGLE, EDGE)
    assert verify_p1(base, 0, 2, 3, 1, phi)


def test_verify_p1_identity_fails_swap_clause():
    base, _ = glue_base(SINGLE, EDGE)
    check = verify_p1(base, 0, 2, 3, 1, list(range(base.vertex_count)))
    assert not check
    assert check.reason == "corner-swap-failed"


def test_verify_p1_missing_required_edge():
    base, phi = glue_base(SINGLE, EDGE)
    broken = base.with_edges_removed([base.index_of(1, 3)])  # drop wz
    broken = broken.with_edge_added(4, 5)  # keep vertex count stable
    check = verify_p1(broken, 0, 2, 3, 1, phi)
    assert not check
    assert check.reason == "required-edge-missing:wz"


def test_verify_p1_rejects_non_bijection():
    base, _ = glue_base(SINGLE, EDGE)
    with pytest.raises(ValueError):
        verify_p1(base, 0, 2, 3, 1, [0] * base.vertex_count)
    with pytest.raises(ValueError):
        verify_p1(base, 0, 2, 3, 0, list(range(base.vertex_count)))


def test_verify_p1_detects_broken_automorphism():
    base, phi = glue_base(EDGE, EDGE)
    phi = list(phi)
    # swap two vertices from different-size contexts: no longer edge-preserving
    phi[4], phi[0] = phi[0], phi[4]
    check = verify_p1(base, 0, 2, 3, 1, phi)
    assert not check
    assert check.reason in ("not-automorphism", "corner-swap-failed")


# ---------------------------------------------------------------------------
# build_pair


def test_build_pair_smallest_instance():
    # path u-z-w plus pendant v at w: adding uw or vz closes a triangle
    g = Graph(4, ((0, 1), (1, 3), (2, 3)))
    h, j = build_pair(g, 0, 2, 3, 1)
    assert h.edges[-1] == (0, 3)
    assert j.edges[-1] == (1, 2)
    assert brute_force_isomorphic(h, j)


def test_build_pair_rejects_present_closing_edge():
    g = Graph(4, ((0, 1), (1, 3), (2, 3), (0, 3)))
    with pytest.raises(ValueError):
        build_pair(g, 0, 2, 3, 1)


def test_build_pair_skips_automorphism_check():
    # asymmetric decoration: clause (a) holds, no suitable bijection exists
    g = Graph(5, ((0, 1), (1, 3), (2, 3), (0, 4)))
    h, j = build_pair(g, 0, 2, 3, 1)
    assert h.edge_count == j.edge_count == 5


# ---------------------------------------------------------------------------
# glue_rooted_trees


def test_glue_reproduces_collision_pair():
    h, j = glue_rooted_trees(SINGLE, EDGE)
    assert unicyclic_canonical_key(h) == unicyclic_canonical_key(COLLISION_LEFT6)
    assert unicyclic_canonical_key(j) == unicyclic_canonical_key(COLLISION_RIGHT6)
    assert csf_equal(chromatic_symmetric_function(h), chromatic_symmetric_function(j))


def test_glue_identical_trivial_trees():
    h, j = glue_rooted_trees(SINGLE, SINGLE)
    assert brute_force_isomorphic(h, j)
    assert csf_equal(chromatic_symmetric_function(h), chromatic_symmetric_function(j))
    assert structural_report(h).triangle_count == 1


def test_glue_path_and_star():
    path3 = RootedTree(Graph(3, ((0, 1), (1, 2))), 0)
    star4 = RootedTree(Graph(4, ((0, 1), (0, 2), (0, 3))), 0)
    h, j = glue_rooted_trees(path3, star4)
    assert h.vertex_count == j.vertex_count == 14
    assert csf_equal(unicyclic_csf(h), unicyclic_csf(j))


def test_glue_outputs_are_unicyclic_with_matching_relation():
    rooted = [RootedTree(t, r) for k in range(1, 5)
              for t, r in all_rooted_trees(k, enumerate_trees, rooted_code)]
    for t1 in rooted:
        for t2 in rooted:
            h, j = glue_rooted_trees(t1, t2)
            sh, sj = cycle_stats(h), cycle_stats(j)
            assert sh.cycle_length == sj.cycle_length == 3
            lhs = (sh.cycle_length - 1) * sh.leaf_count + sh.degree2_on_cycle
            rhs = (sj.cycle_length - 1) * sj.leaf_count + sj.degree2_on_cycle
            assert lhs == rhs


def test_glue_nonisomorphic_seeds_can_yield_nonisomorphic_outputs():
    h, j = glue_rooted_trees(SINGLE, EDGE)
    assert not brute_force_isomorphic(h, j)


def test_rooted_tree_validation():
    with pytest.raises(Exception):
        RootedTree(Graph(3, ((0, 1), (0, 2), (1, 2))), 0)
    with pytest.raises(ValueError):
        RootedTree(Graph(2, ((0, 1),)), 5)


def test_glued_pairs_up_to_order_12_share_a_search_group():
    # gluing rooted trees of orders a and b gives graphs of order 2(a + b)
    rooted = {a: [RootedTree(t, r) for t, r in all_rooted_trees(a, enumerate_trees, rooted_code)]
              for a in range(1, 6)}
    groups: dict[int, list[set]] = {}
    explained: dict[int, set[int]] = {}  # order -> indices of groups holding a glued pair
    distinct = 0
    for a in range(1, 6):
        for b in range(1, 7 - a):
            n = 2 * (a + b)
            if n not in groups:
                groups[n] = [{unicyclic_canonical_key(line_graph(line)) for line in group}
                             for group in search.run_search(n, "unicyclic").groups]
                explained[n] = set()
            for t1 in rooted[a]:
                for t2 in rooted[b]:
                    h, j = glue_rooted_trees(t1, t2)
                    assert h.vertex_count == n
                    pair = {unicyclic_canonical_key(h), unicyclic_canonical_key(j)}
                    if len(pair) == 2:
                        hits = [i for i, keys in enumerate(groups[n]) if pair <= keys]
                        assert len(hits) == 1, (t1, t2)
                        explained[n].update(hits)
                        distinct += 1
    assert distinct == 46
    # every collision group through n = 10 holds a glued pair, all but one at n = 12
    assert {n: (len(explained[n]), len(groups[n])) for n in groups} == {
        4: (0, 0), 6: (1, 1), 8: (2, 2), 10: (6, 6), 12: (14, 15)}
