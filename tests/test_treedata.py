import ast
import random
import tracemalloc
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

from csfkit import (
    Graph,
    InconsistentDataError,
    NotATreeError,
    ResourceLimitError,
    ThetaTable,
    TwoCentroidError,
    attracts_from_theta,
    canonical_tree_code,
    centroid,
    chromatic_symmetric_function,
    csf_equal,
    enumerate_trees,
    forest_type_counts,
    partition_key,
    path_split,
    pi_type,
    rearrange,
    reconstruct_from_pairs,
    reconstruct_from_theta,
    singletons_from_pairs,
    theta,
    theta_tables,
    triangle_split,
    wedge_split,
)
from csfkit import treedata
from csfkit.errors import CsfkitError

from fixtures import (
    AMBIGUOUS_SINGLETONS_LEFT7,
    AMBIGUOUS_SINGLETONS_RIGHT7,
    ATTRACTION_MARKED_EDGE,
    ATTRACTION_PULL_EDGES,
    ATTRACTION_TREE17,
    CUT_TABLE13_LEAVES,
    CUT_TABLE13_SINGLETONS,
    CUT_TABLE13_TREE,
    NEAR_MISS_LEFT15,
    NEAR_MISS_RIGHT15,
    TWO_CENTROID_PAIR14_LEFT,
    TWO_CENTROID_PAIR14_RIGHT,
    TWO_CENTROID_PAIR14_SPOTS,
    cut_table13,
)
from oracles import attracts_by_paths, prufer_tree, relabelled

P3 = Graph(3, ((0, 1), (1, 2)))
STAR4 = Graph(4, ((0, 1), (0, 2), (0, 3)))
P5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))


def labelled_tree(edge_map: dict[str, tuple[int, int]], n: int):
    labels = tuple(sorted(edge_map, key=lambda s: int(s[1:])))
    tree = Graph(n, tuple(edge_map[lab] for lab in labels))
    index = {lab: i for i, lab in enumerate(labels)}
    return tree, labels, index


def pair_table(tree: Graph, labels, index):
    return {
        (a, b): theta(tree, [index[a], index[b]])
        for a, b in combinations(labels, 2)
    }


# ---------------------------------------------------------------------------
# theta basics


def test_theta_empty_set_is_whole_tree():
    for t in (P3, STAR4, CUT_TABLE13_TREE):
        assert theta(t, []) == (t.vertex_count,)


def test_theta_matches_complement_type():
    rng = random.Random(31)
    for n in range(2, 9):
        for t in enumerate_trees(n):
            subset = [i for i in range(t.edge_count) if rng.random() < 0.4]
            complement = [i for i in range(t.edge_count) if i not in subset]
            assert theta(t, subset) == pi_type(t, complement)


def test_theta_part_count_is_set_size_plus_one():
    for n in range(2, 9):
        for t in enumerate_trees(n):
            for r in range(t.edge_count + 1):
                for subset in combinations(range(t.edge_count), r):
                    assert len(theta(t, subset)) == r + 1


def test_theta_rejects_non_tree():
    with pytest.raises(NotATreeError):
        theta(Graph(3, ((0, 1), (0, 2), (1, 2))), [0])


@pytest.mark.parametrize("func, args, index", [
    pytest.param(theta, ([99],), 99, id="theta-99"),
    pytest.param(theta, ([-1],), -1, id="theta-minus-1"),
    pytest.param(theta, ([0, 4],), 4, id="theta-m"),
    pytest.param(theta, ([1, 1],), 1, id="theta-repeated"),
    pytest.param(theta, ([2, 0, 2],), 2, id="theta-repeated-apart"),
    pytest.param(pi_type, ([-1],), -1, id="pi_type-minus-1"),
    pytest.param(pi_type, ([0, 4],), 4, id="pi_type-m"),
    pytest.param(Graph.with_edges_removed, ([-1],), -1, id="with_edges_removed-minus-1"),
    pytest.param(Graph.with_edges_removed, ([0, 4],), 4, id="with_edges_removed-m"),
    pytest.param(triangle_split, (-1, 0, 1), -1, id="triangle_split-minus-1"),
    pytest.param(triangle_split, (0, 1, 4), 4, id="triangle_split-m"),
    pytest.param(wedge_split, (-1, 0, 1), -1, id="wedge_split-minus-1"),
    pytest.param(wedge_split, (0, 1, 4), 4, id="wedge_split-m"),
    pytest.param(path_split, (-1, 0), -1, id="path_split-minus-1"),
    pytest.param(path_split, (0, 4), 4, id="path_split-m"),
])
def test_bad_edge_indices_raise_value_error(func, args, index):
    with pytest.raises(ValueError, match=f"edge index {index} "):
        func(P5, *args)


def test_theta_tables_p3_and_star():
    tbl = theta_tables(P3)
    assert tbl.singletons == {"0": (2, 1), "1": (2, 1)}
    assert tbl.pairs == {("0", "1"): (1, 1, 1)}
    tbl = theta_tables(STAR4)
    assert set(tbl.singletons.values()) == {(3, 1)}
    assert set(tbl.pairs.values()) == {(2, 1, 1)}


def test_theta_tables_entries_equal_theta_up_to_9():
    rng = random.Random(97)
    for n in range(1, 10):
        for t in enumerate_trees(n):
            t = relabelled(rng, n, t.edges)
            m = t.edge_count
            tbl = theta_tables(t)
            assert tbl.singletons == {str(i): theta(t, [i]) for i in range(m)}
            assert tbl.pairs == {
                (str(i), str(j)): theta(t, [i, j]) for i, j in combinations(range(m), 2)
            }


def test_cut_images_check_the_tree_once_per_table(monkeypatch):
    calls = []
    original = treedata.require_tree

    def counting(g, what="operation"):
        calls.append(what)
        return original(g, what)

    monkeypatch.setattr(treedata, "require_tree", counting)
    tbl = theta_tables(CUT_TABLE13_TREE)
    assert calls == ["theta_tables"]
    pairs_only = replace(tbl, singletons={})
    small = replace(theta_tables(STAR4), singletons={})
    for rebuild, table in ((reconstruct_from_theta, tbl),
                           (reconstruct_from_pairs, pairs_only),
                           (reconstruct_from_pairs, small)):
        calls.clear()
        rebuild(table)
        assert len(calls) == 1


def test_cut_images_cover_every_edge_and_edge_pair():
    for t in (Graph(1, ()), STAR4, P5, CUT_TABLE13_TREE):
        m = t.edge_count
        singles, pairs = treedata._cut_images(t)
        assert singles == [theta(t, [i]) for i in range(m)]
        assert list(pairs) == list(combinations(range(m), 2))
        assert all(img == theta(t, [i, j]) for (i, j), img in pairs.items())


@pytest.mark.parametrize("g", [
    pytest.param(Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))), id="cycle"),
    pytest.param(Graph(5, ((0, 1), (1, 2), (3, 4))), id="forest"),
    pytest.param(Graph(2, ()), id="edgeless"),
])
def test_theta_tables_rejects_non_trees(g):
    with pytest.raises(NotATreeError, match="theta_tables requires a tree"):
        theta_tables(g)


def test_cut_table13_matches_its_tree():
    # the stored table is exactly the pair data of the stored tree under
    # the label assignment produced by reconstruction
    tree, assignment = reconstruct_from_pairs(cut_table13(pairs_only=True))
    assert canonical_tree_code(tree) == canonical_tree_code(CUT_TABLE13_TREE)
    tbl = cut_table13()
    for label, img in tbl.singletons.items():
        assert theta(tree, [assignment[label]]) == img
    assert theta(tree, [assignment["e3"]]) == (7, 6)
    assert theta(tree, [assignment["e9"], assignment["e10"]]) == (7, 3, 3)


# ---------------------------------------------------------------------------
# attraction


def test_attraction_fixture_edges():
    t = ATTRACTION_TREE17
    e = t.index_of(*ATTRACTION_MARKED_EDGE)
    pull = {t.index_of(u, v) for u, v in ATTRACTION_PULL_EDGES}
    for i in range(t.edge_count):
        if i == e:
            continue
        assert attracts_by_paths(t, i, e) == (i in pull)
        assert attracts_by_paths(t, e, i) == (i in pull)  # symmetric


def test_two_centroid_bridge_attracts_everything():
    t = Graph(6, ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5)))
    cents = centroid(t)
    assert len(cents) == 2
    bridge = t.index_of(*cents)
    for i in range(t.edge_count):
        if i != bridge:
            assert attracts_by_paths(t, bridge, i)


def test_star_leaf_edges_repel():
    assert not attracts_by_paths(STAR4, 0, 1)
    assert not attracts_by_paths(STAR4, 1, 2)


def test_attracts_from_theta_worked_values():
    assert attracts_from_theta(13, (7, 6), (10, 3), (7, 3, 3)) is True
    assert attracts_from_theta(13, (7, 6), (10, 3), (6, 4, 3)) is False
    assert attracts_from_theta(13, (7, 6), (7, 6), (6, 6, 1)) is False


def test_attracts_from_theta_swaps_roles():
    assert attracts_from_theta(13, (10, 3), (7, 6), (7, 3, 3)) is True


def test_attracts_from_theta_half_split_always_attracts():
    # both candidate images coincide when one edge splits the tree in half
    assert attracts_from_theta(8, (4, 4), (7, 1), (4, 3, 1)) is True


def test_attracts_from_theta_rejects_unrealizable():
    with pytest.raises(InconsistentDataError):
        attracts_from_theta(13, (7, 6), (10, 3), (11, 1, 1))
    with pytest.raises(InconsistentDataError):
        attracts_from_theta(13, (7, 6), (7, 6), (7, 5, 1))
    with pytest.raises(ValueError):
        attracts_from_theta(13, (7, 6), (10, 3), (7, 6))


def test_attracts_from_theta_refuses_non_partition_images():
    # (2, 3) read as a partition would be (3, 2), which repels here
    with pytest.raises(ValueError, match=r"\(2, 3\) is not a 2-part partition of 5"):
        attracts_from_theta(5, (2, 3), (4, 1), (2, 2, 1))
    with pytest.raises(ValueError, match="3-part partition"):
        attracts_from_theta(5, (3, 2), (4, 1), (1, 2, 2))


def test_attraction_criterion_equals_definition_up_to_10():
    for n in range(2, 11):
        for t in enumerate_trees(n):
            tbl = theta_tables(t)
            labs = tbl.edge_labels
            for i, k in combinations(range(t.edge_count), 2):
                expected = attracts_by_paths(t, i, k)
                got = attracts_from_theta(
                    n, tbl.singletons[labs[i]], tbl.singletons[labs[k]],
                    tbl.pairs[(labs[i], labs[k])],
                )
                assert got == expected


def test_pair_image_membership_up_to_10():
    # every pair image is one of the two splits allowed by the singletons
    for n in range(2, 11):
        for t in enumerate_trees(n):
            tbl = theta_tables(t)
            labs = tbl.edge_labels
            for a, b in combinations(labs, 2):
                (ni, i), (nk, k) = tbl.singletons[a], tbl.singletons[b]
                if i < k:
                    i, k = k, i
                allowed = {rearrange((n - i - k, i, k))} if i + k < n else set()
                if i != k:
                    allowed.add(rearrange((n - i, i - k, k)))
                elif n - 2 * i >= 1:
                    allowed = {rearrange((n - 2 * i, i, i))}
                assert tbl.pairs[(a, b)] in allowed


def test_equal_singleton_images_repel():
    for n in range(2, 10):
        for t in enumerate_trees(n):
            tbl = theta_tables(t)
            labs = tbl.edge_labels
            for i, k in combinations(range(t.edge_count), 2):
                if tbl.singletons[labs[i]] == tbl.singletons[labs[k]]:
                    assert not attracts_by_paths(t, i, k)


def test_separating_edge_has_greater_image():
    # single-centroid trees: an edge that cuts another off from the centroid
    # has the more balanced singleton image
    for n in range(3, 13):
        for t in enumerate_trees(n):
            cents = centroid(t)
            if len(cents) != 1:
                continue
            c = cents[0]
            for ea in range(t.edge_count):
                left, right = _sides(t, ea)
                far = left if c in right else right
                for eb in range(t.edge_count):
                    if eb == ea:
                        continue
                    u, v = t.edges[eb]
                    if u in far and v in far:
                        assert theta(t, [ea])[1] > theta(t, [eb])[1]


def _sides(t: Graph, edge_index: int):
    removed = t.with_edges_removed([edge_index])
    from csfkit.graph import _components

    comps = _components(removed.adjacency, [-1] * removed.vertex_count)
    assert len(comps) == 2
    return set(comps[0]), set(comps[1])


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_worked_instance_from_theta():
    tree, assignment = reconstruct_from_theta(cut_table13())
    assert tree.vertex_count == 13
    assert canonical_tree_code(tree) == canonical_tree_code(CUT_TABLE13_TREE)
    recomputed = theta_tables(tree)
    relabel = {lab: str(assignment[lab]) for lab in cut_table13().edge_labels}
    for (a, b), img in cut_table13().pairs.items():
        assert recomputed.pairs[recomputed.pair_key(relabel[a], relabel[b])] == img


def test_reconstruct_star_from_theta():
    tbl = theta_tables(Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4))))
    tree, _ = reconstruct_from_theta(tbl)
    assert canonical_tree_code(tree) == canonical_tree_code(
        Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    )


def test_reconstruct_rejects_half_split_singleton():
    t = Graph(4, ((0, 1), (1, 2), (2, 3)))  # path: middle edge splits 2|2
    tbl = theta_tables(t)
    with pytest.raises(TwoCentroidError):
        reconstruct_from_theta(tbl)


def test_reconstruct_rejects_tampered_tables():
    t = Graph(7, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (1, 6)))
    assert centroid(t) == (0,)
    tbl = theta_tables(t)
    n = tbl.n
    # edges 0 (cut 5|2) and 2 (cut 4|3) lie on different branches at the
    # centroid, so they repel; give their pair the image of attracting edges
    (_, k), (_, i) = tbl.singletons["0"], tbl.singletons["2"]
    assert tbl.pairs[("0", "2")] == rearrange((n - i - k, i, k))
    pairs = dict(tbl.pairs)
    pairs[("0", "2")] = rearrange((n - i, i - k, k))
    bad = ThetaTable(n=n, edge_labels=tbl.edge_labels,
                     singletons=dict(tbl.singletons), pairs=pairs)
    with pytest.raises(InconsistentDataError) as raised:
        reconstruct_from_theta(bad)
    assert not isinstance(raised.value, TwoCentroidError)


def test_reconstruct_checks_every_pair_entry():
    # edge 3 now claims to attract edges 0 and 2, which repel each other; the
    # rebuilt tree is the original, right on every singleton, wrong on one pair
    tbl = theta_tables(Graph(5, ((0, 1), (1, 2), (0, 3), (3, 4))))
    pairs = dict(tbl.pairs)
    pairs[("0", "3")] = (3, 1, 1)
    bad = ThetaTable(n=5, edge_labels=tbl.edge_labels,
                     singletons=dict(tbl.singletons), pairs=pairs)
    with pytest.raises(InconsistentDataError,
                       match=r"pair \(0, 3\) rebuilt with cut \(2, 2, 1\), table says \(3, 1, 1\)"):
        reconstruct_from_theta(bad)


def test_reconstruct_from_pairs_ignores_singletons():
    for t in (STAR4, CUT_TABLE13_TREE):
        tbl = theta_tables(t)
        wrong = dict(tbl.singletons)
        wrong["0"] = rearrange((t.vertex_count - 2, 2))
        tree, _ = reconstruct_from_pairs(ThetaTable(n=tbl.n, edge_labels=tbl.edge_labels,
                                                    singletons=wrong, pairs=dict(tbl.pairs)))
        assert canonical_tree_code(tree) == canonical_tree_code(t)


def test_roundtrip_all_single_centroid_trees_up_to_10():
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


def test_roundtrip_independent_of_tiebreak_order():
    # relabelling reverses every tie-break decision; outcome is unchanged
    for n in range(3, 10):
        for t in enumerate_trees(n):
            if len(centroid(t)) != 1:
                continue
            tbl = theta_tables(t)
            m = t.edge_count
            flip = {lab: str(m - 1 - int(lab)) for lab in tbl.edge_labels}
            flipped = ThetaTable(
                n=n,
                edge_labels=tuple(flip[lab] for lab in tbl.edge_labels),
                singletons={flip[lab]: img for lab, img in tbl.singletons.items()},
                pairs={(flip[a], flip[b]): img for (a, b), img in tbl.pairs.items()},
            )
            a, _ = reconstruct_from_theta(tbl)
            b, _ = reconstruct_from_theta(flipped)
            assert canonical_tree_code(a) == canonical_tree_code(b)


def leaf_edges(tbl: ThetaTable) -> set[str]:
    """Labels whose recovered singleton image cuts off one vertex."""
    n = tbl.n
    return {lab for lab, img in singletons_from_pairs(tbl).items() if img == (n - 1, 1)}


def test_leaf_edges_from_worked_table():
    assert leaf_edges(cut_table13(pairs_only=True)) == CUT_TABLE13_LEAVES


def test_leaf_edges_path_and_star():
    path6 = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
    assert leaf_edges(replace(theta_tables(path6), singletons={})) == {"0", "4"}
    star6 = Graph(6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5)))
    assert leaf_edges(replace(theta_tables(star6), singletons={})) == {"0", "1", "2", "3", "4"}


def test_singletons_from_worked_table():
    derived = singletons_from_pairs(cut_table13(pairs_only=True))
    assert derived == CUT_TABLE13_SINGLETONS
    assert derived["e10"] == (10, 3)
    assert derived["e3"] == (7, 6)
    assert all(derived[leaf] == (12, 1) for leaf in CUT_TABLE13_LEAVES)


def test_reconstruct_from_pairs_worked_instance():
    tree, assignment = reconstruct_from_pairs(cut_table13(pairs_only=True))
    assert tree.vertex_count == 13
    assert canonical_tree_code(tree) == canonical_tree_code(CUT_TABLE13_TREE)
    for (a, b), img in cut_table13().pairs.items():
        assert theta(tree, [assignment[a], assignment[b]]) == img


def test_reconstruct_from_pairs_small_orders_are_stars():
    # a single-centroid tree on at most four vertices is a star; P4's pair
    # images equal the star's, so its pairs rebuild the star too
    p4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    for t, star in ((Graph(1, ()), Graph(1, ())), (P3, P3), (STAR4, STAR4), (p4, STAR4)):
        pairs_only = replace(theta_tables(t), singletons={})
        assert singletons_from_pairs(pairs_only) == {
            lab: (t.vertex_count - 1, 1) for lab in pairs_only.edge_labels}
        tree, assignment = reconstruct_from_pairs(pairs_only)
        assert canonical_tree_code(tree) == canonical_tree_code(star)
        assert sorted(assignment.values()) == list(range(t.edge_count))


def test_reconstruct_from_pairs_two_vertices_impossible():
    tbl = ThetaTable(n=2, edge_labels=("a",), singletons={}, pairs={})
    with pytest.raises(TwoCentroidError, match="edge a splits the tree in half"):
        reconstruct_from_pairs(tbl)


@pytest.mark.parametrize("n", range(1, 10))
def test_both_routes_run_one_reconstruction(n):
    # pairs-only data runs the full route on its recovered singleton images,
    # so both routes agree on the tree and the label assignment
    rng = random.Random(1500 + n)
    for t in enumerate_trees(n):
        g = relabelled(rng, n, t.edges)
        tbl = theta_tables(g)
        pairs_only = replace(tbl, singletons={})
        if len(centroid(g)) == 2:
            with pytest.raises(TwoCentroidError):
                reconstruct_from_theta(tbl)
            if n != 4:  # P4's pair images are the star's (above)
                with pytest.raises(TwoCentroidError):
                    reconstruct_from_pairs(pairs_only)
            continue
        tree, assignment = reconstruct_from_theta(tbl)
        assert reconstruct_from_pairs(pairs_only) == (tree, assignment)
        assert canonical_tree_code(tree) == canonical_tree_code(g)


def test_rebuild_checks_each_singleton_image_once(monkeypatch):
    # the table checked its images; each rebuild checks each singleton image
    # once more, and no pair runs the public, checking attraction test
    checked = []
    monkeypatch.setattr(treedata, "_check_image", lambda img, parts, n: checked.append((img, parts)))
    monkeypatch.setattr(treedata, "attracts_from_theta", None)
    tbl = theta_tables(CUT_TABLE13_TREE)
    for rebuild in (reconstruct_from_theta, reconstruct_from_pairs):
        checked.clear()
        tree, _ = rebuild(tbl)
        assert canonical_tree_code(tree) == canonical_tree_code(CUT_TABLE13_TREE)
        assert sorted(checked) == sorted((img, 2) for img in tbl.singletons.values())


def test_reconstruct_from_pairs_builds_no_second_table(monkeypatch):
    tables = [replace(theta_tables(t), singletons={}) for t in (STAR4, CUT_TABLE13_TREE)]
    built = []
    original = ThetaTable.__post_init__

    def counting(self):
        built.append(self.n)
        original(self)

    monkeypatch.setattr(ThetaTable, "__post_init__", counting)
    for tbl in tables:
        reconstruct_from_pairs(tbl)
    assert built == []


def test_reconstruct_checks_every_singleton_entry():
    # edge 0 claims a 3|2 cut in a star; every pair image still matches the
    # rebuilt tree, which hangs the other leaves below edge 0
    tbl = theta_tables(Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4))))
    bad = replace(tbl, singletons={**tbl.singletons, "0": (3, 2)})
    with pytest.raises(InconsistentDataError,
                       match=r"edge 0 rebuilt with cut \(4, 1\), table says \(3, 2\)"):
        reconstruct_from_theta(bad)


# ---------------------------------------------------------------------------
# the counterexample pairs


def test_ambiguous_singleton_trees():
    left, right = AMBIGUOUS_SINGLETONS_LEFT7, AMBIGUOUS_SINGLETONS_RIGHT7
    multiset = sorted(theta(left, [i]) for i in range(6))
    assert multiset == sorted(theta(right, [i]) for i in range(6))
    assert multiset == [(4, 3), (5, 2), (6, 1), (6, 1), (6, 1), (6, 1)]
    assert canonical_tree_code(left) != canonical_tree_code(right)


def test_two_centroid_pair_tables_identical():
    lt, ll, li = labelled_tree(TWO_CENTROID_PAIR14_LEFT, 14)
    rt, rl, ri = labelled_tree(TWO_CENTROID_PAIR14_RIGHT, 14)
    left_pairs = pair_table(lt, ll, li)
    right_pairs = pair_table(rt, rl, ri)
    assert left_pairs == right_pairs
    for key, img in TWO_CENTROID_PAIR14_SPOTS.items():
        assert left_pairs[key] == img
    assert canonical_tree_code(lt) != canonical_tree_code(rt)
    assert len(centroid(lt)) == len(centroid(rt)) == 2


def test_two_centroid_pair_reconstruction_refused():
    lt, ll, li = labelled_tree(TWO_CENTROID_PAIR14_LEFT, 14)
    tbl = ThetaTable(n=14, edge_labels=ll, singletons={},
                     pairs=pair_table(lt, ll, li))
    with pytest.raises(TwoCentroidError):
        reconstruct_from_pairs(tbl)


def test_near_miss_pair_images_agree_but_csf_differs():
    left, right = NEAR_MISS_LEFT15, NEAR_MISS_RIGHT15
    assert len(centroid(left)) == len(centroid(right)) == 1
    left_multiset = sorted(
        theta(left, [i, j]) for i, j in combinations(range(14), 2)
    )
    right_multiset = sorted(
        theta(right, [i, j]) for i, j in combinations(range(14), 2)
    )
    assert left_multiset == right_multiset
    xl = chromatic_symmetric_function(left)
    xr = chromatic_symmetric_function(right)
    assert xl.coefficient((8, 5, 1, 1)) == -9
    assert xr.coefficient((8, 5, 1, 1)) == -8
    assert not csf_equal(xl, xr)


# ---------------------------------------------------------------------------
# forest type counts


def test_forest_type_counts_paths():
    assert forest_type_counts(P3) == {(1, 1, 1): 1, (2, 1): 2, (3,): 1}
    p4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    assert forest_type_counts(p4) == {
        (1, 1, 1, 1): 1, (2, 1, 1): 3, (3, 1): 2, (2, 2): 1, (4,): 1,
    }


def test_forest_type_counts_rejects_cycles():
    with pytest.raises(ValueError):
        forest_type_counts(Graph(3, ((0, 1), (0, 2), (1, 2))))


def test_forest_type_counts_obeys_the_edge_cap():
    # P32 runs, and the tree DP's own bound refuses P70
    assert len(forest_type_counts(Graph(32, tuple((v, v + 1) for v in range(31))))) == 8349
    with pytest.raises(ResourceLimitError, match="tree DP on a component of 70 vertices"):
        forest_type_counts(Graph(70, tuple((v, v + 1) for v in range(69))))


def test_cut_tables_are_refused_by_their_size_up_front():
    limit = treedata.CUT_WORK_LIMIT
    assert 300 * 299 // 2 * 301 <= limit  # a 301-vertex tree runs
    for n, refused in ((323, False), (324, True)):
        assert ((n - 1) * (n - 2) // 2 * n > limit) is refused
    p324 = Graph(324, tuple((v, v + 1) for v in range(323)))
    with pytest.raises(ResourceLimitError, match="C\\(323, 2\\) \\* 324 steps"):
        theta_tables(p324)
    with pytest.raises(ResourceLimitError, match="C\\(323, 2\\) \\* 324 steps"):
        ThetaTable.from_text("theta n=324 m=323\nnot a pair line\n")
    # a table within the limit is parsed as before
    with pytest.raises(ValueError, match="malformed theta line"):
        ThetaTable.from_text("theta n=323 m=322\nnot a pair line\n")


def test_equal_type_counts_iff_equal_csf_up_to_9():
    for n in range(2, 10):
        reps = list(enumerate_trees(n))
        polys = [chromatic_symmetric_function(t) for t in reps]
        counts = [forest_type_counts(t) for t in reps]
        for i, j in combinations(range(len(reps)), 2):
            assert csf_equal(polys[i], polys[j]) == (counts[i] == counts[j])
        for i in range(len(reps)):
            assert csf_equal(polys[i], polys[i]) and counts[i] == counts[i]


def test_type_counts_determine_forest_coefficients():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 9)
        edges = []
        for v in range(1, n):
            if rng.random() < 0.7:
                edges.append((rng.randrange(v), v))
        f = Graph(n, tuple(edges))
        x = chromatic_symmetric_function(f)
        for key, count in forest_type_counts(f).items():
            assert x.coefficient(key) == (-1) ** (n - len(key)) * count


# ---------------------------------------------------------------------------
# table serialization


def test_theta_table_text_roundtrip():
    tbl = theta_tables(CUT_TABLE13_TREE)
    parsed = ThetaTable.from_text(tbl.to_text())
    assert parsed == tbl
    pairs_only = ThetaTable.from_text(replace(tbl, singletons={}).to_text())
    assert pairs_only.singletons == {}
    assert pairs_only.pairs == tbl.pairs


def test_theta_table_text_errors():
    with pytest.raises(ValueError):
        ThetaTable.from_text("nope")
    with pytest.raises(ValueError):
        ThetaTable.from_text("theta n=3 m=2\na 2,1\nb 2,1\na b 1,1,1\na b 1,1,1")


def test_theta_table_validation():
    with pytest.raises(ValueError):
        ThetaTable(n=3, edge_labels=("a", "b"), singletons={"a": (2, 1)}, pairs={("a", "b"): (1, 1, 1)})
    with pytest.raises(ValueError):
        ThetaTable(n=3, edge_labels=("a", "b"), singletons={}, pairs={})
    with pytest.raises(ValueError):
        ThetaTable(n=4, edge_labels=("a", "b"), singletons={}, pairs={("a", "b"): (2, 1)})
    img = (2, 1, 1)
    for pairs in (
        {("b", "a"): img, ("a", "c"): img, ("b", "c"): img},  # a key in reverse order
        {("a", "b"): img, ("a", "c"): img, ("b", "x"): img},  # a key naming an unknown label
        {("a", "b"): img, ("a", "c"): img, ("b", "b"): img},  # right count, (b, c) missing
        {("a", "b"): img, ("a", "c"): img, "bc": img},  # a key that is not a pair
    ):
        with pytest.raises(ValueError, match="every unordered label pair"):
            ThetaTable(n=4, edge_labels=("a", "b", "c"), singletons={}, pairs=pairs)


def test_theta_table_needs_n_minus_one_edges():
    # a tree on 4 vertices has 3 edges; a table with 2 is refused when built
    with pytest.raises(InconsistentDataError, match="2 edges cannot make a tree on 4 vertices"):
        ThetaTable(n=4, edge_labels=("a", "b"), singletons={}, pairs={("a", "b"): (2, 1, 1)})
    with pytest.raises(InconsistentDataError, match="2 edges cannot make a tree on 4 vertices"):
        ThetaTable.from_text("theta n=4 m=2\na 3,1\nb 2,2\na b 2,1,1\n")
    with pytest.raises(InconsistentDataError, match="0 edges cannot make a tree on 0 vertices"):
        ThetaTable.from_text("theta n=0 m=0\n")


@pytest.mark.parametrize("singletons, pairs", [
    pytest.param({}, {("a", "b"): (2, 1, 1), ("a", "c"): (2, 1, 1), ("b", "c"): (1, 2, 1)},
                 id="pair-increasing"),
    pytest.param({}, {("a", "b"): (2, 1, 1), ("a", "c"): (2, 1, 1), ("b", "c"): (2, 2, 0)},
                 id="pair-zero-part"),
    pytest.param({"a": (1, 3), "b": (3, 1), "c": (3, 1)}, dict.fromkeys(
        (("a", "b"), ("a", "c"), ("b", "c")), (2, 1, 1)), id="singleton-increasing"),
    pytest.param({"a": (4, 0), "b": (3, 1), "c": (3, 1)}, dict.fromkeys(
        (("a", "b"), ("a", "c"), ("b", "c")), (2, 1, 1)), id="singleton-zero-part"),
])
def test_theta_table_images_must_be_partitions(singletons, pairs):
    # a table built directly refuses the images its text form refuses
    text = "\n".join(["theta n=4 m=3",
                      *(f"{lab} {partition_key(img)}" for lab, img in singletons.items()),
                      *(f"{a} {b} {partition_key(img)}" for (a, b), img in pairs.items())])
    with pytest.raises(ValueError, match="not weakly decreasing positive"):
        ThetaTable.from_text(text)
    with pytest.raises(ValueError, match="-part partition of 4"):
        ThetaTable(n=4, edge_labels=("a", "b", "c"), singletons=singletons, pairs=pairs)


def test_theta_table_validation_memory_stays_linear():
    # the 301-vertex star: 300 leaf edges, 44,850 pair images
    n = 301
    labels = tuple(str(i) for i in range(n - 1))
    singletons = dict.fromkeys(labels, (n - 1, 1))
    pairs = dict.fromkeys(combinations(labels, 2), (n - 2, 1, 1))
    tracemalloc.start()
    try:
        ThetaTable(n=n, edge_labels=labels, singletons=singletons, pairs=pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Corrupted tables: a typed error or a tree that realizes the data


def random_image(rng, n: int, parts: int):
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return rearrange(b - a for a, b in zip([0, *cuts], [*cuts, n]))


def corrupt(rng, text: str, n: int) -> str:
    """One seeded damage to a table's text: flip one image, drop or duplicate a
    line, relabel one label of a line, or swap the images of two lines."""
    head, *body = text.splitlines()
    k = rng.randrange(len(body))
    toks = body[k].split()
    kind = rng.choice(("flip", "drop", "duplicate", "relabel", "swap"))
    if kind == "flip":
        toks[-1] = partition_key(random_image(rng, n, len(toks) - 1))
        body[k] = " ".join(toks)
    elif kind == "drop":
        del body[k]
    elif kind == "duplicate":
        body.insert(rng.randrange(len(body) + 1), body[k])
    elif kind == "relabel":
        labels = sorted({tok for ln in body for tok in ln.split()[:-1]})
        toks[rng.randrange(len(toks) - 1)] = rng.choice([*labels, "x"])
        body[k] = " ".join(toks)
    else:
        j = rng.randrange(len(body))
        other = body[j].split()
        toks[-1], other[-1] = other[-1], toks[-1]
        body[k], body[j] = " ".join(toks), " ".join(other)
    return "\n".join([head, *body]) + "\n"


def realizes(tree: Graph, label_to_index: dict, tbl: ThetaTable) -> bool:
    got = theta_tables(tree)
    index = {lab: str(i) for lab, i in label_to_index.items()}
    return (all(got.singletons[index[lab]] == img for lab, img in tbl.singletons.items())
            and all(got.pair(index[a], index[b]) == img for (a, b), img in tbl.pairs.items()))


def test_corrupted_tables_fail_typed_or_rebuild_a_realizing_tree():
    rng = random.Random(71)
    outcomes = {"refused": 0, "rebuilt": 0}
    for n in range(5, 14):
        for _ in range(6):
            t = prufer_tree(n, tuple(rng.randrange(n) for _ in range(n - 2)))
            tables = theta_tables(t)
            routes = ((tables.to_text(), reconstruct_from_theta),
                      (replace(tables, singletons={}).to_text(), reconstruct_from_pairs))
            for text, rebuild in routes:
                for _ in range(15):
                    try:
                        tbl = ThetaTable.from_text(corrupt(rng, text, n))
                        tree, label_to_index = rebuild(tbl)
                    except (ValueError, CsfkitError):
                        outcomes["refused"] += 1
                        continue
                    assert realizes(tree, label_to_index, tbl)
                    outcomes["rebuilt"] += 1
    assert sum(outcomes.values()) == 9 * 6 * 2 * 15
    assert min(outcomes.values()) > 50


# ---------------------------------------------------------------------------
# Layering


def csfkit_imports(path: Path) -> set[str]:
    """The csfkit modules a source file imports, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "csfkit" if node.level == 1 else ""
            module = ".".join(filter(None, (package, node.module)))
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("csfkit.")}
    return found


def test_cut_data_layer_does_not_reach_the_csf_kernel():
    # the classification from cut data never computes X_T: treedata imports
    # neither csf nor any module that does
    imports = {path.stem: csfkit_imports(path)
               for path in Path(treedata.__file__).parent.glob("*.py")}
    assert imports["treedata"] == {"errors", "graph", "partitions"}
    reached, todo = set(), ["treedata"]
    while todo:
        for module in imports[todo.pop()] - reached:
            reached.add(module)
            todo.append(module)
    assert "csf" not in reached
