"""Differential tests of the collision search and its direct generators.

``enumerate_trees`` (Wright-Richmond-Odlyzko-McKay) and ``enumerate_unicyclic``
(cycles with rooted trees attached) must each produce every class exactly once;
``run_search`` must group graphs exactly as the earlier route did: deduplicated
candidates, bucketed by the printed polynomial (``oracles.text_fingerprint_groups``).
Its hashes (of X_G at a fixed point) only narrow the search; groups rest on the
exact maps, whatever the point, and a class is enumerated a second time only
when some hash repeats.
"""

import tracemalloc

import pytest

from csfkit import ResourceLimitError, canonical_tree_code, enumerate_trees, enumerate_unicyclic
from csfkit import graph as graph_module
from csfkit import search
from csfkit.search import SEARCH_WORK_LIMIT, run_search, search_work

from oracles import line_graph, prufer_classes, text_fingerprint_groups, unicyclic_canonical_key

A000055 = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]  # free trees, n = 1..12


def test_free_tree_generator_jumps_past_off_center_roots(monkeypatch):
    # at n = 14 a plain Beyer-Hedetniemi scan checks 32,973 sequences to keep
    # 3,159, and the jump without its path reset checks 15,682
    checked = []
    center_rooted = graph_module._center_rooted
    monkeypatch.setattr(graph_module, "_center_rooted",
                        lambda levels, m: checked.append(m) or center_rooted(levels, m))
    assert sum(1 for _ in enumerate_trees(14)) == 3159
    assert len(checked) < 1.1 * 3159


def test_free_trees_equal_the_pruefer_classes():
    for n in range(3, 10):
        codes = [canonical_tree_code(t) for t in enumerate_trees(n)]
        assert len(set(codes)) == len(codes)
        assert set(codes) == prufer_classes(n)


def _key_groups(groups, key):
    return {frozenset(key(g) for g in members) for members in groups}


@pytest.mark.parametrize("graph_class, orders, key, total", [
    ("tree", range(1, 11), canonical_tree_code, 0),
    ("unicyclic", range(3, 10), unicyclic_canonical_key, 3),  # one pair at n = 6, two at n = 8
])
def test_search_groups_match_the_text_fingerprint_route(graph_class, orders, key, total):
    found = 0
    for n in orders:
        report = run_search(n, graph_class, 30)
        got = [[line_graph(line) for line in group] for group in report.groups]
        want = _key_groups(text_fingerprint_groups(n, graph_class), key)
        assert _key_groups(got, key) == want
        found += len(want)
    assert found == total


def test_groups_do_not_rest_on_the_hash(monkeypatch):
    expected = {n: run_search(n, "unicyclic", 30).groups for n in (6, 8)}
    monkeypatch.setattr(search, "hash", lambda _: 0, raising=False)  # one bucket for all
    for n, groups in expected.items():
        assert run_search(n, "unicyclic", 30).groups == groups
    assert run_search(9, "tree", 30).groups == ()


def test_groups_do_not_depend_on_the_point(monkeypatch):
    expected = {(n, "unicyclic"): run_search(n, "unicyclic", 30).groups for n in (6, 8, 10)}
    expected[9, "tree"] = ()
    # p_s -> 1 is the chromatic polynomial at 1, zero for every graph with an edge
    monkeypatch.setattr(search, "_point", lambda n: [1] * (n + 1))
    for (n, graph_class), groups in expected.items():
        graphs = enumerate_trees(n) if graph_class == "tree" else enumerate_unicyclic(n)
        assert {search.csf_value(g, [1] * (n + 1)) for g in graphs} == {0}
        assert run_search(n, graph_class, 30).groups == groups


def test_second_enumeration_only_when_a_hash_repeats(monkeypatch):
    calls = []
    for name in ("enumerate_trees", "enumerate_unicyclic"):
        monkeypatch.setattr(search, name, lambda n, real=getattr(search, name), name=name:
                            calls.append(name) or real(n))
    assert run_search(10, "tree", 30).groups == ()
    assert calls == ["enumerate_trees"]
    calls.clear()
    assert len(run_search(8, "unicyclic", 30).groups) == 2
    assert calls == ["enumerate_unicyclic"] * 2


def test_second_enumeration_stops_at_the_last_repeated_hash(monkeypatch):
    point = search._point(8)
    hashes = [hash(search.csf_value(g, point, 30)) for g in enumerate_unicyclic(8)]
    last = max(i for i, h in enumerate(hashes) if hashes.count(h) > 1)
    drawn = []

    def counting(n):
        drawn.append(0)
        for g in enumerate_unicyclic(n):
            drawn[-1] += 1
            yield g

    monkeypatch.setattr(search, "enumerate_unicyclic", counting)
    assert len(run_search(8, "unicyclic", 30).groups) == 2
    assert drawn == [len(hashes), last + 1]
    assert last + 1 < len(hashes)


def test_search_keeps_a_few_bytes_per_graph():
    # a first run fills CPython's per-size tuple free lists (up to 2,000 tuples
    # each), which tracemalloc counts as live; the second run is the steady cost
    run_search(14, "tree", 30)
    tracemalloc.start()
    try:
        report = run_search(14, "tree", 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * report.graph_count


@pytest.mark.parametrize("n, count", [(6, 1), (8, 2), (10, 6), (12, 15)])
def test_unicyclic_collision_group_counts(n, count):
    assert len(run_search(n, "unicyclic", 30).groups) == count


@pytest.mark.parametrize("n, count", [(13, 1301), (14, 3159)])
def test_no_tree_collisions_at_13_and_14(n, count):
    report = run_search(n, "tree", 30)
    assert report.graph_count == count
    assert report.groups == ()


def test_search_work_counts_the_candidates_visited(monkeypatch):
    for n, want in enumerate(A000055, start=1):
        assert search_work(n, "tree") == want
    visited = []
    least_turn = graph_module._least_turn
    monkeypatch.setattr(graph_module, "_least_turn", lambda seq: visited.append(seq) or least_turn(seq))
    for n in range(1, 10):
        visited.clear()
        sum(1 for _ in enumerate_unicyclic(n))
        assert search_work(n, "unicyclic") == len(visited)


def test_work_limit_admits_tree_18_and_unicyclic_14_only():
    assert search_work(18, "tree") == 123867 <= SEARCH_WORK_LIMIT < search_work(19, "tree")
    assert search_work(14, "unicyclic") == 129147 <= SEARCH_WORK_LIMIT < search_work(15, "unicyclic")
    for graph_class, n in (("tree", 19), ("unicyclic", 15), ("tree", 10**9)):
        with pytest.raises(ResourceLimitError, match="limit"):
            run_search(n, graph_class, 10**9)
