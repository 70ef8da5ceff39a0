"""Differential tests of the collision search and its direct generators.

``enumerate_trees`` (Wright-Richmond-Odlyzko-McKay) and ``enumerate_unicyclic``
(cycles with rooted trees attached) must each produce every class exactly once;
``run_search`` must group graphs exactly as the earlier route did: deduplicated
candidates, bucketed by the printed polynomial (``oracles.text_fingerprint_groups``).
Its hashes (of X_G at a fixed point, computed on the generators' sequences
with no graph built, equal to ``csf_value``) only narrow the search; groups
rest on the exact maps, whatever the point, and the sequences are walked a
second time, building only the graphs whose hash repeats, only when some hash
repeats.
"""

import hashlib
import random
import tracemalloc
from math import prod

import pytest

from csfkit import Graph, ResourceLimitError, canonical_tree_code, enumerate_trees, enumerate_unicyclic
from csfkit import graph as graph_module
from csfkit import search
from csfkit.csf import csf_value
from csfkit.search import SEARCH_WORK_LIMIT, run_search, search_work

from oracles import (forest_csf, line_graph, prufer_classes, subset_csf, text_fingerprint_groups,
                     unicyclic_canonical_key, unicyclic_candidates_by_walk, unicyclic_csf)

A000055 = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]  # free trees, n = 1..12
A000081 = [0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973]  # rooted trees, n = 0..14


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


# SHA-256 of csf_value at search._point(n), one decimal value per line, on
# every tree of 1 to 12 vertices (987) and every unicyclic class of 3 to 10
# (1,040), in generator order, as the dictionary-keyed tree DP that computed
# csf_value before the value kernel gave them
EARLIER_VALUE_DIGESTS = {
    "tree": "228a7129caf95b41dfba6fce98965b27554c24a615b26fd9534ce85b171b99ca",
    "unicyclic": "b6eee883de807f314cc95366b8e21cb94af3836dadaafc1cc0769cbf47bfe5d1",
}


def first_pass(n: int, graph_class: str, weight: list[int]) -> list[int]:
    """``search._values`` on the hanging-tree table that ``run_search`` builds."""
    trees = graph_module._hanging_trees(n) if graph_class == "unicyclic" else None
    return list(search._values(n, trees, weight))


def at(x, weights: list[int]) -> int:
    """A power-sum expansion with each p_s replaced by weights[s]."""
    return sum(c * prod(weights[s] for s in p) for p, c in x.terms.items())


@pytest.mark.parametrize("graph_class, orders, generate, oracle, by_subsets", [
    ("tree", range(1, 13), enumerate_trees, forest_csf, range(10, 12)),
    ("unicyclic", range(3, 11), enumerate_unicyclic, unicyclic_csf, range(9, 10)),
])
def test_first_pass_values_equal_csf_value_and_the_oracles(graph_class, orders, generate, oracle, by_subsets):
    # the definition (2^m edge subsets) is run where the existing kernel tests
    # stop; the component-tracking DP covers every order
    digest = hashlib.sha256()
    for n in orders:
        point, seeded = search._point(n), [random.Random(n).randrange(-1 << 61, 1 << 61) for _ in range(n + 1)]
        graphs = list(generate(n))
        values = first_pass(n, graph_class, point[1:])
        assert values == [csf_value(g, point) for g in graphs]
        digest.update("".join(f"{v}\n" for v in values).encode())
        want = [at(oracle(g), seeded) for g in graphs]
        assert first_pass(n, graph_class, seeded[1:]) == want
        assert [csf_value(g, seeded) for g in graphs] == want
        if n in by_subsets:
            assert [at(subset_csf(g), seeded) for g in graphs] == want
    assert digest.hexdigest() == EARLIER_VALUE_DIGESTS[graph_class]


def _key_groups(groups, key):
    return {frozenset(key(g) for g in members) for members in groups}


@pytest.mark.parametrize("graph_class, orders, key, total", [
    ("tree", range(1, 11), canonical_tree_code, 0),
    ("unicyclic", range(3, 10), unicyclic_canonical_key, 3),  # one pair at n = 6, two at n = 8
])
def test_search_groups_match_the_text_fingerprint_route(graph_class, orders, key, total):
    found = 0
    for n in orders:
        report = run_search(n, graph_class)
        got = [[line_graph(line) for line in group] for group in report.groups]
        want = _key_groups(text_fingerprint_groups(n, graph_class), key)
        assert _key_groups(got, key) == want
        found += len(want)
    assert found == total


def test_groups_do_not_rest_on_the_hash(monkeypatch):
    expected = {n: run_search(n, "unicyclic").groups for n in (6, 8)}
    monkeypatch.setattr(search, "hash", lambda _: 0, raising=False)  # one bucket for all
    for n, groups in expected.items():
        assert run_search(n, "unicyclic").groups == groups
    assert run_search(9, "tree").groups == ()


def test_groups_do_not_depend_on_the_point(monkeypatch):
    expected = {(n, "unicyclic"): run_search(n, "unicyclic").groups for n in (6, 8, 10)}
    expected[9, "tree"] = ()
    # p_s -> 1 is the chromatic polynomial at 1, zero for every graph with an edge
    monkeypatch.setattr(search, "_point", lambda n: [1] * (n + 1))
    for (n, graph_class), groups in expected.items():
        assert set(first_pass(n, graph_class, [1] * n)) == {0}
        assert run_search(n, graph_class).groups == groups


def counting_walks(monkeypatch) -> list[list]:
    """Patch both sequence walks of ``search`` to record, per walk, the
    sequences drawn from it."""
    drawn = []
    for name in ("_free_level_sequences", "_unicyclic_sequences"):
        def walk(*args, real=getattr(search, name), **kwargs):
            drawn.append([])
            for seq in real(*args, **kwargs):
                drawn[-1].append(seq)
                yield seq
        monkeypatch.setattr(search, name, walk)
    return drawn


def counting_graphs(monkeypatch) -> list[Graph]:
    """Patch ``Graph.__post_init__`` to record every graph built."""
    built, check = [], Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda g: built.append(g) or check(g))
    return built


def test_second_enumeration_only_when_a_hash_repeats(monkeypatch):
    drawn, built = counting_walks(monkeypatch), counting_graphs(monkeypatch)
    assert run_search(10, "tree").groups == ()
    assert (len(drawn), built) == (1, [])
    drawn.clear()
    assert len(run_search(8, "unicyclic").groups) == 2
    assert len(drawn) == 2


def test_second_enumeration_stops_at_the_last_repeated_hash(monkeypatch):
    # the first pass builds no graph; the second walks the sequences up to
    # the last repeated hash and builds exactly the graphs whose hash repeats
    point = search._point(8)
    hashes = [hash(csf_value(g, point)) for g in enumerate_unicyclic(8)]
    repeated = [g for g, h in zip(enumerate_unicyclic(8), hashes) if hashes.count(h) > 1]
    last = max(i for i, h in enumerate(hashes) if hashes.count(h) > 1)
    drawn, built = counting_walks(monkeypatch), counting_graphs(monkeypatch)
    assert len(run_search(8, "unicyclic").groups) == 2
    assert [len(walk) for walk in drawn] == [len(hashes), last + 1]
    assert built == repeated
    assert last + 1 < len(hashes) and len(repeated) < last + 1


def test_search_keeps_a_few_bytes_per_graph():
    # a first run fills CPython's per-size tuple free lists (up to 2,000 tuples
    # each), which tracemalloc counts as live; the second run is the steady cost
    run_search(14, "tree")
    tracemalloc.start()
    try:
        report = run_search(14, "tree")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * report.graph_count


@pytest.mark.parametrize("n, count", [(6, 1), (8, 2), (10, 6), (12, 15)])
def test_unicyclic_collision_group_counts(n, count):
    assert len(run_search(n, "unicyclic").groups) == count


@pytest.mark.parametrize("n, count", [(13, 1301), (14, 3159)])
def test_no_tree_collisions_at_13_and_14(n, count):
    report = run_search(n, "tree")
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


def test_search_work_equals_the_walk_over_every_split():
    for n in range(1, 17):
        assert search_work(n, "unicyclic") == unicyclic_candidates_by_walk(n, A000081, SEARCH_WORK_LIMIT), n


def test_work_limit_admits_tree_18_and_unicyclic_14_only():
    assert search_work(18, "tree") == 123867 <= SEARCH_WORK_LIMIT < search_work(19, "tree")
    assert search_work(14, "unicyclic") == 129147 <= SEARCH_WORK_LIMIT < search_work(15, "unicyclic")
    for graph_class, n in (("tree", 19), ("unicyclic", 15), ("tree", 10**9)):
        with pytest.raises(ResourceLimitError, match="limit"):
            run_search(n, graph_class)
