import argparse
import decimal
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from csfkit import (
    Graph,
    ThetaTable,
    canonical_tree_code,
    chromatic_symmetric_function,
    count_proper_colorings,
    csf_equal,
    enumerate_unicyclic,
    first_difference,
    parse_graph,
    partition_key,
    theta,
)
import csfkit
from csfkit import rewrite
from csfkit.cli import main
from csfkit.graph import _components
from csfkit.search import run_search

from fixtures import (
    CHROMATIC_TREE7,
    COLLISION_LEFT6,
    COLLISION_RIGHT6,
    CUT_TABLE13_TREE,
    NEAR_MISS_LEFT15,
    NEAR_MISS_RIGHT15,
    TWO_CENTROID_PAIR14_LEFT,
    cut_table13,
)
from oracles import forest_csf, unicyclic_canonical_key


def write_graph(tmp_path, name, g: Graph) -> str:
    path = tmp_path / name
    path.write_text(g.to_text(), encoding="ascii")
    return str(path)


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((v, v + 1) for v in range(n - 1)))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# csf


def test_csf_chromatic_value(tmp_path, capsys):
    path = write_graph(tmp_path, "t7.graph", CHROMATIC_TREE7)
    code, out, _ = run(capsys, ["csf", path, "--chromatic", "3"])
    assert code == 0
    assert out == "192\n"


@pytest.mark.parametrize("g", [
    Graph(0, ()), Graph(1, ()), Graph(3, ((0, 1), (0, 2), (1, 2))), COLLISION_LEFT6,
    Graph(7, ((0, 1), (0, 2), (1, 2), (2, 3), (4, 5))),  # disconnected, isolated vertex
    Graph(6, tuple(combinations(range(5), 2))),  # K5 plus an isolated vertex
], ids=["empty", "K1", "K3", "unicyclic6", "mixed7", "K5+K1"])
def test_csf_chromatic_equals_brute_force_colorings(tmp_path, capsys, g):
    path = write_graph(tmp_path, "g.graph", g)
    for k in range(5):
        code, out, _ = run(capsys, ["csf", path, "--chromatic", str(k)])
        assert (code, out) == (0, f"{count_proper_colorings(g, k)}\n")


def test_csf_chromatic_errors(tmp_path, capsys):
    path = write_graph(tmp_path, "c6.graph", COLLISION_LEFT6)
    code, out, err = run(capsys, ["csf", path, "--chromatic", "-1"])
    assert (code, out) == (3, "")
    assert "nonnegative" in err
    # --chromatic runs paths of thousands of vertices; K16's set-partition DP is refused
    path = write_graph(tmp_path, "k16.graph", Graph(16, tuple(combinations(range(16), 2))))
    code, out, err = run(capsys, ["csf", path, "--chromatic", "3"])
    assert (code, out) == (4, "")
    assert err == ("error: the set-partition DP on a component of 16 vertices needs more than "
                   "the 4194304 steps left of the limit of 4194304\n")


def six_times_a_power_of_three(exponent: int) -> str:
    """Decimal text of 6 * 3^exponent, by exact decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = exponent // 2 + 10
        return format(6 * decimal.Decimal(3) ** exponent, "f")


@pytest.mark.parametrize("text, k, want", [
    # 10^n: a one and n zeros, across the writer's 600-digit chunks
    ("600 0\n", 10, "1" + "0" * 600),
    ("1201 0\n", 10, "1" + "0" * 1201),
    # a triangle and 9,015 isolated vertices: 6 * 3^9015, 4,303 digits, past the
    # interpreter's default cap of 4,300 digits for one int-to-text conversion
    ("9018 3\n0 1\n0 2\n1 2\n", 3, six_times_a_power_of_three(9015)),
], ids=["601-digits", "1202-digits", "4303-digits"])
def test_csf_chromatic_prints_every_digit(tmp_path, capsys, text, k, want):
    path = tmp_path / "g.graph"
    path.write_text(text, encoding="ascii")
    limit = sys.get_int_max_str_digits()
    assert (run(capsys, ["csf", str(path), "--chromatic", str(k)])) == (0, want + "\n", "")
    assert sys.get_int_max_str_digits() == limit


def test_csf_poly_k2(tmp_path, capsys):
    path = write_graph(tmp_path, "k2.graph", Graph(2, ((0, 1),)))
    code, out, _ = run(capsys, ["csf", path])
    assert code == 0
    assert out == "csf n=2\n2 -1\n1,1 1\n"


def test_csf_poly_k3(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.graph", Graph(3, ((0, 1), (0, 2), (1, 2))))
    code, out, _ = run(capsys, ["csf", path])
    assert code == 0
    assert out.splitlines() == ["csf n=3", "3 2", "2,1 -3", "1,1,1 1"]


def test_csf_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("2 2\n0 1\n0 1\n", encoding="ascii")
    code, _, err = run(capsys, ["csf", str(bad)])
    assert code == 3
    assert "line 3" in err


def test_csf_resource_limit_exit_code(tmp_path, capsys):
    path = write_graph(tmp_path, "p70.graph", path_graph(70))
    code, out, err = run(capsys, ["csf", path])
    assert (code, out) == (4, "")
    assert err == ("error: the tree DP on a component of 70 vertices may merge 79751639 state "
                   "pairs, 159503278 steps, more than the 4194304 steps left of the limit of 4194304\n")


def test_csf_work_limit_exit_code(tmp_path, capsys):
    path = write_graph(tmp_path, "k21.graph", Graph(21, tuple(combinations(range(21), 2))))
    code, out, err = run(capsys, ["csf", path])
    assert code == 4
    assert out == ""
    assert err == ("error: the set-partition DP on a component of 21 vertices needs more than "
                   "the 4194304 steps left of the limit of 4194304\n")


@pytest.mark.parametrize("text, message", [
    ("100000000 0\n", "error: line 1: 100000000 vertices, above the limit of 100000\n"),
    (path_graph(70).to_text(), "error: the tree DP on a component of 70 vertices may merge "),
])
def test_oversized_csf_input_exits_4_at_once(tmp_path, capsys, text, message):
    # the vertex limit and the kernel's bound refuse these
    path = tmp_path / "big.graph"
    path.write_text(text, encoding="ascii")
    start = time.monotonic()
    code, out, err = run(capsys, ["csf", str(path)])
    assert (code, out) == (4, "")
    assert err.startswith(message)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("n", [70, 200])
def test_csf_runs_on_stars(tmp_path, capsys, n):
    # the tree DP's bound weighs states by parts no larger than a largest child
    # subtree, so a star's leaves count s states at s merged vertices
    star = Graph(n, tuple((0, v) for v in range(1, n)))
    code, out, _ = run(capsys, ["csf", write_graph(tmp_path, "star.graph", star)])
    assert (code, out) == (0, forest_csf(star).to_text())


def test_csf_runs_past_30_edges_by_default(tmp_path, capsys):
    path = write_graph(tmp_path, "p40.graph", path_graph(40))
    code, out, _ = run(capsys, ["csf", path, "--chromatic", "3"])
    assert (code, out) == (0, f"{3 * 2 ** 39}\n")


def test_no_limit_is_set_from_flags_or_environment(tmp_path, capsys, monkeypatch):
    c6 = write_graph(tmp_path, "c6.graph", Graph(6, path_graph(6).edges + ((0, 5),)))
    for argv in (["csf", c6, "--poly"], ["search", "--class", "tree", "--n", "4", "--max-edges", "5"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().out == ""
    monkeypatch.delenv("CSFKIT_MAX_EDGES", raising=False)
    unset = run(capsys, ["csf", c6])
    assert unset[0] == 0
    monkeypatch.setenv("CSFKIT_MAX_EDGES", "3")
    assert run(capsys, ["csf", c6])[:2] == unset[:2]


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["csf"])  # missing input
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# equal


def test_equal_collision_pair(tmp_path, capsys):
    a = write_graph(tmp_path, "a.graph", COLLISION_LEFT6)
    b = write_graph(tmp_path, "b.graph", COLLISION_RIGHT6)
    code, out, _ = run(capsys, ["equal", a, b])
    assert code == 0
    assert out == "EQUAL\n"


def test_equal_self(tmp_path, capsys):
    a = write_graph(tmp_path, "a.graph", CHROMATIC_TREE7)
    code, out, _ = run(capsys, ["equal", a, a])
    assert code == 0
    assert out == "EQUAL\n"


def test_equal_near_miss_reports_first_difference(tmp_path, capsys):
    a = write_graph(tmp_path, "l.graph", NEAR_MISS_LEFT15)
    b = write_graph(tmp_path, "r.graph", NEAR_MISS_RIGHT15)
    code, out, _ = run(capsys, ["equal", a, b])
    assert code == 1
    assert out == "DIFFER at 8,5,1,1: -9 vs -8\n"


def test_equal_across_orders_names_the_first_partition(tmp_path, capsys):
    a = write_graph(tmp_path, "k1.graph", Graph(1, ()))
    b = write_graph(tmp_path, "p2.graph", Graph(2, ((0, 1),)))
    code, out, _ = run(capsys, ["equal", a, b])
    assert (code, out) == (1, "DIFFER at 2: 0 vs -1\n")


def test_equal_reports_the_first_differing_partition_of_random_pairs(tmp_path, capsys):
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(3, 7)
        pairs = list(combinations(range(n), 2))
        ga, gb = (Graph(n, tuple(sorted(rng.sample(pairs, rng.randint(0, len(pairs))))))
                  for _ in range(2))
        xa, xb = chromatic_symmetric_function(ga), chromatic_symmetric_function(gb)
        diff = first_difference(xa, xb)
        want = "EQUAL\n" if diff is None else f"DIFFER at {partition_key(diff[0])}: {diff[1]} vs {diff[2]}\n"
        code, out, _ = run(capsys, ["equal", write_graph(tmp_path, "a.graph", ga),
                                    write_graph(tmp_path, "b.graph", gb)])
        assert (code, out) == (0 if diff is None else 1, want)


# ---------------------------------------------------------------------------
# decompose


def test_decompose_triangle(tmp_path, capsys):
    path = write_graph(tmp_path, "g.graph", COLLISION_LEFT6)
    g = COLLISION_LEFT6
    tri = (g.index_of(0, 2), g.index_of(2, 3), g.index_of(0, 3))
    prefix = str(tmp_path / "term")
    code, out, _ = run(capsys, [
        "decompose", path, "--rule", "triangle",
        "--edges", ",".join(map(str, tri)), "--out", prefix,
    ])
    assert code == 0
    lines = out.splitlines()
    assert [ln.split()[0] for ln in lines] == ["1", "1", "-1"]
    total = None
    for ln in lines:
        coeff, term_path = ln.split()
        term = chromatic_symmetric_function(parse_graph(Path(term_path).read_text()))
        scaled = {k: int(coeff) * v for k, v in term.terms.items()}
        total = scaled if total is None else {
            k: total.get(k, 0) + scaled.get(k, 0) for k in set(total) | set(scaled)
        }
    total = {k: v for k, v in total.items() if v}
    assert total == chromatic_symmetric_function(g).terms


def test_decompose_reduce_eliminates_triangles(tmp_path, capsys):
    path = write_graph(tmp_path, "g.graph", COLLISION_LEFT6)
    prefix = str(tmp_path / "red")
    code, out, _ = run(capsys, ["decompose", path, "--rule", "reduce", "--out", prefix])
    assert code == 0
    from csfkit import structural_report

    total = {}
    for ln in out.splitlines():
        coeff, term_path = ln.split()
        h = parse_graph(Path(term_path).read_text())
        assert structural_report(h).triangle_count == 0
        for k, v in chromatic_symmetric_function(h).terms.items():
            total[k] = total.get(k, 0) + int(coeff) * v
    total = {k: v for k, v in total.items() if v}
    assert total == chromatic_symmetric_function(COLLISION_LEFT6).terms


def test_decompose_requires_edges_for_named_rules(tmp_path, capsys):
    path = write_graph(tmp_path, "g.graph", COLLISION_LEFT6)
    code, _, err = run(capsys, ["decompose", path, "--rule", "path", "--out", str(tmp_path / "x")])
    assert code == 3
    assert "requires --edges" in err


@pytest.mark.parametrize("rule, edges, bad", [
    ("triangle", "0,1,99", 99), ("triangle", "0,-1,2", -1),
    ("wedge", "0,1,99", 99), ("wedge", "0,-1,2", -1),
    ("path", "0,99", 99), ("path", "0,-1", -1),
])
def test_decompose_bad_edge_index_is_a_data_error(tmp_path, capsys, rule, edges, bad):
    path = write_graph(tmp_path, "k3.graph", Graph(3, ((0, 1), (0, 2), (1, 2))))
    code, out, err = run(capsys, ["decompose", path, "--rule", rule, "--edges", edges,
                                  "--out", str(tmp_path / "x")])
    assert code == 3
    assert out == ""
    assert err == f"error: edge index {bad} out of range 0..2\n"


def test_decompose_non_integer_edges_is_a_data_error(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.graph", Graph(3, ((0, 1), (0, 2), (1, 2))))
    code, out, err = run(capsys, ["decompose", path, "--rule", "path", "--edges", "0,x",
                                  "--out", str(tmp_path / "x")])
    assert code == 3
    assert out == ""
    assert err == "error: --edges takes comma-separated integers, got '0,x'\n"


def test_decompose_reduce_refuses_past_split_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(rewrite, "REDUCE_WORK_LIMIT", 100)
    path = write_graph(tmp_path, "k6.graph", Graph(6, tuple(combinations(range(6), 2))))
    start = time.perf_counter()
    code, out, err = run(capsys, ["decompose", path, "--rule", "reduce",
                                  "--out", str(tmp_path / "red")])
    assert code == 4
    assert out == ""
    assert "more than 100 splits" in err
    assert time.perf_counter() - start < 5.0


def test_decompose_reduce_runs_k7(tmp_path, capsys):
    path = write_graph(tmp_path, "k7.graph", Graph(7, tuple(combinations(range(7), 2))))
    prefix = str(tmp_path / "red")
    code, out, err = run(capsys, ["decompose", path, "--rule", "reduce", "--out", prefix])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 2520
    assert [ln.split()[1] for ln in lines] == [f"{prefix}{i}.graph" for i in range(2520)]


# ---------------------------------------------------------------------------
# make-pair


def test_make_pair_outputs_equal(tmp_path, capsys):
    t1 = write_graph(tmp_path, "t1.graph", Graph(1, ()))
    t2 = write_graph(tmp_path, "t2.graph", Graph(2, ((0, 1),)))
    prefix = str(tmp_path / "pair")
    code, out, _ = run(capsys, ["make-pair", t1, "0", t2, "0", "--out", prefix])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("_h.graph") and lines[1].endswith("_j.graph")
    assert lines[2].startswith("csf-sha256 ")
    h = parse_graph(Path(lines[0]).read_text())
    j = parse_graph(Path(lines[1]).read_text())
    assert csf_equal(chromatic_symmetric_function(h), chromatic_symmetric_function(j))
    assert unicyclic_canonical_key(h) == unicyclic_canonical_key(COLLISION_LEFT6)
    assert unicyclic_canonical_key(j) == unicyclic_canonical_key(COLLISION_RIGHT6)
    code, out2, _ = run(capsys, ["equal", lines[0], lines[1]])
    assert code == 0 and out2 == "EQUAL\n"


def test_make_pair_identical_inputs_still_equal(tmp_path, capsys):
    t = write_graph(tmp_path, "t.graph", Graph(2, ((0, 1),)))
    prefix = str(tmp_path / "same")
    code, out, _ = run(capsys, ["make-pair", t, "1", t, "1", "--out", prefix])
    assert code == 0
    paths = out.splitlines()[:2]
    code, out2, _ = run(capsys, ["equal", *paths])
    assert code == 0


def test_make_pair_refused_writes_no_files(tmp_path, capsys):
    # Two 10-vertex paths glued at an end make a 40-vertex unicyclic graph whose
    # kernel bound is above its limit.
    p10 = write_graph(tmp_path, "p10.graph", Graph(10, tuple((i, i + 1) for i in range(9))))
    prefix = str(tmp_path / "big")
    code, out, err = run(capsys, ["make-pair", p10, "0", p10, "0", "--out", prefix])
    assert (code, out) == (4, "")
    assert err == ("error: the tree DP on a component of 40 vertices may merge 11594309 state "
                   "pairs, 23188618 steps, more than the 4194304 steps left of the limit of 4194304\n")
    assert not os.path.exists(f"{prefix}_h.graph")
    assert not os.path.exists(f"{prefix}_j.graph")


# ---------------------------------------------------------------------------
# theta / reconstruct


def test_theta_then_reconstruct_roundtrip(tmp_path, capsys):
    star5 = Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    path = write_graph(tmp_path, "star.graph", star5)
    code, out, _ = run(capsys, ["theta", path])
    assert code == 0
    table_path = tmp_path / "star.theta"
    table_path.write_text(out, encoding="ascii")
    out_path = tmp_path / "rebuilt.graph"
    code, out2, _ = run(capsys, ["reconstruct", str(table_path), "--out", str(out_path)])
    assert code == 0
    assert out2 == "CONSISTENT\n"
    rebuilt = parse_graph(out_path.read_text(encoding="ascii"))
    assert canonical_tree_code(rebuilt) == canonical_tree_code(star5)


def test_oversized_cut_tables_exit_4_before_any_image(tmp_path, capsys):
    p3000 = write_graph(tmp_path, "p3000.graph", path_graph(3000))
    table = tmp_path / "big.theta"
    # pair lines after the header are never read: the header alone is refused
    table.write_text("theta n=3000 m=2999\nnot a pair line\n", encoding="ascii")
    for argv in (["theta", p3000], ["reconstruct", str(table), "--out", str(tmp_path / "t.graph")]):
        start = time.monotonic()
        code, out, err = run(capsys, argv)
        assert (code, out) == (4, "")
        assert err == ("error: a cut table of 2999 edges on 3000 vertices needs C(2999, 2) * 3000 "
                       "steps, above the limit of 16777216\n")
        assert time.monotonic() - start < 1.0
    assert not (tmp_path / "t.graph").exists()


def test_theta_on_a_non_tree_is_a_data_error(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.graph", Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))))
    code, out, err = run(capsys, ["theta", path])
    assert code == 3
    assert out == ""
    assert err == "error: theta_tables requires a tree (connected and acyclic)\n"


def test_reconstruct_worked_table_pairs_only(tmp_path, capsys):
    table_path = tmp_path / "table.theta"
    table_path.write_text(cut_table13(pairs_only=True).to_text(), encoding="ascii")
    out_path = tmp_path / "tree.graph"
    code, out, _ = run(capsys, ["reconstruct", str(table_path), "--pairs-only",
                                "--out", str(out_path)])
    assert code == 0
    assert out == "CONSISTENT\n"
    rebuilt = parse_graph(out_path.read_text(encoding="ascii"))
    assert rebuilt.vertex_count == 13
    assert canonical_tree_code(rebuilt) == canonical_tree_code(CUT_TABLE13_TREE)


def test_reconstruct_two_centroid_pairs_rejected(tmp_path, capsys):
    labels = tuple(sorted(TWO_CENTROID_PAIR14_LEFT, key=lambda s: int(s[1:])))
    tree = Graph(14, tuple(TWO_CENTROID_PAIR14_LEFT[lab] for lab in labels))
    index = {lab: i for i, lab in enumerate(labels)}
    pairs = {(a, b): theta(tree, [index[a], index[b]])
             for a, b in combinations(labels, 2)}
    tbl = ThetaTable(n=14, edge_labels=labels, singletons={}, pairs=pairs)
    table_path = tmp_path / "twocent.theta"
    table_path.write_text(tbl.to_text(), encoding="ascii")
    code, _, err = run(capsys, ["reconstruct", str(table_path), "--pairs-only",
                                "--out", str(tmp_path / "x.graph")])
    assert code == 3
    assert "two centroids" in err


def test_equal_consistent_on_two_centroid_pair(tmp_path, capsys):
    # whether these two trees share their whole CSF is not asserted either
    # way; the command must simply agree with the library's exact comparison
    labels = tuple(sorted(TWO_CENTROID_PAIR14_LEFT, key=lambda s: int(s[1:])))
    from fixtures import TWO_CENTROID_PAIR14_RIGHT

    lt = Graph(14, tuple(TWO_CENTROID_PAIR14_LEFT[lab] for lab in labels))
    rt = Graph(14, tuple(TWO_CENTROID_PAIR14_RIGHT[lab] for lab in labels))
    expected = csf_equal(chromatic_symmetric_function(lt), chromatic_symmetric_function(rt))
    a = write_graph(tmp_path, "tc_l.graph", lt)
    b = write_graph(tmp_path, "tc_r.graph", rt)
    code, out, _ = run(capsys, ["equal", a, b])
    assert code == (0 if expected else 1)
    assert out.startswith("EQUAL" if expected else "DIFFER at ")


def test_reconstruct_full_table_requires_singletons(tmp_path, capsys):
    table_path = tmp_path / "pairs.theta"
    table_path.write_text(cut_table13(pairs_only=True).to_text(), encoding="ascii")
    code, _, err = run(capsys, ["reconstruct", str(table_path),
                                "--out", str(tmp_path / "x.graph")])
    assert code == 3
    assert "pairs-only" in err


# ---------------------------------------------------------------------------
# search


def test_search_trees_small(capsys):
    code, out, err = run(capsys, ["search", "--n", "4", "--class", "tree"])
    assert code == 0
    assert "graphs=2" in out
    assert "collision-groups=0" in out
    assert "elapsed" in err


def test_search_tree_fingerprints_distinguish_path_and_star():
    report = run_search(4, "tree")
    assert report.graph_count == 2
    assert not report.groups


def test_search_unicyclic_finds_collision_pair(capsys):
    report = run_search(6, "unicyclic")
    assert report.groups
    left_line = f"6 6 " + " ".join(f"{u}-{v}" for u, v in COLLISION_LEFT6.edges)
    keys = {unicyclic_canonical_key(COLLISION_LEFT6),
            unicyclic_canonical_key(COLLISION_RIGHT6)}
    found = False
    for group in report.groups:
        members = {unicyclic_canonical_key(parse_graph(
            _line_to_text(line))) for line in group}
        if keys <= members:
            found = True
    assert found
    del left_line


def _line_to_text(line: str) -> str:
    bits = line.split()
    n, m, rest = bits[0], bits[1], bits[2:]
    body = "".join(f"{p.split('-')[0]} {p.split('-')[1]}\n" for p in rest)
    return f"{n} {m}\n{body}"


def test_search_determinism(capsys):
    code1, out1, _ = run(capsys, ["search", "--n", "6", "--class", "unicyclic"])
    code2, out2, _ = run(capsys, ["search", "--n", "6", "--class", "unicyclic"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_resource_limit(capsys):
    code, out, err = run(capsys, ["search", "--n", "40", "--class", "tree"])
    assert (code, out) == (4, "")
    assert err == "error: tree search at n=40 visits at least 317955 candidates, above the limit of 262144\n"


@pytest.mark.parametrize("graph_class, n", [("tree", 31), ("unicyclic", 30)])
def test_search_refuses_oversized_class_up_front(capsys, graph_class, n):
    start = time.monotonic()
    code, out, err = run(capsys, ["search", "--class", graph_class, "--n", str(n)])
    assert code == 4
    assert out == ""
    assert "limit" in err
    assert time.monotonic() - start < 1.0


def test_unicyclic_key_counts():
    # connected unicyclic graphs per isomorphism class (OEIS A001429), n = 3..10,
    # each generated once: pairwise distinct canonical keys
    for n, want in zip(range(3, 11), [1, 2, 5, 13, 33, 89, 240, 657]):
        graphs = list(enumerate_unicyclic(n))
        assert len({unicyclic_canonical_key(g) for g in graphs}) == len(graphs) == want
        assert all(g.edge_count == n and len(_components(g.adjacency, [-1] * n)) == 1
                   for g in graphs)


# ---------------------------------------------------------------------------
# one process, many calls

SRC = str(Path(csfkit.__file__).resolve().parent.parent)


def run_fresh(argv, env):
    """Exit code, stdout and stderr of ``main(argv)`` in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from csfkit.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True, text=True, timeout=120, env={**env, "PYTHONPATH": SRC},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_main_calls_match_fresh_calls_and_share_one_parser(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    a = write_graph(tmp_path, "a.graph", COLLISION_LEFT6)
    b = write_graph(tmp_path, "b.graph", COLLISION_RIGHT6)
    p70 = write_graph(tmp_path, "p70.graph", path_graph(70))
    calls = [
        (["csf", a], 0),
        (["csf"], 2),
        (["equal", a, b], 0),
        (["csf", p70], 4),
        (["csf", a], 0),
    ]
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording_parse_args(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
    for argv, want_code in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == want_code
        assert (code, captured.out, captured.err) == run_fresh(argv, dict(os.environ))
    assert len(parsers) == len(calls)
    assert all(p is parsers[0] for p in parsers)


def test_importing_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(self) or init(self, *a, **k)\n"
        "import csfkit.cli\n"
        "print(len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


@pytest.mark.parametrize("flags", [[], ["--chromatic", "3"]])
def test_long_path_exits_4_under_a_600_mb_address_space(tmp_path, flags):
    # the code table is built only after every component's bound has passed,
    # so a 30,000-vertex path is refused before a table of 30,000 powers of 30,001
    import resource
    path = write_graph(tmp_path, "p30000.graph", path_graph(30_000))
    proc = subprocess.run(
        [sys.executable, "-m", "csfkit.cli", "csf", path, *flags],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20)))
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith("error: the tree DP on a component of 30000 vertices may merge ")
