"""Workload definitions: seeded input generators, CLI command lists, checks.

Inputs are plain edge lists made here without csfkit, so the program under
test only ever sees the generated files.  Each workload keeps the amount of
work fixed across seeds (fixed vertex and edge counts, fixed tree sizes) and
lets the seed choose the graphs, labellings and order; run-to-run spread then
measures the program, not the luck of the draw.

A workload joins command groups into one pass; a group is a function of the
seed that returns the files to write and the commands to run on them.  Each
``Step`` is one ``csfkit`` command line.  Its ``check`` runs after the
timed passes on the stdout of the first pass and the files the command wrote;
it returns an error message or None.  Checks use routes independent of the
command they check (brute-force colourings, direct structural counts, subtree
sizes computed here, the rewrite identity evaluated term by term).
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

Edges = list[tuple[int, int]]


@dataclass
class Step:
    kind: str  # end-to-end time bucket: csf, equal, search, make_pair, ...
    argv: list[str]
    check: Callable[[str], Optional[str]]
    save_stdout_to: Optional[str] = None  # the next step reads this file


@dataclass
class Inputs:
    files: dict[str, str]  # relative path -> text
    build_steps: Callable[[str], list[Step]]  # workdir -> steps


def graph_text(n: int, edges: Edges) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{min(u, v)} {max(u, v)}" for u, v in edges)
    return "\n".join(lines) + "\n"


def relabel(n: int, edges: Edges, rng: random.Random, shuffle_edges: bool) -> Edges:
    """Random vertex permutation; edge lines keep their order unless shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    if shuffle_edges:
        rng.shuffle(out)
    return out


def random_graph(n: int, m: int, rng: random.Random) -> Edges:
    return sorted(rng.sample(list(combinations(range(n), 2)), m))


def _csfkit():
    """The csfkit modules the checks use, imported after set-up."""
    import csfkit
    from csfkit import rewrite, treedata
    return csfkit, rewrite, treedata


# ---------------------------------------------------------------------------
# dense_csf


DENSE_SHAPES = ((7, 13), (7, 14), (7, 14), (7, 15), (8, 13), (8, 14), (8, 14), (8, 15))


def dense_csf(seed: int) -> Inputs:
    rng = random.Random(seed * 4 + 0)
    files = {}
    graphs = []
    for i, (n, m) in enumerate(DENSE_SHAPES):
        edges = random_graph(n, m, rng)
        twin = relabel(n, edges, rng, shuffle_edges=True)
        files[f"g{i}.graph"] = graph_text(n, edges)
        files[f"g{i}_relabelled.graph"] = graph_text(n, twin)
        graphs.append((n, edges))

    def steps(workdir: str) -> list[Step]:
        out = []
        for i, (n, edges) in enumerate(graphs):
            g = os.path.join(workdir, f"g{i}.graph")
            twin = os.path.join(workdir, f"g{i}_relabelled.graph")
            out.append(Step("csf", ["csf", g], _check_invariants(n, edges)))
            out.append(Step("csf", ["csf", g, "--chromatic", "3"], _check_colorings(n, edges, 3)))
            out.append(Step("equal", ["equal", g, twin], _expect_text("EQUAL\n")))
        return out

    return Inputs(files, steps)


def _check_invariants(n: int, edges: Edges):
    def check(stdout: str):
        csfkit, _, _ = _csfkit()
        x = csfkit.PowerSumPolynomial.from_text(stdout)
        got = csfkit.extract_invariants(x)
        want = csfkit.structural_report(csfkit.Graph(n, tuple(sorted(edges))))
        for attr in ("vertex_count", "edge_count", "matching_counts",
                     "sum_squared_degrees", "triangle_count"):
            if getattr(got, attr) != getattr(want, attr):
                return f"{attr}: polynomial gives {getattr(got, attr)}, graph has {getattr(want, attr)}"
        return None
    return check


def _check_colorings(n: int, edges: Edges, k: int):
    def check(stdout: str):
        csfkit, _, _ = _csfkit()
        want = csfkit.count_proper_colorings(csfkit.Graph(n, tuple(sorted(edges))), k)
        return None if stdout.strip() == str(want) else f"{k}-colourings {stdout.strip()} != {want}"
    return check


def _expect_text(want: str):
    def check(stdout: str):
        return None if stdout == want else f"stdout {stdout[:80]!r} != {want!r}"
    return check


# ---------------------------------------------------------------------------
# collision_search


SEARCHES = (("tree", 10, 106), ("unicyclic", 8, 89))


def rooted_trees(max_n: int) -> list[list[int]]:
    """One parent array (root 0, parent[0] = -1) per rooted tree, by size."""
    def code(parents: list[int], v: int = 0) -> str:
        kids = sorted(code(parents, c) for c in range(len(parents)) if parents[c] == v)
        return "(" + "".join(kids) + ")"

    by_size = {1: [[-1]]}
    for n in range(2, max_n + 1):
        grown = {}
        for parents in by_size[n - 1]:
            for v in range(n - 1):
                bigger = parents + [v]
                grown.setdefault(code(bigger), bigger)
        by_size[n] = [grown[c] for c in sorted(grown)]
    return [p for n in range(1, max_n + 1) for p in by_size[n]]


def collision_search(seed: int) -> Inputs:
    rng = random.Random(seed * 4 + 1)
    files = {}
    roots = []  # one seeded labelling per rooted tree, shared by its pairs
    trees = rooted_trees(5)
    for t, parents in enumerate(trees):
        n = len(parents)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[c], perm[p]) for c, p in enumerate(parents) if p >= 0]
        rng.shuffle(edges)
        files[f"rooted{t}.graph"] = graph_text(n, edges)
        roots.append(perm[0])
    pairs = [(i, j) for i, j in combinations(range(len(trees)), 2) if len(trees[i]) + len(trees[j]) <= 6]
    pairs += [(i, i) for i in range(len(trees)) if 2 * len(trees[i]) <= 6]
    rng.shuffle(pairs)
    pairs = [pair[::-1] if rng.random() < 0.5 else pair for pair in pairs]

    def steps(workdir: str) -> list[Step]:
        out = [Step("search", ["search", "--class", cls, "--n", str(n)],
                    _check_search(cls, n, count)) for cls, n, count in SEARCHES]
        for k, (a, b) in enumerate(pairs):
            prefix = os.path.join(workdir, f"pair{k}_glued")
            out.append(Step("make_pair",
                            ["make-pair", os.path.join(workdir, f"rooted{a}.graph"), str(roots[a]),
                             os.path.join(workdir, f"rooted{b}.graph"), str(roots[b]), "--out", prefix],
                            _check_pair(prefix, 4 + 2 * (len(trees[a]) - 1) + 2 * (len(trees[b]) - 1))))
        return out

    return Inputs(files, steps)


def _same_colorings(graphs, ks=(2, 3)) -> bool:
    csfkit, _, _ = _csfkit()
    return all(len({csfkit.count_proper_colorings(g, k) for g in graphs}) == 1 for k in ks)


def _check_search(cls: str, n: int, count: int):
    def check(stdout: str):
        csfkit, _, _ = _csfkit()
        lines = stdout.splitlines()
        head = [f"search class={cls} n={n}", f"graphs={count}"]
        if lines[:2] != head or not lines[2].startswith("collision-groups="):
            return f"unexpected header {lines[:3]}"
        groups = []
        for line in lines[3:]:
            if line.startswith("group "):
                groups.append([])
            else:
                order, _, *pairs = line.split()
                edges = tuple(tuple(sorted(map(int, p.split("-")))) for p in pairs)
                groups[-1].append(csfkit.Graph(int(order), edges))
        if len(groups) != int(lines[2].split("=")[1]):
            return "collision-group count disagrees with the groups listed"
        for members in groups:
            if len(members) < 2 or not _same_colorings(members):
                return f"group {members} is not a collision of chromatic polynomials"
        return None
    return check


def _check_pair(prefix: str, order: int):
    def check(stdout: str):
        csfkit, _, _ = _csfkit()
        lines = stdout.splitlines()
        if lines[:2] != [f"{prefix}_h.graph", f"{prefix}_j.graph"] or \
                not re.fullmatch(r"csf-sha256 [0-9a-f]{64}", lines[2] if len(lines) > 2 else ""):
            return f"unexpected make-pair output {lines}"
        glued = []
        for path in lines[:2]:
            with open(path, encoding="ascii") as fh:
                glued.append(csfkit.parse_graph(fh.read()))
        h, j = glued
        if h.vertex_count != order or len(set(h.edges) ^ set(j.edges)) != 2:
            return "glued graphs do not differ by exactly one added edge"
        return None if _same_colorings(glued) else "glued pair has different chromatic polynomials"
    return check


# ---------------------------------------------------------------------------
# cut_data


def prufer_tree(n: int, rng: random.Random) -> Edges:
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return edges


def caterpillar(spine: int, legs: int, rng: random.Random) -> Edges:
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), spine + k) for k in range(legs)]
    return edges


def spider(legs: int, total: int, rng: random.Random) -> Edges:
    """A centre with ``legs`` paths of random lengths summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), legs - 1))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    edges, nxt = [], 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return edges


def side_sizes(n: int, edges: Edges) -> list[tuple[int, int]]:
    """Singleton cut image (big, small) of each edge, from subtree sizes."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent, order = [-1] * n, [0]
    for x in order:
        for y in adj[x]:
            if y != parent[x]:
                parent[y] = x
                order.append(y)
    below = [1] * n
    for x in reversed(order[1:]):
        below[parent[x]] += below[x]
    out = []
    for u, v in edges:
        s = below[v] if parent[v] == u else below[u]
        out.append((max(s, n - s), min(s, n - s)))
    return out


# Odd orders, so every tree has a single centroid.
PRUFER_ORDERS = (51, 61, 71, 81)


def cut_data(seed: int) -> Inputs:
    rng = random.Random(seed * 4 + 2)
    files = {}
    trees = [(n, prufer_tree(n, rng)) for n in PRUFER_ORDERS]
    trees.append((65, caterpillar(21, 44, rng)))
    trees.append((63, spider(6, 62, rng)))
    labelled = []
    for i, (n, edges) in enumerate(trees):
        edges = relabel(n, edges, rng, shuffle_edges=True)
        files[f"t{i}.graph"] = graph_text(n, edges)
        labelled.append((n, edges))

    def steps(workdir: str) -> list[Step]:
        out = []
        for i, (n, edges) in enumerate(labelled):
            t = os.path.join(workdir, f"t{i}.graph")
            table = os.path.join(workdir, f"t{i}.theta")
            out.append(Step("theta", ["theta", t], _check_theta(n, edges), save_stdout_to=table))
            for kind, extra, suffix in (("reconstruct", [], "full"),
                                        ("reconstruct_pairs", ["--pairs-only"], "pairs")):
                rebuilt = os.path.join(workdir, f"t{i}_rebuilt_{suffix}.graph")
                out.append(Step(kind, ["reconstruct", table, *extra, "--out", rebuilt],
                                _check_rebuilt(n, edges, rebuilt)))
        return out

    return Inputs(files, steps)


def _check_theta(n: int, edges: Edges):
    def check(stdout: str):
        _, _, treedata = _csfkit()
        tbl = treedata.ThetaTable.from_text(stdout)
        if tbl.n != n or tbl.m != len(edges):
            return f"table header n={tbl.n} m={tbl.m}"
        for i, want in enumerate(side_sizes(n, edges)):
            if tbl.singletons[str(i)] != want:
                return f"edge {i}: cut image {tbl.singletons[str(i)]} != {want}"
        return None
    return check


def _check_rebuilt(n: int, edges: Edges, path: str):
    def check(stdout: str):
        csfkit, _, _ = _csfkit()
        if stdout != "CONSISTENT\n":
            return f"stdout {stdout!r}"
        with open(path, encoding="ascii") as fh:
            rebuilt = csfkit.parse_graph(fh.read())
        original = csfkit.Graph(n, tuple((min(e), max(e)) for e in edges))
        if csfkit.canonical_tree_code(rebuilt) != csfkit.canonical_tree_code(original):
            return "rebuilt tree is not isomorphic to the input"
        return None
    return check


# ---------------------------------------------------------------------------
# triangle_reduce


# The reduce rule's work swings by more than ten times with the order of the
# edge lines, so the graphs and their edge order are fixed here and the seed
# only relabels vertices, which leaves the rule's choices isomorphic.  The
# 7-vertex graphs are the first draws of random_graph(7, m, Random(2013)) for
# m = 13, 13, 14, 14, 15, 15, 16, 16, written as concatenated "uv" digit pairs.
K6 = list(combinations(range(6), 2))
REDUCE_BASES = (
    "01020512141516232425263545",
    "03040513141623242635364546",
    "0304061213141523243536454656",
    "0102030406131416242526354656",
    "010203121415162325263435364556",
    "010304051415232425263435454656",
    "01030405061213232425263536454656",
    "01020304050612131423242634354546",
)


def triangle_reduce(seed: int) -> Inputs:
    rng = random.Random(seed * 4 + 3)
    files = {}
    graphs = [(6, K6)] + [(7, [(int(code[k]), int(code[k + 1])) for k in range(0, len(code), 2)])
                          for code in REDUCE_BASES]
    labelled = []
    for i, (n, edges) in enumerate(graphs):
        edges = relabel(n, edges, rng, shuffle_edges=False)
        files[f"r{i}.graph"] = graph_text(n, edges)
        labelled.append((n, edges))

    def steps(workdir: str) -> list[Step]:
        out = []
        for i, (n, edges) in enumerate(labelled):
            g = os.path.join(workdir, f"r{i}.graph")
            prefix = os.path.join(workdir, f"r{i}_term")
            out.append(Step("decompose", ["decompose", g, "--rule", "reduce", "--out", prefix],
                            _check_reduce(n, edges, prefix)))
        return out

    return Inputs(files, steps)


def _triangle_free(n: int, edges) -> bool:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return all(not (adj[u] & adj[v]) for u, v in edges)


def _check_reduce(n: int, edges: Edges, prefix: str):
    def check(stdout: str):
        csfkit, rewrite, _ = _csfkit()
        terms = []
        for i, line in enumerate(stdout.splitlines()):
            coeff, path = line.split()
            if path != f"{prefix}{i}.graph":
                return f"term {i} written to {path}"
            with open(path, encoding="ascii") as fh:
                term = csfkit.parse_graph(fh.read())
            if term.vertex_count != n or not _triangle_free(n, term.edges):
                return f"term {path} is not a triangle-free graph on {n} vertices"
            terms.append((int(coeff), term))
        if not terms:
            return "no terms"
        total = rewrite.combination_csf(rewrite.GraphCombination(tuple(terms)))
        want = csfkit.chromatic_symmetric_function(csfkit.Graph(n, tuple((min(e), max(e)) for e in edges)))
        return None if csfkit.csf_equal(total, want) else "terms do not sum to X_G"
    return check


# ---------------------------------------------------------------------------
# workloads: each joins the command groups above into one pass


def joined(*groups):
    def make(seed: int) -> Inputs:
        parts = [group(seed) for group in groups]
        files = {name: text for part in parts for name, text in part.files.items()}
        return Inputs(files, lambda workdir: [s for part in parts for s in part.build_steps(workdir)])
    return make


# csf_heavy runs the csf kernel, tree enumeration and pairgen and never
# touches treedata or rewrite; csf_free is the reverse and never calls csf.
# So a change to any layer has one workload that exercises it and one whose
# prediction is no change.
WORKLOADS = {
    "csf_heavy": joined(dense_csf, collision_search),
    "csf_free": joined(cut_data, triangle_reduce),
}
