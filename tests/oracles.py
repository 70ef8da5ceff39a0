"""Independent oracles used by the test suite.

Everything here recomputes quantities the package also computes, by a
different route: Pruefer sequences for tree enumeration, explicit vertex
bijections for isomorphism, a union-find for component orders, X_G by
enumerating all 2^E edge subsets (the definition, against which the package's
structured kernels are checked), the cycle of a unicyclic graph by stripping
leaves, the girth by deleting each edge in turn, matching counts by listing
every matching, and a component-tracking dynamic program that expands X_G for forests and
connected unicyclic graphs without touching 2^E subsets.  The DP lets the
suite check CSF equality on glued pairs far beyond what the subset
enumerator can reach in test time, and counts the state pairs its merges
take, against which the package's up-front bound on its own DP is checked;
the set-partition DP's steps are counted by brute force over vertex subsets,
against that DP's bound.  The search's candidate count is redone by walking
every split of the vertices into trees around a cycle.  The collision search is redone the
earlier way: candidates deduplicated by canonical keys, then bucketed by the
printed polynomial, and ``line_graph`` reads a printed ``search`` line back
into its graph.  Triangle reduce is redone depth first, splitting every
pending graph on its own and merging equal graphs only once triangle-free.
Edge attraction is decided from its definition, by collecting the edges of
every path from a centroid to an endpoint of either edge.  The first
difference of two functions is found by sorting every partition either one
names and scanning them in descending order.  ``relabelled``
gives a graph a seeded vertex permutation and edge order, so a fast path is
also checked off the labelling its input was generated in.
``forest_type_counts`` is no second route: it reads a forest's edge subsets
by type off X_F, whose coefficients they are up to sign.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations, product
from math import prod

from csfkit import (
    Graph,
    GraphCombination,
    PowerSumPolynomial,
    canonical_tree_code,
    centroid,
    chromatic_symmetric_function,
    triangle_split,
)
from csfkit.graph import _bfs, _components, _cycle_orders, _level_sequences, tree_from_levels


# ---------------------------------------------------------------------------
# Tree enumeration and isomorphism oracles


def relabelled(rng, n: int, edges) -> Graph:
    """Random vertex permutation and random edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
    rng.shuffle(out)
    return Graph(n, tuple(out))


def prufer_tree(n: int, seq: tuple[int, ...]) -> Graph:
    """Tree on n >= 2 vertices decoded from a Pruefer sequence."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for x in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            lo = 0
            while lo < len(leaves) and leaves[lo] < x:
                lo += 1
            leaves.insert(lo, x)
    u, v = leaves
    edges.append((u, v) if u < v else (v, u))
    return Graph(n, tuple(edges))


def all_labelled_trees(n: int):
    """Every labelled tree on n vertices, once per Pruefer sequence."""
    if n == 1:
        yield Graph(1, ())
        return
    if n == 2:
        yield Graph(2, ((0, 1),))
        return
    for seq in product(range(n), repeat=n - 2):
        yield prufer_tree(n, seq)


def _partitions(m: int, most: int):
    if m == 0:
        yield ()
        return
    for first in range(min(m, most), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def _arrangements(counts: list[int]):
    """Every sequence holding label v exactly counts[v] times."""
    if not any(counts):
        yield ()
        return
    for v, c in enumerate(counts):
        if c:
            counts[v] -= 1
            for rest in _arrangements(counts):
                yield (v,) + rest
            counts[v] += 1


def prufer_classes(n: int) -> set[str]:
    """Canonical codes of all trees on n >= 3 vertices, by Pruefer decoding.

    Label v occurs deg(v) - 1 times in a Pruefer sequence, and relabelling a
    tree by decreasing degree makes those counts non-increasing, so the
    sequences with non-increasing label counts reach every class.
    """
    return {canonical_tree_code(prufer_tree(n, seq))
            for counts in _partitions(n - 2, n - 2)
            for seq in _arrangements(list(counts))}


def brute_force_isomorphic(a: Graph, b: Graph) -> bool:
    """Try every vertex bijection; exact but factorial."""
    if a.vertex_count != b.vertex_count or a.edge_count != b.edge_count:
        return False
    bset = {frozenset(e) for e in b.edges}
    for perm in permutations(range(a.vertex_count)):
        if all(frozenset((perm[u], perm[v])) in bset for u, v in a.edges):
            return True
    return False


# ---------------------------------------------------------------------------
# Edge-subset expansion of X_G, the definition itself


def component_orders(n: int, edges) -> tuple[int, ...]:
    """Component orders of the spanning subgraph (V, edges), largest first,
    by a union-find with path halving and union by size."""
    parent = list(range(n))
    size = [1] * n
    for u, v in edges:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            if size[u] < size[v]:
                u, v = v, u
            parent[v] = u
            size[u] += size[v]
    return tuple(sorted((size[i] for i in range(n) if parent[i] == i), reverse=True))


def subset_csf(g: Graph) -> PowerSumPolynomial:
    """X_G by visiting all 2^m edge subsets, each typed by a fresh union-find."""
    terms: dict[tuple, int] = {}
    for mask in range(1 << g.edge_count):
        key = component_orders(g.vertex_count, [e for i, e in enumerate(g.edges) if mask >> i & 1])
        terms[key] = terms.get(key, 0) + (-1 if mask.bit_count() & 1 else 1)
    return PowerSumPolynomial(g.vertex_count, {k: c for k, c in terms.items() if c})


def is_forest(g: Graph) -> bool:
    """No cycles: every component has one more vertex than it has edges."""
    return len(component_orders(g.vertex_count, g.edges)) == g.vertex_count - g.edge_count


def forest_type_counts(f: Graph) -> dict[tuple[int, ...], int]:
    """For each partition, the number of edge subsets of that type.

    Forests only: there every subset of a given type has the same size, so
    these counts are X_F's coefficients in absolute value, under the work limit.
    """
    if not is_forest(f):
        raise ValueError("forest_type_counts requires a forest")
    x = chromatic_symmetric_function(f)
    return {p: abs(coeff) for p, coeff in x.terms.items()}


# ---------------------------------------------------------------------------
# Structural invariants by their definitions


def cycle_vertices_by_stripping(g: Graph) -> list[int]:
    """Vertices of the unique cycle of a connected unicyclic graph, sorted:
    strip leaves until none remain."""
    deg = g.degrees()
    alive = [True] * g.vertex_count
    queue = deque(v for v in range(g.vertex_count) if deg[v] == 1)
    while queue:
        v = queue.popleft()
        alive[v] = False
        for w in g.adjacency[v]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    return [v for v in range(g.vertex_count) if alive[v]]


def girth_by_edge_removal(g: Graph) -> int | None:
    """Shortest cycle: for each edge uv, one more than the u-v distance in
    G - uv (None if no edge lies on a cycle)."""
    best = None
    for u, v in g.edges:
        dist = {u: 0}
        queue = deque([u])
        while queue and v not in dist:
            x = queue.popleft()
            for y in g.adjacency[x]:
                if y not in dist and {x, y} != {u, v}:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def matching_counts_by_recursion(g: Graph) -> tuple[int, ...]:
    """counts[k-1] = number of k-edge matchings, listing every matching."""
    edges = g.edges
    counts: list[int] = []

    def extend(start: int, used: int, size: int) -> None:
        for j in range(start, len(edges)):
            u, v = edges[j]
            bits = (1 << u) | (1 << v)
            if used & bits:
                continue
            if size == len(counts):
                counts.append(0)
            counts[size] += 1
            extend(j + 1, used | bits, size + 1)

    extend(0, 0, 0)
    return tuple(counts)


# ---------------------------------------------------------------------------
# Structured exact expansion of X_G (forests and connected unicyclic graphs)
#
# DP state at a vertex v, over edge subsets of the processed part of its
# subtree: (size of the component containing v,
#           tracked marker: 0 none / -1 tracked vertex shares v's component /
#           s > 0 tracked vertex's component closed with s vertices,
#           sorted tuple of other closed component sizes) -> signed count,
# where the sign is (-1)^(number of included edges).


def _rooted_states(g: Graph, root: int, tracked: int | None, pairs: list[int] | None = None):
    """The states at ``root``.  ``pairs``, if given, gains the (child state,
    state) pairs each merge takes: [0] with closed sizes kept, [1] without."""
    adj = g.adjacency
    order, parent = [root], {root: -1}
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)

    states: dict[int, dict[tuple, int]] = {}
    for v in reversed(order):
        mine = {(1, -1 if v == tracked else 0, ()): 1}
        for c in adj[v]:
            if parent.get(c) != v:
                continue
            child_states = states.pop(c)
            if pairs is not None:
                pairs[0] += len(mine) * len(child_states)
                pairs[1] += len({key[:2] for key in mine}) * len({key[:2] for key in child_states})
            merged: dict[tuple, int] = {}
            for (sv, tv, pv), av in mine.items():
                for (sc, tc, pc), ac in child_states.items():
                    weight = av * ac
                    # exclude the edge v-c: the child component closes
                    if tc == -1:
                        key = (sv, sc, tuple(sorted(pv + pc)))
                    else:
                        track = tv if tv else tc
                        key = (sv, track, tuple(sorted(pv + pc + (sc,))))
                    merged[key] = merged.get(key, 0) + weight
                    # include the edge v-c: root components fuse, sign flips
                    track = -1 if (tv == -1 or tc == -1) else (tv if tv else tc)
                    key = (sv + sc, track, tuple(sorted(pv + pc)))
                    merged[key] = merged.get(key, 0) - weight
            mine = merged
        states[v] = mine
    return states[root]


def _tree_terms(g: Graph, root: int) -> dict[tuple, int]:
    """Signed type counts of one tree component (root component included)."""
    terms: dict[tuple, int] = {}
    for (sr, _, closed), coeff in _rooted_states(g, root, None).items():
        key = tuple(sorted(closed + (sr,), reverse=True))
        terms[key] = terms.get(key, 0) + coeff
    return terms


def forest_csf(g: Graph) -> PowerSumPolynomial:
    """X_G for a forest, via per-tree DP and cross-component convolution."""
    total: dict[tuple, int] = {(): 1}
    for comp in _components(g.adjacency, [-1] * g.vertex_count):
        part = _tree_terms(g, comp[0])
        combined: dict[tuple, int] = {}
        for pa, ca in total.items():
            for pb, cb in part.items():
                key = tuple(sorted(pa + pb, reverse=True))
                combined[key] = combined.get(key, 0) + ca * cb
        total = combined
    return PowerSumPolynomial(g.vertex_count, {k: c for k, c in total.items() if c})


def unicyclic_csf(g: Graph) -> PowerSumPolynomial:
    """X_G for a connected unicyclic graph, splitting on one cycle edge.

    Subsets without the chosen cycle edge are exactly the spanning tree's
    expansion; subsets with it get the tree expansion re-typed by fusing
    the components of the edge's endpoints, with one extra sign flip.
    """
    assert g.vertex_count == g.edge_count
    cyc = set(cycle_vertices_by_stripping(g))
    e0 = next(i for i, (u, v) in enumerate(g.edges) if u in cyc and v in cyc)
    a, b = g.edges[e0]
    tree = g.with_edges_removed([e0])

    terms: dict[tuple, int] = {}
    for (sr, _, closed), coeff in _rooted_states(tree, a, None).items():
        key = tuple(sorted(closed + (sr,), reverse=True))
        terms[key] = terms.get(key, 0) + coeff
    for (sr, tracked, closed), coeff in _rooted_states(tree, a, b).items():
        if tracked == -1:
            key = tuple(sorted(closed + (sr,), reverse=True))
        else:
            key = tuple(sorted(closed + (sr + tracked,), reverse=True))
        terms[key] = terms.get(key, 0) - coeff
    return PowerSumPolynomial(g.vertex_count, {k: c for k, c in terms.items() if c})


def sparse_merge_pairs(g: Graph) -> tuple[int, int]:
    """(child state, state) pairs the tree or unicyclic DP of ``csfkit.csf``
    merges on a connected g with at most one cycle, with closed sizes kept (as
    ``csf_codes``) and without (as ``csf_value``), counted on this module's
    DP over the same rooted tree: rooted at vertex 0 for a tree, and for a
    unicyclic g the tree left by the cycle edge x-y that a breadth-first pass
    from vertex 0 skips, rooted at x and tracking y.  Without closed sizes a
    unicyclic g is counted as ``csf_value`` runs it: the hanging trees of
    the cycle path y .. x, each rooted at its cycle vertex, and then a fold
    over (open size, size of the first tree's closed component or 0) states
    around that path from its first smallest tree, one pair per state and
    root size of the next tree."""
    pairs = [0, 0]
    if g.edge_count < g.vertex_count:
        _rooted_states(g, 0, None, pairs)
        return pairs[0], pairs[1]
    adj, parent = g.adjacency, [-1] * g.vertex_count
    x, y = next((x, y) for x in _bfs(adj, 0, parent) for y in adj[x] if parent[x] != y and parent[y] != x)
    tree = g.with_edges_removed([g.index_of(x, y)])
    _rooted_states(tree, x, y, pairs)
    parent = [-1] * g.vertex_count
    _bfs(tree.adjacency, x, parent)
    cycle = [y]
    while cycle[-1] != x:
        cycle.append(parent[cycle[-1]])
    hanging = tree.with_edges_removed([tree.index_of(u, v) for u, v in zip(cycle, cycle[1:])])
    value_pairs, roots = [0, 0], []
    for v in cycle:
        roots.append({key[0] for key in _rooted_states(hanging, v, None, value_pairs)})
    start = min(range(len(roots)), key=lambda i: max(roots[i]))
    roots = roots[start:] + roots[:start]
    states, fold = {(a, 0) for a in roots[0]}, 0
    for sizes in roots[1:]:
        fold += len(states) * len(sizes)
        states = {key for a, f in states for b in sizes for key in ((a + b, f), (b, f or a))}
    return pairs[0], value_pairs[1] + fold


def set_partition_steps(g: Graph, codes: bool) -> int:
    """Steps the set-partition DP of ``csfkit.csf`` takes on a connected g with
    its vertices in breadth-first order from 0: one per independent subset of
    B - min(B) that c's scan visits, for each connected B with no vertex of
    degree 1 in G[B], and, for each remaining set R and connected
    B inside R holding min(R), one per size multiset (one value without
    codes) that R's map holds, each found here by brute force over subsets."""
    order = _components(g.adjacency, [-1] * g.vertex_count)[0]
    k, index = len(order), {v: i for i, v in enumerate(order)}
    nbr = [{index[w] for w in g.adjacency[v]} for v in order]

    def connected(block: tuple[int, ...]) -> bool:
        seen, stack, inside = {block[0]}, [block[0]], set(block)
        while stack:
            for w in nbr[stack.pop()] & inside:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(block)

    steps = 0
    for size in range(2, k + 1):
        for block in filter(connected, combinations(range(k), size)):
            if all(len(nbr[v].intersection(block)) != 1 for v in block):
                steps += sum(all(w not in nbr[v] for v, w in combinations(sub, 2))
                             for r in range(size) for sub in combinations(block[1:], r))
    pending = {tuple(range(k)): {()}}
    while pending:
        r = min(pending, key=lambda r: r[0])  # every set feeding R has a smaller least vertex
        held = pending.pop(r)
        for size in range(1, len(r) + 1):
            for others in combinations(r[1:], size - 1):
                block = (r[0],) + others
                if not connected(block):
                    continue
                steps += len(held)
                left = tuple(v for v in r if v not in block)
                if left:
                    pending.setdefault(left, set()).update(
                        tuple(sorted(held_sizes + (size,))) if codes else () for held_sizes in held)
    return steps


def unicyclic_candidates_by_walk(n: int, rooted_counts: list[int], limit: int) -> int:
    """``search_work`` for unicyclic graphs by the generator's own split rule:
    at each order k up to n, the product of the rooted tree counts
    ``rooted_counts[order]`` summed over every split that
    ``graph._cycle_orders(k)`` yields, stopping at the first count past
    ``limit``.  Each order costs 2^(k-1) splits."""
    work = 0
    for k in range(1, n + 1):
        work = sum(prod(rooted_counts[order] for order in orders) for orders in _cycle_orders(k))
        if work > limit:
            break
    return work


# ---------------------------------------------------------------------------
# Rooted tree enumeration for the gluing sweep


def all_rooted_trees(n: int, enumerate_trees, rooted_code):
    """One (tree, root) per rooted isomorphism class on n vertices."""
    out = []
    seen = set()
    for t in enumerate_trees(n):
        for root in range(n):
            code = rooted_code(t, root)
            if code not in seen:
                seen.add(code)
                out.append((t, root))
    return out


# ---------------------------------------------------------------------------
# Collision search the earlier way: deduplicated candidates, text fingerprints


def rooted_dedup_trees(n: int):
    """One tree per class: every rooted level sequence, deduplicated by code."""
    seen = set()
    for levels in _level_sequences(n):
        t = tree_from_levels(levels)
        code = canonical_tree_code(t)
        if code not in seen:
            seen.add(code)
            yield t


def _pendant_code(g: Graph, root: int, blocked: set[int]) -> str:
    children = sorted(
        _pendant_code(g, w, blocked | {root}) for w in g.adjacency[root]
        if w not in blocked
    )
    return "(" + "".join(children) + ")"


def unicyclic_canonical_key(g: Graph) -> tuple:
    """Isomorphism-complete key for connected unicyclic graphs.

    The unique cycle is read as a circular sequence of canonical codes of
    the trees hanging at each cycle vertex; the key is the minimum of that
    sequence over both rotations and reflection.
    """
    cyc = cycle_vertices_by_stripping(g)
    cyc_set = set(cyc)
    order = [cyc[0]]
    prev = -1
    while len(order) < len(cyc):
        nbrs = [w for w in g.adjacency[order[-1]] if w in cyc_set and w != prev]
        prev = order[-1]
        order.append(min(nbrs))
    codes = [_pendant_code(g, c, cyc_set - {c}) for c in order]
    best = None
    for seq in (codes, codes[::-1]):
        for shift in range(len(seq)):
            cand = tuple(seq[shift:] + seq[:shift])
            if best is None or cand < best:
                best = cand
    return (len(cyc), best)


def unicyclic_by_edge_addition(n: int):
    """One graph per unicyclic class: every tree plus every non-edge, by key."""
    seen: set[tuple] = set()
    for t in rooted_dedup_trees(n):
        for u, v in combinations(range(n), 2):
            if t.has_edge(u, v):
                continue
            g = t.with_edge_added(u, v)
            key = unicyclic_canonical_key(g)
            if key not in seen:
                seen.add(key)
                yield g


def line_graph(line: str) -> Graph:
    """The graph of one printed ``search`` line, "n m u-v u-v ..."."""
    order, _, *pairs = line.split()
    return Graph(int(order), tuple(tuple(map(int, pair.split("-"))) for pair in pairs))


def text_fingerprint_groups(n: int, graph_class: str) -> list[list[Graph]]:
    """Collision groups of a class, bucketing graphs by their printed X_G."""
    if graph_class == "tree":
        graphs = rooted_dedup_trees(n)
    else:
        graphs = unicyclic_by_edge_addition(n)
    buckets: dict[str, list[Graph]] = {}
    for g in graphs:
        buckets.setdefault(chromatic_symmetric_function(g).to_text(), []).append(g)
    return [members for members in buckets.values() if len(members) >= 2]


# ---------------------------------------------------------------------------
# Triangle reduce without merging pending graphs


def first_triangle_by_pairs(g: Graph) -> tuple[int, int, int] | None:
    """Lowest-index (e1, e2, e3) forming a triangle, scanning edge pairs."""
    for i, j in combinations(range(g.edge_count), 2):
        a, b = g.edges[i], g.edges[j]
        shared = set(a) & set(b)
        if len(shared) != 1:
            continue
        v1 = (set(a) - shared).pop()
        v2 = (set(b) - shared).pop()
        if g.has_edge(v1, v2):
            return i, j, g.index_of(v1, v2)
    return None


def reduce_unmerged(g: Graph) -> GraphCombination:
    """Erase triangles depth first, with no split budget; identical graphs are
    merged only once triangle-free.  K6 takes 7,318 splits this way."""
    pending: list[tuple[int, Graph]] = [(1, g)]
    settled: dict[tuple[int, frozenset], tuple[int, Graph]] = {}
    while pending:
        coeff, h = pending.pop()
        tri = first_triangle_by_pairs(h)
        if tri is None:
            key = (h.vertex_count, frozenset(h.edges))
            old_coeff = settled[key][0] if key in settled else 0
            settled[key] = (old_coeff + coeff, h)
            continue
        for sub_coeff, sub in triangle_split(h, *tri).terms:
            pending.append((coeff * sub_coeff, sub))
    terms = [(c, h) for c, h in settled.values() if c]
    terms.sort(key=lambda item: (-item[1].edge_count, item[1].edges))
    return GraphCombination(tuple(terms))


def merged_split_count(g: Graph) -> int:
    """Splits of the triangle reduce with equal pending graphs merged one edge
    count at a time, each split at ``first_triangle_by_pairs``; pending graphs
    are keyed by their kept edges, which stay in g's order."""
    levels: list[dict] = [{} for _ in range(g.edge_count + 1)]
    levels[-1][g.edges] = 1
    splits = 0
    for level in reversed(levels):
        for edges, coeff in level.items():
            h = Graph(g.vertex_count, edges)
            tri = first_triangle_by_pairs(h) if coeff else None
            if tri is None:
                continue
            splits += 1
            for sub_coeff, sub in triangle_split(h, *tri).terms:
                below = levels[sub.edge_count]
                below[sub.edges] = below.get(sub.edges, 0) + coeff * sub_coeff
    return splits


# ---------------------------------------------------------------------------
# Edge attraction by its definition


def _path_edges(t: Graph, start: int, goal: int) -> set[int]:
    """Edge indices on the unique start-goal path."""
    parent = [-1] * t.vertex_count
    _bfs(t.adjacency, start, parent)
    path = set()
    while goal != start:
        path.add(t.index_of(goal, parent[goal]))
        goal = parent[goal]
    return path


def attracts_by_paths(t: Graph, ea: int, eb: int) -> bool:
    """True if the path from some centroid to some endpoint of ea or eb
    contains both edges."""
    endpoints = set(t.edges[ea]) | set(t.edges[eb])
    for c in centroid(t):
        for tip in endpoints:
            path = _path_edges(t, c, tip)
            if ea in path and eb in path:
                return True
    return False


# ---------------------------------------------------------------------------
# First difference of two functions


def first_difference_by_sort(a: PowerSumPolynomial, b: PowerSumPolynomial):
    """``first_difference`` by a descending scan of every partition either
    function names: None if equal, "degree" if only the degrees differ."""
    if a.degree == b.degree and a.terms == b.terms:
        return None
    for key in sorted(set(a.terms) | set(b.terms), reverse=True):
        if a.terms.get(key, 0) != b.terms.get(key, 0):
            return key, a.terms.get(key, 0), b.terms.get(key, 0)
    return "degree", a.degree, b.degree
