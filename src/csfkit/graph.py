"""Simple undirected graphs with indexed edge lists.

Edges are stored as (u, v) pairs with u < v, and the position of a pair in
the edge tuple is its stable index: rewriting rules and theta tables refer
to edges by these indices.  Vertices are 0..vertex_count-1; disconnected
graphs and isolated vertices are legal everywhere except the tree- and
unicyclic-specific operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations, product
from typing import Iterable, Iterator

from .errors import GraphParseError, NotATreeError, ResourceLimitError
from .partitions import _NATURAL, Partition

# Largest vertex count a parsed header may declare, checked before any
# per-vertex list exists: csf on 100,000 isolated vertices takes under 1 s.
MAX_VERTICES = 100_000


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if type(self.vertex_count) is not int or self.vertex_count < 0:
            raise ValueError(f"vertex_count {self.vertex_count!r} is not a nonnegative int")
        seen = set()  # the one edge check
        for i, (u, v) in enumerate(self.edges):
            problem = (f"edge ({u!r}, {v!r}) has an endpoint that is not an int"
                       if type(u) is not int or type(v) is not int else
                       f"self-loop at vertex {u}" if u == v else
                       f"duplicate edge ({u}, {v})" if (u, v) in seen else
                       f"edge ({u}, {v}) out of range or not u < v" if not 0 <= u < v < self.vertex_count else
                       None)
            if problem:
                error = ValueError(problem)
                error.edge_index = i  # parse_graph names the line from it
                raise error
            seen.add((u, v))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(nbrs) for nbrs in adj)

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_index

    def index_of(self, u: int, v: int) -> int:
        """Edge index of the pair (u, v); KeyError if absent."""
        if u > v:
            u, v = v, u
        return self._edge_index[(u, v)]

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def with_edges_removed(self, indices: Iterable[int]) -> "Graph":
        """Copy without the given edge indices; survivors keep their order."""
        drop = set(indices)
        _check_edge_indices(self, drop)
        kept = tuple(e for i, e in enumerate(self.edges) if i not in drop)
        return Graph(self.vertex_count, kept)

    def with_edge_added(self, u: int, v: int) -> "Graph":
        """Copy with (u, v) appended as the last edge index."""
        return Graph(self.vertex_count, self.edges + ((min(u, v), max(u, v)),))

    def to_text(self) -> str:
        lines = [f"{self.vertex_count} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: "n m" header, then m lines "u v", u < v.

    Edge index equals zero-based line order.  Errors name the 1-based line;
    ``Graph`` checks the edges, and its refusal names the first bad edge's.
    """
    lines = text.splitlines()
    if not lines:
        raise GraphParseError("line 1: missing 'n m' header")
    head = lines[0].split()
    if len(head) != 2 or not all(map(_NATURAL.fullmatch, head)):
        raise GraphParseError(f"line 1: expected 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if n > MAX_VERTICES:
        raise ResourceLimitError(f"line 1: {n} vertices, above the limit of {MAX_VERTICES}")
    body = lines[1:]
    if len(body) < m:
        raise GraphParseError(f"line {len(lines) + 1}: expected {m} edge lines, got {len(body)}")
    if len(body) > m and any(ln.strip() for ln in body[m:]):
        raise GraphParseError(f"line {m + 2}: trailing content after {m} edges")
    edges: list[tuple[int, int]] = []
    for lineno, ln in enumerate(body[:m], start=2):
        toks = ln.split()
        if len(toks) != 2 or not all(map(_NATURAL.fullmatch, toks)):
            raise GraphParseError(f"line {lineno}: expected 'u v', got {ln!r}")
        edges.append((int(toks[0]), int(toks[1])))
    try:
        return Graph(n, tuple(edges))
    except ValueError as exc:
        raise GraphParseError(f"line {exc.edge_index + 2}: {exc}") from None


# ---------------------------------------------------------------------------
# Components and subset types


def _bfs(adj, root: int, parent: list[int]) -> list[int]:
    """Vertices reachable from root in breadth-first order.  ``parent`` is also
    the visited mark (negative: unvisited); each vertex reached gets the vertex
    it was reached from, and the root gets itself."""
    parent[root] = root
    order = [root]
    for x in order:
        for y in adj[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    return order


def _components(adj, parent: list[int]) -> list[list[int]]:
    """Breadth-first vertex order of each component, in first-vertex order, by
    ``_bfs`` from each vertex still unvisited in ``parent`` (all -1 to start)."""
    return [_bfs(adj, s, parent) for s in range(len(adj)) if parent[s] < 0]


def _root_path(parent: list[int], v: int) -> list[int]:
    """v, its parent, and so on up to the root (the root is its own parent)."""
    path = [v]
    while parent[v] != v:
        v = parent[v]
        path.append(v)
    return path


def _check_edge_indices(g: Graph, indices) -> None:
    """ValueError naming the first of a collection's indices outside 0..m-1."""
    m = g.edge_count
    if indices and (min(indices) < 0 or max(indices) >= m):
        bad = next(i for i in indices if not 0 <= i < m)
        raise ValueError(f"edge index {bad} out of range 0..{m - 1}")


def pi_type(g: Graph, edge_indices: Iterable[int]) -> Partition:
    """Type of an edge subset: component orders of (V, S), largest first."""
    m = g.edge_count
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for i in edge_indices:  # checked as read, so callers may pass any iterable
        if not 0 <= i < m:
            raise ValueError(f"edge index {i} out of range 0..{m - 1}")
        u, v = g.edges[i]
        adj[u].append(v)
        adj[v].append(u)
    return tuple(sorted(map(len, _components(adj, [-1] * g.vertex_count)), reverse=True))


def require_tree(g: Graph, what: str = "operation", root: int = 0) -> tuple[list[int], list[int]]:
    """Breadth-first (order, parent) of the tree g from root, by one ``_bfs``:
    NotATreeError unless g has n >= 1 vertices, n - 1 edges and the pass
    reaches them all; for a tree, ValueError if root is outside 0..n-1."""
    n = g.vertex_count
    order, parent = [], [-1] * n
    if n and g.edge_count == n - 1:
        order = _bfs(g.adjacency, root if 0 <= root < n else 0, parent)
    if not order or len(order) != n:
        raise NotATreeError(f"{what} requires a tree (connected and acyclic)")
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range 0..{n - 1}")
    return order, parent


# ---------------------------------------------------------------------------
# Structural invariants counted directly from the graph


@dataclass(frozen=True)
class StructuralReport:
    vertex_count: int
    edge_count: int
    degree_sequence: tuple[int, ...]
    sum_squared_degrees: int
    triangle_count: int
    girth: int | None  # None encodes infinite girth (acyclic graph)
    matching_counts: tuple[int, ...]  # entry k-1 = number of k-edge matchings


def _edge_triangles(g: Graph) -> list[int]:
    """The number of triangles on each edge, by edge index; they sum to three
    times the triangle count."""
    nbr = [set(a) for a in g.adjacency]
    return [len(nbr[u] & nbr[v]) for u, v in g.edges]


def _girth(g: Graph) -> int | None:
    """Length of a shortest cycle (None if acyclic): the least depth(u) + depth(v) + 1
    over the edges uv a breadth-first pass from some start does not take."""
    n, adj = g.vertex_count, g.adjacency
    best: int | None = None
    for s in range(n):
        parent, depth = [-1] * n, [0] * n
        for v in _bfs(adj, s, parent)[1:]:
            depth[v] = depth[parent[v]] + 1
        for u, v in g.edges:
            if parent[u] >= 0 and parent[u] != v and parent[v] != u:  # v is reached with u
                if best is None or depth[u] + depth[v] + 1 < best:
                    best = depth[u] + depth[v] + 1
    return best


def _matching_counts(g: Graph) -> tuple[int, ...]:
    """counts[k-1] = number of k-edge matchings, by a DP over the vertices in
    order keyed by (later vertices already matched, matching size); after
    vertex v a key holds at most min(v + 1, n - 1 - v) vertices."""
    later = [[w for w in nbrs if w > v] for v, nbrs in enumerate(g.adjacency)]
    states = {(0, 0): 1}
    for v, nbrs in enumerate(later):
        bit, step = 1 << v, {}
        for (matched, size), count in states.items():
            if matched & bit:  # v was matched to an earlier vertex
                moves = [(matched ^ bit, size)]
            else:  # v stays unmatched, or takes a later neighbour not yet matched
                moves = [(matched, size)] + [(matched | 1 << w, size + 1) for w in nbrs
                                             if not matched >> w & 1]
            for key in moves:
                step[key] = step.get(key, 0) + count
        states = step
    return tuple(states[0, k] for k in range(1, len(states)))


def structural_report(g: Graph) -> StructuralReport:
    degs = sorted(g.degrees(), reverse=True)
    return StructuralReport(
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        degree_sequence=tuple(degs),
        sum_squared_degrees=sum(d * d for d in degs),
        triangle_count=sum(_edge_triangles(g)) // 3,
        girth=_girth(g),
        matching_counts=_matching_counts(g),
    )


# ---------------------------------------------------------------------------
# Trees: weights, centroids, cycle statistics of unicyclic graphs


def vertex_weights(t: Graph) -> list[int]:
    """weight(v) = largest component order of T - v (0 for the 1-vertex tree):
    the larger of v's largest child subtree and the rest of T above v."""
    order, parent = require_tree(t, "vertex_weights")
    n = len(order)
    size, heavy = [1] * n, [0] * n  # heavy: largest child subtree
    for v in reversed(order[1:]):
        p = parent[v]
        size[p] += size[v]
        heavy[p] = max(heavy[p], size[v])
    return [max(h, n - s) for h, s in zip(heavy, size)]


def centroid(t: Graph) -> tuple[int, ...]:
    """Vertices of minimum weight: one vertex, or two adjacent vertices."""
    weights = vertex_weights(t)
    low = min(weights)
    verts = tuple(v for v, w in enumerate(weights) if w == low)
    assert len(verts) in (1, 2)
    return verts


@dataclass(frozen=True)
class CycleStats:
    cycle_length: int  # p
    leaf_count: int  # L
    degree2_on_cycle: int  # I


def _reroot_on_cycle(adj, order: list[int], parent: list[int]) -> tuple[list[int], list[int]]:
    """Re-root a unicyclic component's breadth-first tree, given by ``_bfs``'s
    order and ``parent``, at x, one end of the edge x-y the pass skipped (the
    only one, and on the cycle): the links on x's root path are reversed in
    ``parent`` and that path leads the new order.  Returns the new order and
    the cycle y .. x, which is y's path up to the new root."""
    x, y = next((x, y) for x in order for y in adj[x] if parent[x] != y and parent[y] != x)
    path = _root_path(parent, x)
    for child, above in zip(path, path[1:]):
        parent[above] = child
    parent[x] = x
    on_path = set(path)
    return path + [v for v in order if v not in on_path], _root_path(parent, y)


def cycle_vertices(g: Graph) -> list[int]:
    """Vertices of the unique cycle of a connected unicyclic graph, sorted,
    from ``_reroot_on_cycle`` on a breadth-first pass from vertex 0."""
    n, adj = g.vertex_count, g.adjacency
    parent = [-1] * n
    if not n or g.edge_count != n or len(order := _bfs(adj, 0, parent)) != n:
        raise ValueError("expected a connected unicyclic graph")
    return sorted(_reroot_on_cycle(adj, order, parent)[1])


def cycle_stats(g: Graph) -> CycleStats:
    cyc = cycle_vertices(g)
    deg = g.degrees()
    return CycleStats(
        cycle_length=len(cyc),
        leaf_count=sum(1 for d in deg if d == 1),
        degree2_on_cycle=sum(1 for v in cyc if deg[v] == 2),
    )


# ---------------------------------------------------------------------------
# Canonical codes, free-tree and unicyclic enumeration


def rooted_code(t: Graph, root: int) -> str:
    """Canonical nested-parenthesis encoding of a rooted tree."""
    order, parent = require_tree(t, "rooted_code", root)
    children: list[list[str]] = [[] for _ in order]
    for v in reversed(order):  # the root comes last
        code = "(" + "".join(sorted(children[v])) + ")"
        children[parent[v]].append(code)
    return code


def _tree_centers(t: Graph, end: int) -> list[int]:
    """Middle vertex or vertex pair of a longest path.  ``end`` is a vertex
    farthest from some vertex, so it ends a longest path, and a breadth-first
    pass from it ends at the path's other end."""
    parent = [-1] * t.vertex_count
    path = _root_path(parent, _bfs(t.adjacency, end, parent)[-1])
    d = len(path)
    return sorted(path[(d - 1) // 2:d // 2 + 1])


def canonical_tree_code(t: Graph) -> str:
    """Equal codes exactly for isomorphic trees (center-rooted encoding); the
    checking pass from vertex 0 ends at a vertex farthest from it."""
    order, _ = require_tree(t, "canonical_tree_code")
    return min(rooted_code(t, c) for c in _tree_centers(t, order[-1]))


def _successor(levels: list[int], p: int = 0) -> bool:
    """Beyer-Hedetniemi step in place: regenerate levels[p:] by repeating the
    stretch from the last vertex q < p one level above p, period p - q.  With
    p = 0 the step is at the last vertex deeper than level 2, found from the
    end; False, with levels unchanged, when there is none."""
    p = p or next((i for i in range(len(levels) - 1, 0, -1) if levels[i] > 2), 0)
    if not p:
        return False
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    for i in range(p, len(levels)):
        levels[i] = levels[i - (p - q)]
    return True


def _level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """All canonical level sequences of rooted trees on n vertices.

    Beyer-Hedetniemi successor scan: start from the path (1, 2, ..., n) and
    repeatedly regenerate the tail from the last level > 2, which emits every
    rooted tree exactly once in decreasing lexicographic order.
    """
    levels = list(range(1, n + 1))
    yield tuple(levels)
    while _successor(levels):
        yield tuple(levels)


def _center_rooted(levels: list[int], m: int) -> bool:
    """Is this canonical level sequence rooted at a center of its free tree?

    The first subtree (levels[1:m]) is the deepest branch.  The root is the
    center when the deepest other branch is as deep, and one of the two
    centers when it is one shallower; then the half hanging at the other
    center must not exceed the root's half, by order and then by sequence.
    """
    first, rest = levels[1:m], levels[:1] + levels[m:]
    gap = max(first) - max(rest)  # first depth minus rest depth
    if gap != 1:
        return gap < 1
    if len(first) != len(rest):
        return len(first) < len(rest)
    return [x - 1 for x in first] <= rest


def _free_level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """One center-rooted canonical level sequence per free tree on n vertices.

    Wright, Richmond, Odlyzko & McKay (SIAM J. Comput. 15, 1986): walk the
    Beyer-Hedetniemi order from the path rooted at its center, and when a
    sequence is not center-rooted, jump past every sequence that only changes
    the rest of the tree by stepping inside the first subtree, then lowering
    the rest to the shallowest path that can balance it.
    """
    if n <= 2:
        yield tuple(range(1, n + 1))
        return
    levels = list(range(1, n // 2 + 2)) + list(range(2, (n + 1) // 2 + 1))
    while True:
        m = _second_child(levels)
        if _center_rooted(levels, m):
            yield tuple(levels)
            if not _successor(levels):
                return
        else:
            # A step at a grandchild of the root fills the rest with copies of
            # the new first subtree, which already balance it; after a deeper
            # step the tail becomes a path as deep as the new first subtree.
            deeper = levels[m - 1] > 3
            _successor(levels, m - 1)
            if deeper:
                height = max(levels[1:_second_child(levels)])
                levels[n - height + 1:] = range(2, height + 1)


def _second_child(levels: list[int]) -> int:
    """Index of the root's second child, which ends the first subtree (n if none)."""
    return next((i for i in range(2, len(levels)) if levels[i] == 2), len(levels))


def _level_parents(levels) -> list[int]:
    """Parent index of each vertex of a level sequence, -1 at the root."""
    last_at = {levels[0]: 0}
    parents = [-1]
    for i in range(1, len(levels)):
        parents.append(last_at[levels[i] - 1])
        last_at[levels[i]] = i
    return parents


def tree_from_levels(levels: tuple[int, ...]) -> Graph:
    """Rooted level sequence -> tree; parent of i is the last shallower vertex."""
    parents = _level_parents(levels)
    return Graph(len(levels), tuple((parents[i], i) for i in range(1, len(levels))))


def enumerate_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on n vertices,
    generated directly (no isomorphism test or deduplication)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    for levels in _free_level_sequences(n):
        yield tree_from_levels(levels)


def _least_turn(seq: tuple) -> bool:
    """No rotation or reflection of the cyclic sequence is lexicographically smaller."""
    p = len(seq)
    twice, back = seq + seq, seq[::-1] * 2
    return all(seq <= twice[i:i + p] and seq <= back[i:i + p] for i in range(p))


def _cycle_orders(n: int) -> Iterator[list[int]]:
    """The tree orders of each way to split n vertices into p >= 3
    consecutive trees, the first a smallest."""
    for p in range(3, n + 1):
        for cuts in combinations(range(1, n), p - 1):
            orders = [b - a for a, b in zip((0,) + cuts, cuts + (n,))]
            if orders[0] == min(orders):
                yield orders


def _hanging_trees(n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Level sequence and parent list of each rooted tree that can hang at a
    cycle vertex of an n-vertex unicyclic graph (1 to n - 2 vertices), by
    rank: by order, then by place in the Beyer-Hedetniemi scan."""
    return [(levels, _level_parents(levels))
            for order in range(1, n - 1) for levels in _level_sequences(order)]


def _unicyclic_sequences(n: int, trees: list) -> Iterator[tuple[int, ...]]:
    """One sequence of ranks in ``trees`` (``_hanging_trees(n)``) per class of
    connected unicyclic graphs on n vertices: the trees around the cycle.

    Each sequence whose first tree has the smallest order is visited and kept
    only if none of its p rotations and p reflections is lexicographically
    smaller (one that starts with a larger tree always has a smaller rotation).
    """
    ranks: list[list[int]] = [[] for _ in range(n + 1)]  # by order
    for rank, (levels, _) in enumerate(trees):
        ranks[len(levels)].append(rank)
    for orders in _cycle_orders(n):
        for seq in product(*(ranks[order] for order in orders)):
            if _least_turn(seq):
                yield seq


def unicyclic_from_ranks(seq: tuple[int, ...], trees: list) -> Graph:
    """The unicyclic graph of a rank sequence: a cycle through len(seq)
    vertices, the i-th the root of tree ``trees[seq[i]]``, whose vertices are
    numbered consecutively from it in level-sequence order."""
    ups = [trees[rank][1] for rank in seq]
    roots = list(accumulate(map(len, ups), initial=0))
    n = roots.pop()
    edges = [(roots[i - 1], roots[i]) for i in range(1, len(roots))] + [(0, roots[-1])]
    for root, up in zip(roots, ups):
        edges += [(root + up[i], root + i) for i in range(1, len(up))]
    return Graph(n, tuple(sorted(edges)))


def enumerate_unicyclic(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected unicyclic graphs
    on n vertices, generated directly (no isomorphism test or deduplication).

    A class is a cycle C_p (3 <= p <= n) with a rooted tree at each cycle
    vertex, read as the sequence of those trees around the cycle, trees ranked
    by order and then by their place in the Beyer-Hedetniemi scan
    (``_unicyclic_sequences``); ``unicyclic_from_ranks`` builds each graph.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    trees = _hanging_trees(n)
    for seq in _unicyclic_sequences(n, trees):
        yield unicyclic_from_ranks(seq, trees)
