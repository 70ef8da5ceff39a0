"""Rewriting rules that express X_G through graphs with other edge sets.

A triangle can be erased two ways (one term per deleted edge, minus the
double deletion, or the doubled base-edge deletion), and an open wedge can
be traded for its closing edge.  Each rule returns a formal integer
combination of graphs on the same vertex set whose signed CSF sum equals
X_G exactly; ``combination_csf`` evaluates that sum.  ``reduce_triangle_free``
applies the triangle rule until no triangle remains, within a work budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .csf import PowerSumPolynomial, chromatic_symmetric_function
from .errors import ResourceLimitError
from .graph import Graph, _check_edge_indices, _edge_triangles
from .partitions import Partition

# Triangle splits one reduce_triangle_free call may make, each counted once
# per 64 triangle edges of the input.  With equal pending graphs merged before
# they are split, K6 in sorted edge order takes 256, K7 1,807 and K8 14,477,
# so K9 and larger are refused.
REDUCE_WORK_LIMIT = 1 << 15


@dataclass(frozen=True)
class GraphCombination:
    """Formal sum of coefficient-weighted graphs; zero terms are dropped."""

    terms: tuple[tuple[int, Graph], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((c, g) for c, g in self.terms if c != 0))


def _check_triangle(g: Graph, e1: int, e2: int, e3: int) -> None:
    """ValueError unless e1, e2, e3 are three distinct edges of one triangle."""
    if len({e1, e2, e3}) != 3:
        raise ValueError("triangle rule needs three distinct edge indices")
    _check_edge_indices(g, (e1, e2, e3))
    # Three distinct edges on three vertices are exactly a triangle.
    if len({*g.edges[e1], *g.edges[e2], *g.edges[e3]}) != 3:
        raise ValueError(f"edges {e1}, {e2}, {e3} do not form a triangle")


def triangle_split(g: Graph, e1: int, e2: int, e3: int) -> GraphCombination:
    """Erase a triangle: X_G = X_{G-e1} + X_{G-e2} - X_{G-e1-e2}."""
    _check_triangle(g, e1, e2, e3)
    return GraphCombination((
        (1, g.with_edges_removed([e1])),
        (1, g.with_edges_removed([e2])),
        (-1, g.with_edges_removed([e1, e2])),
    ))


def path_split(g: Graph, e1: int, e2: int) -> GraphCombination:
    """Trade a wedge for its missing closing edge.

    With e1 = v-v1 and e2 = v-v2 sharing only v and v1-v2 absent,
    X_G = X_{(G-e1)+v1v2} + X_{G-e2} - X_{(G-e1-e2)+v1v2}.
    """
    if e1 == e2:
        raise ValueError("path rule needs two distinct edge indices")
    _check_edge_indices(g, (e1, e2))
    a, b = g.edges[e1], g.edges[e2]
    shared = set(a) & set(b)
    if len(shared) != 1:
        raise ValueError(f"edges {e1} and {e2} do not share exactly one endpoint")
    v = shared.pop()
    v1 = a[0] if a[1] == v else a[1]
    v2 = b[0] if b[1] == v else b[1]
    if g.has_edge(v1, v2):
        raise ValueError(f"closing edge ({v1}, {v2}) is already present")
    return GraphCombination((
        (1, g.with_edges_removed([e1]).with_edge_added(v1, v2)),
        (1, g.with_edges_removed([e2])),
        (-1, g.with_edges_removed([e1, e2]).with_edge_added(v1, v2)),
    ))


def wedge_split(g: Graph, e1: int, e2: int, e3: int) -> GraphCombination:
    """Erase a triangle into wedges:
    X_G = 2 X_{G-e3} + X_{G-e1-e2} - X_{G-e2-e3} - X_{G-e1-e3}."""
    _check_triangle(g, e1, e2, e3)
    return GraphCombination((
        (2, g.with_edges_removed([e3])),
        (1, g.with_edges_removed([e1, e2])),
        (-1, g.with_edges_removed([e2, e3])),
        (-1, g.with_edges_removed([e1, e3])),
    ))


def _triangle_table(g: Graph) -> list[tuple[int, list[list[int]]]]:
    """Each edge e1 of g that is the lowest edge of a triangle, in order, with
    the other two edges [e2, e3], e1 < e2 < e3, of those triangles, sorted.
    In a subgraph of g, the first kept pair at the first kept e1 having one
    is the lowest pair e1 < e2 sharing a vertex whose closing edge e3 is kept."""
    at: list[dict[int, int]] = [{} for _ in range(g.vertex_count)]
    for i, (u, v) in enumerate(g.edges):
        at[u][v] = at[v][u] = i
    table = [(e1, sorted(sorted((at[u][w], at[v][w])) for w in at[u].keys() & at[v].keys()
                         if e1 < min(at[u][w], at[v][w])))
             for e1, (u, v) in enumerate(g.edges)]
    return [row for row in table if row[1]]


def _refuse_reduce(what: str, words: int, edges: int) -> None:
    weight = f", each counted {words} times for its {edges} triangle edges" if words > 1 else ""
    raise ResourceLimitError(f"triangle reduce{what} needs more than {REDUCE_WORK_LIMIT} splits{weight}")


def reduce_triangle_free(g: Graph) -> GraphCombination:
    """Erase triangles by the rule of ``triangle_split`` until none remain.

    Every pending graph is g less some of the t edges that lie in a triangle
    of g, survivors in g's order, so the bitmask of those t edges it keeps
    names it; every other edge is in every term.  Its split takes the first
    triangle (e1, e2, e3) of ``_triangle_table(g)`` with all bits set and
    clears e1, e2, or both.  Masks are worked through one edge count at a
    time, from t down to 0: a level has received all its contributions
    before any of its masks is split, and equal masks are merged there first.
    A Graph is built only for each triangle-free term returned.

    A split costs its mask's w = ceil(t / 64) words.  The number of splits is
    not known in advance, so the budget is a running count: the split that
    takes it past REDUCE_WORK_LIMIT raises ResourceLimitError.  Every
    triangle of g is split at least once, so a graph whose triangle count
    times w passes the limit is refused from counts, before any mask exists.
    For a triangle T, the coefficients of the pending masks keeping all of T
    sum to 1 at the start and to 0 at the end.  A split of another triangle
    keeps that sum: T holds at most one of the cleared edges, so either all
    three children keep T (c + c - c for a mask of coefficient c) or exactly
    one child of coefficient c does.  Merging masks and skipping zero ones
    keep it too, so only splits of T lower it.
    """
    on = _edge_triangles(g)
    tri = [i for i, count in enumerate(on) if count]  # the t edges in a triangle
    t, triangles = len(tri), sum(on) // 3
    words = -(-t // 64)
    if triangles * words > REDUCE_WORK_LIMIT:
        _refuse_reduce(f" of {triangles} triangles", words, t)
    bit = {e: 1 << j for j, e in enumerate(tri)}
    table = [(bit[e1], [(bit[e2], bit[e2] | bit[e3]) for e2, e3 in pairs])
             for e1, pairs in _triangle_table(g)]
    levels: list[dict[int, int]] = [{} for _ in range(t + 1)]
    levels[-1][(1 << t) - 1] = 1
    free: list[tuple[int, int]] = []
    work = 0
    for level in reversed(levels):
        for mask, coeff in level.items():
            if not coeff:
                continue
            split = next(((b1, b2) for b1, pairs in table if mask & b1
                          for b2, both in pairs if mask & both == both), None)
            if split is None:
                free.append((coeff, mask))
                continue
            work += words
            if work > REDUCE_WORK_LIMIT:
                _refuse_reduce("", words, t)
            b1, b2 = split
            for sub_mask, sub_coeff in ((mask ^ b1, coeff), (mask ^ b2, coeff), (mask ^ b1 ^ b2, -coeff)):
                below = levels[sub_mask.bit_count()]
                below[sub_mask] = below.get(sub_mask, 0) + sub_coeff
        level.clear()
    other = (1 << g.edge_count) - 1 - sum(1 << e for e in tri)  # g's edges in no triangle
    terms = []
    for coeff, mask in free:
        if other:  # the term's edges as a mask over g's edge indices
            mask = other + sum(1 << e for j, e in enumerate(tri) if mask >> j & 1)
        # bin(mask) read from its low bit selects the kept edges.
        kept = compress(g.edges, map("1".__eq__, bin(mask)[:1:-1]))
        terms.append((coeff, Graph(g.vertex_count, tuple(kept))))
    terms.sort(key=lambda item: (-item[1].edge_count, item[1].edges))
    return GraphCombination(tuple(terms))


def combination_csf(c: GraphCombination) -> PowerSumPolynomial:
    """Signed sum of member CSFs; members must share one vertex count."""
    if not c.terms:
        raise ValueError("empty combination has no well-defined degree")
    n = c.terms[0][1].vertex_count
    if any(g.vertex_count != n for _, g in c.terms):
        raise ValueError("combination mixes vertex counts")
    total: dict[Partition, int] = {}
    for coeff, g in c.terms:
        x = chromatic_symmetric_function(g)
        for p, value in x.terms.items():
            total[p] = total.get(p, 0) + coeff * value
    return PowerSumPolynomial(n, total)
