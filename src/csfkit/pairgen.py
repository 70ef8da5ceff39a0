"""Constructing pairs of graphs with equal chromatic symmetric functions.

The sufficient condition: four vertices u, v, w, z with uz, wz, vw present,
uw, vz, uv absent, and an automorphism of the graph minus wz swapping the
pairs {u, w} and {v, z}.  Then adding uw or adding vz yields graphs with the
same CSF.  Gluing two copies each of two rooted trees onto the corners of
that configuration realizes the condition mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, require_tree


@dataclass(frozen=True)
class RootedTree:
    tree: Graph
    root: int

    def __post_init__(self):
        require_tree(self.tree, "RootedTree", self.root)


@dataclass(frozen=True)
class P1Check:
    """Outcome of the sufficient-condition test; falsy with a reason code."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _edge_pattern_reason(g: Graph, u: int, v: int, w: int, z: int) -> str | None:
    for a, b, name in ((u, z, "uz"), (w, z, "wz"), (v, w, "vw")):
        if not g.has_edge(a, b):
            return f"required-edge-missing:{name}"
    for a, b, name in ((u, w, "uw"), (v, z, "vz"), (u, v, "uv")):
        if g.has_edge(a, b):
            return f"forbidden-edge-present:{name}"
    return None


def verify_p1(g: Graph, u: int, v: int, w: int, z: int,
              phi: Sequence[int]) -> P1Check:
    """Check all three clauses of the equal-CSF sufficient condition.

    (a) uz, wz, vw present and uw, vz, uv absent; (b) phi is an automorphism
    of the graph with wz removed; (c) phi carries {u, w} onto {v, z} and
    {v, z} onto {u, w}.
    """
    if len({u, v, w, z}) != 4:
        raise ValueError("u, v, w, z must be distinct vertices")
    n = g.vertex_count
    if len(phi) != n or sorted(phi) != list(range(n)):
        raise ValueError("phi must be a bijection on the vertex set")
    reason = _edge_pattern_reason(g, u, v, w, z)
    if reason:
        return P1Check(False, reason)
    wz = (w, z) if w < z else (z, w)
    rest = frozenset(frozenset(e) for e in g.edges if e != wz)
    mapped = frozenset(frozenset((phi[a], phi[b])) for a, b in g.edges if (a, b) != wz)
    if mapped != rest:
        return P1Check(False, "not-automorphism")
    if {phi[u], phi[w]} != {v, z} or {phi[v], phi[z]} != {u, w}:
        return P1Check(False, "corner-swap-failed")
    return P1Check(True)


def build_pair(g: Graph, u: int, v: int, w: int, z: int) -> tuple[Graph, Graph]:
    """(g + uw, g + vz); requires the edge pattern of clause (a) only."""
    if len({u, v, w, z}) != 4:
        raise ValueError("u, v, w, z must be distinct vertices")
    reason = _edge_pattern_reason(g, u, v, w, z)
    if reason:
        raise ValueError(f"edge pattern violated: {reason}")
    return g.with_edge_added(u, w), g.with_edge_added(v, z)


def glue_rooted_trees(t1: RootedTree, t2: RootedTree) -> tuple[Graph, Graph]:
    """Glue copies of t1 at corners u, z and copies of t2 at v, w.

    Corners are numbered u=0, z=1, v=2, w=3; each tree copy's non-root
    vertices follow in block order, so outputs are reproducible.  The swap
    u<->z, v<->w matching the copies is an automorphism of the base minus
    wz, so the two closures share their CSF by construction.
    """
    corners = {"u": 0, "z": 1, "v": 2, "w": 3}
    n = 4 + 2 * (t1.tree.vertex_count - 1) + 2 * (t2.tree.vertex_count - 1)
    base_edges = [(0, 1), (1, 3), (2, 3)]  # uz, zw, vw
    next_free = 4
    block_maps: dict[str, dict[int, int]] = {}
    for corner_name, rooted in (("u", t1), ("z", t1), ("v", t2), ("w", t2)):
        mapping = {rooted.root: corners[corner_name]}
        for vertex in range(rooted.tree.vertex_count):
            if vertex != rooted.root:
                mapping[vertex] = next_free
                next_free += 1
        block_maps[corner_name] = mapping
        for a, b in rooted.tree.edges:
            x, y = mapping[a], mapping[b]
            base_edges.append((x, y) if x < y else (y, x))
    base = Graph(n, tuple(base_edges))

    phi = list(range(n))
    for left, right in (("u", "z"), ("v", "w")):
        lm, rm = block_maps[left], block_maps[right]
        for original, target in lm.items():
            phi[target] = rm[original]
            phi[rm[original]] = target
    check = verify_p1(base, 0, 2, 3, 1, phi)
    if not check:
        raise AssertionError(f"glue construction broke its own invariant: {check.reason}")
    return build_pair(base, 0, 2, 3, 1)
