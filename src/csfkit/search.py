"""Collision search: enumerate a graph class up to isomorphism and group the
graphs whose chromatic symmetric functions are equal.

Trees come from the Wright-Richmond-Odlyzko-McKay generator and connected
unicyclic graphs from cycles with rooted trees attached; both produce each
class exactly once, so nothing is deduplicated.  A first pass keeps one
64-bit hash per graph, of X_G at one fixed point (``csf_value``, every p_s
replaced by a fixed odd 61-bit weight); equal functions give equal values,
so only graphs whose hash repeats can share a function.  When some hash
repeats, a second pass enumerates the class again up to the last repeated
position and groups the graphs at repeated positions by their exact maps
from part-size codes to coefficients (``csf_codes``), which at a fixed order
are equal exactly when the functions are, so groups never rest on a value or
a hash.  A value costs one kernel state per component size where a map
costs one per size multiset, and a map and a printed line are only built for
graphs whose hash repeats.  Groups are listed by their first member, in
enumeration order.  The number of candidates the generator would visit is
computed first, and a search above SEARCH_WORK_LIMIT is refused before any
graph is built.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass

from .csf import csf_codes, csf_value
from .errors import ResourceLimitError
from .graph import Graph, enumerate_trees, enumerate_unicyclic

# tree n = 18 (123,867 trees) and unicyclic n = 14 (129,147 sequences) run;
# tree n = 19 and unicyclic n = 15 (371,802 sequences) are refused
SEARCH_WORK_LIMIT = 1 << 18


@dataclass(frozen=True)
class CollisionReport:
    n: int
    graph_class: str
    graph_count: int
    groups: tuple[tuple[str, ...], ...]
    elapsed_seconds: float


def _cycle_sequences(r: list[int], n: int) -> int:
    """Sequences of p >= 3 rooted trees whose orders sum to n, no tree smaller
    than the first."""
    total = 0
    for a in range(1, n + 1):
        ways = [1] + [0] * n  # ways[m]: sequences of trees of order >= a, total order m
        for m in range(1, n - a + 1):
            ways[m] = sum(r[s] * ways[m - s] for s in range(a, m + 1))
        rest = n - a  # two or more trees follow the first
        total += r[a] * (ways[rest] - (rest == 0) - (r[rest] if rest >= a else 0))
    return total


def search_work(n: int, graph_class: str) -> int:
    """Candidates the class generator visits at order n.

    Trees: the t(n) free trees, by Otter's formula from the rooted-tree
    numbers r(k).  Unicyclic: the sequences of p >= 3 rooted trees whose
    orders sum to n.  Both counts grow with n, so counting stops at the first
    order whose count exceeds SEARCH_WORK_LIMIT and returns that count.
    """
    r, work = [0, 1], 0  # r[k]: rooted trees on k vertices (OEIS A000081)
    for k in range(1, n + 1):
        if k > 1:
            r.append(sum(sum(d * r[d] for d in range(1, j + 1) if j % d == 0) * r[k - j]
                         for j in range(1, k)) // (k - 1))
        if graph_class == "tree":
            pairs = sum(r[i] * r[k - i] for i in range(1, k)) - (r[k // 2] if k % 2 == 0 else 0)
            work = r[k] - pairs // 2
        else:
            work = _cycle_sequences(r, k)
        if work > SEARCH_WORK_LIMIT:
            break
    return work


def _graph_line(g: Graph) -> str:
    body = " ".join(f"{u}-{v}" for u, v in g.edges)
    return f"{g.vertex_count} {g.edge_count} {body}".rstrip()


def _point(n: int) -> list[int]:
    """Fixed odd 61-bit weights for part sizes 0..n (Fibonacci hashing of s)."""
    return [(0x9E3779B97F4A7C15 * (s + 1)) % (1 << 61) | 1 for s in range(n + 1)]


def run_search(n: int, graph_class: str, max_edges: int) -> CollisionReport:
    """Group the graphs of one class and order by exact equality of X_G."""
    start = time.monotonic()
    if graph_class not in ("tree", "unicyclic"):
        raise ValueError(f"unknown graph class {graph_class!r}")
    needed = n - 1 if graph_class == "tree" else n
    if needed > max_edges:
        raise ResourceLimitError(
            f"{graph_class} search at n={n} needs {needed}-edge enumerations, cap is {max_edges}"
        )
    work = search_work(n, graph_class)
    if work > SEARCH_WORK_LIMIT:
        raise ResourceLimitError(
            f"{graph_class} search at n={n} visits at least {work} candidates, "
            f"above the limit of {SEARCH_WORK_LIMIT}"
        )
    graphs = enumerate_trees if graph_class == "tree" else enumerate_unicyclic
    point = _point(n)
    hashes = array("q", (hash(csf_value(g, point, max_edges)) for g in graphs(n)))
    seen, shared = set(), set()
    for h in hashes:
        (shared if h in seen else seen).add(h)
    exact: dict[frozenset, list[str]] = {}
    if shared:  # hashes lead the zip, so no graph past the last repeated one is built
        last = next(i for i in reversed(range(len(hashes))) if hashes[i] in shared)
        for h, g in zip(hashes[:last + 1], graphs(n)):
            if h in shared:
                exact.setdefault(frozenset(csf_codes(g, max_edges).items()), []).append(_graph_line(g))
    return CollisionReport(
        n=n,
        graph_class=graph_class,
        graph_count=len(hashes),
        # a dict keeps insertion order, so groups are listed by first member
        groups=tuple(tuple(group) for group in exact.values() if len(group) >= 2),
        elapsed_seconds=time.monotonic() - start,
    )
