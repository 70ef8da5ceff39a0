"""Collision search: enumerate a graph class up to isomorphism and group the
graphs whose chromatic symmetric functions are equal.

Trees come from the Wright-Richmond-Odlyzko-McKay generator and connected
unicyclic graphs from cycles with rooted trees attached; both produce each
class exactly once, so nothing is deduplicated.  A graph's fingerprint is its
exact map from part-size codes to coefficients (``csf_codes``): at a fixed
order equal maps mean equal functions.  Graphs are bucketed by the hash of
that map, keeping only the printed line, and every bucket with two or more
members is split again by the exact maps, so groups never rest on a hash;
holding every map instead would take about 28 KB per tree at n = 15.  The
number of candidates the generator would visit is computed first, and a
search above SEARCH_WORK_LIMIT is refused before any graph is built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .csf import csf_codes
from .errors import ResourceLimitError
from .graph import Graph, enumerate_trees, enumerate_unicyclic

# tree n = 18 (123,867 trees) and unicyclic n = 13 (95,190 sequences) run;
# tree n = 19 and unicyclic n = 14 are refused
SEARCH_WORK_LIMIT = 1 << 18


@dataclass(frozen=True)
class CollisionReport:
    n: int
    graph_class: str
    graph_count: int
    groups: tuple[tuple[str, ...], ...]
    elapsed_seconds: float


def _cycle_sequences(r: list[int], n: int) -> int:
    """Sequences of p >= 3 rooted trees whose orders sum to n."""
    ways, total = [1] + [0] * n, 0  # ways[m]: sequences of p trees of total order m
    for p in range(1, n + 1):
        ways = [sum(ways[m - s] * r[s] for s in range(1, m + 1)) for m in range(n + 1)]
        if p >= 3:
            total += ways[n]
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


def _line_graph(line: str) -> Graph:
    """Inverse of :func:`_graph_line`."""
    order, _, *pairs = line.split()
    return Graph(int(order), tuple(tuple(map(int, pair.split("-"))) for pair in pairs))


def _fingerprint(g: Graph, max_edges: int) -> frozenset:
    return frozenset(csf_codes(g, max_edges).items())


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
    graphs = enumerate_trees(n) if graph_class == "tree" else enumerate_unicyclic(n)
    buckets: dict[int, list[str]] = {}
    for g in graphs:
        buckets.setdefault(hash(_fingerprint(g, max_edges)), []).append(_graph_line(g))
    groups = []
    for lines in buckets.values():
        if len(lines) >= 2:
            exact: dict[frozenset, list[str]] = {}
            for line in lines:
                exact.setdefault(_fingerprint(_line_graph(line), max_edges), []).append(line)
            groups += [tuple(members) for members in exact.values() if len(members) >= 2]
    return CollisionReport(
        n=n,
        graph_class=graph_class,
        graph_count=sum(len(lines) for lines in buckets.values()),
        groups=tuple(groups),
        elapsed_seconds=time.monotonic() - start,
    )
