"""Collision search: enumerate a graph class up to isomorphism and group the
graphs whose chromatic symmetric functions are equal.

Trees come from the Wright-Richmond-Odlyzko-McKay generator's level
sequences and connected unicyclic graphs from sequences of ranked rooted
trees around a cycle; both produce each class exactly once, so nothing is
deduplicated.  A first pass keeps one 64-bit hash per graph, of X_G at one
fixed point (every p_s replaced by a fixed odd 61-bit weight), and builds no
graph: it runs the value kernel of ``csf_value`` on the sequences
themselves, with each proper subtree's list computed once per search, keyed
by its level sequence, and each hanging tree's by its rank.  Equal functions
give equal values, so only graphs whose hash repeats can share a function.
When some hash repeats, a second pass walks the sequences again up to the
last repeated position, builds the graphs at repeated positions only, and
groups them by their exact maps from part-size codes to coefficients
(``csf_codes``), which at a fixed order are equal exactly when the functions
are, so groups never rest on a value or a hash.  Groups are listed by their
first member, in enumeration order.  The number of candidates the generator
would visit is computed first, and a search above SEARCH_WORK_LIMIT is
refused before any sequence is walked.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from functools import partial
from operator import mul
from typing import Iterator

from .csf import _cycle_value, _merge, csf_codes
from .errors import ResourceLimitError
from .graph import (Graph, _free_level_sequences, _hanging_trees, _unicyclic_sequences, tree_from_levels,
                    unicyclic_from_ranks)

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


def search_work(n: int, graph_class: str) -> int:
    """Candidates the class generator visits at order n.

    Trees: the t(n) free trees, by Otter's formula from the rooted-tree
    numbers r(k).  Unicyclic: the sequences of p >= 3 rooted trees whose
    orders sum to n and whose first tree is a smallest (``graph._cycle_orders``),
    each order k standing for its r(k) trees.  With the first tree of order m,
    the others are one or more trees of at least m vertices each, but not one
    tree alone; ``runs[m][s]`` counts such runs of s vertices in all, one order
    at a time, so each order n costs O(n^2).  Both counts grow with n, so
    counting stops at the first order whose count exceeds SEARCH_WORK_LIMIT and
    returns that count.
    """
    r, work, runs = [0, 1], 0, [[]]  # r[k]: rooted trees on k vertices (OEIS A000081)
    for k in range(1, n + 1):
        if k > 1:
            r.append(sum(sum(d * r[d] for d in range(1, j + 1) if j % d == 0) * r[k - j]
                         for j in range(1, k)) // (k - 1))
        if graph_class == "tree":
            pairs = sum(r[i] * r[k - i] for i in range(1, k)) - (r[k // 2] if k % 2 == 0 else 0)
            work = r[k] - pairs // 2
        else:
            runs.append([])
            for m in range(1, k + 1):  # runs[m][s] for s = k - m
                s = k - m
                runs[m].append((r[s] if s >= m else 0) + sum(r[o] * runs[m][s - o] for o in range(m, s - m + 1)))
            work = sum(r[m] * (runs[m][k - m] - r[k - m]) for m in range(1, k // 3 + 1))
        if work > SEARCH_WORK_LIMIT:
            break
    return work


def _graph_line(g: Graph) -> str:
    body = " ".join(f"{u}-{v}" for u, v in g.edges)
    return f"{g.vertex_count} {g.edge_count} {body}".rstrip()


def _point(n: int) -> list[int]:
    """Fixed odd 61-bit weights for part sizes 0..n (Fibonacci hashing of s)."""
    return [(0x9E3779B97F4A7C15 * (s + 1)) % (1 << 61) | 1 for s in range(n + 1)]


def _rooted(levels: tuple[int, ...], memo: dict, weight: list[int]) -> list[int]:
    """The value kernel's list (``csf._merge``) of the rooted tree with this
    level sequence, weight[s - 1] standing for p_s.  Each proper subtree's
    list and value are kept in ``memo``, keyed by its level sequence shifted
    to start at level 2, as a root's children start."""
    top, shift, k = levels[0] + 1, levels[0] - 1, len(levels)
    mine, i = [1], 1
    while i < k:
        j = i + 1
        while j < k and levels[j] != top:
            j += 1
        child = tuple(x - shift for x in levels[i:j]) if shift else levels[i:j]
        got = memo.get(child)
        if got is None:
            lst = _rooted(child, memo, weight)
            got = memo[child] = lst, sum(map(mul, lst, weight))
        mine = _merge(mine, *got)
        i = j
    return mine


def _values(n: int, trees: list | None, weight: list[int]) -> Iterator[int]:
    """X_G at ``weight`` (weight[s - 1] for p_s) for each graph of the class,
    in generator order, from its sequence: a tree's level sequence (trees
    None), or a unicyclic graph's ranks in ``trees``, whose hanging trees'
    lists are computed once and folded by ``csf._cycle_value``.  The memo of
    proper subtrees lives as long as this generator, so nothing is kept from
    one search to the next."""
    memo: dict[tuple[int, ...], tuple[list[int], int]] = {}
    if trees is None:
        for levels in _free_level_sequences(n):
            yield sum(map(mul, _rooted(levels, memo, weight), weight))
    else:
        hanging = [_rooted(levels, memo, weight) for levels, _ in trees]
        for seq in _unicyclic_sequences(n, trees):
            yield _cycle_value([hanging[rank] for rank in seq], weight)


def run_search(n: int, graph_class: str) -> CollisionReport:
    """Group the graphs of one class and order by exact equality of X_G."""
    start = time.monotonic()
    if graph_class not in ("tree", "unicyclic"):
        raise ValueError(f"unknown graph class {graph_class!r}")
    work = search_work(n, graph_class)
    if work > SEARCH_WORK_LIMIT:
        raise ResourceLimitError(
            f"{graph_class} search at n={n} visits at least {work} candidates, "
            f"above the limit of {SEARCH_WORK_LIMIT}"
        )
    if n < 1:
        raise ValueError("n must be at least 1")
    trees = _hanging_trees(n) if graph_class == "unicyclic" else None  # one table for both passes
    hashes = array("q", map(hash, _values(n, trees, _point(n)[1:])))
    seen, shared = set(), set()
    for h in hashes:
        (shared if h in seen else seen).add(h)
    exact: dict[frozenset, list[str]] = {}
    if shared:  # hashes lead the zip, so the walk stops at the last repeated position
        last = next(i for i in reversed(range(len(hashes))) if hashes[i] in shared)
        if trees is None:
            walk, build = _free_level_sequences(n), tree_from_levels
        else:
            walk, build = _unicyclic_sequences(n, trees), partial(unicyclic_from_ranks, trees=trees)
        for h, seq in zip(hashes[:last + 1], walk):
            if h in shared:
                g = build(seq)
                exact.setdefault(frozenset(csf_codes(g).items()), []).append(_graph_line(g))
    return CollisionReport(
        n=n,
        graph_class=graph_class,
        graph_count=len(hashes),
        # a dict keeps insertion order, so groups are listed by first member
        groups=tuple(tuple(group) for group in exact.values() if len(group) >= 2),
        elapsed_seconds=time.monotonic() - start,
    )
