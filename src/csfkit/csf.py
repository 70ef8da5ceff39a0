"""Chromatic symmetric functions in the power-sum basis.

X_G is the product of its components' expansions.  Grouping edge subsets by
the vertex partition they induce gives X_G = sum over partitions pi of V into
connected blocks of prod_{B in pi} c(B) p_lambda(pi), where c(B) is the signed
count of connected spanning edge subsets of G[B] (Stanley 1995, Thm 2.6).
Each component gets one exact kernel, picked by its cyclomatic number r: a
rooted tree DP for r = 0, the same DP with one cycle edge dropped for r = 1,
and a set-partition DP over vertex bitmasks for r >= 2.  No kernel visits
edge subsets.  Size multisets are carried as integers with one base-(n+1)
digit per part size, so merging two is an addition; coefficients are exact
Python ints.  Oversized inputs are refused up front, by the edge cap
(default 30) and then by the r >= 2 kernel's work limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ResourceLimitError
from .graph import Graph, _bfs, connected_components, cycle_vertices
from .partitions import Partition, parse_partition_key, partition_key

DEFAULT_MAX_EDGES = 30


@dataclass(frozen=True)
class PowerSumPolynomial:
    """Sparse map partition -> integer coefficient, homogeneous of ``degree``."""

    degree: int
    terms: dict[Partition, int]

    def coefficient(self, p: Partition) -> int:
        return self.terms.get(tuple(p), 0)

    def to_text(self) -> str:
        lines = [f"csf n={self.degree}"]
        for key in sorted(self.terms, reverse=True):
            lines.append(f"{partition_key(key)} {self.terms[key]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PowerSumPolynomial":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("csf n="):
            raise ValueError("missing 'csf n=<n>' header")
        try:
            n = int(lines[0][len("csf n="):])
        except ValueError:
            raise ValueError(f"malformed header {lines[0]!r}") from None
        terms: dict[Partition, int] = {}
        for ln in lines[1:]:
            key_text, _, coeff_text = ln.rpartition(" ")
            p = parse_partition_key(key_text)
            if sum(p) != n:
                raise ValueError(f"term {key_text!r} is not a partition of {n}")
            if p in terms:
                raise ValueError(f"duplicate term {key_text!r}")
            coeff = int(coeff_text)
            if coeff:
                terms[p] = coeff
        return cls(n, terms)


def _sparse_terms(adj, root: int, tracked: int | None, pw: list[int]) -> dict[int, int]:
    """Tree component (tracked None), or unicyclic with root-tracked on the cycle.

    A rooted DP over the tree left once the edge root-tracked is dropped.  A
    state is (root's component size, t, code of the closed component sizes)
    -> signed subset count, where t is 0 when nothing is tracked, -1 while the
    tracked vertex shares the root's component, and the size of its component
    once that closed.  Taking the dropped edge fuses those two components and
    flips the sign, which cancels every state with t == -1.
    """
    order, parent = [root], {root: -1}
    for x in order:
        for y in adj[x]:
            if y not in parent and (x, y) != (root, tracked):
                parent[y] = x
                order.append(y)
    states: dict[int, dict] = {}
    for v in reversed(order):
        mine = {(1, -1 if v == tracked else 0, 0): 1}
        for c in adj[v]:
            if parent.get(c) != v:
                continue
            child, merged = states.pop(c).items(), {}
            get = merged.get
            for (sv, tv, pv), av in mine.items():
                for (sc, tc, pc), ac in child:
                    w, p = av * ac, pv + pc
                    # leaving the edge v-c out closes the child's component
                    key = (sv, sc, p) if tc == -1 else (sv, tv or tc, p + pw[sc])
                    merged[key] = get(key, 0) + w
                    key = (sv + sc, tv or tc, p)
                    merged[key] = get(key, 0) - w
            mine = merged
        states[v] = mine
    terms: dict[int, int] = {}
    for (sr, t, p), coeff in states[root].items():
        if t >= 0:
            terms[p + pw[sr] + pw[t]] = terms.get(p + pw[sr] + pw[t], 0) + coeff
        if t > 0:
            terms[p + pw[sr + t]] = terms.get(p + pw[sr + t], 0) - coeff
    return terms


def _connected_sets(nbr: list[int], low: int, within: int):
    """Each connected vertex mask inside ``within`` that contains bit ``low``."""
    stack = [(low, nbr[low.bit_length() - 1] & within, 0)]  # (set, frontier, banned)
    while stack:
        b, ext, ban = stack.pop()
        yield b
        while ext:
            bit = ext & -ext
            ext ^= bit
            stack.append((b | bit, (ext | nbr[bit.bit_length() - 1]) & within & ~(b | bit | ban), ban))
            ban |= bit


def _vertex_dp_terms(comp: list[int], adj, pw: list[int]) -> dict[int, int]:
    """Connected set-partition DP over bitmasks of one component's vertices.

    c({v}) = 1 and, for |B| >= 2, c(B) = -sum c(B') over proper B' < B with
    min(B) in B' and B - B' independent, since the signed count of all edge
    subsets of G[B] is [G[B] has no edge].  Then X = h(V) with
    h(R) = sum over connected B containing min(R) of c(B) p_|B| h(R - B),
    run forward with the remaining sets R grouped by their least vertex.
    """
    order = _bfs(adj, comp[0], [-1] * len(adj))  # breadth-first labels keep the reachable R few
    k, local = len(order), {v: i for i, v in enumerate(order)}
    nbr = [sum(1 << local[w] for w in adj[v]) for v in order]
    full, c = (1 << k) - 1, {}
    for i in range(k):
        low = 1 << i
        c[low] = 1
        for b in sorted(_connected_sets(nbr, low, full & -low), key=int.bit_count)[1:]:
            # a leaf's one edge lies in every connected spanning subset
            leaf = next((1 << j for j in range(i + 1, k)
                         if b >> j & 1 and (nbr[j] & b).bit_count() == 1), 0)
            if leaf:
                c[b] = -c[b ^ leaf]
                continue
            total, stack = 0, [(0, b ^ low)]  # independent subsets of B - {min B}
            while stack:
                chosen, cand = stack.pop()
                if cand:
                    bit = cand & -cand
                    stack.append((chosen, cand ^ bit))
                    stack.append((chosen | bit, cand & ~bit & ~nbr[bit.bit_length() - 1]))
                elif chosen:
                    total += c.get(b ^ chosen, 0)
            c[b] = -total
    pending: list = [{} for _ in range(k + 1)]  # index -1 is k: R empty
    pending[0][full] = {0: 1}
    for i in range(k):
        for r, poly in pending[i].items():
            for b in _connected_sets(nbr, 1 << i, r):
                rest = r ^ b
                target = pending[(rest & -rest).bit_length() - 1].setdefault(rest, {})
                cb, add = c[b], pw[b.bit_count()]
                for code, a in poly.items():
                    target[code + add] = target.get(code + add, 0) + a * cb
        pending[i] = None
    return pending[k][0]


def csf_codes(g: Graph, max_edges: int = DEFAULT_MAX_EDGES) -> dict[int, int]:
    """Exact nonzero terms of X_G as {size code: coefficient}.

    A code holds one base-(n+1) digit per part size, digit s - 1 counting the
    parts of size s, so at a fixed vertex count two graphs have equal maps
    exactly when their functions are equal.
    """
    n, m, adj = g.vertex_count, g.edge_count, g.adjacency
    if m > max_edges:
        raise ResourceLimitError(
            f"graph has {m} edges, above the enumeration cap of {max_edges}"
        )
    comps = [(c, sum(len(adj[v]) for v in c) // 2 - len(c) + 1) for c in connected_components(g)]
    for comp, r in comps:
        if r >= 2 and 1 << len(comp) > VERTEX_DP_WORK_LIMIT:
            raise ResourceLimitError(f"a component with {len(comp)} vertices and cyclomatic "
                                     f"number {r} needs 2^{len(comp)} vertex masks, above "
                                     f"the limit of {VERTEX_DP_WORK_LIMIT}")
    pw = _part_codes(n)
    cyc = set(cycle_vertices(g)) if any(r == 1 for _, r in comps) else ()
    total = {0: 1}
    for comp, r in comps:
        if r == 0:
            part = _sparse_terms(adj, comp[0], None, pw)
        elif r == 1:  # drop the edge from a cycle vertex to a cycle neighbour
            root = next(v for v in comp if v in cyc)
            part = _sparse_terms(adj, root, next(w for w in adj[root] if w in cyc), pw)
        else:
            part = _vertex_dp_terms(comp, adj, pw)
        product: dict[int, int] = {}
        for ca, xa in total.items():
            for cb, xb in part.items():
                product[ca + cb] = product.get(ca + cb, 0) + xa * xb
        total = product
    return {code: coeff for code, coeff in total.items() if coeff}


def _part_codes(n: int) -> list[int]:
    """pw[s] is the code of one part of size s (pw[0] = 0)."""
    return [0] + [(n + 1) ** i for i in range(n)]


def chromatic_symmetric_function(g: Graph, max_edges: int = DEFAULT_MAX_EDGES) -> PowerSumPolynomial:
    """Exact power-sum expansion of X_G, one structured kernel per component."""
    n, base = g.vertex_count, g.vertex_count + 1
    pw = _part_codes(n)
    # tuple() of a list, not of a generator: a generator's tuple is allocated
    # at a guessed length and then resized, which grew resident memory over
    # repeated calls
    return PowerSumPolynomial(n, {
        tuple([s for s in range(n, 0, -1) for _ in range(code // pw[s] % base)]): coeff
        for code, coeff in csf_codes(g, max_edges).items()
    })


def specialize(x: PowerSumPolynomial, k: int) -> int:
    """Evaluate at x_1 = ... = x_k = 1, rest 0: each p_j becomes k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return sum(coeff * k ** len(p) for p, coeff in x.terms.items())


COLORING_WORK_LIMIT = 100_000_000
# 2^k vertex masks of one component with r >= 2; its c table holds one entry
# per connected mask, so this also bounds that table's memory
VERTEX_DP_WORK_LIMIT = 1 << 20


def count_proper_colorings(g: Graph, k: int) -> int:
    """Brute-force count of proper k-colorings (the Eq-by-definition oracle)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = g.vertex_count
    if n == 0:
        return 1
    if k == 0:
        return 0
    if k ** n > COLORING_WORK_LIMIT:
        raise ResourceLimitError(f"{k}^{n} colorings exceed the brute-force budget")
    earlier = [[w for w in g.adjacency[v] if w < v] for v in range(n)]
    colors = [0] * n

    def assign(v: int) -> int:
        if v == n:
            return 1
        total = 0
        for c in range(k):
            if all(colors[w] != c for w in earlier[v]):
                colors[v] = c
                total += assign(v + 1)
        return total

    return assign(0)


@dataclass(frozen=True)
class ExtractedReport:
    """Invariants recovered from coefficients of X_G alone."""

    vertex_count: int
    edge_count: int
    matching_counts: tuple[int, ...]
    s22: int  # spanning subgraphs that are two disjoint edges
    s3: int  # spanning subgraphs that are two adjacent edges
    sum_squared_degrees: int
    triangle_count: int


def extract_invariants(x: PowerSumPolynomial) -> ExtractedReport:
    """Read vertex/edge/matching counts, sum of squared degrees and the
    triangle count off the coefficient map.

    Uses: coefficient of (1^n) is +1; of (2,1^(n-2)) is -#E; of
    (2^k,1^(n-2k)) is (-1)^k times the k-matching count; of (2,2,1^(n-4)) is
    the disjoint-edge-pair count; adjacent pairs then follow from C(#E, 2),
    which gives the degree-square sum; the (3,1^(n-3)) coefficient is the
    adjacent-pair count minus the triangle count.
    """
    n = x.degree
    ones = (1,) * n
    if x.coefficient(ones) != 1:
        raise ValueError("not a chromatic symmetric function: coefficient of (1^n) is not +1")
    edge_count = abs(x.coefficient((2,) + (1,) * (n - 2))) if n >= 2 else 0
    matchings: list[int] = []
    for k in range(1, n // 2 + 1):
        matchings.append(abs(x.coefficient((2,) * k + (1,) * (n - 2 * k))))
    while matchings and matchings[-1] == 0:
        matchings.pop()
    s22 = x.coefficient((2, 2) + (1,) * (n - 4)) if n >= 4 else 0
    s3 = comb(edge_count, 2) - s22
    sum_sq = 2 * s3 + 2 * edge_count
    tri = s3 - (x.coefficient((3,) + (1,) * (n - 3)) if n >= 3 else 0)
    return ExtractedReport(
        vertex_count=n,
        edge_count=edge_count,
        matching_counts=tuple(matchings),
        s22=s22,
        s3=s3,
        sum_squared_degrees=sum_sq,
        triangle_count=tri,
    )


def csf_equal(a: PowerSumPolynomial, b: PowerSumPolynomial) -> bool:
    """Exact equality: same degree and identical term maps."""
    return a.degree == b.degree and a.terms == b.terms


def first_difference(a: PowerSumPolynomial, b: PowerSumPolynomial) -> tuple[Partition | str, int, int] | None:
    """None if ``a`` and ``b`` are equal, else (where, value in a, value in b).

    ``where`` is the first partition, in descending order, whose coefficients
    differ; if every coefficient agrees it is "degree" and the values are the
    degrees.
    """
    if csf_equal(a, b):
        return None
    for key in sorted(set(a.terms) | set(b.terms), reverse=True):
        if a.terms.get(key, 0) != b.terms.get(key, 0):
            return key, a.terms.get(key, 0), b.terms.get(key, 0)
    return "degree", a.degree, b.degree
