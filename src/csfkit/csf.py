"""Chromatic symmetric functions in the power-sum basis.

X_G is the product of its components' expansions.  Grouping edge subsets by
the vertex partition they induce gives X_G = sum over partitions pi of V into
connected blocks of prod_{B in pi} c(B) p_lambda(pi), where c(B) is the signed
count of connected spanning edge subsets of G[B] (Stanley 1995, Thm 2.6).
Each component gets one exact kernel, picked by its cyclomatic number r: a
rooted tree DP for r = 0, the same DP with one cycle edge dropped for r = 1,
and a set-partition DP over vertex bitmasks for r >= 2.  No kernel visits
edge subsets.  Each kernel takes two tables indexed by part size: closing a
component of size s adds pw[s] to the state's code and multiplies its
coefficient by mult[s].  ``csf_codes`` passes one base-(n+1) digit per part
size and all-one multipliers, so a code is a size multiset and merging two is
an addition; ``csf_value`` passes zero codes and a table of weights, so each
kernel keeps one state where ``csf_codes`` keeps one per size multiset and
returns X_G with every p_s replaced by weights[s].  Coefficients are exact
Python ints.  Oversized inputs are refused up front, by the edge cap
(default 30) and then by the r >= 2 kernel's work limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ResourceLimitError
from .graph import Graph, _components, _root_path, _skipped_edge
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

    @classmethod
    def from_codes(cls, n: int, codes: dict[int, int]) -> "PowerSumPolynomial":
        """Decode a ``csf_codes`` map of an n-vertex graph."""
        return cls(n, {_partition(code, n): coeff for code, coeff in codes.items()})


def _sparse_terms(adj, order: list[int], parent: list[int], tracked: int | None,
                  pw: list[int], mult: list[int]) -> dict[int, int]:
    """Tree component (tracked None), or unicyclic with root-tracked on the cycle.

    A rooted DP over the tree left once the edge root-tracked is dropped,
    given by its parent list (root = order[0] is its own parent) and an order
    listing each vertex after its parent; adj may keep the dropped edge.
    A state is (root's component size, t, code of the closed component sizes)
    -> signed subset count, where t is 0 when nothing is tracked, -1 while the
    tracked vertex shares the root's component, and the size of its component
    once that closed.  Taking the dropped edge fuses those two components and
    flips the sign, which cancels every state with t == -1.  Closing a
    component of size s adds pw[s] to the code and multiplies by mult[s]; the
    tracked vertex's component is weighed at the root, once its size is final.
    """
    root = order[0]
    states: dict[int, dict] = {}
    for v in reversed(order):
        mine = {(1, -1 if v == tracked else 0, 0): 1}
        for c in adj[v]:
            if parent[c] != v:
                continue
            merged: dict = {}
            get = merged.get
            for (sc, tc, pc), ac in states.pop(c).items():
                # leaving the edge v-c out closes the child's component
                if tc == -1:
                    t_out, add, a_out = sc, 0, ac
                else:
                    t_out, add, a_out = tc, pw[sc], ac * mult[sc]
                for (sv, tv, pv), av in mine.items():
                    p = pv + pc
                    key = (sv, tv or t_out, p + add)
                    merged[key] = get(key, 0) + av * a_out
                    key = (sv + sc, tv or tc, p)
                    merged[key] = get(key, 0) - av * ac
            mine = merged
        states[v] = mine
    terms: dict[int, int] = {}
    for (sr, t, p), coeff in states[root].items():
        if t >= 0:
            key = p + pw[sr] + pw[t]
            terms[key] = terms.get(key, 0) + coeff * mult[sr] * mult[t]
        if t > 0:
            key = p + pw[sr + t]
            terms[key] = terms.get(key, 0) - coeff * mult[sr + t]
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


def _vertex_dp_terms(order: list[int], adj, pw: list[int], mult: list[int]) -> dict[int, int]:
    """Connected set-partition DP over bitmasks of one component's vertices,
    labelled in the breadth-first ``order``, which keeps the reachable R few.

    c({v}) = 1 and, for |B| >= 2, c(B) = -sum c(B') over proper B' < B with
    min(B) in B' and B - B' independent, since the signed count of all edge
    subsets of G[B] is [G[B] has no edge].  Then X = h(V) with
    h(R) = sum over connected B containing min(R) of c(B) mult[|B|] p_|B| h(R - B),
    run forward with the remaining sets R grouped by their least vertex.  Both
    read at least vertex i only sets whose least vertex is i, so they run one
    i at a time, and the remainder "every vertex >= i" reuses c's sets.
    """
    k, local = len(order), {v: i for i, v in enumerate(order)}
    nbr = [sum(1 << local[w] for w in adj[v]) for v in order]
    full = (1 << k) - 1
    pending: list = [{} for _ in range(k + 1)]  # index -1 is k: R empty
    pending[0][full] = {0: 1}
    for i in range(k):
        low = 1 << i
        sets = sorted(_connected_sets(nbr, low, full & -low), key=int.bit_count)
        c = {low: 1}
        for b in sets[1:]:
            # a leaf's one edge lies in every connected spanning subset
            rest = b ^ low
            while rest:
                leaf = rest & -rest
                if (nbr[leaf.bit_length() - 1] & b).bit_count() == 1:
                    c[b] = -c[b ^ leaf]
                    break
                rest ^= leaf
            else:
                # independent subsets of B - {min B}, each grown by higher bits only
                total, stack = 0, [(0, b ^ low)]
                while stack:
                    chosen, cand = stack.pop()
                    if chosen:
                        total += c.get(b ^ chosen, 0)
                    while cand:
                        bit = cand & -cand
                        cand ^= bit
                        stack.append((chosen | bit, cand & ~nbr[bit.bit_length() - 1]))
                c[b] = -total
        for r, poly in pending[i].items():
            for b in sets if r == full & -low else _connected_sets(nbr, low, r):
                rest = r ^ b
                target = pending[(rest & -rest).bit_length() - 1].setdefault(rest, {})
                size = b.bit_count()
                cb, add = c[b] * mult[size], pw[size]
                for code, a in poly.items():
                    target[code + add] = target.get(code + add, 0) + a * cb
        pending[i] = None
    return pending[k][0]


def _expansion(g: Graph, max_edges: int, pw: list[int], mult: list[int]) -> dict[int, int]:
    """X_G as {code: coefficient}, each closed part of size s adding pw[s] to the
    code and multiplying by mult[s] (mult[0] = 1), after the up-front limits.

    One breadth-first pass gives each component's vertices in order, its
    cyclomatic number r and, for r = 1, the edge to drop: the one it skipped.
    """
    n, m, adj = g.vertex_count, g.edge_count, g.adjacency
    if m > max_edges:
        raise ResourceLimitError(
            f"graph has {m} edges, above the enumeration cap of {max_edges}"
        )
    parent = [-1] * n
    comps = [(c, sum(len(adj[v]) for v in c) // 2 - len(c) + 1) for c in _components(adj, parent)]
    for comp, r in comps:
        if r >= 2 and 1 << len(comp) > VERTEX_DP_WORK_LIMIT:
            raise ResourceLimitError(f"a component with {len(comp)} vertices and cyclomatic "
                                     f"number {r} needs 2^{len(comp)} vertex masks, above "
                                     f"the limit of {VERTEX_DP_WORK_LIMIT}")
    total = {0: 1}
    for comp, r in comps:
        if r == 0:
            part = _sparse_terms(adj, comp, parent, None, pw, mult)
        elif r == 1:  # the pass's tree, re-rooted at x: path links reversed, path first
            x, y = _skipped_edge(adj, comp, parent)
            path = _root_path(parent, x)
            for child, above in zip(path, path[1:]):
                parent[above] = child
            parent[x] = x
            on_path = set(path)
            order = path + [v for v in comp if v not in on_path]
            part = _sparse_terms(adj, order, parent, y, pw, mult)
        else:
            part = _vertex_dp_terms(comp, adj, pw, mult)
        product: dict[int, int] = {}
        for ca, xa in total.items():
            for cb, xb in part.items():
                product[ca + cb] = product.get(ca + cb, 0) + xa * xb
        total = product
    return total


def csf_codes(g: Graph, max_edges: int = DEFAULT_MAX_EDGES) -> dict[int, int]:
    """Exact nonzero terms of X_G as {size code: coefficient}.

    A code holds one base-(n+1) digit per part size, digit s - 1 counting the
    parts of size s, so at a fixed vertex count two graphs have equal maps
    exactly when their functions are equal, and codes order as their
    partitions do, lexicographically.
    """
    n = g.vertex_count  # a part has at most m + 1 vertices, so digits stop there
    pw = [0] + [(n + 1) ** i for i in range(min(n, g.edge_count + 1))]
    total = _expansion(g, max_edges, pw, [1] * (n + 1))
    return {code: coeff for code, coeff in total.items() if coeff}


def csf_value(g: Graph, weights: list[int], max_edges: int = DEFAULT_MAX_EDGES) -> int:
    """X_G with each p_s replaced by weights[s] (s = 1..n), exactly.

    The kernels run with every part code zero, so each keeps one state where
    ``csf_codes`` keeps one per size multiset.  Equal functions give equal
    values at every point; ``weights = [k] * (n + 1)`` gives the chromatic
    polynomial at k.
    """
    n = g.vertex_count
    if len(weights) <= n:
        raise ValueError(f"need weights for part sizes 1..{n}, got {len(weights)} entries")
    return _expansion(g, max_edges, [0] * (n + 1), [1, *weights[1:n + 1]]).get(0, 0)


def _partition(code: int, n: int) -> Partition:
    """The partition whose base-(n+1) size code is ``code``."""
    parts, size = [], 1
    while code:
        code, count = divmod(code, n + 1)
        parts += [size] * count
        size += 1
    parts.reverse()
    # tuple() of a list, not of a generator: a generator's tuple is allocated
    # at a guessed length and then resized, which grew resident memory over
    # repeated calls
    return tuple(parts)


def chromatic_symmetric_function(g: Graph, max_edges: int = DEFAULT_MAX_EDGES) -> PowerSumPolynomial:
    """Exact power-sum expansion of X_G, one structured kernel per component."""
    return PowerSumPolynomial.from_codes(g.vertex_count, csf_codes(g, max_edges))


def csf_difference(g: Graph, h: Graph, max_edges: int = DEFAULT_MAX_EDGES):
    """``first_difference`` of X_g and X_h, decoding only the partition it names."""
    a, b = csf_codes(g, max_edges), csf_codes(h, max_edges)
    n = g.vertex_count
    if n != h.vertex_count:
        return first_difference(PowerSumPolynomial.from_codes(n, a),
                                PowerSumPolynomial.from_codes(h.vertex_count, b))
    # codes order as their partitions do, so the largest differing code is the first
    differ = [code for code in a.keys() | b.keys() if a.get(code, 0) != b.get(code, 0)]
    if not differ:
        return None
    code = max(differ)
    return _partition(code, n), a.get(code, 0), b.get(code, 0)


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
