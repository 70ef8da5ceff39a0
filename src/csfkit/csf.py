"""Chromatic symmetric functions in the power-sum basis.

X_G is the product of its components' expansions.  Grouping edge subsets by
the vertex partition they induce gives X_G = sum over partitions pi of V into
connected blocks of prod_{B in pi} c(B) p_lambda(pi), where c(B) is the signed
count of connected spanning edge subsets of G[B] (Stanley 1995, Thm 2.6).
Each component gets one exact kernel, picked by its cyclomatic number r and
the mode.  For r >= 2 it is a set-partition DP over vertex bitmasks; it takes
two tables indexed by part size: closing a component of size s adds pw[s] to
the state's code and multiplies its coefficient by mult[s].  ``csf_codes``
passes one base-(n+1) digit per part size and all-one multipliers, so a code
is a size multiset and merging two is an addition; ``csf_value`` passes zero
codes and a table of weights, so the DP keeps one state where ``csf_codes``
keeps one per size multiset.  For r <= 1, ``csf_codes`` runs a rooted tree DP
on those codes, with one cycle edge dropped for r = 1, and ``csf_value`` the
value kernel: per rooted subtree one list of values by root component size,
folded around the cycle for r = 1, which the collision search also runs on
its generators' trees.  No kernel visits edge subsets.  Coefficients are exact
Python ints.  The one limit is a work total over the graph, refused above
``WORK_LIMIT``: each component's kernel adds its bound on its own work before
any kernel runs, and each product of two components' terms adds its term
pairs before it is taken.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import comb, isqrt
from operator import add, mul

from .errors import ResourceLimitError
from .graph import Graph, _components, _reroot_on_cycle, is_forest
from .partitions import Partition, _is_partition, parse_partition_key, partition_key

# Steps one graph may take, a step being one dictionary update or one set c's
# scan visits: every component's kernel bound, summed before any kernel runs,
# then each product of two components' terms.  csf_codes runs P44 (1,751,584
# state pairs, two updates each) in about 4 s on a 2-core VM and refuses P45
WORK_LIMIT = 1 << 22


@dataclass(frozen=True)
class PowerSumPolynomial:
    """Sparse map partition -> integer coefficient, homogeneous of ``degree``,
    an int >= 0; a key that is not a partition of ``degree`` is refused, zero
    terms dropped."""

    degree: int
    terms: dict[Partition, int]

    def __post_init__(self):
        if type(self.degree) is not int or self.degree < 0:
            raise ValueError(f"degree {self.degree!r} is not a nonnegative int")
        for p in self.terms:
            if not _is_partition(p, total=self.degree):
                raise ValueError(f"term {partition_key(p)!r} is not a partition of {self.degree}")
        object.__setattr__(self, "terms", {p: c for p, c in self.terms.items() if c})

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
            if p in terms:
                raise ValueError(f"duplicate term {key_text!r}")
            terms[p] = int(coeff_text)
        return cls(n, terms)

    @classmethod
    def from_codes(cls, n: int, codes: dict[int, int]) -> "PowerSumPolynomial":
        """Decode a ``csf_codes`` map of an n-vertex graph."""
        return cls(n, {_partition(code, n): coeff for code, coeff in codes.items()})


def _refuse(what: str, budget: int) -> None:
    raise ResourceLimitError(f"{what} more than the {budget} steps left of the limit of {WORK_LIMIT}")


def _tree_dp(adj, order: list[int], parent: list[int], cycle: list[int], budget: int):
    """``csf_codes`` on a tree component (cycle empty), or a unicyclic one
    whose cycle, as ``_reroot_on_cycle`` gives it, runs from the tracked
    vertex y = cycle[0] up to the root: its bound on its merge work, and the
    DP as a function of (pw, mult), mult unused (all ones with codes).

    A rooted DP over the tree left once the edge root-y is dropped, given by
    its parent list (root = order[0] is its own parent) and an order listing
    each vertex after its parent; adj may keep the dropped edge.  A state is
    (root's component size, t, code of the closed component sizes) -> signed
    subset count, where t is 0 when nothing is tracked, -1 while y shares the
    root's component, and the size of y's component once that closed.
    Taking the dropped edge fuses those two components and flips the sign,
    which cancels every state with t == -1.  Closing a component of size s
    adds pw[s] to the code; y's component is coded at the root, once its
    size is final.

    The bound sums the merge loop's pairs from subtree sizes, two steps each,
    each side's states read off ``_states`` by its merged size and largest
    merged child subtree, and by whether it lies on the cycle.
    """
    root, tracked, on_cycle = order[0], cycle[0] if cycle else None, set(cycle)
    size, heavy, work = dict.fromkeys(order, 1), dict.fromkeys(order, 0), 0  # heavy: largest child subtree
    for v in reversed(order):
        for c in adj[v]:
            if parent[c] == v:
                work += _states(size[c], heavy[c], c in on_cycle) * _states(size[v], heavy[v], v in on_cycle)
                size[v] += size[c]
                heavy[v] = max(heavy[v], size[c])
    _check_merge_work(len(order), work, budget)

    def run(pw: list[int], mult: list[int]) -> dict[int, int]:
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
                    t_out, add = (sc, 0) if tc == -1 else (tc, pw[sc])
                    for (sv, tv, pv), av in mine.items():
                        p = pv + pc
                        key = (sv, tv or t_out, p + add)
                        merged[key] = get(key, 0) + av * ac
                        key = (sv + sc, tv or tc, p)
                        merged[key] = get(key, 0) - av * ac
                mine = merged
            states[v] = mine
        terms: dict[int, int] = {}
        for (sr, t, p), coeff in states[root].items():
            if t >= 0:
                key = p + pw[sr] + pw[t]
                terms[key] = terms.get(key, 0) + coeff
            if t > 0:
                key = p + pw[sr + t]
                terms[key] = terms.get(key, 0) - coeff
        return terms

    return 2 * work, run


def _states(s: int, h: int, on_cycle: bool) -> int:
    """A bound on the tree DP's states at a vertex whose merged subtree has s
    vertices, the largest of its merged child subtrees h.  Closed components
    lie inside one child subtree each, so there is at most one state per root
    size s - j and partition of the j closed vertices into parts <= h: the
    sum over j < s of q[h][j], read off ``_state_rows``.  On the cycle, y's
    component closed with t vertices leaves a partition of j - t, which adds
    the sum over j < s of the bound at j.  For h <= 1 every part is 1: s
    states, and s(s - 1)/2 more on the cycle."""
    if h < 2:
        return s + on_cycle * (s * (s - 1) // 2)
    row = _state_rows()[on_cycle][min(h, 63)]
    return row[min(s, len(row) - 1)]


@cache
def _state_rows(limit: int = WORK_LIMIT) -> tuple[tuple[array, ...], tuple[array, ...]]:
    """(off, on) with off[h][s] = sum over j < s of q[h][j], the partitions
    of j into parts <= h (equally, into at most h parts), and on[h][s] =
    off[h][s] + sum over j < s of off[h][j], for 2 <= h < 64.  A row stops at
    its first entry above the limit, which stands for every later one; the
    limit is the one the module loads with, so a lowered WORK_LIMIT does not
    shorten the cached rows.  Row 63 serves every larger h: from h = 63 on
    only s > h is read, and the row has passed the limit by s = 64.  The
    12,222 entries are 64-bit arrays: about 100 KB, a quarter of int tuples."""
    q, off, on = array("q", [1]) * (2 * isqrt(limit) + 3), [(), ()], [(), ()]  # q[j]: parts <= h
    for h in range(2, 64):
        for j in range(h, len(q)):
            q[j] += q[j - h]
        row = array("q", accumulate(q, initial=0))
        off.append(row[:bisect_right(row, limit) + 1])
        row = array("q", map(add, row, accumulate(row, initial=0)))
        on.append(row[:bisect_right(row, limit) + 1])
        del q[len(off[-1]) - 1:]  # a later row passes the limit no later
    return tuple(off), tuple(on)


def _check_merge_work(k: int, pairs: int, budget: int) -> None:
    """Refuse a tree or cycle DP on k vertices whose bound is ``pairs`` merged
    state pairs, two steps each, above the budget."""
    if 2 * pairs > budget:
        _refuse(f"the tree DP on a component of {k} vertices may merge {pairs} state pairs, "
                f"{2 * pairs} steps,", budget)


# The value kernel.  A rooted tree's list V holds at V[a - 1] the signed sum,
# over the edge subsets of the tree whose root component has a vertices, of
# the product of weight[s - 1] over its other components' sizes s; its value
# is sum(V[a - 1] * weight[a - 1]), the root component closed too.


def _merge(mine: list[int], child: list[int], closed: int) -> list[int]:
    """v's list once the subtree of its child c joins: leaving the edge v-c
    out closes c's root component (c's value ``closed``), taking it (sign -1)
    adds that component's size to v's."""
    out = [a * closed for a in mine] + [0] * len(child)
    for i, a in enumerate(mine, 1):
        for j, b in enumerate(child, i):
            out[j] -= a * b
    return out


def _cycle_value(lists: list[list[int]], weight: list[int]) -> int:
    """The value of a cycle with a rooted tree hanging at each of its vertices,
    given the trees' lists in order around it.

    A fold over the cycle path from lists[0], whose last edge closes the
    cycle.  rows[0][a - 1] sums the subsets in which the first tree's root
    component is still the open one, of a vertices; rows[f][a - 1], f >= 1,
    those in which it closed with f vertices and the open one has a.  The
    next path edge is taken (sign -1: the next tree's root component joins the
    open one) or left out (the open one closes): that is ``_merge`` with the
    next tree taking the row as its child, except that in rows[0] the closed
    component is not weighed but moves to row f.  The closing edge then
    weighs row f at a as weight[a - 1] weight[f - 1] without it and
    -weight[a + f - 1] with it; in rows[0] the two cancel.  At m vertices
    folded, row f holds a <= m - f.
    """
    rows = [lists[0]]
    for tree in lists[1:]:
        m = len(rows[0])
        step = [_merge(tree, row, f and sum(map(mul, row, weight))) for f, row in enumerate(rows)]
        step += ([0] * (m + len(tree) - f) for f in range(len(rows), m + 1))
        for f, a in enumerate(rows[0], 1):
            row = step[f]
            for j, b in enumerate(tree):
                row[j] += a * b
        rows = step
    return sum(x * (weight[a] * weight[f - 1] - weight[a + f]) for f, row in enumerate(rows[1:], 1)
               for a, x in enumerate(row) if x)


def _fold_pairs(sizes: list[int]) -> int:
    """The (row entry, tree entry) pairs ``_cycle_value`` merges on hanging
    trees of these sizes: at m vertices folded, f of them before the latest
    tree, the rows hold m + sum over 1 <= g <= f of (m - g) entries, and each
    meets every entry of the next tree's list."""
    pairs, m, f = 0, sizes[0], 0
    for t in sizes[1:]:
        pairs += (m + f * m - f * (f + 1) // 2) * t
        m, f = m + t, m
    return pairs


def _value_dp(adj, order: list[int], parent: list[int], cycle: list[int], budget: int):
    """``csf_value`` on the rooted tree ``_tree_dp`` takes: its bound on its
    merge work, and the DP as a function of (pw, mult), pw unused and mult[s]
    the weight of a part of size s.

    Each vertex merges its children's lists into its own.  A tree's value
    closes the root's list.  On a unicyclic component a vertex of ``cycle``
    takes no child on it, so it keeps its hanging tree's list, and
    ``_cycle_value`` folds those from the first smallest tree on the path.
    The bound sums, two steps each, the products of the two list lengths
    (subtree sizes) over the merges, as ``_tree_dp`` counts pairs with one
    state per root size, and the fold's ``_fold_pairs``.
    """
    size, work, on_cycle = dict.fromkeys(order, 1), 0, set(cycle)
    for v in reversed(order):
        for c in adj[v]:
            if parent[c] == v and c not in on_cycle:
                work += size[v] * size[c]
                size[v] += size[c]
    if cycle:
        sizes = [size[v] for v in cycle]
        start = sizes.index(min(sizes))
        cycle = cycle[start:] + cycle[:start]
        work += _fold_pairs(sizes[start:] + sizes[:start])
    _check_merge_work(len(order), work, budget)

    def run(pw: list[int], mult: list[int]) -> dict[int, int]:
        weight, lists = mult[1:], {}
        for v in reversed(order):
            mine = [1]
            for c in adj[v]:
                if parent[c] == v and c not in on_cycle:
                    child = lists.pop(c)
                    mine = _merge(mine, child, sum(map(mul, child, weight)))
            lists[v] = mine
        if cycle:
            return {0: _cycle_value([lists[v] for v in cycle], weight)}
        return {0: sum(map(mul, lists[order[0]], weight))}

    return 2 * work, run


@cache
def _partition_table() -> tuple[tuple[int, ...], ...]:
    """q[i][d], the partitions of d into at most i parts, for i, d < 64, which
    the set-partition DP reads for its k <= 23."""
    q = [[1] + [0] * 63]
    for i in range(1, 64):
        q.append(list(q[-1]))
        for d in range(i, 64):
            q[i][d] += q[i][d - i]
    return tuple(map(tuple, q))


@cache
def _set_dp_weights(k: int, codes: bool) -> tuple[tuple[int, ...], ...]:
    """w[i][s] bounds the h phase's work on one connected set B of s vertices,
    least vertex i, in a k-vertex component.  Each remaining set R holding B
    is B and t of the k - i - s vertices above i outside B, and its map holds
    one entry per size multiset of its k - s - t closed vertices in at most i
    parts (one per closed part's least vertex), q[i][k - s - t], or one
    without codes.  The caller refuses k above 23 first, so the cache holds
    at most 46 tables."""
    q = _partition_table() if codes else [[min(1, x) for x in row] for row in _partition_table()]
    return tuple(tuple(sum(comb(k - i - s, t) * q[i][k - s - t] for t in range(k - i - s + 1))
                       for s in range(k - i + 1)) for i in range(k))


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


def _set_partition_dp(order: list[int], adj, codes: bool, budget: int):
    """Connected set-partition DP over bitmasks of one component's vertices,
    labelled in the breadth-first ``order``, which keeps the reachable R few:
    its bound on its work, and the DP as a function of (pw, mult).

    c({v}) = 1 and, for |B| >= 2, c(B) = -sum c(B') over proper B' < B with
    min(B) in B' and B - B' independent, since the signed count of all edge
    subsets of G[B] is [G[B] has no edge]; a leaf of G[B] other than min(B)
    settles it at once, as its one edge lies in every connected spanning
    subset.  Then X = h(V) with
    h(R) = sum over connected B containing min(R) of c(B) mult[|B|] p_|B| h(R - B),
    run forward with the remaining sets R grouped by their least vertex.  Both
    read at least vertex i only sets whose least vertex is i, so they run one
    i at a time, and the remainder "every vertex >= i" reuses c's sets.
    The bound is counted on those sets, listed up front and kept for the DP,
    and stops above the budget: each weighs |B| for the leaf test, or with no
    leaf the 2^(|B|-1) subsets of B holding min(B) that c's scan may visit,
    plus the h phase's work on it, ``_set_dp_weights``.  Two parts of that
    count are checked first: the k singletons, whose h work alone is
    2^(k-1), and then each vertex i with every set of its neighbours above i,
    which is every connected set of a clique.
    """
    k = len(order)
    what = f"the set-partition DP on a component of {k} vertices needs"
    if 1 << k - 1 > budget:
        _refuse(what, budget)
    local, weights = {v: i for i, v in enumerate(order)}, _set_dp_weights(k, codes)
    nbr = [sum(1 << local[w] for w in adj[v]) for v in order]
    ups = [(nbr[i] >> i + 1).bit_count() for i in range(k)]
    if sum(comb(up, j) * weights[i][j + 1] for i, up in enumerate(ups) for j in range(up + 1)) > budget:
        _refuse(what, budget)
    full, work, plan = (1 << k) - 1, 0, []
    for i in range(k):
        low, sets, leaves, weight = 1 << i, [], {}, weights[i]
        for b in _connected_sets(nbr, low, full & -low):
            rest, size = b ^ low, b.bit_count()
            while rest:
                leaf = rest & -rest
                if (nbr[leaf.bit_length() - 1] & b).bit_count() == 1:
                    leaves[b] = leaf
                    break
                rest ^= leaf
            work += weight[size] + (size if rest else 1 << size - 1)
            if work > budget:
                _refuse(what, budget)
            sets.append(b)
        sets.sort(key=int.bit_count)
        plan.append((sets, leaves))

    def run(pw: list[int], mult: list[int]) -> dict[int, int]:
        pending: list = [{} for _ in range(k + 1)]  # index -1 is k: R empty
        pending[0][full] = {0: 1}
        for i, (sets, leaves) in enumerate(plan):
            low = 1 << i
            c = {low: 1}
            for b in sets[1:]:
                if leaf := leaves.get(b):
                    c[b] = -c[b ^ leaf]
                    continue
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

    return work, run


def _expansion(g: Graph, weights: list[int] | None) -> dict[int, int]:
    """X_G as {code: coefficient}.  With weights None each closed part of
    size s adds (n+1)^(s-1) to the code; otherwise every code is 0 and the
    part multiplies by weights[s] (weights[0] = 1).

    One breadth-first pass gives each component's vertices in order and its
    cyclomatic number r; for r = 1, ``_reroot_on_cycle`` re-roots the pass's
    tree at one end of the edge it skipped, which is dropped, and gives the
    cycle.  Every component's kernel bounds its work before any kernel runs,
    and the code table is built after that, for parts up to the largest
    component.
    """
    n, adj = g.vertex_count, g.adjacency
    codes, parent, work, runs, longest = weights is None, [-1] * n, 0, [], 0
    for comp in _components(adj, parent):
        r = sum(len(adj[v]) for v in comp) // 2 - len(comp) + 1
        if r >= 2:
            bound, run = _set_partition_dp(comp, adj, codes, WORK_LIMIT - work)
        else:
            order, cycle = _reroot_on_cycle(adj, comp, parent) if r else (comp, [])
            bound, run = (_tree_dp if codes else _value_dp)(adj, order, parent, cycle, WORK_LIMIT - work)
        work += bound
        runs.append(run)
        longest = max(longest, len(comp))
    pw = [0] + [(n + 1) ** i for i in range(longest)] if codes else [0] * (n + 1)
    mult = [1] * (longest + 1) if codes else weights
    total = {0: 1}
    for run in runs:
        part = run(pw, mult)
        if len(total) * len(part) > WORK_LIMIT - work:
            _refuse(f"multiplying {len(total)} by {len(part)} terms takes {len(total) * len(part)} "
                    "term pairs,", WORK_LIMIT - work)
        work += len(total) * len(part)
        product: dict[int, int] = {}
        for ca, xa in total.items():
            for cb, xb in part.items():
                product[ca + cb] = product.get(ca + cb, 0) + xa * xb
        total = product
    return total


def csf_codes(g: Graph) -> dict[int, int]:
    """Exact nonzero terms of X_G as {size code: coefficient}.

    A code holds one base-(n+1) digit per part size, digit s - 1 counting the
    parts of size s, so at a fixed vertex count two graphs have equal maps
    exactly when their functions are equal, and codes order as their
    partitions do, lexicographically.
    """
    return {code: coeff for code, coeff in _expansion(g, None).items() if coeff}


def csf_value(g: Graph, weights: list[int]) -> int:
    """X_G with each p_s replaced by weights[s] (s = 1..n), exactly.

    The kernels keep values where ``csf_codes`` keeps one term per size
    multiset.  Equal functions give equal values at every point;
    ``weights = [k] * (n + 1)`` gives the chromatic polynomial at k.
    """
    n = g.vertex_count
    if len(weights) <= n:
        raise ValueError(f"need weights for part sizes 1..{n}, got {len(weights)} entries")
    return _expansion(g, [1, *weights[1:n + 1]]).get(0, 0)


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


def chromatic_symmetric_function(g: Graph) -> PowerSumPolynomial:
    """Exact power-sum expansion of X_G, one structured kernel per component."""
    return PowerSumPolynomial.from_codes(g.vertex_count, csf_codes(g))


def forest_type_counts(f: Graph) -> dict[Partition, int]:
    """For each partition, the number of edge subsets of that type.

    Forests only: there every subset of a given type has the same size, so
    these counts are X_F's coefficients in absolute value, under the work limit.
    """
    if not is_forest(f):
        raise ValueError("forest_type_counts requires a forest")
    x = chromatic_symmetric_function(f)
    return {p: abs(coeff) for p, coeff in x.terms.items()}


def specialize(x: PowerSumPolynomial, k: int) -> int:
    """Evaluate at x_1 = ... = x_k = 1, rest 0: each p_j becomes k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return sum(coeff * k ** len(p) for p, coeff in x.terms.items())


COLORING_WORK_LIMIT = 100_000_000


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
    """Exact equality: same degree and equal coefficients, by ``first_difference``."""
    return first_difference(a, b) is None


def first_difference(a: PowerSumPolynomial, b: PowerSumPolynomial) -> tuple[Partition | str, int, int] | None:
    """None if ``a`` and ``b`` are equal, else (where, value in a, value in b).

    ``where`` is the first partition, in descending order, whose coefficients
    differ; if every coefficient agrees it is "degree" and the values are the
    degrees.
    """
    x, y = a.terms, b.terms
    differ = [key for key in x.keys() | y.keys() if x.get(key, 0) != y.get(key, 0)]
    if differ:
        key = max(differ)
        return key, x.get(key, 0), y.get(key, 0)
    return None if a.degree == b.degree else ("degree", a.degree, b.degree)
