"""Edge-cut data of trees and reconstruction from it.

For a tree T on n vertices, removing a set of k edges splits it into k+1
components; the partition of n recording their orders is the cut image of
that set.  Singleton images are 2-part, pair images 3-part.  A tree with a
single centroid is determined by its singleton and pair images, and even by
the pair images alone; the reconstruction algorithms here follow that
constructive proof: order edges by how balanced their cut is, then grow the
tree from the centroid, attaching each edge below the deepest already placed
edge that attracts it.  ``theta_tables`` is the one routine that computes a
tree's cut images; it checks the tree once per table, not once per entry.  A
reconstruction is accepted only if the images it computes for the rebuilt
tree equal the input table, entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations

from .csf import chromatic_symmetric_function
from .errors import InconsistentDataError, TwoCentroidError
from .graph import (Graph, _bfs, _check_edge_indices, _lightest, _root_path, _weights, is_forest,
                    pi_type, require_tree)
from .partitions import (
    Partition,
    parse_partition_key,
    partition_key,
    rearrange,
)


@dataclass(frozen=True)
class ThetaTable:
    """Cut images of all singletons and pairs of a tree's labelled edges.

    ``pairs`` is keyed by label pairs ordered as in ``edge_labels``;
    ``singletons`` may be empty for pairs-only data.
    """

    n: int
    edge_labels: tuple[str, ...]
    singletons: dict[str, Partition]
    pairs: dict[tuple[str, str], Partition]

    def __post_init__(self):
        labels = self.edge_labels
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate edge labels")
        if self.singletons and set(self.singletons) != set(labels):
            raise ValueError("singleton images must cover all labels or none")
        for label, img in self.singletons.items():
            if len(img) != 2 or sum(img) != self.n:
                raise ValueError(f"singleton image of {label} must have 2 parts summing to {self.n}")
        # Dict keys are distinct, so the right count of keys that are each two
        # known labels in label order covers every pair exactly once.
        m = len(labels)
        position = self._position
        if len(self.pairs) != m * (m - 1) // 2 or not all(
            isinstance(pair, tuple) and len(pair) == 2
            and position.get(pair[0], m) < position.get(pair[1], -1)
            for pair in self.pairs
        ):
            raise ValueError("pair images must cover every unordered label pair exactly")
        for pair, img in self.pairs.items():
            if len(img) != 3 or sum(img) != self.n:
                raise ValueError(f"pair image of {pair} must have 3 parts summing to {self.n}")

    @property
    def m(self) -> int:
        return len(self.edge_labels)

    def pair(self, a: str, b: str) -> Partition:
        return self.pairs[self.pair_key(a, b)]

    def pair_key(self, a: str, b: str) -> tuple[str, str]:
        return (a, b) if self._position[a] < self._position[b] else (b, a)

    @cached_property
    def _position(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.edge_labels)}

    def to_text(self) -> str:
        lines = [f"theta n={self.n} m={self.m}"]
        if self.singletons:
            for label in self.edge_labels:
                lines.append(f"{label} {partition_key(self.singletons[label])}")
        for a, b in combinations(self.edge_labels, 2):
            lines.append(f"{a} {b} {partition_key(self.pairs[(a, b)])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ThetaTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("theta "):
            raise ValueError("missing 'theta n=<n> m=<m>' header")
        toks = lines[0].split()
        try:
            n = int(toks[1].removeprefix("n="))
            m = int(toks[2].removeprefix("m="))
        except (IndexError, ValueError):
            raise ValueError(f"malformed header {lines[0]!r}") from None
        singletons: dict[str, Partition] = {}
        pair_rows: list[tuple[str, str, Partition]] = []
        labels: list[str] = []
        seen: set[str] = set()

        def note(label: str) -> None:
            if label not in seen:
                seen.add(label)
                labels.append(label)

        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) == 2:
                note(toks[0])
                if toks[0] in singletons:
                    raise ValueError(f"duplicate singleton line for {toks[0]}")
                singletons[toks[0]] = parse_partition_key(toks[1])
            elif len(toks) == 3:
                note(toks[0])
                note(toks[1])
                pair_rows.append((toks[0], toks[1], parse_partition_key(toks[2])))
            else:
                raise ValueError(f"malformed theta line {ln!r}")
        if len(labels) != m and not (m == 0 and not labels):
            raise ValueError(f"header says m={m} but {len(labels)} labels appear")
        order = {lab: i for i, lab in enumerate(labels)}
        pairs: dict[tuple[str, str], Partition] = {}
        for a, b, img in pair_rows:
            key = (a, b) if order[a] < order[b] else (b, a)
            if key in pairs:
                raise ValueError(f"duplicate pair line for {key}")
            pairs[key] = img
        return cls(n=n, edge_labels=tuple(labels), singletons=singletons, pairs=pairs)


# ---------------------------------------------------------------------------
# Computing cut images from a tree


def theta(t: Graph, edge_indices) -> Partition:
    """Cut image of an edge set: type of the complement edge set."""
    require_tree(t, "theta")
    edge_indices = list(edge_indices)
    _check_edge_indices(t, edge_indices)
    removed: set[int] = set()
    for i in edge_indices:
        if i in removed:
            raise ValueError(f"edge index {i} repeated")
        removed.add(i)
    return pi_type(t, [i for i in range(t.edge_count) if i not in removed])


def _cut_images(t: Graph) -> tuple[list[Partition], dict[tuple[int, int], Partition]]:
    """Cut images of every edge, listed by edge index, and of every edge pair,
    keyed by index pair i < j.  The tree is checked once; each image is then
    the type of the edges kept, as in ``theta``."""
    require_tree(t, "theta_tables")
    kept = range(t.edge_count)
    singles = [pi_type(t, chain(kept[:i], kept[i + 1:])) for i in kept]
    pairs = {(i, j): pi_type(t, chain(kept[:i], kept[i + 1:j], kept[j + 1:]))
             for i, j in combinations(kept, 2)}
    return singles, pairs


def theta_tables(t: Graph) -> ThetaTable:
    """Full singleton and pair cut data, labelled by edge index."""
    singles, pairs = _cut_images(t)
    labels = tuple(str(i) for i in range(t.edge_count))
    return ThetaTable(n=t.vertex_count, edge_labels=labels, singletons=dict(zip(labels, singles)),
                      pairs={(labels[i], labels[j]): img for (i, j), img in pairs.items()})


# ---------------------------------------------------------------------------
# Attraction


def attracts(t: Graph, ea: int, eb: int) -> bool:
    """True if some path through both edges ends at a centroid: rooted at
    that centroid, one edge's lower endpoint lies below the other's."""
    order, parent = require_tree(t, "attracts")
    _check_edge_indices(t, (ea, eb))
    if ea == eb:
        raise ValueError("attraction is defined for distinct edges")
    for c in _lightest(_weights(order, parent)):  # the centroid
        up = [-1] * t.vertex_count
        _bfs(t.adjacency, c, up)
        x, y = (v if up[v] == u else u for u, v in (t.edges[ea], t.edges[eb]))
        if y in _root_path(up, x) or x in _root_path(up, y):
            return True
    return False


def attracts_from_theta(n: int, theta_a: Partition, theta_b: Partition,
                        theta_ab: Partition) -> bool:
    """Decide attraction from cut data alone.

    With singleton images (n-i, i) and (n-k, k), i >= k, the pair image is
    re(n-i, i-k, k) exactly when the edges attract, and re(n-i-k, i, k) when
    they repel; equal singleton images always repel.  Anything else is
    unrealizable data.
    """
    for img, parts in ((theta_a, 2), (theta_b, 2), (theta_ab, 3)):
        if len(img) != parts or sum(img) != n:
            raise ValueError(f"{img} is not a {parts}-part partition of {n}")
    i = theta_a[1]
    k = theta_b[1]
    if i < k:
        i, k = k, i
    if i == k:
        if n - 2 * i < 1 or theta_ab != rearrange((n - 2 * i, i, i)):
            raise InconsistentDataError(
                f"pair image {theta_ab} impossible for equal singleton images ({n - i}, {i})"
            )
        return False
    attract_img = rearrange((n - i, i - k, k))
    repel_img = rearrange((n - i - k, i, k))
    if theta_ab == attract_img:
        return True
    if theta_ab == repel_img:
        return False
    raise InconsistentDataError(
        f"pair image {theta_ab} matches neither {attract_img} nor {repel_img} "
        f"for singleton images ({n - i}, {i}) and ({n - k}, {k})"
    )


# ---------------------------------------------------------------------------
# Reconstruction


def _sorted_labels(tbl: ThetaTable) -> list[str]:
    """Most balanced cut first; ties broken by label position."""
    return sorted(tbl.edge_labels, key=lambda lab: (-tbl.singletons[lab][1], tbl._position[lab]))


def reconstruct_from_theta(tbl: ThetaTable) -> tuple[Graph, dict[str, int]]:
    """Rebuild the single-centroid tree matching full singleton + pair data.

    Returns the tree (vertex 0 is the centroid) and the label -> edge index
    assignment; the reconstruction is verified against the input table
    entry for entry before returning.
    """
    n = tbl.n
    if tbl.m > 0 and not tbl.singletons:
        raise ValueError("reconstruct_from_theta needs singleton images; "
                         "use reconstruct_from_pairs for pairs-only data")
    if tbl.m != n - 1:
        raise InconsistentDataError(f"{tbl.m} edges cannot make a tree on {n} vertices")
    for label, img in tbl.singletons.items():
        if n % 2 == 0 and img == (n // 2, n // 2):
            raise TwoCentroidError(
                f"edge {label} splits the tree in half: the tree has two centroids, "
                "which this data cannot distinguish"
            )

    order = _sorted_labels(tbl)
    edges: list[tuple[int, int]] = []  # edge k runs from its parent to vertex k + 1
    for index, label in enumerate(order):
        # Cuts shrink down every root path and bigger cuts are placed first,
        # so the attracting edges are this edge's root path, deepest last.
        at = 0
        for k, placed in enumerate(order[:index]):
            key = tbl.pair_key(placed, label)
            try:
                if attracts_from_theta(n, tbl.singletons[placed], tbl.singletons[label], tbl.pairs[key]):
                    at = k + 1
            except InconsistentDataError as exc:
                raise InconsistentDataError(f"pair {key}: {exc}") from None
        edges.append((at, index + 1))

    tree = Graph(n, tuple(edges))
    label_to_index = {label: i for i, label in enumerate(order)}
    _check_realized(tree, label_to_index, tbl)
    return tree, label_to_index


def _check_realized(tree: Graph, label_to_index: dict[str, int], tbl: ThetaTable) -> None:
    """InconsistentDataError naming the first table entry (singletons only if
    the table has them) that differs from the rebuilt tree's cut image."""
    singles, pairs = _cut_images(tree)
    rows = [(f"edge {a}", singles[label_to_index[a]], tbl.singletons[a])
            for a in tbl.edge_labels] if tbl.singletons else []
    for a, b in combinations(tbl.edge_labels, 2):
        i, j = sorted((label_to_index[a], label_to_index[b]))
        rows.append((f"pair ({a}, {b})", pairs[i, j], tbl.pairs[a, b]))
    for entry, got, img in rows:
        if got != img:
            raise InconsistentDataError(
                f"no tree realizes this data: {entry} rebuilt with cut {got}, table says {img}"
            )


def leaf_edges_from_pairs(tbl: ThetaTable) -> set[str]:
    """Labels whose pair images hit (n-2, 1, 1) at least twice: the leaf edges."""
    n = tbl.n
    if n <= 4:
        raise ValueError("leaf detection from pairs needs n > 4")
    cut = (n - 2, 1, 1)
    leaves = set()
    for label in tbl.edge_labels:
        partners = sum(
            1 for other in tbl.edge_labels
            if other != label and tbl.pair(label, other) == cut
        )
        if partners >= 2:
            leaves.add(label)
    return leaves


def singletons_from_pairs(tbl: ThetaTable) -> dict[str, Partition]:
    """Recover singleton images from pair images (single-centroid trees, n > 4).

    Leaf edges cut off one vertex.  For any other edge, its pair images with
    the leaf edges realize both ways a leaf can sit relative to it, and the
    largest part occurring among them is the big side of its own cut.
    """
    n = tbl.n
    leaves = leaf_edges_from_pairs(tbl)
    if not leaves:
        raise InconsistentDataError("no leaf edges detectable; data is unrealizable")
    singles: dict[str, Partition] = {}
    for label in tbl.edge_labels:
        if label in leaves:
            singles[label] = (n - 1, 1)
        else:
            a = max(max(tbl.pair(label, leaf)) for leaf in leaves if leaf != label)
            singles[label] = (a, n - a)
    return singles


_SMALL_SINGLE_CENTROID = {
    1: (),
    3: ((0, 1), (0, 2)),
    4: ((0, 1), (0, 2), (0, 3)),
}


def reconstruct_from_pairs(tbl: ThetaTable) -> tuple[Graph, dict[str, int]]:
    """Rebuild a single-centroid tree from pair images alone.

    For n <= 4 there is at most one single-centroid tree per order, so small
    instances are answered by lookup (n = 2 has none: both vertices of the
    one edge are centroids).  Larger instances recover the singleton images
    first and then run the full reconstruction.  Singleton images in ``tbl``
    are ignored.
    """
    n = tbl.n
    if tbl.m != n - 1:
        raise InconsistentDataError(f"{tbl.m} edges cannot make a tree on {n} vertices")
    if n == 2:
        raise TwoCentroidError("the only tree on 2 vertices has two centroids")
    if n <= 4:
        tree = Graph(n, _SMALL_SINGLE_CENTROID[n])
        label_to_index = {lab: i for i, lab in enumerate(tbl.edge_labels)}
        _check_realized(tree, label_to_index, replace(tbl, singletons={}))
        return tree, label_to_index
    return reconstruct_from_theta(replace(tbl, singletons=singletons_from_pairs(tbl)))


# ---------------------------------------------------------------------------
# Forest subset-type counting


def forest_type_counts(f: Graph) -> dict[Partition, int]:
    """For each partition, the number of edge subsets of that type.

    Forests only: there every subset of a given type has the same size, so
    these counts are the absolute values of X_F's coefficients.
    """
    if not is_forest(f):
        raise ValueError("forest_type_counts requires a forest")
    x = chromatic_symmetric_function(f, max_edges=f.edge_count)
    return {p: abs(coeff) for p, coeff in x.terms.items()}
