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

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

from .errors import InconsistentDataError, ResourceLimitError, TwoCentroidError
from .graph import Graph, _check_edge_indices, pi_type, require_tree
from .partitions import Partition, _is_partition, parse_partition_key, partition_key, rearrange

# Largest C(m, 2) * n a cut table may take, since each of its C(m, 2) pair
# images costs O(n): theta_tables runs a 301-vertex tree (13,499,850; 4-7 s on
# a 2-core VM), and trees above 323 vertices are refused.
CUT_WORK_LIMIT = 1 << 24


def _check_cut_work(n: int, m: int) -> None:
    """ResourceLimitError if a cut table of n vertices and m edges is too big."""
    if m * (m - 1) // 2 * n > CUT_WORK_LIMIT:
        raise ResourceLimitError(f"a cut table of {m} edges on {n} vertices needs C({m}, 2) * {n} "
                                 f"steps, above the limit of {CUT_WORK_LIMIT}")


@dataclass(frozen=True)
class ThetaTable:
    """Cut images of all singletons and pairs of a tree's labelled edges.

    ``pairs`` is keyed by label pairs ordered as in ``edge_labels``;
    ``singletons`` may be empty for pairs-only data.  A table whose edge count
    is not n - 1 is refused as data no tree can realize.
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
            if not _is_partition(img, 2, self.n):
                raise ValueError(f"singleton image of {label} must be a 2-part partition of {self.n}")
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
            if not _is_partition(img, 3, self.n):
                raise ValueError(f"pair image of {pair} must be a 3-part partition of {self.n}")
        if m != self.n - 1:
            raise InconsistentDataError(f"{m} edges cannot make a tree on {self.n} vertices")

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
        _check_cut_work(n, m)
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
    _check_cut_work(t.vertex_count, t.edge_count)
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


def attracts_from_theta(n: int, theta_a: Partition, theta_b: Partition,
                        theta_ab: Partition) -> bool:
    """Decide attraction from cut data alone.

    With singleton images (n-i, i) and (n-k, k), i >= k, the pair image is
    re(n-i, i-k, k) exactly when the edges attract, and re(n-i-k, i, k) when
    they repel; equal singleton images always repel.  Anything else is
    unrealizable data.
    """
    for img, parts in ((theta_a, 2), (theta_b, 2), (theta_ab, 3)):
        _check_image(img, parts, n)
    return _attracts(n, theta_a[1], theta_b[1], theta_ab)


def _check_image(img: Partition, parts: int, n: int) -> None:
    if not _is_partition(img, parts, n):
        raise ValueError(f"{img} is not a {parts}-part partition of {n}")


def _attracts(n: int, i: int, k: int, theta_ab: Partition) -> bool:
    """``attracts_from_theta`` on images already checked, given the small
    parts i and k of the two singleton images."""
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


def reconstruct_from_theta(tbl: ThetaTable) -> tuple[Graph, dict[str, int]]:
    """Rebuild the single-centroid tree matching full singleton + pair data.

    Returns the tree (vertex 0 is the centroid) and the label -> edge index
    assignment; the reconstruction is verified against the input table
    entry for entry before returning.
    """
    if tbl.m > 0 and not tbl.singletons:
        raise ValueError("reconstruct_from_theta needs singleton images; "
                         "use reconstruct_from_pairs for pairs-only data")
    return _rebuild(tbl, tbl.singletons)


def _rebuild(tbl: ThetaTable, singles: dict[str, Partition]) -> tuple[Graph, dict[str, int]]:
    """Grow the tree from the singleton images ``singles`` and the table's
    pair images, then check it realizes both."""
    n = tbl.n
    for label, img in singles.items():
        if n % 2 == 0 and img == (n // 2, n // 2):
            raise TwoCentroidError(
                f"edge {label} splits the tree in half: the tree has two centroids, "
                "which this data cannot distinguish"
            )

    # most balanced cut first; ties broken by label position
    order = sorted(tbl.edge_labels, key=lambda lab: (-singles[lab][1], tbl._position[lab]))
    # The table checked its pair images; each singleton image is checked once
    # here.  One recovered from pairs that is not a partition has the larger
    # part second, so it sorts first and is the one refused.
    for label in order:
        _check_image(singles[label], 2, n)
    edges: list[tuple[int, int]] = []  # edge k runs from its parent to vertex k + 1
    for index, label in enumerate(order):
        # Cuts shrink down every root path and bigger cuts are placed first,
        # so the attracting edges are this edge's root path, deepest last.
        at = 0
        for k, placed in enumerate(order[:index]):
            key = tbl.pair_key(placed, label)
            try:
                if _attracts(n, singles[placed][1], singles[label][1], tbl.pairs[key]):
                    at = k + 1
            except InconsistentDataError as exc:
                raise InconsistentDataError(f"pair {key}: {exc}") from None
        edges.append((at, index + 1))

    tree = Graph(n, tuple(edges))
    label_to_index = {label: i for i, label in enumerate(order)}
    _check_realized(tree, label_to_index, tbl, singles)
    return tree, label_to_index


def _check_realized(tree: Graph, label_to_index: dict[str, int], tbl: ThetaTable,
                    singles: dict[str, Partition]) -> None:
    """InconsistentDataError naming the first entry, singleton images
    ``singles`` first and then the table's pairs, that differs from the
    rebuilt tree's cut image."""
    got_singles, pairs = _cut_images(tree)
    rows = [(f"edge {a}", got_singles[label_to_index[a]], singles[a]) for a in tbl.edge_labels]
    for a, b in combinations(tbl.edge_labels, 2):
        i, j = sorted((label_to_index[a], label_to_index[b]))
        rows.append((f"pair ({a}, {b})", pairs[i, j], tbl.pairs[a, b]))
    for entry, got, img in rows:
        if got != img:
            raise InconsistentDataError(
                f"no tree realizes this data: {entry} rebuilt with cut {got}, table says {img}"
            )


def singletons_from_pairs(tbl: ThetaTable) -> dict[str, Partition]:
    """Recover singleton images from pair images (single-centroid trees).

    A single-centroid tree on at most four vertices is a star, so every edge
    cuts off one vertex.  Above that, the leaf edges are those whose pair
    images hit (n-2, 1, 1) at least twice, and they cut off one vertex; for
    any other edge, its pair images with the leaf edges realize both ways a
    leaf can sit relative to it, and the largest part occurring among them is
    the big side of its own cut.
    """
    n = tbl.n
    if n <= 4:
        return {label: (n - 1, 1) for label in tbl.edge_labels}
    cut = (n - 2, 1, 1)
    leaves = {label for label in tbl.edge_labels
              if sum(1 for other in tbl.edge_labels
                     if other != label and tbl.pair(label, other) == cut) >= 2}
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


def reconstruct_from_pairs(tbl: ThetaTable) -> tuple[Graph, dict[str, int]]:
    """Rebuild a single-centroid tree from pair images alone.

    Recovers the singleton images from the pairs, then runs the full
    reconstruction on them.  Singleton images in ``tbl`` are ignored.
    """
    return _rebuild(tbl, singletons_from_pairs(tbl))
