"""Hand-transcribed graphs and tables shared across the test suite.

Each fixture carries the facts the tests assert (degree sequences, weight
vectors, cut images), so a transcription slip shows up as a test failure
rather than a silent change of subject.
"""

from __future__ import annotations

from itertools import combinations

from csfkit import Graph, ThetaTable, parse_partition_key

# 7-vertex tree whose chromatic polynomial is k(k-1)^6.
CHROMATIC_TREE7_TEXT = "7 6\n0 2\n1 3\n2 3\n2 5\n3 4\n3 6\n"
CHROMATIC_TREE7 = Graph(7, ((0, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 6)))

# 11-vertex graph with six edges whose full edge set has type (4,3,2,1,1).
TYPE_DEMO_GRAPH11 = Graph(11, ((0, 1), (1, 3), (1, 2), (6, 7), (7, 10), (8, 9)))

# Two 6-vertex connected unicyclic graphs with equal CSF but different
# degree sequences: (4,2,2,2,1,1) on the left, (3,3,3,1,1,1) on the right.
COLLISION_LEFT6 = Graph(6, ((0, 2), (1, 3), (2, 3), (0, 3), (1, 4), (3, 5)))
COLLISION_RIGHT6 = Graph(6, ((0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (3, 5)))

# 17-vertex tree with a unique weight-8 centroid (vertex 9), and the
# 16-vertex variant (middle vertex removed) with two adjacent weight-8
# centroids.  Weight vectors transcribed from the drawings.
ONE_CENTROID_TREE17 = Graph(17, (
    (0, 3), (1, 3), (2, 7), (3, 8), (4, 10), (4, 5), (6, 7), (7, 8),
    (8, 9), (9, 10), (10, 11), (8, 13), (10, 14), (12, 15), (14, 15), (15, 16),
))
ONE_CENTROID_WEIGHTS17 = (16, 16, 16, 14, 15, 16, 16, 14, 9, 8, 9, 16, 16, 16, 13, 14, 16)

TWO_CENTROID_TREE16 = Graph(16, (
    (0, 3), (1, 3), (2, 7), (3, 8), (4, 9), (4, 5), (6, 7), (7, 8),
    (8, 9), (9, 10), (8, 12), (9, 13), (11, 14), (13, 14), (14, 15),
))
TWO_CENTROID_WEIGHTS16 = (15, 15, 15, 13, 14, 15, 15, 13, 8, 8, 15, 15, 15, 12, 13, 15)

# 17-vertex tree with centroid vertex 8; relative to the marked edge
# (10, 11), the "pull" edges lie on centroid-ended paths through it and the
# "push" edges do not.
ATTRACTION_TREE17 = Graph(17, (
    (0, 3), (1, 6), (2, 7), (3, 8), (6, 7), (7, 8), (6, 12), (7, 13),
    (9, 14), (10, 15), (4, 11), (4, 5), (8, 9), (9, 10), (11, 16), (10, 11),
))
ATTRACTION_MARKED_EDGE = (10, 11)
ATTRACTION_PULL_EDGES = ((4, 11), (4, 5), (8, 9), (9, 10), (11, 16))

# Two 7-vertex trees sharing the multiset of singleton cut images
# {(4,3), (5,2), (6,1) x4} while being non-isomorphic.
AMBIGUOUS_SINGLETONS_LEFT7 = Graph(7, ((0, 3), (1, 4), (1, 2), (3, 4), (3, 5), (4, 6)))
AMBIGUOUS_SINGLETONS_RIGHT7 = Graph(7, ((0, 4), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)))

# Two non-isomorphic 14-vertex trees, each with two centroids, whose
# labelled pair cut tables coincide entry for entry.  Maps are label -> edge.
TWO_CENTROID_PAIR14_LEFT = {
    "e1": (0, 1), "e2": (0, 2), "e5": (0, 3), "e8": (1, 4), "e11": (1, 5),
    "e3": (2, 6), "e6": (3, 7), "e9": (4, 8), "e10": (4, 9), "e12": (5, 10),
    "e13": (5, 11), "e4": (6, 12), "e7": (7, 13),
}
TWO_CENTROID_PAIR14_RIGHT = {
    "e1": (0, 1), "e2": (0, 2), "e11": (0, 3), "e8": (1, 4), "e5": (1, 5),
    "e3": (2, 6), "e12": (3, 7), "e13": (3, 8), "e9": (4, 9), "e10": (4, 10),
    "e6": (5, 11), "e4": (6, 12), "e7": (11, 13),
}
# Spot values of that shared table, as transcription anchors.
TWO_CENTROID_PAIR14_SPOTS = {
    ("e1", "e2"): (7, 4, 3),
    ("e1", "e3"): (7, 5, 2),
    ("e3", "e4"): (12, 1, 1),
    ("e8", "e11"): (8, 3, 3),
    ("e12", "e13"): (12, 1, 1),
    ("e2", "e9"): (10, 3, 1),
}

# Two non-isomorphic 15-vertex single-centroid trees whose pair cut images
# agree as multisets while their CSFs differ: the coefficient of
# p_(8,5,1,1) is -9 on the left and -8 on the right.
NEAR_MISS_LEFT15 = Graph(15, (
    (0, 1), (0, 2), (1, 3), (3, 7), (7, 13), (1, 4), (4, 8), (8, 14),
    (2, 5), (5, 9), (5, 10), (2, 6), (6, 11), (6, 12),
))
NEAR_MISS_RIGHT15 = Graph(15, (
    (0, 1), (0, 2), (1, 4), (1, 3), (2, 5), (2, 6), (3, 7), (4, 8),
    (4, 9), (5, 10), (5, 11), (6, 12), (7, 13), (12, 14),
))

# Pair cut images of a 13-vertex single-centroid tree, the worked
# reconstruction instance.  66 entries, labels e1..e12.
_CUT_TABLE13_ROWS = {
    ("e1", "e2"): "10,2,1",
    ("e1", "e3"): "7,5,1", ("e2", "e3"): "7,4,2",
    ("e1", "e4"): "10,2,1", ("e2", "e4"): "9,2,2", ("e3", "e4"): "6,5,2",
    ("e1", "e5"): "11,1,1", ("e2", "e5"): "10,2,1", ("e3", "e5"): "6,6,1",
    ("e4", "e5"): "10,2,1",
    ("e1", "e6"): "11,1,1", ("e2", "e6"): "10,2,1", ("e3", "e6"): "6,6,1",
    ("e4", "e6"): "11,1,1", ("e5", "e6"): "11,1,1",
    ("e1", "e7"): "11,1,1", ("e2", "e7"): "11,1,1", ("e3", "e7"): "7,5,1",
    ("e4", "e7"): "10,2,1", ("e5", "e7"): "11,1,1", ("e6", "e7"): "11,1,1",
    ("e1", "e8"): "11,1,1", ("e2", "e8"): "10,2,1", ("e3", "e8"): "6,6,1",
    ("e4", "e8"): "10,2,1", ("e5", "e8"): "11,1,1", ("e6", "e8"): "11,1,1",
    ("e7", "e8"): "11,1,1",
    ("e1", "e9"): "9,3,1", ("e2", "e9"): "8,3,2", ("e3", "e9"): "6,4,3",
    ("e4", "e9"): "8,3,2", ("e5", "e9"): "10,2,1", ("e6", "e9"): "9,3,1",
    ("e7", "e9"): "9,3,1", ("e8", "e9"): "10,2,1",
    ("e1", "e10"): "9,3,1", ("e2", "e10"): "10,2,1", ("e3", "e10"): "7,3,3",
    ("e4", "e10"): "8,3,2", ("e5", "e10"): "9,3,1", ("e6", "e10"): "9,3,1",
    ("e7", "e10"): "10,2,1", ("e8", "e10"): "9,3,1", ("e9", "e10"): "7,3,3",
    ("e1", "e11"): "11,1,1", ("e2", "e11"): "10,2,1", ("e3", "e11"): "7,5,1",
    ("e4", "e11"): "10,2,1", ("e5", "e11"): "11,1,1", ("e6", "e11"): "11,1,1",
    ("e7", "e11"): "11,1,1", ("e8", "e11"): "11,1,1", ("e9", "e11"): "9,3,1",
    ("e10", "e11"): "9,3,1",
    ("e1", "e12"): "6,6,1", ("e2", "e12"): "6,5,2", ("e3", "e12"): "6,6,1",
    ("e4", "e12"): "7,4,2", ("e5", "e12"): "7,5,1", ("e6", "e12"): "7,5,1",
    ("e7", "e12"): "6,6,1", ("e8", "e12"): "7,5,1", ("e9", "e12"): "7,3,3",
    ("e10", "e12"): "6,4,3", ("e11", "e12"): "6,6,1",
}

CUT_TABLE13_LABELS = tuple(f"e{i}" for i in range(1, 13))
CUT_TABLE13_PAIRS = {k: parse_partition_key(v) for k, v in _CUT_TABLE13_ROWS.items()}
CUT_TABLE13_LEAVES = {"e1", "e5", "e6", "e7", "e8", "e11"}
CUT_TABLE13_SINGLETONS = {
    "e1": (12, 1), "e2": (11, 2), "e3": (7, 6), "e4": (11, 2), "e5": (12, 1),
    "e6": (12, 1), "e7": (12, 1), "e8": (12, 1), "e9": (10, 3), "e10": (10, 3),
    "e11": (12, 1), "e12": (7, 6),
}
# The tree those images describe, as drawn in the construction sequence.
CUT_TABLE13_TREE = Graph(13, (
    (0, 3), (1, 3), (2, 4), (3, 5), (4, 5), (5, 6), (6, 7), (7, 8),
    (7, 10), (7, 9), (8, 11), (11, 12),
))


def cut_table13(pairs_only: bool = False) -> ThetaTable:
    return ThetaTable(
        n=13,
        edge_labels=CUT_TABLE13_LABELS,
        singletons={} if pairs_only else dict(CUT_TABLE13_SINGLETONS),
        pairs=dict(CUT_TABLE13_PAIRS),
    )


# Two labelled 6-vertex unicyclic graphs drawn with their triangle erasures.
# In each, (e1, e2, e3) is a triangle and the expected rows are the edge
# sets of g - e1, g - e2, g - {e1, e2}.
TRIANGLE_DEMO_A = Graph(6, ((0, 1), (1, 2), (1, 4), (0, 4), (0, 3), (4, 5)))
TRIANGLE_DEMO_A_INDICES = (3, 0, 2)  # e1 = (0,4), e2 = (0,1), e3 = (1,4)
TRIANGLE_DEMO_B = Graph(6, ((0, 1), (1, 2), (1, 4), (1, 3), (0, 3), (4, 5)))
TRIANGLE_DEMO_B_INDICES = (3, 0, 4)  # e1 = (1,3), e2 = (0,1), e3 = (0,3)

# 5-cycle with two adjacent marked edges; trading them for the absent
# closing edge gives a 4-cycle with a pendant, a path, and a 4-cycle with
# an isolated vertex.
PENTAGON = Graph(5, ((0, 1), (1, 2), (2, 4), (3, 4), (0, 3)))
PENTAGON_WEDGE = (3, 2)  # e1 = (3,4), e2 = (2,4), shared vertex 4


def path_with_k4(n: int) -> Graph:
    """A path from vertex 0 ending in a K4 on its last four vertices: in the
    breadth-first order from 0, every set along the path has its least vertex
    as its only leaf.  Its k-colourings number k(k-1)(k-2)(k-3)(k-1)^(n-4)."""
    return Graph(n, tuple(sorted({(v, v + 1) for v in range(n - 4)} | set(combinations(range(n - 4, n), 2)))))
