"""Integer partitions as plain tuples, weakly decreasing.

A partition is represented as a tuple of positive ints sorted in weakly
decreasing order; the empty tuple is the (unique) partition of 0.  Tuples in
this form serve as keys everywhere a subset type or an edge-cut image is
stored.
"""

from __future__ import annotations

from typing import Iterable

Partition = tuple[int, ...]


def rearrange(values: Iterable[int]) -> Partition:
    """Sort positive integers into a weakly decreasing partition."""
    parts = tuple(sorted(values, reverse=True))
    if parts and parts[-1] < 1:
        raise ValueError(f"partition parts must be positive, got {parts[-1]}")
    return parts


def partition_key(p: Partition) -> str:
    """Comma-joined parts, e.g. (4,3,2,1,1) -> "4,3,2,1,1"; () -> ""."""
    return ",".join(map(str, p))


def _is_partition(parts, count: int | None = None, total: int | None = None) -> bool:
    """Weakly decreasing positive parts, ``count`` of them summing to ``total``
    where those are given: the one shape test of every partition read or built."""
    return ((count is None or len(parts) == count) and (total is None or sum(parts) == total)
            and [*parts] == sorted(parts, reverse=True) and (not parts or parts[-1] >= 1))


def parse_partition_key(text: str) -> Partition:
    """Inverse of :func:`partition_key`; rejects malformed keys."""
    if text == "":
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed partition key {text!r}") from None
    if not _is_partition(parts):
        raise ValueError(f"partition key {text!r} is not weakly decreasing positive")
    return parts
