import pytest

from csfkit import parse_partition_key, partition_key, rearrange


def test_rearrange_sorts_descending():
    assert rearrange([2, 5, 1, 5]) == (5, 5, 2, 1)
    assert rearrange([7]) == (7,)
    assert rearrange([13 - 6, 6 - 3, 3]) == (7, 3, 3)


def test_rearrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        rearrange([3, 0])
    with pytest.raises(ValueError):
        rearrange([-1])


def test_rearrange_idempotent_and_permutation_invariant():
    import itertools

    values = (4, 1, 3, 3, 2)
    base = rearrange(values)
    assert rearrange(base) == base
    for perm in itertools.permutations(values):
        assert rearrange(perm) == base


def test_partition_key_rendering():
    assert partition_key((4, 3, 2, 1, 1)) == "4,3,2,1,1"
    assert partition_key(()) == ""
    assert partition_key((8, 5, 1, 1)) == "8,5,1,1"


def _all_partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _all_partitions(n - first, first):
            yield (first,) + rest


def test_partition_key_injective_up_to_degree_12():
    for n in range(13):
        keys = [partition_key(p) for p in _all_partitions(n)]
        assert len(keys) == len(set(keys))


def test_parse_partition_key_roundtrip_and_errors():
    for p in [(5, 5, 2, 1), (1,), ()]:
        assert parse_partition_key(partition_key(p)) == p
    with pytest.raises(ValueError):
        parse_partition_key("3,4")  # increasing
    with pytest.raises(ValueError):
        parse_partition_key("a,b")
