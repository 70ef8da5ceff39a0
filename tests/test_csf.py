import random
from itertools import combinations

import pytest

from csfkit import (
    Graph,
    PowerSumPolynomial,
    ResourceLimitError,
    chromatic_symmetric_function,
    count_proper_colorings,
    csf_equal,
    enumerate_trees,
    extract_invariants,
    first_difference,
    partition_key,
    specialize,
    structural_report,
)

from fixtures import CHROMATIC_TREE7, COLLISION_LEFT6, COLLISION_RIGHT6
from oracles import first_difference_by_sort, relabelled

K2 = Graph(2, ((0, 1),))
K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
P3 = Graph(3, ((0, 1), (1, 2)))
P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
STAR4 = Graph(4, ((0, 1), (0, 2), (0, 3)))


def random_graph(rng: random.Random, n: int, max_edges: int) -> Graph:
    pool = list(combinations(range(n), 2))
    rng.shuffle(pool)
    return Graph(n, tuple(sorted(pool[: rng.randint(0, min(max_edges, len(pool)))])))


# ---------------------------------------------------------------------------
# expansion values


def test_k2_expansion():
    assert chromatic_symmetric_function(K2).terms == {(1, 1): 1, (2,): -1}


def test_k3_expansion():
    assert chromatic_symmetric_function(K3).terms == {(1, 1, 1): 1, (2, 1): -3, (3,): 2}


def test_p3_expansion():
    assert chromatic_symmetric_function(P3).terms == {(1, 1, 1): 1, (2, 1): -2, (3,): 1}


def test_signed_subset_count_oracle():
    # recompute a few coefficient maps by raw subset listing
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), 8)
        from csfkit import pi_type

        expected: dict = {}
        for r in range(g.edge_count + 1):
            for subset in combinations(range(g.edge_count), r):
                key = pi_type(g, subset)
                expected[key] = expected.get(key, 0) + (-1) ** r
        expected = {k: v for k, v in expected.items() if v}
        assert chromatic_symmetric_function(g).terms == expected


def test_leading_coefficients():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, 9)
        x = chromatic_symmetric_function(g)
        assert x.coefficient((1,) * n) == 1
        if n >= 2:
            assert x.coefficient((2,) + (1,) * (n - 2)) == -g.edge_count


def test_coefficient_sum_equals_one_coloring_specialization():
    rng = random.Random(13)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8), 9)
        x = chromatic_symmetric_function(g)
        total = sum(x.terms.values())
        assert total == specialize(x, 1)
        assert total == (1 if g.edge_count == 0 else 0)


def test_forest_sign_coherence():
    # in a forest every subset of a given type has the same size
    for n in range(1, 9):
        for t in enumerate_trees(n):
            x = chromatic_symmetric_function(t)
            for p, coeff in x.terms.items():
                assert coeff * (-1) ** (n - len(p)) > 0


# ---------------------------------------------------------------------------
# specialization vs brute-force coloring


def test_specialize_k3():
    x = chromatic_symmetric_function(K3)
    assert specialize(x, 3) == 6 == count_proper_colorings(K3, 3)
    assert specialize(x, 2) == 0 == count_proper_colorings(K3, 2)


def test_specialize_chromatic_tree():
    x = chromatic_symmetric_function(CHROMATIC_TREE7)
    for k in range(7):
        assert specialize(x, k) == k * (k - 1) ** 6
    assert count_proper_colorings(CHROMATIC_TREE7, 2) == 2


def test_one_coloring_dies_on_any_edge():
    assert specialize(chromatic_symmetric_function(K2), 1) == 0


def test_specialize_matches_brute_force_sample():
    rng = random.Random(14)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8), 9)
        x = chromatic_symmetric_function(g)
        for k in range(5):
            assert specialize(x, k) == count_proper_colorings(g, k)


def test_coloring_resource_limit():
    big = Graph(30, ())
    with pytest.raises(ResourceLimitError):
        count_proper_colorings(big, 10)


# ---------------------------------------------------------------------------
# invariant extraction


def test_extract_k3():
    rep = extract_invariants(chromatic_symmetric_function(K3))
    assert rep.edge_count == 3
    assert rep.s22 == 0
    assert rep.s3 == 3
    assert rep.sum_squared_degrees == 12
    assert rep.triangle_count == 1


def test_extract_k2():
    rep = extract_invariants(chromatic_symmetric_function(K2))
    assert rep.edge_count == 1
    assert rep.sum_squared_degrees == 2
    assert rep.triangle_count == 0


def test_extract_collision_graph():
    rep = extract_invariants(chromatic_symmetric_function(COLLISION_LEFT6))
    direct = structural_report(COLLISION_LEFT6)
    assert rep.sum_squared_degrees == direct.sum_squared_degrees == 30
    assert rep.triangle_count == direct.triangle_count == 1


def test_extract_malformed_rejected():
    bad = PowerSumPolynomial(3, {(1, 1, 1): 2})
    with pytest.raises(ValueError):
        extract_invariants(bad)


def test_extract_matches_structure_on_random_graphs():
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, 11)
        rep = extract_invariants(chromatic_symmetric_function(g))
        direct = structural_report(g)
        assert rep.vertex_count == direct.vertex_count
        assert rep.edge_count == direct.edge_count
        assert rep.matching_counts == direct.matching_counts
        assert rep.sum_squared_degrees == direct.sum_squared_degrees
        assert rep.triangle_count == direct.triangle_count
        assert rep.s22 + rep.s3 == rep.edge_count * (rep.edge_count - 1) // 2


# ---------------------------------------------------------------------------
# equality and serialization


def test_csf_equal_collision_pair():
    xl = chromatic_symmetric_function(COLLISION_LEFT6)
    xr = chromatic_symmetric_function(COLLISION_RIGHT6)
    assert csf_equal(xl, xr)
    assert csf_equal(xl, xl)


def test_csf_equal_distinguishes_path_and_star():
    xp = chromatic_symmetric_function(P4)
    xs = chromatic_symmetric_function(STAR4)
    assert not csf_equal(xp, xs)
    assert xp.coefficient((2, 2)) != xs.coefficient((2, 2))


def test_csf_equal_agrees_with_first_difference_on_stored_zeros():
    # zero coefficients are dropped on construction, so none is ever stored
    a = PowerSumPolynomial(2, {(2,): 0, (1, 1): 1})
    b = PowerSumPolynomial(2, {(1, 1): 1})
    assert a.terms == {(1, 1): 1}
    assert first_difference(a, b) is None
    assert csf_equal(a, b) and csf_equal(b, a)
    assert not csf_equal(PowerSumPolynomial(1, {(1,): 0}), PowerSumPolynomial(2, {(2,): 0}))
    assert not csf_equal(a, PowerSumPolynomial(2, {(1, 1): 2}))


@pytest.mark.parametrize("degree, key", [(1, (2,)), (3, (1, 2)), (2, (2, 0)), (0, (0,))])
def test_power_sum_polynomial_refuses_a_term_that_is_not_a_partition_of_its_degree(degree, key):
    with pytest.raises(ValueError, match=f"is not a partition of {degree}"):
        PowerSumPolynomial(degree, {key: 1})
    # the text route refuses the same terms, whether by key shape or by sum
    with pytest.raises(ValueError):
        PowerSumPolynomial.from_text(f"csf n={degree}\n{partition_key(key)} 1\n")


@pytest.mark.parametrize("degree", [-2, -1, 2.0, "2", None])
def test_power_sum_polynomial_refuses_a_degree_that_is_not_a_nonnegative_int(degree):
    with pytest.raises(ValueError, match="is not a nonnegative int"):
        PowerSumPolynomial(degree, {})
    assert PowerSumPolynomial(0, {(): 1}).terms == {(): 1}


def test_first_difference_of_equal_functions_is_none():
    xl = chromatic_symmetric_function(COLLISION_LEFT6)
    xr = chromatic_symmetric_function(COLLISION_RIGHT6)
    assert first_difference(xl, xr) is None


def test_first_difference_names_the_highest_differing_partition():
    xp = chromatic_symmetric_function(P4)
    xs = chromatic_symmetric_function(STAR4)
    # (4,) agrees; (3, 1) is next in descending order, before (2, 2)
    assert first_difference(xp, xs) == ((3, 1), 2, 3)
    assert first_difference(xs, xp) == ((3, 1), 3, 2)


def test_first_difference_reports_degree_when_every_coefficient_agrees():
    assert first_difference(PowerSumPolynomial(2, {}), PowerSumPolynomial(3, {})) == ("degree", 2, 3)
    # graphs of different orders already differ at a partition
    x2, x3 = chromatic_symmetric_function(K2), chromatic_symmetric_function(K3)
    assert first_difference(x2, x3) == ((3,), 0, 2)


def test_first_difference_matches_the_sorted_scan():
    rng = random.Random(17)
    pairs = [(PowerSumPolynomial(2, {}), PowerSumPolynomial(3, {})),
             (chromatic_symmetric_function(COLLISION_LEFT6), chromatic_symmetric_function(COLLISION_RIGHT6))]
    for _ in range(60):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, 12)
        x = chromatic_symmetric_function(g)
        # the same graph relabelled, another graph of order n, and one of another order
        for h in (relabelled(rng, n, g.edges), random_graph(rng, n, 12),
                  random_graph(rng, rng.randint(1, 7), 12)):
            pairs.append((x, chromatic_symmetric_function(h)))
    kinds = set()
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            want = first_difference_by_sort(x, y)
            assert first_difference(x, y) == want
            kinds.add(want and (want[0] == "degree", x.degree == y.degree))
    # equal; a partition at one order and at two; only the degrees differ
    assert kinds == {None, (False, True), (False, False), (True, False)}


def test_polynomial_text_format():
    x = chromatic_symmetric_function(K3)
    assert x.to_text() == "csf n=3\n3 2\n2,1 -3\n1,1,1 1\n"
    assert PowerSumPolynomial.from_text(x.to_text()) == x


def test_polynomial_text_roundtrip():
    rng = random.Random(16)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 7), 8)
        x = chromatic_symmetric_function(g)
        assert PowerSumPolynomial.from_text(x.to_text()) == x


def test_polynomial_text_rejects_garbage():
    with pytest.raises(ValueError):
        PowerSumPolynomial.from_text("nope")
    with pytest.raises(ValueError):
        PowerSumPolynomial.from_text("csf n=3\n2,2 1")
