import math

import pytest

from diagcalc.counting import (
    FAMILY_COUNTS,
    bell,
    block_bijection_count,
    catalan,
    full_domain_count,
    order_preserving_count,
    partial_injection_count,
    planar_full_domain_count,
    uniform_block_bijection_count,
)
from diagcalc.partitions import FAMILY_NAMES, family

# Frozen reference values (computed independently; standard sequences).
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_bell_sequence():
    assert [bell(n) for n in range(len(BELL))] == BELL


def test_catalan_sequence():
    assert [catalan(n) for n in range(len(CATALAN))] == CATALAN


def test_catalan_binomial_form():
    for n in range(1, 12):
        assert catalan(n) == math.comb(2 * n, n) // (n + 1)


def test_order_preserving_count():
    # |O_n| = C(2n - 1, n - 1)
    assert [order_preserving_count(n) for n in range(1, 7)] == [1, 3, 10, 35, 126, 462]
    for n in range(1, 10):
        assert order_preserving_count(n) == math.comb(2 * n - 1, n - 1)


def test_bell_via_partition_count():
    # cross-check bell against a direct count of restricted-growth strings
    def count(n: int) -> int:
        total = 0

        def extend(pos: int, used: int):
            nonlocal total
            if pos == n:
                total += 1
                return
            for label in range(used + 1):
                extend(pos + 1, used + (label == used))

        extend(0, 0)
        return total

    for n in range(7):
        assert bell(n) == count(n)


@pytest.mark.parametrize("n", range(6))
def test_diagram_counts_match_families(n):
    # pnfd, ppnfd and fn filter Bell(10) diagrams at n = 5; four more such
    # families there would double this test
    names = [name for name in FAMILY_NAMES if n <= 4 or name not in ("pn", "ppn", "in", "jn")]
    sizes = {name: len(family(name, n)) for name in names}
    for name in names:
        assert FAMILY_COUNTS[name](n) == sizes[name], name
    assert full_domain_count(n) == sizes["pnfd"]
    assert planar_full_domain_count(n) == sizes["ppnfd"]
    assert uniform_block_bijection_count(n) == sizes["fn"]
    if n <= 4:
        assert partial_injection_count(n) == sizes["in"]
        assert block_bijection_count(n) == sizes["jn"]


def test_every_family_is_counted():
    assert set(FAMILY_COUNTS) == set(FAMILY_NAMES)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_count_refuses_a_negative_degree(name):
    # once a float, a wrong count or another function's message
    with pytest.raises(ValueError, match=r"^n must be non-negative, got -1$"):
        FAMILY_COUNTS[name](-1)


def test_diagram_counts_frozen():
    assert [full_domain_count(n) for n in range(7)] == [1, 1, 5, 52, 855, 19921, 614866]
    assert planar_full_domain_count(6) == 3808
    assert [partial_injection_count(n) for n in range(8)] == [
        1, 2, 7, 34, 209, 1546, 13327, 130922,
    ]
    assert [block_bijection_count(n) for n in range(7)] == [1, 1, 3, 25, 339, 6721, 179643]
    for count in (full_domain_count, planar_full_domain_count, uniform_block_bijection_count,
                  partial_injection_count, block_bijection_count):
        with pytest.raises(ValueError):
            count(-1)


def test_planar_full_domain_closed_form_cross_check():
    # (n+2)/(2n+1) C(3n-1, n-1) matches for small n, but it is not proven
    # here, so it is only a cross-check, never the count
    for n in range(1, 8):
        assert (2 * n + 1) * planar_full_domain_count(n) == (n + 2) * math.comb(3 * n - 1, n - 1)
    assert planar_full_domain_count(7) == 23256


def test_uniform_block_bijections_by_block_type():
    # sum over partitions lambda of n of n!^2 / (prod lambda_i!^2 prod m_j!)
    def partitions(n, largest):
        if n == 0:
            yield ()
            return
        for part in range(min(n, largest), 0, -1):
            for rest in partitions(n - part, part):
                yield (part,) + rest

    for n in range(9):
        total = 0
        for parts in partitions(n, n):
            sizes = math.prod(math.factorial(p) ** 2 for p in parts)
            mult = math.prod(math.factorial(parts.count(p)) for p in set(parts))
            total += math.factorial(n) ** 2 // (sizes * mult)
        assert uniform_block_bijection_count(n) == total
