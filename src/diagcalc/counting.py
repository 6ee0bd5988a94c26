"""Exact counting oracles.

Closed-form integer sequences that the rest of the package is tested
against.  Everything here is plain integer arithmetic with no dependency on
the diagram machinery, so these values can act as an independent check on
the enumerators and closure algorithms.
"""

from __future__ import annotations

from math import comb


def bell(n: int) -> int:
    """Number of equivalence relations on an ``n``-element set.

    Computed with the Bell triangle, which only needs addition.

    >>> [bell(k) for k in range(8)]
    [1, 1, 2, 5, 15, 52, 203, 877]
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def catalan(n: int) -> int:
    """The ``n``-th Catalan number.

    >>> [catalan(k) for k in range(9)]
    [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return comb(2 * n, n) // (n + 1)


def order_preserving_count(n: int) -> int:
    """Number of order-preserving maps ``{1..n} -> {1..n}``.

    A weakly increasing map is a multiset of ``n`` values drawn from ``n``
    symbols, hence ``C(2n-1, n-1)``; the empty map is the one map at ``n = 0``.

    >>> [order_preserving_count(k) for k in range(0, 6)]
    [1, 1, 3, 10, 35, 126]
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return comb(2 * n - 1, n - 1) if n else 1
