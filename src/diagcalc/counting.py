"""Exact counting oracles.

Integer sequences that the rest of the package is tested against, and
that :func:`diagcalc.presentations.target_elements` takes its target sizes
from.  Everything here is plain integer arithmetic with no dependency on the
diagram machinery, so these values can act as an independent check on the
enumerators and closure algorithms.
"""

from __future__ import annotations

from math import comb, perm


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


def full_domain_count(n: int) -> int:
    """Number of full-domain diagrams of degree ``n``: ``|Pnfd|``.

    Choose the upper partition into ``k`` blocks and the lower partition into
    ``j >= k`` blocks (Stirling numbers of the second kind), then an injection
    of the upper blocks into the lower ones, ``j!/(j-k)!`` of them.

    >>> [full_domain_count(k) for k in range(7)]
    [1, 1, 5, 52, 855, 19921, 614866]
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    stirling = [1]  # stirling[j] = S(m, j), from m = 0 up to n
    for _ in range(n):
        stirling = [j * s + t for j, (s, t) in enumerate(zip(stirling + [0], [0] + stirling))]
    return sum(
        stirling[k] * sum(stirling[j] * perm(j, k) for j in range(k, n + 1))
        for k in range(n + 1)
    )


def planar_full_domain_count(n: int) -> int:
    """Number of planar full-domain diagrams of degree ``n``: ``|PPnfd|``.

    A planar diagram is a non-crossing partition of the boundary
    ``1, ..., n, n', ..., 1'``, and it has full domain when no block is upper
    only.  ``free[u][l]`` counts those partitions of a stretch of ``u`` upper
    points followed by ``l`` lower points.  With ``u = 0`` every partition
    qualifies, ``Catalan(l)`` of them.  Otherwise the block of the first
    point takes the next ``a >= 1`` upper points (an upper point between two
    of its own could only sit in an upper-only block) and then the lower
    point after ``q`` others.  The ``u - a`` upper and ``q`` lower points it
    encloses fill in ``free[u - a][q]`` ways, and the block with the last
    ``l - q`` lower points is any non-crossing partition of those points.

    >>> [planar_full_domain_count(k) for k in range(7)]
    [1, 1, 4, 20, 110, 637, 3808]
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    free = [[catalan(l) for l in range(n + 1)]]
    for u in range(1, n + 1):
        enclosed = [sum(row[q] for row in free) for q in range(n + 1)]
        free.append([
            sum(enclosed[q] * catalan(l - q) for q in range(l)) for l in range(n + 1)
        ])
    return free[n][n]


def uniform_block_bijection_count(n: int) -> int:
    """Number of uniform block bijections of degree ``n``: ``|Fn|``.

    Every block has as many upper as lower points.  The block of upper point
    1 has ``s`` points in each row: ``s - 1`` more upper points out of
    ``n - 1`` and ``s`` lower points out of ``n``; the rest is a uniform
    block bijection of degree ``n - s``.

    >>> [uniform_block_bijection_count(k) for k in range(6)]
    [1, 1, 3, 16, 131, 1496]
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(
            comb(m - 1, s - 1) * comb(m, s) * counts[m - s] for s in range(1, m + 1)
        ))
    return counts[n]
