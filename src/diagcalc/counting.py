"""Exact counting oracles.

Integer sequences that the rest of the package is tested against, and
:data:`FAMILY_COUNTS`, the one table of the size of every standard family
of degree ``n``.  The CLI's budgets, the certificate of every carrier
(:func:`diagcalc.engine.carrier`) and the targets of
:func:`diagcalc.presentations.target_elements` all read their sizes from
it.  Everything here is plain integer arithmetic with no dependency on the
diagram machinery, so these values can act as an independent check on the
enumerators and closure algorithms.
"""

from __future__ import annotations

from math import comb, factorial, perm
from typing import Callable


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


def _stirling_row(n: int) -> list[int]:
    """``S(n, j)`` for ``j = 0 .. n``: Stirling numbers of the second kind."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    row = [1]  # row[j] = S(m, j), from m = 0 up to n
    for _ in range(n):
        row = [j * s + t for j, (s, t) in enumerate(zip(row + [0], [0] + row))]
    return row


def full_domain_count(n: int) -> int:
    """Number of full-domain diagrams of degree ``n``: ``|Pnfd|``.

    Choose the upper partition into ``k`` blocks and the lower partition into
    ``j >= k`` blocks (Stirling numbers of the second kind), then an injection
    of the upper blocks into the lower ones, ``j!/(j-k)!`` of them.

    >>> [full_domain_count(k) for k in range(7)]
    [1, 1, 5, 52, 855, 19921, 614866]
    """
    stirling = _stirling_row(n)
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


def partial_injection_count(n: int) -> int:
    """Number of partial injections of degree ``n``: ``|In|``, the sum over
    ``k`` of ``C(n, k)**2 * k!`` (``k`` upper and ``k`` lower points matched
    by a bijection, every other point a block of its own)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def block_bijection_count(n: int) -> int:
    """Number of block bijections of degree ``n``: ``|Jn|``, the sum over
    ``k`` of ``S(n, k)**2 * k!`` (both rows split into ``k`` blocks, the
    upper blocks matched to the lower ones by a bijection)."""
    return sum(s * s * factorial(k) for k, s in enumerate(_stirling_row(n)))


def _nonnegative(count: Callable[[int], int]) -> Callable[[int], int]:
    """``count`` that refuses a negative degree by name, whatever it would
    have made of one."""

    def size(n: int) -> int:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        return count(n)

    return size


# the size of each family of :func:`diagcalc.partitions.family` at degree
# ``n >= 0``, counted without building a diagram
FAMILY_COUNTS = {name: _nonnegative(count) for name, count in {
    "pn": lambda n: bell(2 * n),
    "pnfd": full_domain_count,
    "ppn": lambda n: catalan(2 * n),
    "ppnfd": planar_full_domain_count,
    "tn": lambda n: n**n,
    "sing-tn": lambda n: n**n - factorial(n),
    "ptn": order_preserving_count,
    "on": order_preserving_count,
    "sn": factorial,
    "en": bell,
    "fn": uniform_block_bijection_count,
    "in": partial_injection_count,
    "jn": block_bijection_count,
    "dn": catalan,
    "pen": lambda n: max(2 ** (n - 1), 1),
}.items()}
