"""Differential test: ``engine._froidure_pin`` against the loop it replaced.

``ref_froidure_pin`` below is the Froidure-Pin loop that rebuilt every
entry ``u * a`` it did not multiply as ``right[left[prefix r][b]][last r]``
(``u = b * s``, ``r = s * a``), kept as the oracle.  The engine's loop reads
the entry as ``left[r][b]`` when ``r`` is shorter than ``u``.  Both must
return the same elements, index, letters, word tree and both Cayley tables,
multiply the same products in the same order, and stop at the same budget.
"""

from __future__ import annotations

import random

import pytest

from diagcalc.engine import BudgetExceeded, _froidure_pin
from diagcalc.partitions import (
    FAMILY_NAMES,
    GENERATORS,
    SCHEMA_NAMES,
    all_diagrams,
    identity,
    multiply_rows,
)
from diagcalc.presentations import schema


def ref_froidure_pin(generators, times, seed, budget):
    """The Froidure-Pin loop before the ``left[r][b]`` read."""
    k = len(generators)
    elements: list = []
    index: dict = {}
    right: list[list[int]] = []
    left: list[list[int]] = []
    first: list[int] = []
    last: list[int] = []
    prefix: list[int] = []
    suffix: list[int] = []

    def intern(x, b):
        u = index.setdefault(x, len(elements))
        if u == len(elements):
            if u >= budget:
                raise BudgetExceeded(budget)
            elements.append(x)
            first.append(b)
            last.append(b)
            prefix.append(-1)
            suffix.append(-1)
        return u

    if seed is not None:
        intern(seed, -1)
    letter = [intern(g, a) for a, g in enumerate(generators)]
    lo = 0
    if seed is not None:
        right.append(list(letter))
        left.append(list(letter))
        lo = 1

    size = len(elements)
    while lo < size:
        hi = size
        for u in range(lo, hi):
            b, s = first[u], suffix[u]
            x = elements[u]
            srow = letter if s < 0 else right[s]
            lb = letter[b]
            row = [0] * k
            right.append(row)
            for a, r in enumerate(srow):
                if prefix[r] == s and last[r] == a:
                    y = times[a](x)
                    v = index.setdefault(y, size)
                    if v == size:
                        if v >= budget:
                            raise BudgetExceeded(budget)
                        size += 1
                        elements.append(y)
                        first.append(b)
                        last.append(a)
                        prefix.append(u)
                        suffix.append(r)
                    row[a] = v
                elif last[r] < 0:  # s * a is the seed
                    row[a] = lb
                else:
                    p = prefix[r]
                    row[a] = right[lb if p < 0 else left[p][b]][last[r]]
        for v in range(lo, hi):
            p, c = prefix[v], last[v]
            left.append([right[w][c] for w in (letter if p < 0 else left[p])])
        lo = hi

    return elements, index, letter, (prefix, last), right, left


def run(loop, n, generators, monoid, budget=2_000_000):
    """``loop`` on the generators' label rows, and every product it
    multiplied, in order, as ``(letter, row)``."""
    calls = []

    def logged(a):
        by = multiply_rows(generators[a])

        def times(x):
            calls.append((a, x))
            return by(x)

        return times

    seed = tuple(range(n)) * 2 if monoid else None
    times = [logged(a) for a in range(len(generators))]
    try:
        out = loop([g.labels for g in generators], times, seed, budget)
    except BudgetExceeded as exc:
        out = ("exceeded", exc.budget)
    return out, calls


def assert_same(n, generators, monoid, budget=2_000_000):
    fast, fast_calls = run(_froidure_pin, n, generators, monoid, budget)
    slow, slow_calls = run(ref_froidure_pin, n, generators, monoid, budget)
    assert fast == slow
    assert fast_calls == slow_calls
    return slow


FAMILY_JOBS = [(name, n) for name in FAMILY_NAMES for n in range(5)] + [("pnfd", 5), ("ppnfd", 6)]


@pytest.mark.parametrize("name,n", FAMILY_JOBS)
def test_every_family_closes_as_before(name, n):
    monoid, pairs = GENERATORS[name](n)
    assert_same(n, [image for _, image in pairs], monoid)


@pytest.mark.parametrize("name", SCHEMA_NAMES)
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("monoid", [True, False])
def test_every_schema_closes_as_before(name, n, monoid):
    assert_same(n, list(schema(name, n).images), monoid)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("monoid", [True, False])
def test_random_generator_lists_close_as_before(n, monoid):
    rng = random.Random(1000 * n + monoid)
    pool = list(all_diagrams(n))
    cases = [[], [identity(n)], [identity(n), identity(n)]]
    for _ in range(15):
        gens = rng.sample(pool, rng.randint(1, min(4, len(pool))))
        if rng.random() < 0.5:
            gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens))  # duplicate
        if rng.random() < 0.5:
            gens.insert(rng.randrange(len(gens) + 1), identity(n))
        cases.append(gens)
    for gens in cases:
        assert_same(n, gens, monoid)


@pytest.mark.parametrize("name,n", [("tn", 3), ("ppnfd", 4), ("sing-tn", 3)])
@pytest.mark.parametrize("monoid", [True, False])
def test_budget_exhaustion_at_the_same_budget(name, n, monoid):
    gens = [image for _, image in GENERATORS[name](n)[1]]
    size = len(assert_same(n, gens, monoid)[0])
    outcomes = [assert_same(n, gens, monoid, budget) for budget in range(size + 2)]
    assert outcomes[:size] == [("exceeded", budget) for budget in range(size)]
    assert outcomes[size][0] != "exceeded" and outcomes[size] == outcomes[size + 1]
