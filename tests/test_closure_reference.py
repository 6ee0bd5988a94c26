"""Differential test: the Froidure-Pin ``closure`` against breadth-first search.

``bfs_closure`` below is the breadth-first closure that ``engine.closure``
replaced, kept as the oracle: it multiplies every element by every
generator.  The two must agree on every field of the result -- elements in
the same order, representative words and word tree, generators, identity
index, the right table -- and on the left table, which the oracle side
builds by multiplying.  Every family's ``carrier``, a closure run on label
rows, is checked the same way.
The oracle keeps every word as a tuple, and ``word_for`` on both sides must
return it for every element.
"""

from __future__ import annotations

import random

import pytest

from diagcalc.engine import BudgetExceeded, FiniteMonoid, carrier, closure
from diagcalc.partitions import FAMILY_NAMES, GENERATORS, Diagram, all_diagrams, identity, multiply
from diagcalc.presentations import SCHEMA_NAMES, schema, standard_assignment


def bfs_words(n, generators, *, monoid=True, budget=2_000_000):
    """The oracle's carrier and each element's word as a tuple."""
    elements: list[Diagram] = []
    index: dict[Diagram, int] = {}
    rep_words: list[tuple[int, ...]] = []
    # the same words as the carrier's tree: prefix position and last letter
    prefix: list[int] = []
    last: list[int] = []
    right: list[list[int]] = []

    def intern(d, word, pre):
        if d in index:
            return index[d]
        if len(elements) >= budget:
            raise BudgetExceeded(budget)
        index[d] = len(elements)
        elements.append(d)
        rep_words.append(word)
        prefix.append(pre)
        last.append(word[-1] if word else -1)
        return index[d]

    if monoid:
        intern(identity(n), (), -1)
    for pos, g in enumerate(generators):
        intern(g, (pos,), -1)

    scan = 0
    while scan < len(elements):
        row = []
        for pos, g in enumerate(generators):
            prod = multiply(elements[scan], g)
            row.append(intern(prod, rep_words[scan] + (pos,), scan))
        right.append(row)
        scan += 1

    left = [[index[multiply(g, d)] for g in generators] for d in elements]
    m = FiniteMonoid(
        n, elements, [index[g] for g in generators], (prefix, last), right, left=left,
    )
    return m, rep_words


def bfs_closure(n, generators, *, monoid=True, budget=2_000_000):
    return bfs_words(n, generators, monoid=monoid, budget=budget)[0]


def assert_same(n, generators, monoid=True, fast=None):
    fast = closure(n, generators, monoid=monoid) if fast is None else fast
    slow, words = bfs_words(n, generators, monoid=monoid)
    assert fast.elements == slow.elements
    assert fast.index == slow.index
    assert fast._tree == slow._tree
    assert [fast.word_for(d) for d in fast.elements] == words
    assert [slow.word_for(d) for d in slow.elements] == words
    assert fast.generators == slow.generators
    assert fast.identity_index == slow.identity_index
    assert fast.right == slow.right
    assert fast.left == slow.left


# schemas start at n = 2
SCHEMA_JOBS = [(name, n) for name in SCHEMA_NAMES for n in (2, 3, 4)] + [("dn", 6), ("on", 6)]


def _generators(name, n):
    assignment = standard_assignment(name, n)
    return [assignment[symbol] for symbol in schema(name, n).alphabet]


@pytest.mark.parametrize("name,n", SCHEMA_JOBS)
def test_schema_closures_match(name, n):
    assert_same(n, _generators(name, n), monoid=schema(name, n).kind == "monoid")


@pytest.mark.parametrize("name", FAMILY_NAMES)
@pytest.mark.parametrize("n", range(5))
def test_every_carrier_matches(name, n):
    monoid, pairs = GENERATORS[name](n)
    assert_same(n, [image for _, image in pairs], monoid, fast=carrier(name, n))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("monoid", [True, False])
def test_random_generator_lists_match(n, monoid):
    rng = random.Random(100 * n + monoid)
    pool = list(all_diagrams(n))
    cases = [[], [identity(n)], [identity(n), identity(n)]]
    for _ in range(12):
        gens = rng.sample(pool, rng.randint(1, 4))
        if rng.random() < 0.5:
            gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens))  # duplicate
        if rng.random() < 0.5:
            gens.insert(rng.randrange(len(gens) + 1), identity(n))
        cases.append(gens)
    for gens in cases:
        assert_same(n, gens, monoid=monoid)


@pytest.mark.parametrize("monoid", [True, False])
def test_budget_exhaustion_at_the_same_budget(monoid):
    gens = _generators("tn", 3)
    size = len(bfs_closure(3, gens, monoid=monoid))
    with pytest.raises(ValueError, match="budget must be at least 1"):
        closure(3, gens, monoid=monoid, budget=0)  # a budget counts elements; 0 is none
    for budget in (1, 2, size - 1, size):
        outcomes = []
        for run in (closure, bfs_closure):
            try:
                outcomes.append(len(run(3, gens, monoid=monoid, budget=budget)))
            except BudgetExceeded as exc:
                outcomes.append(("exceeded", exc.budget))
        assert outcomes[0] == outcomes[1], budget
    assert len(closure(3, gens, monoid=monoid, budget=size)) == size


@pytest.mark.parametrize("name,n,expected", [("dn", 7, 896), ("sing-xr", 4, 1908), ("tn", 4, 298)])
def test_multiplies_only_where_the_tables_cannot_supply(monkeypatch, name, n, expected):
    import diagcalc.engine as engine

    gens = _generators(name, n)
    monoid = schema(name, n).kind == "monoid"
    # one multiply per element u = b s and letter a with rep(s) a a representative
    words = bfs_words(n, gens, monoid=monoid)[1]
    reps = set(words)
    assert expected == sum(w[1:] + (a,) in reps for w in words if w for a in range(len(gens)))

    calls = []

    # the closure multiplies through one row map per generator, and a
    # product that leaves a carrier through its right factor's row map
    def counting(kernel):
        def build(g):
            by = kernel(g)

            def times(x):
                calls.append(1)
                return by(x)

            return times

        return build

    monkeypatch.setattr(engine, "multiply_rows", counting(engine.multiply_rows))
    m = closure(n, gens, monoid=monoid)
    assert len(calls) == expected
    # both Cayley graphs come with the closure: no further products needed
    for table in (m.right, m.left):
        assert [len(row) for row in table] == [len(gens)] * len(m)
        assert all(0 <= k < len(m) for row in table for k in row)
    "".join(engine.cayley_dot(m))
    assert len(calls) == expected
