"""Differential tests: a carrier, wrapped by ``from_elements`` or built by
``closure``, that has switched from multiplying to table lookups against
plain ``multiply``, the oracle.

A carrier switches once it has multiplied more than ``2 * len(m)`` products
of two carrier elements and a generating set inside it closes up to exactly
the carrier; from then on each row of carrier products is filled by lookups.
"""

import itertools
import random

import pytest

import diagcalc.engine as engine
from diagcalc.engine import closure, from_elements
from diagcalc.partitions import (
    FAMILY_NAMES,
    SCHEMA_NAMES,
    Diagram,
    family,
    merge,
    multiply,
    transposition,
)
from diagcalc.presentations import schema


def switched(m):
    return m._fill is not None


def trigger(m):
    """Multiply the first three columns of every row: past ``2 * len(m)``
    products the carrier switches, and each later row miss fills a row."""
    for i in range(len(m)):
        for j in range(min(3, len(m))):
            m.product(i, j)


def assert_products(m, indices):
    for i, j in itertools.product(indices, repeat=2):
        assert m.diagram(m.product(i, j)) == multiply(m.diagram(i), m.diagram(j)), (i, j)


@pytest.fixture
def multiplies(monkeypatch):
    real = engine.multiply
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(engine, "multiply", counted)
    return calls


@pytest.mark.parametrize("name", FAMILY_NAMES)
@pytest.mark.parametrize("n", [2, 3])
def test_every_family_switches_and_agrees(name, n):
    m = from_elements(n, family(name, n))
    trigger(m)
    assert switched(m) == (len(m) >= 3)
    assert_products(m, range(len(m)))


@pytest.mark.parametrize("name", SCHEMA_NAMES)
@pytest.mark.parametrize("n", [2, 3])
def test_schema_closures_switch_and_agree(name, n):
    """Closures of monoid and semigroup schemas multiply and switch like any
    other carrier; a closure of two elements never passes ``2 * len(m)``."""
    pres = schema(name, n)

    def build():
        return closure(n, pres.images, monoid=pres.kind == "monoid")

    m = build()
    pairs = list(itertools.product(range(len(m)), repeat=2))
    for i, j in pairs[: 2 * len(m)]:
        assert m.diagram(m.product(i, j)) == multiply(m.diagram(i), m.diagram(j)), (i, j)
    assert not switched(m)
    assert_products(m, range(len(m)))
    assert switched(m) == (len(m) > 2)
    # switched first, then every product read; the closure's own Cayley
    # tables agree with the rows the switch fills
    m = build()
    trigger(m)
    assert switched(m) == (len(m) > 2)
    assert_products(m, range(len(m)))
    gens = m.generators
    assert m.right == [[m.product(k, g) for g in gens] for k in range(len(m))]
    assert m.left_table() == [[m.product(g, k) for g in gens] for k in range(len(m))]


def test_planar_full_domain_degree_four_agrees():
    m = from_elements(4, family("ppnfd", 4))
    trigger(m)
    assert switched(m)
    assert_products(m, range(len(m)))


def test_seeded_random_pairs_of_full_domain_degree_four(multiplies):
    m = from_elements(4, family("pnfd", 4))
    rng = random.Random(20240611)
    pairs = [(rng.randrange(len(m)), rng.randrange(len(m))) for _ in range(6000)]
    for i, j in pairs:
        assert m.elements[m.product(i, j)] == multiply(m.elements[i], m.elements[j])
    assert switched(m)
    # 2 * 855 + 1 multiplies to switch, then the generating closure's
    assert multiplies[0] < 3000


def test_the_switch_hashes_each_product_it_multiplies_once(monkeypatch):
    """The switch closes carrier indices through the memo: a diagram is
    hashed only to intern a product the switch multiplies, never to map a
    carrier element back to its index."""
    counts = {"multiply": 0, "hash": 0}
    during = [False]

    def counted(name, real):
        def wrapper(*args):
            counts[name] += during[0]
            return real(*args)

        return wrapper

    real_switch = engine.FiniteMonoid._switch

    def switch(self):
        during[0] = True
        try:
            real_switch(self)
        finally:
            during[0] = False

    monkeypatch.setattr(engine, "multiply", counted("multiply", engine.multiply))
    monkeypatch.setattr(Diagram, "__hash__", counted("hash", Diagram.__hash__))
    monkeypatch.setattr(engine.FiniteMonoid, "_switch", switch)
    m = from_elements(4, family("pnfd", 4))
    trigger(m)
    assert switched(m)
    assert counts["multiply"] > 0
    assert counts["hash"] <= counts["multiply"]


def test_semigroup_without_identity():
    m = from_elements(3, family("sing-tn", 3))
    assert m.identity_index is None
    trigger(m)
    assert switched(m)
    assert_products(m, range(len(m)))


@pytest.mark.parametrize("name", FAMILY_NAMES)
@pytest.mark.parametrize("n", [0, 1])
def test_degrees_zero_and_one_never_switch(name, n):
    m = from_elements(n, family(name, n))
    assert_products(m, range(len(m)))
    assert not switched(m)


def test_non_closed_set_keeps_multiplying(multiplies):
    m = from_elements(3, family("sn", 3) + [merge(3, 1, 2)])
    assert_products(m, range(len(m)))
    assert not switched(m)
    # every carrier pair multiplied exactly once, escapes included
    assert multiplies[0] == len(m) ** 2
    assert any(m.product(i, j) >= len(m) for i, j in itertools.product(range(len(m)), repeat=2))


@pytest.mark.parametrize("name,n", [("pn", 2), ("ppnfd", 3), ("sing-tn", 3)])
def test_right_table_read_before_and_after_the_switch(name, n):
    # reading ``right`` first multiplies until the switch, mid-table
    m = from_elements(n, family(name, n))
    right = m.right
    assert switched(m)
    for k, row in enumerate(right):
        assert [m.elements[x] for x in row] == [multiply(m.elements[k], g) for g in m.elements]
    assert m.left_table() == [[right[g][k] for g in range(len(m))] for k in range(len(m))]
    assert_products(m, range(len(m)))
    # switched first, read afterwards
    m = from_elements(n, family(name, n))
    trigger(m)
    assert switched(m)
    assert m.right == right


def test_products_mixed_with_escapes():
    m = from_elements(3, family("ppnfd", 3))
    early = [m.intern(d) for d in (transposition(3, 1), merge(3, 1, 3))]
    for e in early:
        for k in range(len(m)):
            m.product(k, e)
            m.product(e, k)
    trigger(m)
    assert switched(m)
    # interned after the switch, past the escapes the products above made;
    # no product of full-domain diagrams leaves 1 in a block of its own
    outside = (transposition(3, 2), Diagram.from_text("[[1],[-1],[2,-2],[3,-3]]"))
    late = [m.intern(d) for d in outside]
    assert early == [len(m), len(m) + 1] and min(late) > len(m) + 1
    assert late[1] == len(m) + len(m._escapes) - 1
    ambient = list(range(len(m))) + early + late
    assert_products(m, ambient)
    # products that leave the carrier were interned past it, the rest not
    assert all(m.product(i, j) < len(m) for i, j in itertools.product(range(len(m)), repeat=2))
