"""Differential tests: a carrier, wrapped by ``from_elements`` or built by
``closure``, that looks its products up against plain ``multiply``, the
oracle.

``from_elements`` multiplies only while it closes a generating set inside
its set, up front; a closed carrier then switches to lookups, tracing each
product ``i * j`` along the word of ``j`` through its right Cayley table.
A set that is not closed is rejected.
"""

import itertools
import random

import pytest

import diagcalc.engine as engine
from diagcalc.engine import carrier, closure, from_elements
from diagcalc.partitions import (
    FAMILY_NAMES,
    SCHEMA_NAMES,
    Diagram,
    all_diagrams,
    family,
    identity,
    merge,
    multiply,
    transposition,
)
from diagcalc.presentations import schema


def trigger(m):
    """Read the first three columns of every row, before any other product."""
    for i in range(len(m)):
        for j in range(min(3, len(m))):
            m.product(i, j)


def assert_words(m):
    """Each element's word over ``m.generators`` multiplies out to it."""
    for d in m.elements:
        product = identity(m.n)
        for a in m.word_for(d):
            product = multiply(product, m.elements[m.generators[a]])
        assert product == d


def assert_products(m, indices):
    for i, j in itertools.product(indices, repeat=2):
        assert m.diagram(m.product(i, j)) == multiply(m.diagram(i), m.diagram(j)), (i, j)


def count_products(monkeypatch, calls, on=(True,)):
    """Count each product ``engine`` makes while ``on[0]`` into ``calls[0]``:
    one application of a row map ``multiply_rows``, a generator's or, for a
    product that leaves the carrier, its right factor's."""

    def counting(kernel):
        def build(g):
            by = kernel(g)

            def times(x):
                calls[0] += on[0]
                return by(x)

            return times

        return build

    monkeypatch.setattr(engine, "multiply_rows", counting(engine.multiply_rows))


@pytest.fixture
def multiplies(monkeypatch):
    calls = [0]
    count_products(monkeypatch, calls)
    return calls


@pytest.mark.parametrize("name", FAMILY_NAMES)
@pytest.mark.parametrize("n", [2, 3])
def test_every_family_switches_and_agrees(name, n):
    m = from_elements(n, family(name, n))
    assert_words(m)
    trigger(m)
    assert_products(m, range(len(m)))


@pytest.mark.parametrize("name,n", [(name, n) for name in FAMILY_NAMES for n in range(4)]
                         + [("pnfd", 4), ("ppnfd", 5)])
def test_from_elements_is_the_closure_of_its_generators(name, n):
    """``from_elements`` builds its carrier as ``closure`` does, so closing
    its generators again gives the same carrier in every field."""
    m = from_elements(n, family(name, n))
    c = closure(n, [m.elements[g] for g in m.generators], monoid=m.identity_index is not None)
    assert m.elements == c.elements
    assert m.generators == c.generators
    assert m.identity_index == c.identity_index
    assert m.right == c.right
    assert m.left == c.left
    assert [m.word_for(d) for d in m.elements] == [c.word_for(d) for d in c.elements]


@pytest.mark.parametrize("name", SCHEMA_NAMES)
@pytest.mark.parametrize("n", [2, 3])
def test_schema_closures_switch_and_agree(name, n):
    """Closures of monoid and semigroup schemas look their products up like
    any other closed carrier, in any order of reading."""
    pres = schema(name, n)

    def build():
        return closure(n, pres.images, monoid=pres.kind == "monoid")

    m = build()
    pairs = list(itertools.product(range(len(m)), repeat=2))
    for i, j in pairs[: 2 * len(m)]:
        assert m.diagram(m.product(i, j)) == multiply(m.diagram(i), m.diagram(j)), (i, j)
    assert_products(m, range(len(m)))
    # three columns first, then every product read; the closure's own
    # Cayley tables agree with the products it looks up
    m = build()
    trigger(m)
    assert_products(m, range(len(m)))
    gens = m.generators
    assert m.right == [[m.product(k, g) for g in gens] for k in range(len(m))]
    assert m.left == [[m.product(g, k) for g in gens] for k in range(len(m))]


def test_planar_full_domain_degree_four_agrees():
    m = from_elements(4, family("ppnfd", 4))
    trigger(m)
    assert_products(m, range(len(m)))


def test_seeded_random_pairs_of_full_domain_degree_four(multiplies):
    m = from_elements(4, family("pnfd", 4))
    closing = multiplies[0]
    rng = random.Random(20240611)
    pairs = [(rng.randrange(len(m)), rng.randrange(len(m))) for _ in range(6000)]
    for i, j in pairs:
        assert m.elements[m.product(i, j)] == multiply(m.elements[i], m.elements[j])
    # the generating closure's multiplies, and none once it is closed
    assert closing < 3000 and multiplies[0] == closing


def test_seeded_random_pairs_of_full_domain_degree_five(multiplies):
    m = from_elements(5, family("pnfd", 5))
    assert len(m) == 19_921
    closing = multiplies[0]
    rng = random.Random(20261019)
    pairs = [(rng.randrange(len(m)), rng.randrange(len(m))) for _ in range(3000)]
    for i, j in pairs:
        assert m.elements[m.product(i, j)] == multiply(m.elements[i], m.elements[j])
    assert multiplies[0] == closing


def test_the_switch_hashes_each_product_it_multiplies_once(monkeypatch):
    """``from_elements`` closes carrier indices through the memo before it
    switches to lookups: while it closes, a diagram is hashed only to intern
    a product it multiplies, never to map a carrier element back to its
    index."""
    counts = {"hash": 0}
    during = [False]
    products = [0]

    def counted(name, real):
        def wrapper(*args):
            counts[name] += during[0]
            return real(*args)

        return wrapper

    real_closing = engine._froidure_pin

    def closing(*args):
        during[0] = True
        try:
            return real_closing(*args)
        finally:
            during[0] = False

    # the listing is itself a closure: it is built before the hooks go in
    listed = family("pnfd", 4)
    monkeypatch.setattr(Diagram, "__hash__", counted("hash", Diagram.__hash__))
    count_products(monkeypatch, products, during)
    monkeypatch.setattr(engine, "_froidure_pin", closing)
    m = from_elements(4, listed)
    assert products[0] > 0
    assert counts["hash"] <= products[0]


@pytest.mark.parametrize("name,n", [("pnfd", 4), ("ppnfd", 4), ("sing-tn", 3)])
def test_each_product_is_multiplied_once_across_the_restarts(monkeypatch, name, n):
    """Each picked generator keeps one memo through every greedy restart, so
    no product ``x * g`` is made twice."""
    listed = family(name, n)  # a closure itself: listed before the hook goes in
    made = []
    real_rows = engine.multiply_rows

    def recording_rows(g):
        by = real_rows(g)

        def times(x):
            made.append((x, g))
            return by(x)

        return times

    monkeypatch.setattr(engine, "multiply_rows", recording_rows)
    m = from_elements(n, listed)
    assert len(m.generators) > 1
    assert len(made) == len(set(made)) > 0


def test_semigroup_without_identity():
    m = from_elements(3, family("sing-tn", 3))
    assert m.identity_index is None
    trigger(m)
    assert_products(m, range(len(m)))


@pytest.mark.parametrize("name", FAMILY_NAMES)
@pytest.mark.parametrize("n", [0, 1])
def test_degrees_zero_and_one_never_switch(name, n, multiplies):
    """The smallest carriers close up front like any other, on at most one
    generator, and multiply none of the products read afterwards."""
    m = from_elements(n, family(name, n))
    closing = multiplies[0]
    assert len(m.generators) <= 1
    assert_products(m, range(len(m)))
    assert multiplies[0] == closing


def test_non_closed_set_is_rejected():
    # the first product that leaves the set is named: (2 3) times the merge
    # of 1 and 2 merges 1 and 3, which the set lacks
    escape = "[[1,-1],[2,-3],[3,-2]] * [[1,2,-1,-2],[3,-3]] = [[1,3,-1,-2],[2,-3]]"
    with pytest.raises(ValueError) as caught:
        from_elements(3, family("sn", 3) + [merge(3, 1, 2)])
    assert str(caught.value) == f"the set is not closed: {escape}"


@pytest.mark.parametrize("name,n", [("pn", 2), ("ppnfd", 3), ("sing-tn", 3)])
def test_right_table_read_before_and_after_the_switch(name, n):
    # the Cayley tables over the generating set, read before any product
    m = from_elements(n, family(name, n))
    right, gens = m.right, m.generators
    for k, row in enumerate(right):
        assert [m.elements[x] for x in row] == [multiply(m.elements[k], m.elements[g]) for g in gens]
    assert m.left == [[m.product(g, k) for g in gens] for k in range(len(m))]
    assert_products(m, range(len(m)))
    # products read first, the table afterwards
    m = from_elements(n, family(name, n))
    trigger(m)
    assert m.right == right


def test_seeded_escape_products_match_multiply(monkeypatch):
    """A product that leaves the carrier goes through its right factor's
    ``multiply_rows`` map, built at most once per right factor."""
    m = carrier("ppnfd", 4)
    rng = random.Random(20261020)
    outside = [m.intern(d) for d in rng.sample(list(all_diagrams(4)), 40)]
    assert max(outside) >= len(m)
    built = []  # the maps built after the closure
    real_rows = engine.multiply_rows

    def recording_rows(g):
        built.append(g)
        return real_rows(g)

    monkeypatch.setattr(engine, "multiply_rows", recording_rows)
    ambient = list(range(len(m))) + outside
    for _ in range(3000):
        i, j = rng.choice(ambient), rng.choice(ambient)
        assert m.diagram(m.product(i, j)) == multiply(m.diagram(i), m.diagram(j)), (i, j)
    assert 0 < len(built) == len(set(built))


def test_products_mixed_with_escapes():
    m = from_elements(3, family("ppnfd", 3))
    early = [m.intern(d) for d in (transposition(3, 1), merge(3, 1, 3))]
    for e in early:
        for k in range(len(m)):
            m.product(k, e)
            m.product(e, k)
    trigger(m)
    # interned after the lookups, past the escapes the products above made;
    # no product of full-domain diagrams leaves 1 in a block of its own
    outside = (transposition(3, 2), Diagram.from_text("[[1],[-1],[2,-2],[3,-3]]"))
    late = [m.intern(d) for d in outside]
    assert early == [len(m), len(m) + 1] and min(late) > len(m) + 1
    assert late[1] == len(m) + len(m._escapes) - 1
    ambient = list(range(len(m))) + early + late
    assert_products(m, ambient)
    # products that leave the carrier were interned past it, the rest not
    assert all(m.product(i, j) < len(m) for i, j in itertools.product(range(len(m)), repeat=2))
