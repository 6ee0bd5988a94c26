"""Green's relations, the units and the band type, computed by their definitions.

These readings have no verdict of their own, so they live here and not in
``diagcalc``: ``ref_strongly_connected`` is an iterative Tarjan, and
``ref_green`` reads R and L as the strongly connected components of the
two Cayley graphs and J as those of their union.  ``ref_units_and_singular``
searches pairwise for two-sided inverses, and ``ref_band_type`` reads each
band law pair by pair.  The tests hold them to the definitions and to the
theorems a faster reading would rest on (Howie, *Fundamentals of Semigroup
Theory*, 1995, ch. 2): J = D = R ∨ L in a finite semigroup, the units of a
finite monoid are the identity's R-class, and a band is left (right)
regular exactly when it is R-trivial (L-trivial).

``GreenClasses`` and ``BandReport`` are records over ``equivalences._Record``,
as the report types of ``diagcalc`` are, so ``test_records_reference``
checks them against frozen dataclasses too.
"""

from __future__ import annotations

import random

import pytest

from diagcalc.engine import carrier, closure, from_elements
from diagcalc.equivalences import Equivalence, _normalize, _Record, join
from diagcalc.partitions import FAMILY_NAMES, family
from diagcalc.presentations import schema


class GreenClasses(_Record):
    """Partitions of the element indices under Green's relations."""

    __slots__ = ("r_class_of", "l_class_of", "j_class_of", "h_class_of")

    def counts(self) -> dict[str, int]:
        return {
            "R": len(set(self.r_class_of)),
            "L": len(set(self.l_class_of)),
            "J": len(set(self.j_class_of)),
            "H": len(set(self.h_class_of)),
        }


class BandReport(_Record):
    """Idempotency/commutation flags for a finite monoid.

    ``left_regular`` is xyx = xy and ``right_regular`` is xyx = yx.
    """

    __slots__ = ("band", "left_regular", "right_regular", "semilattice", "l_trivial", "r_trivial")


def ref_strongly_connected(size: int, edges) -> tuple[int, ...]:
    """Component id per node (iterative Tarjan), ids relabelled by least node."""
    indexes = [-1] * size
    low = [0] * size
    on_stack = [False] * size
    comp = [-1] * size
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(size):
        if indexes[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, ptr = work.pop()
            if ptr == 0:
                indexes[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            targets = edges[node]
            while ptr < len(targets):
                nxt = targets[ptr]
                ptr += 1
                if indexes[nxt] == -1:
                    work.append((node, ptr))
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], indexes[nxt])
            if advanced:
                continue
            if low[node] == indexes[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp[member] = ncomp
                    if member == node:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    # relabel components by their least member so the ids are canonical
    return _normalize(comp)


def ref_green(m) -> GreenClasses:
    size = len(m)
    right_edges = [sorted(set(row)) for row in m.right]
    left_edges = [sorted(set(row)) for row in m.left]
    r_of = ref_strongly_connected(size, right_edges)
    l_of = ref_strongly_connected(size, left_edges)
    both = [sorted(set(a) | set(b)) for a, b in zip(right_edges, left_edges)]
    j_of = ref_strongly_connected(size, both)
    return GreenClasses(r_of, l_of, j_of, _normalize(zip(r_of, l_of)))


def ref_units_and_singular(m) -> tuple[list[int], list[int]]:
    ident = m.identity_index
    units: list[int] = []
    if ident is not None:
        for x in range(len(m)):
            for y in range(len(m)):
                if m.product(x, y) == ident and m.product(y, x) == ident:
                    units.append(x)
                    break
    unit_set = set(units)
    singular = [x for x in range(len(m)) if x not in unit_set]
    return units, singular


def ref_band_type(m) -> BandReport:
    size, mul = len(m), m.product
    band = all(mul(x, x) == x for x in range(size))

    def every(law) -> bool:
        return band and all(law(x, y) for x in range(size) for y in range(size))

    classes = ref_green(m)
    return BandReport(
        band=band,
        left_regular=every(lambda x, y: mul(mul(x, y), x) == mul(x, y)),
        right_regular=every(lambda x, y: mul(mul(x, y), x) == mul(y, x)),
        semilattice=every(lambda x, y: mul(x, y) == mul(y, x)),
        l_trivial=len(set(classes.l_class_of)) == size,
        r_trivial=len(set(classes.r_class_of)) == size,
    )


def schema_closure(name: str, n: int):
    """The closure of a schema's images, a semigroup for semigroup schemas."""
    pres = schema(name, n)
    return closure(n, pres.images, monoid=pres.kind == "monoid")


def family_carrier(name: str, n: int):
    return from_elements(n, family(name, n))


CARRIERS = [
    (schema_closure, "full-yq", 3),
    (schema_closure, "planar-zo", 3),
    (schema_closure, "on", 4),
    (schema_closure, "tn", 3),
    (schema_closure, "sing-xr", 3),
    (schema_closure, "sing-tn", 3),
    (family_carrier, "pnfd", 3),
    (family_carrier, "ppnfd", 3),
    (family_carrier, "dn", 4),
    (family_carrier, "en", 3),
    (family_carrier, "sn", 3),
    (family_carrier, "pn", 2),
]


def identity_r_class(m, r_of) -> list[int]:
    """The units as a faster reading finds them: the identity's R-class."""
    if m.identity_index is None:
        return []
    return [x for x in range(len(m)) if r_of[x] == r_of[m.identity_index]]


def assert_theorems(m, classes: GreenClasses, band: BandReport) -> None:
    size = len(m)
    r_of, l_of = Equivalence(size, classes.r_class_of), Equivalence(size, classes.l_class_of)
    assert classes.j_class_of == join(r_of, l_of).labels  # J = D = R v L
    if band.band:
        assert band.left_regular == band.r_trivial
        assert band.right_regular == band.l_trivial
        assert band.semilattice == (band.left_regular and band.right_regular)
    else:
        assert not (band.left_regular or band.right_regular or band.semilattice)


@pytest.mark.parametrize(
    "build,name,n", CARRIERS, ids=[f"{b.__name__}-{name}-{n}" for b, name, n in CARRIERS]
)
def test_green_and_units_match_reference(build, name, n):
    m = build(name, n)
    classes = ref_green(m)
    assert_theorems(m, classes, ref_band_type(m))
    units, singular = ref_units_and_singular(m)
    assert units == identity_r_class(m, classes.r_class_of)
    assert sorted(units + singular) == list(range(len(m)))


@pytest.mark.parametrize("name", FAMILY_NAMES)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_both_raw_cayley_tables_of_every_family(name, n):
    m = carrier(name, n)
    size = len(m)
    for table in (m.right, m.left):
        # the raw rows repeat targets, in any order
        assert ref_strongly_connected(size, table) == ref_strongly_connected(
            size, [sorted(set(row)) for row in table]
        )
    classes = ref_green(m)
    assert_theorems(m, classes, ref_band_type(m))
    units = identity_r_class(m, classes.r_class_of)
    if m.identity_index is not None:  # the identity's R-class is its H-class
        unit_class = classes.h_class_of[m.identity_index]
        assert units == [x for x in range(size) if classes.h_class_of[x] == unit_class]


def random_digraph(rng: random.Random, size: int) -> list[list[int]]:
    """Rows with self-loops and repeated targets, in no particular order;
    short edges give many mid-sized components, long ones merge them."""
    reach = rng.choice([3, 10, size or 1])
    edges = []
    for node in range(size):
        row = [(node + rng.randint(-reach, reach)) % size for _ in range(rng.choice([0, 1, 1, 2, 3]))]
        if rng.random() < 0.1:
            row.append(node)
        if row and rng.random() < 0.3:
            row.insert(rng.randrange(len(row) + 1), rng.choice(row))
        edges.append(row)
    return edges


def mutually_reachable(size: int, edges) -> tuple[int, ...]:
    """Component id per node by the definition: ``u`` and ``v`` share a
    component when each reaches the other."""
    reach = []
    for root in range(size):
        seen, todo = {root}, [root]
        while todo:
            for nxt in edges[todo.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        reach.append(seen)
    return _normalize(
        next(u for u in sorted(reach[v]) if v in reach[u]) for v in range(size)
    )


@pytest.mark.parametrize("seed", range(60))
def test_strongly_connected_matches_tarjan_on_random_digraphs(seed):
    rng = random.Random(seed)
    size = [0, 1, 2, 300][seed] if seed < 4 else rng.randrange(301)
    edges = random_digraph(rng, size)
    assert ref_strongly_connected(size, edges) == mutually_reachable(size, edges)


def test_strongly_connected_is_not_recursive():
    size = 20_000  # one cycle, far deeper than the recursion limit
    edges = [[(node + 1) % size] for node in range(size)]
    assert ref_strongly_connected(size, edges) == (0,) * size
    assert ref_strongly_connected(size, edges[:-1] + [[]]) == tuple(range(size))
