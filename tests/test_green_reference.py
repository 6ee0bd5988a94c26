"""Differential test: Green-derived J-classes and units against their oracles.

``green`` reads J as the join of R and L (J = D = R ∨ L in a finite
semigroup), and ``units_and_singular`` reads the units as the identity's
H-class.  ``ref_green`` below is the ``green`` they replaced, with its third
strongly-connected-components pass over the union of both Cayley graphs,
and ``ref_units_and_singular`` is the pairwise search for two-sided
inverses.  Both are kept as the oracle.
"""

from __future__ import annotations

import pytest

from diagcalc.engine import (
    GreenClasses,
    _strongly_connected,
    closure,
    from_elements,
    green,
    units_and_singular,
)
from diagcalc.equivalences import _normalize
from diagcalc.partitions import family
from diagcalc.presentations import schema


def ref_green(m) -> GreenClasses:
    size = len(m)
    right_edges = [sorted(set(row)) for row in m.right]
    left_edges = [sorted(set(row)) for row in m.left]
    r_of = _strongly_connected(size, right_edges)
    l_of = _strongly_connected(size, left_edges)
    both = [sorted(set(a) | set(b)) for a, b in zip(right_edges, left_edges)]
    j_of = _strongly_connected(size, both)
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


@pytest.mark.parametrize(
    "build,name,n", CARRIERS, ids=[f"{b.__name__}-{name}-{n}" for b, name, n in CARRIERS]
)
def test_green_and_units_match_reference(build, name, n):
    m = build(name, n)
    assert green(m) == ref_green(m)
    assert units_and_singular(m) == ref_units_and_singular(m)

