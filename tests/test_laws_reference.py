"""Differential test: the indexed law checkers against pair-by-pair ones.

The reference checkers below are the straightforward versions the indexed
ambient in :mod:`diagcalc.laws` replaced: every law term is a fresh diagram
product, and ``check_restriction`` switches to ambient products when the
projections leave the carrier.  Both must give the same reports, byte for
byte, including the first witness in canonical order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import pytest

from diagcalc import laws
from diagcalc.engine import FiniteMonoid, from_elements
from diagcalc.laws import CheckReport
from diagcalc.partitions import (
    Diagram,
    domain_projection,
    family,
    multiply,
    range_cap,
    range_projection,
)


class _Products:
    """Memoized ambient multiplication over a fixed element list."""

    def __init__(self, elements: Sequence[Diagram]):
        self.elements = list(elements)
        self._memo: dict[tuple[int, int], Diagram] = {}

    def mul(self, a: Diagram, b: Diagram) -> Diagram:
        return multiply(a, b)

    def mul_idx(self, i: int, j: int) -> Diagram:
        key = (i, j)
        out = self._memo.get(key)
        if out is None:
            out = multiply(self.elements[i], self.elements[j])
            self._memo[key] = out
        return out


def _scan_elements(m: FiniteMonoid) -> list[Diagram]:
    return [m.elements[k] for k in m.canonical_order()]


def _unary_closure(
    name: str, m: FiniteMonoid, op: Callable[[Diagram], Diagram]
) -> CheckReport:
    for a in _scan_elements(m):
        if op(a) not in m:
            return CheckReport(name, False, (a.text(), op(a).text()), {"size": len(m)})
    return CheckReport(name, True, (), {"size": len(m)})


def check_ehresmann(m: FiniteMonoid) -> list[CheckReport]:
    """The projection-operation axioms, one report per axiom.

    Unary axioms are checked over all elements, binary ones over all ordered
    pairs.  The two closure reports say whether ``D`` and ``R`` even map the
    carrier into itself; the equational axioms are evaluated in the ambient
    diagram monoid regardless, so a closure failure does not hide them.
    """
    elems = _scan_elements(m)
    amb = _Products(elems)
    D, R = domain_projection, range_projection
    reports = [
        _unary_closure("closure-D", m, D),
        _unary_closure("closure-R", m, R),
    ]

    unary_axioms: list[tuple[str, Callable[[Diagram], bool]]] = [
        ("E1", lambda a: amb.mul(D(a), a) == a),
        ("E1*", lambda a: amb.mul(a, R(a)) == a),
        ("E5", lambda a: R(D(a)) == D(a)),
        ("E5*", lambda a: D(R(a)) == R(a)),
        ("E6", lambda a: D(D(a)) == D(a)),
        ("E6*", lambda a: R(R(a)) == R(a)),
        ("E7", lambda a: amb.mul(D(a), D(a)) == D(a)),
        ("E7*", lambda a: amb.mul(R(a), R(a)) == R(a)),
    ]
    for name, law in unary_axioms:
        witness: tuple[str, ...] = ()
        for a in elems:
            if not law(a):
                witness = (a.text(),)
                break
        reports.append(CheckReport(name, not witness, witness, {"size": len(m)}))

    def pairs() -> Iterable[tuple[int, int]]:
        for i in range(len(elems)):
            for j in range(len(elems)):
                yield i, j

    binary_axioms: list[tuple[str, Callable[[int, int], bool]]] = [
        ("E2", lambda i, j: amb.mul(D(elems[i]), D(elems[j]))
         == amb.mul(D(elems[j]), D(elems[i]))),
        ("E2*", lambda i, j: amb.mul(R(elems[i]), R(elems[j]))
         == amb.mul(R(elems[j]), R(elems[i]))),
        ("E3", lambda i, j: D(amb.mul_idx(i, j))
         == D(amb.mul(elems[i], D(elems[j])))),
        ("E3*", lambda i, j: R(amb.mul_idx(i, j))
         == R(amb.mul(R(elems[i]), elems[j]))),
        ("E4", lambda i, j: D(amb.mul_idx(i, j))
         == amb.mul(D(elems[i]), D(amb.mul_idx(i, j)))),
        ("E4*", lambda i, j: R(amb.mul_idx(i, j))
         == amb.mul(R(amb.mul_idx(i, j)), R(elems[j]))),
        ("E8", lambda i, j: amb.mul(D(elems[i]), D(elems[j]))
         == D(amb.mul(D(elems[i]), D(elems[j])))),
        ("E8*", lambda i, j: amb.mul(R(elems[i]), R(elems[j]))
         == R(amb.mul(R(elems[i]), R(elems[j])))),
    ]
    for name, law in binary_axioms:
        witness = ()
        for i, j in pairs():
            if not law(i, j):
                witness = (elems[i].text(), elems[j].text())
                break
        reports.append(
            CheckReport(name, not witness, witness, {"size": len(m)})
        )
    return reports


def check_restriction(m: FiniteMonoid, side: str) -> CheckReport:
    """The one-sided restriction law over all ordered pairs.

    ``side="right"`` tests ``R(a) b = b R(ab)``;
    ``side="left"`` tests ``a D(b) = D(ab) a``.
    """
    assert side in ("left", "right")
    order = m.canonical_order()
    size = len(m)
    if side == "right":
        image = [range_projection(d) for d in m.elements]
        name = "right-restriction"
    else:
        image = [domain_projection(d) for d in m.elements]
        name = "left-restriction"
    proj_idx = [m.index.get(p) for p in image]
    if all(k is not None for k in proj_idx):
        # index arithmetic: much faster than diagram products pair by pair
        for i in order:
            for j in order:
                ij = m.product(i, j)
                if side == "right":
                    ok = m.product(proj_idx[i], j) == m.product(j, proj_idx[ij])
                else:
                    ok = m.product(i, proj_idx[j]) == m.product(proj_idx[ij], i)
                if not ok:
                    return CheckReport(
                        name,
                        False,
                        (m.elements[i].text(), m.elements[j].text()),
                        {"size": size},
                    )
        return CheckReport(name, True, (), {"size": size})
    # projections leave the carrier: fall back to ambient products
    elems = _scan_elements(m)
    for a in elems:
        for b in elems:
            ab = multiply(a, b)
            if side == "right":
                ok = multiply(range_projection(a), b) == multiply(b, range_projection(ab))
            else:
                ok = multiply(a, domain_projection(b)) == multiply(domain_projection(ab), a)
            if not ok:
                return CheckReport(name, False, (a.text(), b.text()), {"size": size})
    return CheckReport(name, True, (), {"size": size})


def check_grrac(m: FiniteMonoid) -> list[CheckReport]:
    """Axioms of the cap-valued range operation ``rho(a) = cap(coker(a))``.

    Checked over a planar full-domain carrier; ``closure-rho`` reports
    whether the operation maps the carrier into itself.
    """
    elems = _scan_elements(m)
    amb = _Products(elems)
    rho = range_cap
    reports = [_unary_closure("closure-rho", m, rho)]
    unary: list[tuple[str, Callable[[Diagram], bool]]] = [
        ("G1", lambda a: amb.mul(a, rho(a)) == a),
        ("G2", lambda a: rho(rho(a)) == rho(a)),
        ("G3", lambda a: amb.mul(rho(a), rho(a)) == rho(a)),
    ]
    for name, law in unary:
        witness: tuple[str, ...] = ()
        for a in elems:
            if not law(a):
                witness = (a.text(),)
                break
        reports.append(CheckReport(name, not witness, witness, {"size": len(m)}))
    binary: list[tuple[str, Callable[[Diagram, Diagram], bool]]] = [
        ("G4", lambda a, b: amb.mul(amb.mul(rho(a), rho(b)), rho(a))
         == amb.mul(rho(b), rho(a))),
        ("G5", lambda a, b: rho(amb.mul(rho(a), rho(b))) == amb.mul(rho(a), rho(b))),
        ("G6", lambda a, b: amb.mul(rho(amb.mul(a, b)), rho(b)) == rho(amb.mul(a, b))),
        ("G7", lambda a, b: rho(amb.mul(a, b)) == rho(amb.mul(rho(a), b))),
        ("G8", lambda a, b: amb.mul(rho(a), b) == amb.mul(b, rho(amb.mul(a, b)))),
    ]
    for name, law in binary:
        witness = ()
        for a in elems:
            for b in elems:
                if not law(a, b):
                    witness = (a.text(), b.text())
                    break
            if witness:
                break
        reports.append(CheckReport(name, not witness, witness, {"size": len(m)}))
    return reports


def dicts(reports) -> list[dict]:
    return [rep.to_dict() for rep in (reports if isinstance(reports, list) else [reports])]


EHRESMANN_CARRIERS = [
    ("pn", 2), ("pnfd", 2), ("pnfd", 3),
    ("ppnfd", 3),  # R leaves the carrier
    ("tn", 3),  # D leaves the carrier
    ("sing-tn", 3), ("ppn", 3), ("dn", 4), ("on", 3),
]
RESTRICTION_CASES = [
    (name, n, side) for name, n in EHRESMANN_CARRIERS for side in ("left", "right")
] + [("ppnfd", 4, "right")]
GRRAC_CARRIERS = [("ppnfd", 2), ("ppnfd", 3), ("dn", 4), ("on", 3), ("ptn", 3)]


def carrier(name: str, n: int) -> FiniteMonoid:
    return from_elements(n, family(name, n))


@pytest.mark.parametrize("name,n", EHRESMANN_CARRIERS)
def test_ehresmann_matches_reference(name, n):
    assert dicts(laws.check_ehresmann(carrier(name, n))) == dicts(check_ehresmann(carrier(name, n)))


@pytest.mark.parametrize("name,n,side", RESTRICTION_CASES)
def test_restriction_matches_reference(name, n, side):
    got = laws.check_restriction(carrier(name, n), side)
    assert dicts(got) == dicts(check_restriction(carrier(name, n), side))


@pytest.mark.parametrize("name,n", GRRAC_CARRIERS)
def test_grrac_matches_reference(name, n):
    assert dicts(laws.check_grrac(carrier(name, n))) == dicts(check_grrac(carrier(name, n)))


def test_reference_runs_on_a_closure_built_carrier():
    # a carrier in discovery order, not canonical order: witnesses must
    # still be the first failures in canonical order
    from diagcalc.engine import closure
    from diagcalc.presentations import standard_assignment

    m = closure(3, list(standard_assignment("tn", 3).values()))
    assert m.elements != sorted(m.elements)
    assert dicts(laws.check_ehresmann(m)) == dicts(check_ehresmann(m))
    for side in ("left", "right"):
        assert dicts(laws.check_restriction(m, side)) == dicts(check_restriction(m, side))
