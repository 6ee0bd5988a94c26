"""Differential test: the indexed law checkers against pair-by-pair ones.

The reference checkers below are the straightforward versions the indexed
carrier in :mod:`diagcalc.laws` replaced: every law term is a fresh diagram
product, ``check_restriction`` switches to ambient products when the
projections leave the carrier, and the left congruences and action pairs
work on Diagram-keyed dicts.  Both must give the same reports, byte for
byte, including the first witness in canonical order and the counts, and
the same congruences.  ``saturated_over_every_element`` is the
left-congruence closure as it was before it saturated over the generators
only.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Sequence

import pytest

from diagcalc import laws
from diagcalc.engine import FiniteMonoid, from_elements
from diagcalc.laws import CheckReport, LeftCongruence
from diagcalc.partitions import (
    Diagram,
    cap_atom,
    collapse,
    domain_projection,
    family,
    floor_map,
    identity,
    merge,
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
    proj_idx = [m.index.get(p.labels) for p in image]
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


# -- left congruences and action pairs ----------------------------------------------


def completion(s: FiniteMonoid) -> tuple[Diagram, ...]:
    elems = set(s.elements)
    if s.identity_index is None:
        elems.add(identity(s.n))
    return tuple(sorted(elems))


def theta(u: Diagram, s: FiniteMonoid) -> LeftCongruence:
    carrier = completion(s)
    fibres: dict[Diagram, int] = {}
    labels = []
    for x in carrier:
        value = multiply(x, u)
        if value not in fibres:
            fibres[value] = len(fibres)
        labels.append(fibres[value])
    return LeftCongruence(carrier, labels)


def _uf(size: int):
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    return parent, find


def join_left_congruences(a: LeftCongruence, b: LeftCongruence) -> LeftCongruence:
    assert a.carrier == b.carrier, "joins need a common carrier"
    parent, find = _uf(len(a.carrier))
    for labels in (a.labels, b.labels):
        seen: dict[int, int] = {}
        for pos, label in enumerate(labels):
            if label in seen:
                parent[find(pos)] = find(seen[label])
            else:
                seen[label] = pos
    return LeftCongruence(a.carrier, [find(k) for k in range(len(a.carrier))])


def left_congruence_closure(
    carrier: Sequence[Diagram], pairs: Iterable[tuple[Diagram, Diagram]]
) -> LeftCongruence:
    carrier = tuple(sorted(set(carrier)))
    index = {d: k for k, d in enumerate(carrier)}
    parent, find = _uf(len(carrier))
    work = [(index[a], index[b]) for a, b in pairs]
    while work:
        x, y = work.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        a, b = carrier[x], carrier[y]
        for s in carrier:
            sa = index[multiply(s, a)]
            sb = index[multiply(s, b)]
            if find(sa) != find(sb):
                work.append((sa, sb))
    return LeftCongruence(carrier, [find(k) for k in range(len(carrier))])


def principal_pair_congruence(s: FiniteMonoid, a: Diagram, b: Diagram) -> LeftCongruence:
    return left_congruence_closure(completion(s), [(a, b)])


def saturated_over_every_element(s: FiniteMonoid, pairs) -> LeftCongruence:
    """``laws.left_congruence_closure`` before it saturated over the
    generators: each merge queues ``c*x`` and ``c*y`` for every element
    ``c`` of the completion, read from the carrier's table."""
    carrier, order = laws._completed(s)
    position = {k: p for p, k in enumerate(order)}
    parent, find = _uf(len(order))
    work = [(position[s.intern(a)], position[s.intern(b)]) for a, b in pairs]
    while work:
        x, y = work.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        a, b = order[x], order[y]
        for c in order:
            ca, cb = position[s.table[c][a]], position[s.table[c][b]]
            if find(ca) != find(cb):
                work.append((ca, cb))
    return LeftCongruence(carrier, [find(k) for k in range(len(order))])


def check_action_pair(
    u_elements: Sequence[Diagram], s_elements: Sequence[Diagram], name: str = "action-pair"
) -> CheckReport:
    u_sorted = sorted(set(u_elements))
    s_sorted = sorted(set(s_elements))
    counts = {"U": len(u_sorted), "S": len(s_sorted)}
    fibre_u: dict[Diagram, Diagram] = {}
    su_value: dict[tuple[int, int], Diagram] = {}
    for si, s in enumerate(s_sorted):
        for ui, u in enumerate(u_sorted):
            p = multiply(s, u)
            su_value[(si, ui)] = p
            prev = fibre_u.get(p)
            if prev is None:
                fibre_u[p] = u
            elif prev != u:
                return CheckReport(name + "-A2", False, (s.text(), u.text(), prev.text()), counts)
    products_by_s = [
        {su_value[(si, ui)] for ui in range(len(u_sorted))} for si in range(len(s_sorted))
    ]
    action: dict[tuple[int, int], Diagram] = {}
    for ui, u in enumerate(u_sorted):
        for si, s in enumerate(s_sorted):
            us = multiply(u, s)
            if us not in products_by_s[si]:
                return CheckReport(name + "-A1", False, (u.text(), s.text()), counts)
            action[(ui, si)] = fibre_u[us]
    holds = True
    witness: tuple[str, ...] = ()
    if all(
        multiply(u, u) == u and domain_projection(u) == u == range_projection(u)
        for u in u_sorted
    ):
        counts["projection_formula_checked"] = 1
        for (ui, si), v in action.items():
            u, s = u_sorted[ui], s_sorted[si]
            if v != range_projection(multiply(u, s)):
                holds = False
                witness = (u.text(), s.text(), v.text())
                break
    return CheckReport(name, holds, witness, counts)


def theta_battery(n: int) -> list[CheckReport]:
    reports: list[CheckReport] = []
    en_elements = family("en", n)
    for label in ("tn", "sing-tn"):
        s = from_elements(n, family(label, n))
        thetas = {u: theta(u, s) for u in en_elements}
        holds, witness = True, None
        checked = 0
        for u, v in itertools.product(en_elements, repeat=2):
            checked += 1
            joined = join_left_congruences(thetas[u], thetas[v])
            if theta(multiply(u, v), s) != joined:
                holds, witness = False, (u.text(), v.text())
                break
        reports.append(CheckReport(
            f"theta-join:{label}", holds, witness, {"carrier": len(s), "pairs": checked}
        ))
    s = from_elements(n, family("tn", n))
    holds, witness = True, None
    for i, j in itertools.combinations(range(1, n + 1), 2):
        generated = principal_pair_congruence(s, identity(n), collapse(n, i, j))
        if theta(merge(n, i, j), s) != generated:
            holds, witness = False, (str(i), str(j))
            break
    reports.append(CheckReport("theta-merge-principal", holds, witness, {"carrier": len(s)}))
    on = from_elements(n, family("on", n))
    caps = family("dn", n)
    holds, witness = True, None
    join_holds, join_witness = True, None
    for u in caps:
        th = theta(u, on)
        if th != principal_pair_congruence(on, identity(n), floor_map(u.ker())):
            if holds:
                holds, witness = False, (u.text(),)
        adjacent = [
            theta(cap_atom(n, i, i + 1), on)
            for i in range(1, n)
            if multiply(cap_atom(n, i, i + 1), u) == u
        ]
        if adjacent:
            joined = adjacent[0]
            for other in adjacent[1:]:
                joined = join_left_congruences(joined, other)
            ok = th == joined
        else:
            ok = th.class_count() == len(th.carrier)
        if not ok and join_holds:
            join_holds, join_witness = False, (u.text(),)
    reports.append(CheckReport("theta-cap-principal", holds, witness, {"caps": len(caps)}))
    reports.append(CheckReport("theta-cap-join", join_holds, join_witness, {"caps": len(caps)}))
    return reports


@pytest.mark.parametrize("n", [1, 2, 3])
def test_theta_battery_matches_reference(n):
    assert dicts(laws.theta_battery(n)) == dicts(theta_battery(n))


def theta_cases():
    # (carrier name, degree, the diagrams u whose theta_u is compared)
    for n in (2, 3):
        for name in ("tn", "sing-tn", "on"):
            yield name, n, family("en", n) + family("dn", n)
    yield "on", 4, family("dn", 4)


@pytest.mark.parametrize("name,n,us", list(theta_cases()))
def test_theta_join_and_closure_match_reference(name, n, us):
    s = carrier(name, n)
    assert laws.completion(s) == completion(s)
    fast = [laws.theta(u, s) for u in us]
    slow = [theta(u, s) for u in us]
    assert fast == slow
    for a, b in itertools.product(range(len(us)), repeat=2):
        assert laws.join_left_congruences(fast[a], fast[b]) == join_left_congruences(
            slow[a], slow[b]
        )
    one = identity(n)
    pairs = [(one, collapse(n, i, j)) for i, j in itertools.permutations(range(1, n + 1), 2)]
    pairs += [(one, floor_map(u.ker())) for u in family("dn", n)]
    pairs = [(a, b) for a, b in pairs if b in completion(s)]
    assert pairs
    for a, b in pairs:
        assert laws.principal_pair_congruence(s, a, b) == principal_pair_congruence(s, a, b)
    assert laws.left_congruence_closure(s, pairs) == left_congruence_closure(
        completion(s), pairs
    )
    if n <= 3:  # every principal pair of the completion
        for a, b in itertools.combinations(completion(s), 2):
            assert laws.principal_pair_congruence(s, a, b) == principal_pair_congruence(s, a, b)


@pytest.mark.parametrize("name,n", [("tn", 4), ("on", 5)])
def test_principal_pairs_match_the_saturation_over_every_element(name, n):
    s = carrier(name, n)
    pairs = list(itertools.combinations(completion(s), 2))
    for a, b in random.Random(f"{name} {n}").sample(pairs, 200):
        assert laws.principal_pair_congruence(s, a, b) == saturated_over_every_element(s, [(a, b)])


ACTION_PAIR_CASES = [
    (pair, n) for n in (1, 2, 3, 4) for pair in ("en-tn", "en-sing-tn", "dn-on", "pen-ptn")
] + [("dn-on", 5), ("pen-ptn", 5)]
# carrier pairs (U, S, degree) with the roles swapped or mismatched: each fails A2
A2_FAILING_PAIRS = [("tn", "en", 3), ("on", "dn", 4), ("sn", "en", 3)]


@pytest.mark.parametrize("pair,n", ACTION_PAIR_CASES)
def test_action_pair_matches_reference(pair, n):
    u, s = laws.action_pair_elements(pair, n)
    assert dicts(laws.check_action_pair(u, s, pair)) == dicts(check_action_pair(u, s, pair))


@pytest.mark.parametrize("u_name,s_name,n", A2_FAILING_PAIRS)
def test_action_pair_a2_witness_matches_reference(u_name, s_name, n):
    u, s = carrier(u_name, n), carrier(s_name, n)
    name = f"{u_name}-{s_name}"
    assert dicts(laws.check_action_pair(u, s, name)) == dicts(check_action_pair(u, s, name))


def test_action_pair_reference_covers_every_outcome():
    # the cases above reach A2 and A1 failures, projection-formula checks
    # and plain holds; pin that, so the comparison keeps its teeth
    reports = [check_action_pair(*laws.action_pair_elements(pair, n), pair)
               for pair, n in ACTION_PAIR_CASES]
    reports += [check_action_pair(carrier(u_name, n), carrier(s_name, n), f"{u_name}-{s_name}")
                for u_name, s_name, n in A2_FAILING_PAIRS]
    outcomes = {(rep.name, rep.holds, "projection_formula_checked" in rep.counts)
                for rep in reports}
    assert ("pen-ptn-A1", False, False) in outcomes
    assert ("en-tn", True, True) in outcomes
    assert ("dn-on", True, False) in outcomes
    assert {name for name, _, _ in outcomes if name.endswith("-A2")} == {
        f"{u_name}-{s_name}-A2" for u_name, s_name, _ in A2_FAILING_PAIRS
    }
