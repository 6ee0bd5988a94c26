import itertools
import re
import sys

import pytest

from diagcalc.engine import BudgetExceeded, carrier, closure, from_elements
from diagcalc.equivalences import Equivalence, all_equivalences
from diagcalc.laws import (
    LeftCongruence,
    _projections,
    action_pair_elements,
    check_action_pair,
    check_ehresmann,
    check_grrac,
    check_restriction,
    completion,
    join_left_congruences,
    left_congruence_closure,
    principal_pair_congruence,
    theta,
    theta_battery,
)
from diagcalc.partitions import (
    FAMILY_NAMES,
    Diagram,
    all_diagrams,
    cap,
    collapse,
    domain_projection,
    embed,
    family,
    floor_map,
    identity,
    merge,
    multiply,
    range_cap,
    range_projection,
)

EHRESMANN_AXIOMS = (
    "closure-D", "closure-R",
    "E1", "E1*", "E5", "E5*", "E6", "E6*", "E7", "E7*",
    "E2", "E2*", "E3", "E3*", "E4", "E4*", "E8", "E8*",
)


# -- the two projection operations ------------------------------------------------


def test_projections_of_identity():
    for n in range(1, 5):
        assert domain_projection(identity(n)) == identity(n)
        assert range_projection(identity(n)) == identity(n)


def test_projection_definitions():
    for d in all_diagrams(3):
        assert domain_projection(d) == embed(d.ker())
        assert range_projection(d) == embed(d.coker())


def test_projection_of_projection():
    e = merge(3, 1, 2)
    assert domain_projection(e) == e == range_projection(e)


def test_range_escapes_planarity():
    # a planar full-domain product whose range projection has crossing
    # blocks: the reason the planar carrier is not closed under R
    u = Diagram.from_text("[[1,-1],[2,3,-2,-3]]")
    f = Diagram.from_text("[[1,2,-1],[3,-3],[-2]]")
    uf = multiply(u, f)
    assert uf.classify().planar_full_domain
    r = range_projection(uf)
    assert r == Diagram.from_text("[[1,3,-1,-3],[2,-2]]")
    assert not r.is_planar()


def test_range_cap_examples():
    assert range_cap(identity(4)) == identity(4)
    for n in range(1, 6):
        for e in all_equivalences(n):
            if e.is_planar():
                assert range_cap(cap(e)) == cap(e)
    a = Diagram.from_text("[[1,2,3,4,5,-1],[-2,-5],[-3,-4]]")
    assert range_cap(a) == Diagram.from_text("[[1,-1],[2,3,4,5,-2,-5],[-3,-4]]")


def test_projections_of_pn_are_the_embedded_equivalences():
    for n in range(1, 5):
        expected = {embed(e) for e in all_equivalences(n)}
        domains = set()
        ranges = set()
        for d in all_diagrams(n):
            domains.add(domain_projection(d))
            ranges.add(range_projection(d))
        assert domains == ranges == expected


# the projections and the projection split of a carrier: no verdict reads
# them, so they are kept here, beside their tests


def parts(m):
    """The projections of the carrier: ``p*p = p = D(p) = R(p)``."""
    (D, R), T = _projections(m), m.table
    return [m.elements[p] for p in m.canonical_order() if T[p][p] == p and D[p] == p == R[p]]


def projection_split(m):
    """Split the carrier by triviality of its two projections.

    * ``trivial_range``: elements with ``R(a) = 1`` -- a submonoid;
    * ``proper_kernel``: elements with ``D(a) != 1`` -- a right ideal;
    * ``overlap``: their intersection -- a subsemigroup.

    The three closure claims are re-verified before returning (they are
    theorems for Ehresmann carriers, so a failure here is a bug, raised as
    a :class:`RuntimeError` that names the claim).
    """
    one = m.intern(identity(m.n))
    (D, R), T = _projections(m), m.table
    order = m.canonical_order()
    trivial_range = [a for a in order if R[a] == one]
    proper_kernel = [a for a in order if D[a] != one]
    kernel_set = set(proper_kernel)
    overlap = [a for a in trivial_range if a in kernel_set]

    range_set, overlap_set = set(trivial_range), set(overlap)
    if one not in range_set:
        raise RuntimeError("trivial_range holds the identity")
    if not all(T[a][b] in range_set for a in trivial_range for b in trivial_range):
        raise RuntimeError("trivial_range is closed under products")
    if not all(T[a][b] in kernel_set for a in proper_kernel for b in order):
        raise RuntimeError("proper_kernel is a right ideal")
    if not all(T[a][b] in overlap_set for a in overlap for b in overlap):
        raise RuntimeError("overlap is closed under products")
    return {
        "trivial_range": [m.elements[a] for a in trivial_range],
        "proper_kernel": [m.elements[a] for a in proper_kernel],
        "overlap": [m.elements[a] for a in overlap],
    }


def test_parts_finds_projections():
    m = from_elements(3, family("pnfd", 3))
    assert set(parts(m)) == {embed(e) for e in all_equivalences(3)}


def test_projection_split():
    m = from_elements(3, family("pnfd", 3))
    split = projection_split(m)
    assert set(split["trivial_range"]) == set(family("tn", 3))
    assert len(split["proper_kernel"]) == 52 - 6
    assert set(split["overlap"]) == set(family("sing-tn", 3))

    trivial = closure(2, [])
    split = projection_split(trivial)
    assert split["trivial_range"] == [identity(2)]
    assert split["proper_kernel"] == []
    assert split["overlap"] == []


# -- Ehresmann axioms ---------------------------------------------------------------


def names_and_failures(reports):
    return [rep.name for rep in reports], [rep.name for rep in reports if not rep.holds]


def test_ehresmann_p3():
    names, failures = names_and_failures(
        check_ehresmann(from_elements(3, family("pn", 3)))
    )
    assert names == list(EHRESMANN_AXIOMS)
    assert failures == []


def test_ehresmann_p3fd():
    _, failures = names_and_failures(
        check_ehresmann(from_elements(3, family("pnfd", 3)))
    )
    assert failures == []


def test_ehresmann_planar_carrier_not_r_closed():
    reports = check_ehresmann(from_elements(3, family("ppnfd", 3)))
    by_name = {rep.name: rep for rep in reports}
    assert by_name["closure-D"].holds
    bad = by_name["closure-R"]
    assert not bad.holds
    # the witness is re-verifiable: a planar element whose range
    # projection crosses
    a = Diagram.from_text(bad.witness[0])
    assert a.classify().planar_full_domain
    assert range_projection(a) == Diagram.from_text(bad.witness[1])
    assert not range_projection(a).is_planar()
    # the equational axioms still hold ambiently
    equational = [rep for rep in reports if not rep.name.startswith("closure")]
    assert all(rep.holds for rep in equational)


# -- one-sided restriction laws -------------------------------------------------------


def test_restriction_fails_on_p2_both_sides():
    m = from_elements(2, family("pn", 2))
    for side in ("left", "right"):
        rep = check_restriction(m, side)
        assert not rep.holds
        assert rep.witness

    # the classic counterexample pair: all singletons against the full join.
    # The left law breaks at (a, b), the right law at (b, a).
    a = Diagram.from_text("[[1],[2],[-1],[-2]]")
    b = Diagram.from_text("[[1,2,-1,-2]]")
    ab, ba = multiply(a, b), multiply(b, a)
    assert multiply(a, domain_projection(b)) != multiply(domain_projection(ab), a)
    assert multiply(range_projection(b), a) != multiply(a, range_projection(ba))


@pytest.mark.parametrize("side", ["middle", "Left", ""])
def test_restriction_rejects_an_unknown_side(side):
    with pytest.raises(ValueError) as caught:
        check_restriction(from_elements(2, family("pn", 2)), side)
    assert str(caught.value) == f"side must be 'right' or 'left', got {side!r}"


@pytest.mark.parametrize("n", [2, 3])
def test_full_domain_carrier_is_right_restriction(n):
    m = from_elements(n, family("pnfd", n))
    assert check_restriction(m, "right").holds

    rep = check_restriction(m, "left")
    assert not rep.holds
    a, b = (Diagram.from_text(t) for t in rep.witness)
    ab = multiply(a, b)
    assert multiply(a, domain_projection(b)) != multiply(domain_projection(ab), a)


def test_right_restriction_projection_form():
    # pa = aR(pa) for all projections p, over full-domain carriers
    for n in range(2, 5):
        elems = family("pnfd", n)
        for e in all_equivalences(n):
            p = embed(e)
            for a in elems:
                pa = multiply(p, a)
                assert pa == multiply(a, range_projection(pa))


def test_range_of_product_lemma():
    # if R(a) >= D(b) in the projection order, then R(ab) = R(b); and for
    # a projection p below R(a), R(ap) = p
    elems = list(all_diagrams(3))
    rs = {d: range_projection(d) for d in elems}
    ds = {d: domain_projection(d) for d in elems}
    for a in elems:
        for b in elems:
            if multiply(rs[a], ds[b]) == ds[b]:
                assert rs[multiply(a, b)] == rs[b]
    projections = [embed(e) for e in all_equivalences(3)]
    for a in elems:
        for p in projections:
            if multiply(rs[a], p) == p:
                assert range_projection(multiply(a, p)) == p


# -- the cap-valued range operation ---------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_grrac_axioms_hold(n):
    reports = check_grrac(from_elements(n, family("ppnfd", n)))
    assert [rep.name for rep in reports] == [
        "closure-rho", "G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8",
    ]
    assert all(rep.holds for rep in reports)


@pytest.mark.parametrize("name", ["pnfd", "en", "fn", "jn"])
def test_grrac_on_a_crossing_carrier_refutes_closure_only(name):
    # at degree 4 some cokernels cross, and only planar relations have caps:
    # rho is no operation there, so closure-rho is the one report
    m = carrier(name, 4)
    first = next(d for d in family(name, 4) if not d.coker().is_planar())
    assert [rep.to_dict() for rep in check_grrac(m)] == [{
        "name": "closure-rho", "holds": False, "witness": [first.text()],
        "counts": {"size": len(m)},
    }]


GRRAC_AXIOMS = ("closure-rho", "G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8")


def test_frontier_reports_are_pinned():
    # Ehresmann on P4fd and grrac on PP5fd, the verdicts one degree past the
    # acceptance suite, report by report; then P5fd, which the reductions
    # of the binary axioms decide without a scan of its 19,921² pairs
    reports = check_ehresmann(from_elements(4, family("pnfd", 4)))
    assert [rep.to_dict() for rep in reports] == [
        {"name": name, "holds": True, "witness": None, "counts": {"size": 855}}
        for name in EHRESMANN_AXIOMS
    ]
    reports = check_grrac(from_elements(5, family("ppnfd", 5)))
    assert [rep.to_dict() for rep in reports] == [
        {"name": name, "holds": True, "witness": None, "counts": {"size": 637}}
        for name in GRRAC_AXIOMS
    ]
    p5 = from_elements(5, family("pnfd", 5))
    reports = check_ehresmann(p5) + [check_restriction(p5, "right"), check_restriction(p5, "left")]
    assert [rep.to_dict() for rep in reports] == [
        {"name": name, "holds": True, "witness": None, "counts": {"size": 19_921}}
        for name in (*EHRESMANN_AXIOMS, "right-restriction")
    ] + [{
        "name": "left-restriction",
        "holds": False,
        "witness": ["[[1,2,3,4,5,-1,-2,-3,-4],[-5]]", "[[1,2,3,4,5,-1,-2,-3,-4,-5]]"],
        "counts": {"size": 19_921},
    }]


BINARY_CHECKS = {
    "ehresmann": check_ehresmann,
    "grrac": check_grrac,
    "left": lambda m: [check_restriction(m, "left")],
    "right": lambda m: [check_restriction(m, "right")],
}


@pytest.mark.parametrize(
    "name,n",
    [(name, n) for n in (1, 2, 3) for name in FAMILY_NAMES]
    + [("pnfd", 4), ("ppnfd", 4)]
    + [(name, 0) for name in FAMILY_NAMES]
    + [("ppnfd", 5)],
)
def test_dense_rows_and_memo_agree(monkeypatch, name, n):
    """Every binary axiom, decided by its induction over the carrier's
    dense Cayley rows, reports what the full scan over the memo reports."""
    import diagcalc.laws as laws

    def outcome(run):
        try:
            return [rep.to_dict() for rep in run(from_elements(n, family(name, n)))]
        except ValueError as exc:  # rho of a crossing cokernel, from degree 4
            return str(exc)

    def reports():
        return {check: outcome(run) for check, run in BINARY_CHECKS.items()}

    reduced = reports()
    monkeypatch.setattr(laws, "_reduced", lambda m, law, op: None)
    assert reports() == reduced


@pytest.mark.parametrize(
    "name,n,checks,binary",
    [("pnfd", 4, ("ehresmann", "right"), 9), ("ppnfd", 5, ("grrac", "right"), 6)],
)
def test_the_reductions_decide_the_holding_verdicts(monkeypatch, name, n, checks, binary):
    """On the laws workload's P4fd and on PP5fd every holding binary axiom
    is decided by its induction alone: each premise holds and the narrow
    ranges find no failure, so no full scan runs."""
    import diagcalc.laws as laws

    real, decided = laws._reduced, []

    def spy(m, law, op):
        ranges = real(m, law, op)
        decided.append(ranges is not None
                       and all(next(law(m.table, op, ranges[1], a), -1) < 0 for a in ranges[0]))
        return ranges

    monkeypatch.setattr(laws, "_reduced", spy)
    m = from_elements(n, family(name, n))
    assert all(rep.holds for check in checks for rep in BINARY_CHECKS[check](m))
    assert decided == [True] * binary


def test_the_reductions_check_their_premises():
    """The generator reductions need a closed carrier with its identity
    among the generators, and the absorbs texts need ``X(S)`` inside S; the
    image reductions need neither."""
    import diagcalc.laws as laws

    tn = from_elements(3, family("tn", 3))
    D = tn.unary(domain_projection)
    order, gens = tn.canonical_order(), [*tn.generators, tn.identity_index]
    assert any(D[a] >= len(tn) for a in order)
    assert laws._reduced(tn, laws._left_factor, D) == (order, gens)
    assert laws._reduced(tn, laws._right_factor, D) == (gens, order)
    assert laws._reduced(tn, laws._kernel_absorbs, D) is None
    assert laws._reduced(tn, laws._range_absorbs, D) is None
    pnfd = from_elements(3, family("pnfd", 3))
    assert laws._reduced(pnfd, laws._kernel_absorbs, pnfd.unary(domain_projection)) == (
        [*pnfd.generators, pnfd.identity_index], pnfd.canonical_order())
    # one representative per image, the first in canonical order
    reps, _ = laws._reduced(tn, laws._commute, D)
    assert len(reps) == len({D[a] for a in order}) and reps[0] == order[0]


def test_grrac_g8_mirrors_right_restriction():
    # on the planar carrier rho plays the role R cannot: rho(a)b = b rho(ab)
    elems = family("ppnfd", 3)
    for a, b in itertools.product(elems, repeat=2):
        assert multiply(range_cap(a), b) == multiply(b, range_cap(multiply(a, b)))


# -- strong action pairs -----------------------------------------------------------


def test_action_pair_names():
    with pytest.raises(ValueError):
        action_pair_elements("tn-en", 3)


@pytest.mark.parametrize("pair", ["en-tn", "en-sing-tn"])
def test_projection_action_pairs_hold(pair):
    for n in (2, 3):
        u_elems, s_elems = action_pair_elements(pair, n)
        rep = check_action_pair(u_elems, s_elems, pair)
        assert rep.holds, rep
        assert rep.counts["projection_formula_checked"] == 1


def test_monoid_vs_semigroup_intersections():
    for n in (2, 3, 4):
        en = set(family("en", n))
        assert en & set(family("tn", n)) == {identity(n)}
        assert en & set(family("sing-tn", n)) == set()


def test_cap_action_pair_holds():
    u_elems, s_elems = action_pair_elements("dn-on", 4)
    rep = check_action_pair(u_elems, s_elems, "dn-on")
    assert rep.holds
    assert rep.counts["U"] == 14 and rep.counts["S"] == 35
    # proper caps are not projections, so the formula check stays off
    assert "projection_formula_checked" not in rep.counts


def test_convex_projection_pair_fails():
    u_elems, s_elems = action_pair_elements("pen-ptn", 3)
    rep = check_action_pair(u_elems, s_elems, "pen-ptn")
    assert not rep.holds
    assert rep.name == "pen-ptn-A1"

    # the hand-checked counterexample: us has no matching sv
    u = Diagram.from_text("[[1,-1],[2,3,-2,-3]]")
    f = Diagram.from_text("[[1,2,-1],[3,-3],[-2]]")
    us = multiply(u, f)
    assert all(us != multiply(f, v) for v in u_elems)


def test_congruence_closure_names_a_diagram_outside_the_completion():
    on = carrier("on", 3)
    message = "[[1,2,-1,-2],[3,-3]] is not in the completion of the carrier"
    with pytest.raises(ValueError, match=re.escape(message)):
        principal_pair_congruence(on, identity(3), merge(3, 1, 2))
    message = "[[1,-1],[2,-2]] has degree 2, not the carrier's degree 3"
    with pytest.raises(ValueError, match=re.escape(message)):
        principal_pair_congruence(on, identity(3), identity(2))
    with pytest.raises(ValueError, match=re.escape(message)):
        left_congruence_closure(on, [(identity(2), identity(3))])


def test_action_pair_closure_is_bounded_by_its_budget():
    # the caps and order-preserving maps of degree 4 close to PP4fd, 110 elements
    u, s = action_pair_elements("dn-on", 4)
    with pytest.raises(BudgetExceeded):
        check_action_pair(u, s, "dn-on", budget=109)
    assert check_action_pair(u, s, "dn-on", budget=110).holds


def test_action_pair_failing_a2_names_both_factors():
    # with the roles swapped, U the transformations and S the projections,
    # the one-block projection s forgets which point a transformation
    # sends where, so s*u = s*v for some u != v
    rep = check_action_pair(carrier("tn", 3), carrier("en", 3), "tn-en")
    assert rep.name == "tn-en-A2" and not rep.holds
    s, u, v = (Diagram.from_text(text) for text in rep.witness)
    assert u != v and multiply(s, u) == multiply(s, v)
    assert rep.counts == {"U": 27, "S": 5}


# -- left congruences ----------------------------------------------------------------


def test_completion_adjoins_identity():
    sing = from_elements(3, family("sing-tn", 3))
    carrier = completion(sing)
    assert identity(3) in carrier
    assert len(carrier) == 22

    full = from_elements(3, family("tn", 3))
    assert len(completion(full)) == 27


def test_theta_of_identity_is_equality():
    s = from_elements(2, family("tn", 2))
    th = theta(identity(2), s)
    assert th.class_count() == len(th.carrier)


def test_theta_of_top_projection_is_universal():
    s = from_elements(2, family("tn", 2))
    top = Diagram.from_text("[[1,2,-1,-2]]")
    th = theta(top, s)
    assert th.class_count() == 1


def test_theta_fibres_match_kernel_condition():
    # over the full transformation carrier, s and t are theta_u-related
    # for u = embed(e) exactly when (xs, xt) lands in e for every x
    n = 3
    s = from_elements(n, family("tn", n))
    for e in all_equivalences(n):
        u = embed(e)
        th = theta(u, s)
        labels = dict(zip(th.carrier, th.labels))
        for a in th.carrier:
            fa = a.to_transformation()
            for b in th.carrier:
                fb = b.to_transformation()
                related = labels[a] == labels[b]
                expected = all(
                    e.labels[fa[x] - 1] == e.labels[fb[x] - 1] for x in range(n)
                )
                assert related == expected


def test_theta_is_left_compatible():
    s = from_elements(3, family("tn", 3))
    u = merge(3, 1, 2)
    th = theta(u, s)
    labels = dict(zip(th.carrier, th.labels))
    for a, b in itertools.combinations(th.carrier, 2):
        if labels[a] != labels[b]:
            continue
        for c in th.carrier:
            assert labels[multiply(c, a)] == labels[multiply(c, b)]


def test_closure_of_no_pairs():
    s = from_elements(2, family("tn", 2))
    th = left_congruence_closure(s, [])
    assert th.carrier == completion(s)
    assert th.class_count() == len(th.carrier)


def test_merge_congruence_is_principal():
    # theta of the i,j-merge is generated by identifying 1 with the
    # collapse of j onto i
    s = from_elements(3, family("tn", 3))
    for i, j in itertools.combinations(range(1, 4), 2):
        generated = principal_pair_congruence(s, identity(3), collapse(3, i, j))
        assert generated == theta(merge(3, i, j), s)


def test_cap_congruence_is_principal_over_order_preserving():
    n = 4
    on = from_elements(n, family("on", n))
    for e in all_equivalences(n):
        if not e.is_planar():
            continue
        u = cap(e)
        generated = principal_pair_congruence(on, identity(n), floor_map(u.ker()))
        assert generated == theta(u, on)


def test_join_with_equality():
    s = from_elements(2, family("tn", 2))
    th = theta(merge(2, 1, 2), s)
    equality = theta(identity(2), s)
    assert join_left_congruences(th, equality) == th
    assert join_left_congruences(equality, th) == th


def test_join_carrier_mismatch():
    a = LeftCongruence([identity(2)], [0])
    b = LeftCongruence([identity(3)], [0])
    with pytest.raises(ValueError):
        join_left_congruences(a, b)


def test_left_congruence_is_a_record():
    carrier = family("tn", 2)
    th = LeftCongruence(carrier, [3, 1, 3, 0])
    assert th.labels == (0, 1, 0, 2) and th.carrier == tuple(carrier)
    texts = [d.text() for d in carrier]
    assert th.classes() == ((texts[0], texts[2]), (texts[1],), (texts[3],))
    same = LeftCongruence(tuple(carrier), [5, 6, 5, 7])
    assert th == same and hash(th) == hash(same) and len({th, same}) == 1
    assert th != LeftCongruence(carrier, [0, 1, 2, 3])
    # equal labels on another carrier, or the same labels as an Equivalence
    assert LeftCongruence([identity(2)], [0]) != LeftCongruence([identity(3)], [0])
    assert th != Equivalence(4, th.labels) and th != (th.carrier, th.labels)
    assert repr(LeftCongruence([identity(1)], [4])) == (
        "LeftCongruence(carrier=(Diagram.from_text('[[1,-1]]'),), labels=(0,))"
    )
    with pytest.raises(AttributeError):
        th.labels = (0, 0, 0, 0)
    with pytest.raises(AttributeError):
        del th.carrier
    s = from_elements(2, family("sing-tn", 2))
    assert theta(identity(2), s).classes() == tuple((d.text(),) for d in completion(s))


THETA_REPORTS = [
    "theta-join:tn",
    "theta-join:sing-tn",
    "theta-merge-principal",
    "theta-cap-principal",
    "theta-cap-join",
]


@pytest.mark.parametrize("n", [2, 3])
def test_theta_battery(n):
    reports = theta_battery(n)
    assert [rep.name for rep in reports] == THETA_REPORTS
    for rep in reports:
        assert rep.holds, rep


@pytest.mark.parametrize(
    "patched,refuted",
    [
        ("join_left_congruences", {"theta-join:tn", "theta-join:sing-tn", "theta-cap-join"}),
        ("principal_pair_congruence", {"theta-merge-principal", "theta-cap-principal"}),
    ],
)
def test_theta_battery_refutes_with_the_first_witness(monkeypatch, patched, refuted):
    """With the join or the principal closure made wrong everywhere, each
    report that compares against it refutes at its first case in scan order,
    and the others still hold."""
    import diagcalc.laws as laws

    wrong = LeftCongruence((), ())
    monkeypatch.setattr(laws, patched, lambda *args: wrong)
    reports = theta_battery(3)
    assert [rep.name for rep in reports] == THETA_REPORTS
    assert {rep.name for rep in reports if not rep.holds} == refuted
    # the first projection and the first cap are both the one-block diagram
    top = "[[1,2,3,-1,-2,-3]]"
    assert family("en", 3)[0].text() == family("dn", 3)[0].text() == top
    witnesses = {
        "theta-join:tn": ((top, top), {"carrier": 27, "pairs": 1}),
        "theta-join:sing-tn": ((top, top), {"carrier": 21, "pairs": 1}),
        "theta-merge-principal": (("1", "2"), {"carrier": 27}),
        "theta-cap-principal": ((top,), {"caps": 5}),
        "theta-cap-join": ((top,), {"caps": 5}),
    }
    for rep in reports:
        if rep.name in refuted:
            assert (rep.witness, rep.counts) == witnesses[rep.name]
        else:
            assert rep.holds and rep.witness is None


# -- pinned product counts -----------------------------------------------------------


@pytest.mark.parametrize(
    "job,multiplies",
    [
        # theta builds its carriers with ``carrier``, which closes tn,
        # sing-tn and on from their generators up front
        (lambda: theta_battery(3), 435),
        (lambda: theta_battery(4), 9_046),
        # the closure of P3's generators, its one multiplying step; every
        # law reads the tables
        (lambda: check_ehresmann(carrier("pn", 3)), 257),
        # the closure of PP4fd, then products with the R(a) that leave it
        (lambda: check_restriction(carrier("ppnfd", 4), "right"), 307),
        (lambda: check_grrac(carrier("ppnfd", 4)), 224),
        # the closure of P4fd, up front, before the witness in row 1
        (lambda: check_restriction(carrier("pnfd", 4), "left"), 1_022),
        # the carriers of both sides, then the closure of their generators
        # together; every product s*u and u*s is read from its table
        (lambda: check_action_pair(*action_pair_elements("dn-on", 5), "dn-on"), 1_742),
        (lambda: check_action_pair(*action_pair_elements("pen-ptn", 4), "pen-ptn"), 332),
    ],
    ids=[
        "theta_battery-3",
        "theta_battery-4",
        "ehresmann-P3",
        "restriction-right-PP4fd",
        "grrac-PP4fd",
        "restriction-left-P4fd",
        "action-pair-dn-on-5",
        "action-pair-pen-ptn-4",
    ],
)
def test_pinned_multiply_counts(monkeypatch, job, multiplies):
    # every product goes through the carrier's memo, so the number of
    # diagram multiplications is deterministic; a change in it is a
    # regression (or a gain) to account for.  Every product, a one-off
    # ``multiply`` too, is one application of a row map of the one kernel
    # ``multiply_rows``.
    import sys

    import diagcalc.partitions

    real = diagcalc.partitions.multiply_rows
    calls = [0]

    def counted(g):
        by = real(g)

        def times(x):
            calls[0] += 1
            return by(x)

        return times

    # submodules only: the package resolves names on each lookup, and
    # patching it would leave a copy in its globals after the undo
    for name, module in list(sys.modules.items()):
        if name.startswith("diagcalc.") and getattr(module, "multiply_rows", None) is real:
            monkeypatch.setattr(module, "multiply_rows", counted)
    job()
    assert calls[0] == multiplies


# -- product decompositions ------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_decompositions(n):
    en = family("en", n)
    tn = family("tn", n)
    assert {multiply(t, e) for t in tn for e in en} == set(family("pnfd", n))
    assert {
        multiply(t, e) for t in family("sing-tn", n) for e in en
    } == set(family("pnfd", n)) - set(family("sn", n))
    sn = family("sn", n)
    fn = set(family("fn", n))
    assert {multiply(e, s) for e in en for s in sn} == fn
    assert {multiply(s, e) for s in sn for e in en} == fn
    assert {
        multiply(f, d) for f in family("on", n) for d in family("dn", n)
    } == set(family("ppnfd", n))
