import itertools

import pytest

from diagcalc.engine import closure, from_elements
from diagcalc.equivalences import all_equivalences
from diagcalc.laws import (
    LeftCongruence,
    action_pair_elements,
    check_action_pair,
    check_ehresmann,
    check_grrac,
    check_restriction,
    completion,
    join_left_congruences,
    left_congruence_closure,
    parts,
    principal_pair_congruence,
    projection_split,
    theta,
    theta_battery,
)
from diagcalc.partitions import (
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


@pytest.mark.parametrize("n", [2, 3])
def test_theta_battery(n):
    reports = theta_battery(n)
    assert [rep.name for rep in reports] == [
        "theta-join:tn",
        "theta-join:sing-tn",
        "theta-merge-principal",
        "theta-cap-principal",
        "theta-cap-join",
    ]
    for rep in reports:
        assert rep.holds, rep


# -- pinned product counts -----------------------------------------------------------


@pytest.mark.parametrize(
    "job,multiplies",
    [
        (lambda: theta_battery(3), 1_137),
        (lambda: theta_battery(4), 74_757),
        (lambda: check_ehresmann(from_elements(3, family("pn", 3))), 41_209),
    ],
    ids=["theta_battery-3", "theta_battery-4", "ehresmann-P3"],
)
def test_pinned_multiply_counts(monkeypatch, job, multiplies):
    # every product goes through the carrier's memo, so the number of
    # diagram multiplications is deterministic; a change in it is a
    # regression (or a gain) to account for
    import sys

    import diagcalc.partitions

    real = diagcalc.partitions.multiply
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    # submodules only: the package resolves ``multiply`` on each lookup, and
    # patching it would leave a copy in its globals after the undo
    for name, module in list(sys.modules.items()):
        if name.startswith("diagcalc.") and getattr(module, "multiply", None) is real:
            monkeypatch.setattr(module, "multiply", counted)
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
