"""Acceptance gate: one test per criterion, all at exact integer equality.

Each test prints a single ``C<k> PASS`` line when every check inside it
succeeded (run with ``-v -s`` to see them); a failing criterion fails its
test with the offending comparison in the traceback.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

from diagcalc.counting import bell, catalan, order_preserving_count
from diagcalc.engine import from_elements
from diagcalc.equivalences import (
    Equivalence,
    all_equivalences,
    bricks,
    cap_kernel,
    cap_word,
    successor,
)
from diagcalc.laws import (
    action_pair_elements,
    check_action_pair,
    check_ehresmann,
    check_grrac,
    check_restriction,
    join_left_congruences,
    principal_pair_congruence,
    theta,
    theta_battery,
)
from diagcalc.partitions import (
    Diagram,
    all_diagrams,
    cap,
    cap_atom,
    collapse,
    domain_projection,
    family,
    floor_map,
    identity,
    merge,
    multiply,
    range_projection,
)
from diagcalc.presentations import (
    derived_word,
    eval_word,
    factor_product,
    standard_assignment,
    sym_cap,
    verify_presentation,
)
from test_green_reference import ref_band_type as band_type

from diagcalc.equivalences import join as eq_join
from diagcalc.equivalences import atom as eq_atom


def assert_verified(name: str, n: int) -> None:
    report = verify_presentation(name, n)
    assert report.status == "verified", (name, n, report)
    assert report.target_size == report.closure_size == report.enumerated_size


def test_c1_singular_presentation():
    for n in (2, 3, 4):
        assert_verified("sing-xr", n)
    print("C1 PASS — sing-xr presents the singular full-domain monoid at n=2,3,4")


def test_c2_full_domain_presentation():
    for n in (2, 3, 4):
        assert_verified("full-yq", n)
    print("C2 PASS — full-yq presents the full-domain monoid at n=2,3,4")


def test_c3_planar_presentation():
    for n in (2, 3, 4, 5):
        assert_verified("planar-zo", n)
    planar = [d for d in all_diagrams(2) if d.classify().planar_full_domain]
    assert len(planar) == 4
    print("C3 PASS — planar-zo presents the planar full-domain monoid at n=2..5; |PP_2^fd|=4")


def test_c4_cap_monoid_presentation():
    for n, size in ((2, 2), (3, 5), (4, 14), (5, 42), (6, 132)):
        report = verify_presentation("dn", n)
        assert report.status == "verified", (n, report)
        assert report.target_size == size == catalan(n)
    print("C4 PASS — dn presents the cap monoid at n=2..6 with Catalan sizes 2,5,14,42,132")


def test_c5_sub_presentations():
    names = ("en", "sing-tn", "tn", "fn", "on", "planar-intermediate")
    for name in names:
        for n in (2, 3, 4):
            assert_verified(name, n)
    print("C5 PASS — " + ", ".join(names) + " all verify at n=2,3,4")


def test_c6_structure_suites():
    # Ehresmann axioms on the full partition monoid and its full-domain part
    for fam in ("pn", "pnfd"):
        reports = check_ehresmann(from_elements(3, family(fam, 3)))
        assert all(rep.holds for rep in reports), (fam, reports)

    # right restriction holds, left fails, on every full-domain carrier up to 4
    for n in (2, 3, 4):
        m = from_elements(n, family("pnfd", n))
        assert check_restriction(m, "right").holds
        assert not check_restriction(m, "left").holds

    # both laws fail on the full P_2, pinned by the hand witness
    p2 = from_elements(2, family("pn", 2))
    assert not check_restriction(p2, "right").holds
    assert not check_restriction(p2, "left").holds
    a = Diagram.from_text("[[1],[2],[-1],[-2]]")
    b = Diagram.from_text("[[1,2,-1,-2]]")
    assert multiply(a, domain_projection(b)) != multiply(
        domain_projection(multiply(a, b)), a
    )
    assert multiply(range_projection(b), a) != multiply(
        a, range_projection(multiply(b, a))
    )

    # the cap-valued range operation is lawful on planar carriers up to 4
    for n in (2, 3, 4):
        reports = check_grrac(from_elements(n, family("ppnfd", n)))
        assert all(rep.holds for rep in reports), (n, reports)

    # the cap monoid is a right regular band up to degree 6
    for n in range(2, 7):
        caps = family("dn", n)
        products = {
            (x, y): multiply(x, y) for x in caps for y in caps
        }
        assert all(products[(x, x)] == x for x in caps)
        assert all(
            multiply(products[(x, y)], x) == products[(y, x)]
            for x in caps for y in caps
        )
    report = band_type(from_elements(4, family("dn", 4)))
    assert report.band and report.right_regular and report.l_trivial

    # strong action pairs, and the planar pair that fails A1
    for pair, tops in (("en-tn", (2, 3, 4)), ("en-sing-tn", (2, 3, 4)),
                       ("dn-on", (2, 3, 4, 5))):
        for n in tops:
            rep = check_action_pair(*action_pair_elements(pair, n), pair)
            assert rep.holds, (pair, n, rep)
    rep = check_action_pair(*action_pair_elements("pen-ptn", 3), "pen-ptn")
    assert not rep.holds and rep.name == "pen-ptn-A1"
    u = Diagram.from_text("[[1,-1],[2,3,-2,-3]]")
    f = Diagram.from_text("[[1,2,-1],[3,-3],[-2]]")
    us = multiply(u, f)
    convex_projections = action_pair_elements("pen-ptn", 3)[0]
    assert all(us != multiply(f, v) for v in convex_projections)

    print("C6 PASS — Ehresmann/restriction/grrac/band/action-pair structure suites hold")


def test_c7_left_congruence_suites():
    for n in (2, 3, 4):
        reports = theta_battery(n)
        assert all(rep.holds for rep in reports), (n, reports)

    # the two cap-congruence laws again at degree 5, over the
    # order-preserving carrier
    n = 5
    on = from_elements(n, family("on", n))
    one = identity(n)
    adjacent_theta = {
        i: theta(cap_atom(n, i, i + 1), on) for i in range(1, n)
    }
    for u in family("dn", n):
        th = theta(u, on)
        assert th == principal_pair_congruence(on, one, floor_map(u.ker()))
        dividing = [
            adjacent_theta[i]
            for i in range(1, n)
            if multiply(cap_atom(n, i, i + 1), u) == u
        ]
        if dividing:
            joined = dividing[0]
            for other in dividing[1:]:
                joined = join_left_congruences(joined, other)
            assert th == joined
        else:
            assert u == one and th.class_count() == len(th.carrier)

    print("C7 PASS — theta join/principal/cap laws hold at n=2..4, cap laws again at n=5")


def test_c8_normal_forms_and_factorizations():
    # the canonical cap word evaluates to the cap, and its bricks line up
    # with the kernel intervals
    for n in range(2, 7):
        assignment = standard_assignment("dn", n)
        for eq in all_equivalences(n):
            if not eq.is_planar():
                continue
            word = cap_word(eq)
            assert eval_word(assignment, [sym_cap(i, j) for i, j in word]) == cap(eq)
            assert all(j == successor(eq, i) for i, j in word)
            segments = bricks(eq)
            assert tuple(itertools.chain.from_iterable(segments)) == word
            hull = cap_kernel(eq)
            for segment in segments:
                touched = {x for pair in segment for x in pair}
                classes = {hull.labels[x - 1] for x in touched}
                assert len(classes) == 1

    # left multiplication by an interval cap advances the cap by one join
    for n in range(2, 6):
        for eq in all_equivalences(n):
            if not eq.is_planar():
                continue
            hull = cap_kernel(eq)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                p = max(hull.class_of(i))
                q = min(hull.class_of(j))
                mu = eq if p == q else eq_join(eq, eq_atom(n, p, q))
                assert multiply(cap_atom(n, i, j), cap(eq)) == cap(mu)

    # factorizations round-trip across entire carriers
    for a in family("pnfd", 4):
        left, right = factor_product(a, "tn-en")
        assert left.classify().transformation
        assert right == range_projection(a)
        assert multiply(left, right) == a
    for a in family("ppnfd", 5):
        left, right = factor_product(a, "on-dn")
        assert left.classify().order_preserving
        assert right == cap(a.coker())
        assert multiply(left, right) == a

    # derived words hit their targets at every degree up to 5
    for n in range(2, 6):
        yq = standard_assignment("full-yq", n)
        zo = standard_assignment("planar-zo", n)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            assert eval_word(yq, derived_word("epsilon", i, j, n)) == merge(n, i, j)
            assert eval_word(yq, derived_word("tau", i, j, n)) == collapse(n, i, j)
            assert eval_word(yq, derived_word("tau", j, i, n)) == collapse(n, j, i)
            assert eval_word(zo, derived_word("alpha", i, j, n)) == cap_atom(n, i, j)
            assert eval_word(zo, derived_word("beta", i, j, n)) == cap_atom(n, i, j)

    print("C8 PASS — cap words, bricks, successor law, factorizations, derived words")


def test_c9_counting_cross_checks():
    for n in (1, 2, 3):
        assert sum(1 for _ in all_diagrams(n)) == bell(2 * n)
    assert bell(8) == 4140  # degree-4 spot check against the closed value
    for n in range(1, 6):
        assert len(family("en", n)) == bell(n)
        assert len(family("on", n)) == order_preserving_count(n)
    for n in range(1, 5):
        assert len(family("ppn", n)) == catalan(2 * n)
        assert len(family("sn", n)) == math.factorial(n)
    print("C9 PASS — Bell/Catalan/binomial/factorial counts all match the enumerations")


CANNED_RUNS = (
    (0, ["verify", "--target", "sing-xr", "--n", "3"]),
    (0, ["verify", "--target", "full-yq", "--n", "3"]),
    (0, ["verify", "--target", "planar-zo", "--n", "4"]),
    (0, ["verify", "--target", "dn", "--n", "6"]),
    (0, ["verify", "--target", "en", "--n", "4"]),
    (0, ["verify", "--target", "tn", "--n", "3"]),
    (0, ["verify", "--target", "ehresmann", "--n", "3"]),
    (1, ["verify", "--target", "restriction", "--side", "left",
         "--monoid", "pn", "--n", "2"]),
    (0, ["verify", "--target", "grrac", "--n", "4"]),
    (0, ["verify", "--target", "action-pair", "--monoid", "dn-on", "--n", "4"]),
    (0, ["verify", "--target", "theta-laws", "--n", "3"]),
    (0, ["enumerate", "--monoid", "pnfd", "--n", "3", "--format", "json",
         "--elements"]),
    (0, ["enumerate", "--monoid", "dn", "--n", "4", "--format", "dot"]),
    (0, ["factorize", "[[1,2,3,4,5,-1],[-2,-5],[-3,-4]]", "--mode", "on-dn",
         "--check", "f_4 f_3 f_2 f_1 h_3 f_2 g_4 h_3", "--format", "json"]),
    (0, ["render", "[[1,2],[3,4,-1],[5,-5,-6],[6],[-2,-3],[-4]]"]),
)


def test_c10_byte_identical_reruns(tmp_path):
    env = dict(os.environ)
    # the children import diagcalc from this checkout, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def run_suite(tag: str) -> list[bytes]:
        outputs = []
        for pos, (expected_code, argv) in enumerate(CANNED_RUNS):
            target = tmp_path / f"{tag}-{pos}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "diagcalc", *argv, "--output", str(target)],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == expected_code, (argv, proc.stderr)
            outputs.append(target.read_bytes())
        return outputs

    first = run_suite("first")
    second = run_suite("second")
    assert first == second
    print(f"C10 PASS — {len(CANNED_RUNS)} CLI reports byte-identical across two runs")
