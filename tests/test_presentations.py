import dataclasses
import itertools
import json
import random

import pytest

from diagcalc.counting import catalan
from diagcalc.equivalences import all_equivalences, cap_word
from diagcalc.partitions import (
    Diagram,
    all_diagrams,
    cap,
    cap_atom,
    collapse,
    family,
    from_transformation,
    identity,
    merge,
    multiply,
    range_projection,
    transposition,
)
from diagcalc.presentations import (
    SCHEMA_NAMES,
    Presentation,
    apply_morphism,
    cap_lift,
    check_soundness,
    derived_word,
    enumerate_presented,
    eval_word,
    factor_product,
    hat_morphism,
    schema,
    standard_assignment,
    sym_cap,
    sym_e,
    sym_t,
    target_elements,
    verify_presentation,
)


# -- symbols and schema shapes ---------------------------------------------------


def test_symbol_spellings():
    assert sym_e(3, 1) == "e_13" == sym_e(1, 3)
    assert sym_t(3, 1) == "t_31"
    assert sym_t(1, 3) == "t_13"
    assert sym_cap(2, 5) == "h_2_5"
    with pytest.raises(ValueError):
        sym_cap(5, 2)


def test_schema_alphabets():
    assert schema("dn", 3).alphabet == ("h_1_2", "h_1_3", "h_2_3")
    assert schema("full-yq", 5).alphabet == ("s_1", "s_2", "s_3", "s_4", "e", "t")
    assert schema("sing-xr", 3).alphabet == (
        "e_12", "e_13", "e_23",
        "t_12", "t_13", "t_21", "t_23", "t_31", "t_32",
    )
    assert schema("planar-zo", 4).alphabet == (
        "f_1", "f_2", "f_3", "g_1", "g_2", "g_3", "h_1", "h_2", "h_3",
    )
    assert schema("planar-intermediate", 3).alphabet == (
        "f_1", "f_2", "g_1", "g_2", "h_1_2", "h_1_3", "h_2_3",
    )
    assert schema("tn", 4).alphabet == ("s_1", "s_2", "s_3", "t")
    assert schema("fn", 3).alphabet == ("s_1", "s_2", "e")
    assert schema("en", 3).alphabet == ("e_12", "e_13", "e_23")
    assert schema("on", 3).alphabet == ("f_1", "f_2", "g_1", "g_2")


def test_alphabet_sizes_scale():
    for n in (2, 3, 4, 5):
        pairs = n * (n - 1) // 2
        assert len(schema("sing-xr", n).alphabet) == 3 * pairs
        assert len(schema("full-yq", n).alphabet) == n + 1
        assert len(schema("dn", n).alphabet) == pairs
        assert len(schema("planar-zo", n).alphabet) == 3 * (n - 1)
        assert len(schema("planar-intermediate", n).alphabet) == 2 * (n - 1) + pairs


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_schema_well_formed(name):
    for n in (2, 3, 4):
        pres = schema(name, n)
        assert pres.kind in ("monoid", "semigroup")
        assert len(set(pres.alphabet)) == len(pres.alphabet)
        letters = set(pres.alphabet)
        for lhs, rhs in pres.relations:
            assert lhs != rhs
            assert set(lhs) <= letters and set(rhs) <= letters
            if pres.kind == "semigroup":
                assert lhs and rhs


def test_schema_rejects_bad_arguments():
    with pytest.raises(ValueError):
        schema("dn", 1)
    with pytest.raises(ValueError):
        schema("nope", 3)
    with pytest.raises(ValueError):
        target_elements("nope", 3)
    with pytest.raises(ValueError):
        target_elements("dn", 0)


def test_presentation_to_dict_is_json_ready():
    pres = schema("dn", 3)
    blob = json.dumps(pres.to_dict())
    back = json.loads(blob)
    assert back["name"] == "dn" and back["n"] == 3 and back["kind"] == "monoid"
    assert back["alphabet"] == ["h_1_2", "h_1_3", "h_2_3"]
    assert all(len(rel) == 2 for rel in back["relations"])


# -- standard assignments ---------------------------------------------------------


def test_assignment_matches_alphabet():
    for name in SCHEMA_NAMES:
        for n in (2, 3, 4):
            pres = schema(name, n)
            asg = standard_assignment(name, n)
            assert tuple(asg) == pres.alphabet
            assert all(d.n == n for d in asg.values())


def test_assignment_frozen_values():
    xr = standard_assignment("sing-xr", 3)
    assert xr["t_12"].text() == "[[1,2,-1],[3,-3],[-2]]"
    assert xr["e_12"].text() == "[[1,2,-1,-2],[3,-3]]"

    yq = standard_assignment("full-yq", 4)
    assert yq["s_2"] == transposition(4, 2)
    assert yq["e"] == merge(4, 1, 2)
    assert yq["t"] == collapse(4, 1, 2)

    zo = standard_assignment("planar-zo", 3)
    assert zo["h_1"].text() == "[[1,2,-1,-2],[3,-3]]"
    assert zo["f_2"].text() == "[[1,-1],[2,3,-2],[-3]]"
    assert zo["g_2"].text() == "[[1,-1],[2,3,-3],[-2]]"

    dn = standard_assignment("dn", 3)
    assert dn["h_1_3"].text() == "[[1,2,3,-1,-3],[-2]]"
    assert dn["h_1_2"] == merge(3, 1, 2)


# -- word evaluation ---------------------------------------------------------------


def test_eval_word_basics():
    asg = standard_assignment("planar-zo", 3)
    assert eval_word(asg, []) == identity(3)
    assert eval_word(asg, ["h_1", "g_2"]) == cap_atom(3, 1, 3)
    with pytest.raises(KeyError):
        eval_word(asg, ["h_9"])


def test_eval_word_goes_left_to_right():
    asg = standard_assignment("on", 3)
    expected = multiply(asg["f_1"], asg["g_2"])
    assert eval_word(asg, ["f_1", "g_2"]) == expected
    assert eval_word(asg, ["g_2", "f_1"]) == multiply(asg["g_2"], asg["f_1"])
    assert expected != multiply(asg["g_2"], asg["f_1"])


# -- soundness ---------------------------------------------------------------------


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_relations_hold_under_assignment(name):
    tops = {"dn": 6, "planar-zo": 6}
    for n in range(2, tops.get(name, 5) + 1):
        pres = schema(name, n)
        rep = check_soundness(pres, standard_assignment(name, n))
        assert rep.holds, rep
        assert rep.counts == {
            "relations": len(pres.relations),
            "checked": len(pres.relations),
        }


def test_soundness_catches_a_broken_relation():
    pres = schema("on", 3)
    bad = (("f_1", "g_2"), ("g_2",))
    mutated = dataclasses.replace(pres, relations=pres.relations + (bad,))
    rep = check_soundness(mutated, standard_assignment("on", 3))
    assert not rep.holds
    assert rep.name == "soundness:on:n=3"
    assert rep.witness == (
        "f_1 g_2",
        "g_2",
        "[[1,2,-1],[3,-3],[-2]]",
        "[[1,-1],[2,3,-3],[-2]]",
    )
    assert rep.counts["checked"] == len(mutated.relations)


def test_soundness_prints_empty_side_as_one():
    pres = Presentation("adhoc", 2, "monoid", ("a",), ((("a",), ()),))
    rep = check_soundness(pres, {"a": merge(2, 1, 2)})
    assert not rep.holds
    assert rep.witness[:2] == ("a", "1")


def ref_check_soundness(pres, assignment):
    """The soundness loop that prefix sharing replaced: every side of every
    relation multiplied out from the identity on its own."""
    checked = 0
    for lhs, rhs in pres.relations:
        checked += 1
        left = eval_word(assignment, lhs)
        right = eval_word(assignment, rhs)
        if left != right:
            witness = (" ".join(lhs) or "1", " ".join(rhs) or "1", left.text(), right.text())
            return False, witness, checked
    return True, None, checked


@pytest.mark.parametrize("n", range(2, 5))
def test_soundness_matches_reference(n):
    rng = random.Random(n)
    for name in SCHEMA_NAMES:
        pres, assignment = schema(name, n), standard_assignment(name, n)
        # the standard images, and the same images dealt to the wrong symbols
        dealt = list(assignment.values())
        rng.shuffle(dealt)
        for images in (assignment, dict(zip(assignment, dealt))):
            rep = check_soundness(pres, images)
            holds, witness, checked = ref_check_soundness(pres, images)
            assert (rep.holds, rep.witness, rep.counts["checked"]) == (holds, witness, checked)
            assert rep.counts["relations"] == len(pres.relations)


# -- concrete targets ---------------------------------------------------------------


# The list-building ``target_elements`` that the counted target replaced,
# kept as the oracle: each schema's model filtered out of ``family()``.
REF_TARGET_FAMILIES = {
    "sing-xr": "pnfd",
    "full-yq": "pnfd",
    "planar-zo": "ppnfd",
    "planar-intermediate": "ppnfd",
}


def ref_target_elements(name: str, n: int) -> list[Diagram]:
    out = family(REF_TARGET_FAMILIES.get(name, name), n)
    if name == "sing-xr":
        units = set(family("sn", n))
        out = [d for d in out if d not in units]
    return out


# Each schema's model read off ``classify()``, for degrees where listing
# ``family()`` would scan too many diagrams.
REF_MEMBERSHIP = {
    "sing-xr": lambda m: m.full_domain and not m.permutation,
    "full-yq": lambda m: m.full_domain,
    "planar-zo": lambda m: m.planar_full_domain,
    "dn": lambda m: m.cap,
    "en": lambda m: m.projection,
    "sing-tn": lambda m: m.transformation and not m.permutation,
    "tn": lambda m: m.transformation,
    "fn": lambda m: m.uniform_block_bijection,
    "on": lambda m: m.order_preserving,
    "planar-intermediate": lambda m: m.planar_full_domain,
}


def test_target_elements_match_families():
    assert set(REF_MEMBERSHIP) == set(SCHEMA_NAMES)
    for name, n in itertools.product(SCHEMA_NAMES, range(2, 6)):
        target = target_elements(name, n)
        model = ref_target_elements(name, n)
        assert len(target) == len(model), (name, n)
        assert all(d in target for d in model), (name, n)
    assert len(target_elements("sing-xr", 3)) == 46


@pytest.mark.parametrize("n", range(2, 5))
def test_target_membership_exhaustive(n):
    everything = list(all_diagrams(n))
    for name in SCHEMA_NAMES:
        target, model = target_elements(name, n), set(ref_target_elements(name, n))
        assert [d for d in everything if d in target] == sorted(model), (name, n)


def _random_candidates(rng: random.Random, name: str, n: int):
    # random labels reach few members, so add random generator words (all
    # members) and random maps, order-preserving ones and permutations
    images = list(standard_assignment(name, n).values())
    for _ in range(100):
        blocks = rng.randint(1, 2 * n)
        yield Diagram(n, [rng.randrange(blocks) for _ in range(2 * n)])
        d = rng.choice(images)
        for _ in range(rng.randrange(12)):
            d = multiply(d, rng.choice(images))
        yield d
        maps = [rng.randint(1, n) for _ in range(n)]
        yield from_transformation(maps)
        yield from_transformation(sorted(maps))
        yield from_transformation(rng.sample(range(1, n + 1), n))


@pytest.mark.parametrize("n", [5, 6])
def test_target_membership_random(n):
    for name in SCHEMA_NAMES:
        target, keep = target_elements(name, n), REF_MEMBERSHIP[name]
        hits = 0
        for d in _random_candidates(random.Random(f"{name}-{n}"), name, n):
            assert (d in target) == keep(d.classify()), (name, d)
            hits += d in target
        assert hits >= 100, name


def test_target_is_counted_without_listing_diagrams(monkeypatch):
    import diagcalc.partitions as partitions
    import diagcalc.presentations as presentations

    def never(*args, **kwargs):
        raise AssertionError("the target listed diagrams")

    for module in (partitions, presentations):
        for name in ("all_diagrams", "family"):
            monkeypatch.setattr(module, name, never, raising=False)
    # full-yq 6 presents Pnfd(6): Bell(12) = 4,213,597 candidate diagrams
    rep = verify_presentation("full-yq", 6, budget=100)
    assert rep.status == "exhausted" and rep.target_size == 614866
    assert len(target_elements("planar-zo", 6)) == 3808
    assert identity(5) not in target_elements("tn", 6)


def test_generation_checks_membership_not_only_size(monkeypatch):
    import diagcalc.presentations as presentations

    # dn's count with a membership test that only the identity passes: the
    # closure has the right size but is not the model
    def only_identity(up, lo):
        return up == lo == tuple(range(len(up)))

    monkeypatch.setitem(presentations._TARGETS, "dn", (catalan, only_identity))
    rep = verify_presentation("dn", 3)
    assert rep.status == "refuted" and rep.sound
    assert rep.target_size == rep.closure_size == 5 and rep.enumerated_size is None


# -- exact enumeration ---------------------------------------------------------------


def test_enumerate_small_monoids():
    out = enumerate_presented(schema("dn", 3))
    assert out.status == "completed"
    assert out.size == 5
    assert len(out.table) == 5
    assert out.node_budget_used >= 5

    assert enumerate_presented(schema("planar-zo", 2)).size == 4
    assert enumerate_presented(schema("on", 3)).size == 10


def test_enumerate_semigroup_discounts_the_root():
    out = enumerate_presented(schema("sing-tn", 2))
    assert out.status == "completed"
    assert out.size == 2
    assert len(out.table) == 3


def test_enumerate_trivial_quotient():
    pres = Presentation("adhoc", 2, "monoid", ("a",), ((("a",), ()),))
    out = enumerate_presented(pres)
    assert out.status == "completed" and out.size == 1


def test_enumerate_respects_budget():
    out = enumerate_presented(schema("tn", 3), budget=5)
    assert out.status == "exhausted"
    assert out.size is None and out.table is None
    assert out.node_budget_used >= 5


def assert_table_satisfies_relations(pres, out):
    assert out.status == "completed"
    assert len(out.table) == out.size + (pres.kind == "semigroup")
    index = {symbol: k for k, symbol in enumerate(pres.alphabet)}

    def trace(node, word):
        for symbol in word:
            node = out.table[node][index[symbol]]
        return node

    for node in range(len(out.table)):
        for lhs, rhs in pres.relations:
            assert trace(node, lhs) == trace(node, rhs)
    # every node is reachable from the empty word
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for succ in out.table[node]:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    assert seen == set(range(len(out.table)))


@pytest.mark.parametrize("name,n", [("dn", 3), ("on", 3), ("sing-tn", 2), ("full-yq", 3)])
def test_completed_table_satisfies_all_relations(name, n):
    pres = schema(name, n)
    assert_table_satisfies_relations(pres, enumerate_presented(pres))


def _adhoc(kind, alphabet, *relations):
    return Presentation("adhoc", 2, kind, tuple(alphabet), tuple(
        (tuple(lhs), tuple(rhs)) for lhs, rhs in relations
    ))


@pytest.mark.parametrize("pres,size", [
    # w = 1 with |w| >= 2: the cyclic group of order 3, and the Klein group
    (_adhoc("monoid", "a", ("aaa", "")), 3),
    (_adhoc("monoid", "ab", ("aa", ""), ("", "bb"), ("abab", "")), 4),
    # identical sides, before and after a real relation
    (_adhoc("monoid", "a", ("aa", "aa"), ("aaa", "a"), ("", "")), 3),
    # a duplicated relation, once with its sides swapped
    (_adhoc("monoid", "a", ("aaa", "a"), ("aaa", "a"), ("a", "aaa")), 3),
    # two sides sharing the prefix aaaa: they force ab = a in {1, a, b, ab}
    (_adhoc("monoid", "ab", ("aa", "a"), ("bb", "b"), ("ab", "ba"), ("aaaab", "aaaaa")), 3),
    # semigroups: the root row is not an element
    (_adhoc("semigroup", "a", ("aaa", "a")), 2),
    (_adhoc("semigroup", "ab", ("aa", "a"), ("bb", "b"), ("ab", "b"), ("ba", "a")), 2),
], ids=["cyclic", "klein", "identical-sides", "duplicated", "shared-prefix",
        "semigroup-monogenic", "semigroup-right-zero"])
def test_enumerate_closing_edge_cases(pres, size):
    out = enumerate_presented(pres)
    assert out.size == size
    assert_table_satisfies_relations(pres, out)


# -- end-to-end verification -----------------------------------------------------------


def test_verify_presentation_dn4():
    rep = verify_presentation("dn", 4)
    assert rep.verified and rep.status == "verified"
    assert rep.sound
    assert rep.target_size == rep.closure_size == rep.enumerated_size == 14
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["status"] == "verified" and blob["target_size"] == 14


def test_verify_presentation_sing_xr3():
    rep = verify_presentation("sing-xr", 3)
    assert rep.verified
    assert rep.target_size == 46


def test_verify_presentation_full_yq3():
    rep = verify_presentation("full-yq", 3)
    assert rep.verified
    assert rep.target_size == 52


def test_verify_presentation_budget_exhaustion():
    rep = verify_presentation("full-yq", 4, budget=10)
    assert rep.status == "exhausted"
    assert not rep.verified
    assert rep.enumerated_size is None


# -- derived words ------------------------------------------------------------------


def test_derived_word_frozen_examples():
    assert derived_word("c", 1, 2, 4) == ()
    assert derived_word("epsilon", 1, 2, 4) == ("e",)
    assert derived_word("tau", 2, 1, 4) == ("t", "s_1")
    assert derived_word("alpha", 1, 3, 4) == ("h_1", "g_2")
    assert derived_word("beta", 1, 3, 4) == ("h_2", "f_1")
    assert derived_word("c", 2, 4, 5) == ("s_2", "s_3", "s_1")


def test_derived_word_rejects_bad_input():
    for kind in ("c", "alpha", "beta"):
        with pytest.raises(ValueError):
            derived_word(kind, 3, 2, 4)
    with pytest.raises(ValueError):
        derived_word("epsilon", 2, 2, 4)
    with pytest.raises(ValueError):
        derived_word("tau", 0, 2, 4)
    with pytest.raises(ValueError):
        derived_word("alpha", 1, 5, 4)
    with pytest.raises(ValueError):
        derived_word("bogus", 1, 2, 4)


def test_conjugated_words_evaluate_correctly():
    for n in range(2, 6):
        asg = standard_assignment("full-yq", n)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            assert eval_word(asg, derived_word("epsilon", i, j, n)) == merge(n, i, j)
            assert eval_word(asg, derived_word("tau", i, j, n)) == collapse(n, i, j)
            assert eval_word(asg, derived_word("tau", j, i, n)) == collapse(n, j, i)


def test_cap_words_evaluate_correctly():
    for n in range(2, 6):
        asg = standard_assignment("planar-zo", n)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            alpha = derived_word("alpha", i, j, n)
            beta = derived_word("beta", i, j, n)
            assert eval_word(asg, alpha) == cap_atom(n, i, j)
            assert eval_word(asg, beta) == cap_atom(n, i, j)
            if j == i + 1:
                assert alpha == beta == (f"h_{i}",)


def test_hat_morphism_letters():
    for n in (2, 3, 4):
        hat = hat_morphism(n)
        yq = standard_assignment("full-yq", n)
        xr = standard_assignment("sing-xr", n)
        assert set(hat) == set(xr)
        for symbol, image in xr.items():
            assert eval_word(yq, hat[symbol]) == image


def test_hat_morphism_random_words():
    rng = random.Random(20240817)
    for n in (3, 4):
        hat = hat_morphism(n)
        yq = standard_assignment("full-yq", n)
        xr = standard_assignment("sing-xr", n)
        letters = list(xr)
        for _ in range(50):
            word = [rng.choice(letters) for _ in range(rng.randint(1, 6))]
            lifted = apply_morphism(word, hat)
            assert eval_word(yq, lifted) == eval_word(xr, word)


def test_cap_lift_replays_cap_words():
    for n in range(2, 6):
        lift = cap_lift(n)
        dn = standard_assignment("dn", n)
        zo = standard_assignment("planar-zo", n)
        for eq in all_equivalences(n):
            if not eq.is_planar():
                continue
            word = tuple(sym_cap(i, j) for i, j in cap_word(eq))
            assert eval_word(dn, word) == cap(eq)
            assert eval_word(zo, apply_morphism(word, lift)) == cap(eq)


# -- interval caps against adjacent collapses -----------------------------------------


def cap_or_identity(n, i, j):
    return identity(n) if i == j else cap_atom(n, i, j)


def test_cap_collapse_commutation_cases():
    for n in range(2, 6):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            h = cap_atom(n, i, j)
            for k in range(1, n):
                f = collapse(n, k, k + 1)
                if k == i - 1:
                    expected = multiply(f, cap_or_identity(n, i - 1, j))
                elif k == j - 1:
                    expected = multiply(f, cap_or_identity(n, i, j - 1))
                else:
                    expected = multiply(f, h)
                assert multiply(h, f) == expected

                g = collapse(n, k + 1, k)
                if k == i:
                    expected = multiply(g, cap_or_identity(n, i + 1, j))
                elif k == j:
                    expected = multiply(g, cap_or_identity(n, i, j + 1))
                else:
                    expected = multiply(g, h)
                assert multiply(h, g) == expected


def test_adjacent_cap_left_divisibility():
    # the elements of the cap monoid fixed by left multiplication with an
    # adjacent cap are exactly its left multiples
    for n in range(2, 6):
        caps = family("dn", n)
        for i in range(1, n):
            h = cap_atom(n, i, i + 1)
            fixed = {u for u in caps if multiply(h, u) == u}
            assert fixed == {multiply(h, u) for u in caps}


# -- factorizations -----------------------------------------------------------------


def test_factor_identity():
    for mode in ("tn-en", "on-dn"):
        left, right = factor_product(identity(3), mode)
        assert left == right == identity(3)


def test_factor_worked_example():
    a = Diagram.from_text("[[1,2,3,4,5,-1],[-2,-5],[-3,-4]]")
    f, d = factor_product(a, "on-dn")
    assert f == from_transformation((1, 1, 1, 1, 1))
    assert d.text() == "[[1,-1],[2,3,4,5,-2,-5],[-3,-4]]"
    assert multiply(f, d) == a
    assert d == cap(a.coker())
    assert f.classify().order_preserving


def test_factor_round_trips():
    for a in family("pnfd", 3):
        b, u = factor_product(a, "tn-en")
        assert b.classify().transformation
        assert u == range_projection(a)
        assert multiply(b, u) == a
    for a in family("ppnfd", 4):
        f, d = factor_product(a, "on-dn")
        assert f.classify().order_preserving
        assert d.classify().cap
        assert multiply(f, d) == a


def test_factor_rejects_bad_input():
    partial = Diagram.from_text("[[1],[2,-1,-2]]")
    for mode in ("tn-en", "on-dn"):
        with pytest.raises(ValueError):
            factor_product(partial, mode)
    crossing = transposition(2, 1)
    with pytest.raises(ValueError):
        factor_product(crossing, "on-dn")
    assert factor_product(crossing, "tn-en") == (crossing, identity(2))
    with pytest.raises(ValueError):
        factor_product(identity(2), "dn-on")
