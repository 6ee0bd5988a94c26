import hashlib
import itertools
import json
import random
import re

import pytest

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
from diagcalc import partitions, presentations
from diagcalc.presentations import (
    SCHEMA_NAMES,
    Presentation,
    Word,
    check_soundness,
    derived_word,
    enumerate_presented,
    eval_word,
    factor_product,
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


@pytest.mark.parametrize("n", range(2, 13))
def test_symbols_are_distinct_past_one_digit(n):
    # an index of two digits is set off: t(1, 11) and t(11, 1) once both
    # printed as t_111, and the assignment kept one image for the two
    assert (sym_t(1, 11), sym_t(11, 1), sym_e(12, 1)) == ("t_1_11", "t_11_1", "e_1_12")
    for name in SCHEMA_NAMES:
        alphabet = schema(name, n).alphabet
        assert len(set(alphabet)) == len(alphabet), name
    for name in partitions.FAMILY_NAMES:
        symbols = [symbol for symbol, _ in partitions.GENERATORS[name](n)[1]]
        assert len(set(symbols)) == len(symbols), name


def test_sing_tn_at_eleven_is_not_refuted():
    # with t_111 read for two letters, soundness failed: t_111 t_211 = t_111
    rep = verify_presentation("sing-tn", 11, budget=1000)
    assert rep.status == "exhausted" and rep.sound and rep.witness is None


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


# sha256 of ``[schema(name, n).to_dict(), image texts]`` for n = 2..6, first
# 16 hex digits: the alphabets, relations in order, kinds and images
SCHEMA_DIGESTS = {
    "sing-xr": (
        "1731af73b35ace76", "a04cf2996597ef8d", "db85b86f881f9ac7",
        "4069ac71db46f356", "f06bfc4f68b62c8a",
    ),
    "full-yq": (
        "6073fa5778f27090", "c0e024239d852cc1", "fa75409f39ab01fc",
        "b522ef90472280f1", "7bcadf9dce0a261a",
    ),
    "planar-zo": (
        "1678e6aef2612156", "6f8ddd79a063c351", "1f4ed15fa1649573",
        "3d8c5c8eaac9f2a9", "b7e23e762032e507",
    ),
    "dn": (
        "5b9dcecb5e19a3f7", "f238b3ca493a50f4", "1fb5819c523192fc",
        "18bc86ae45e3cda4", "673d87df8bd690db",
    ),
    "en": (
        "c332c5eaec53e1c2", "822a898ede8e087d", "461ffc27a4befe7c",
        "68858aecd8db47bc", "a1ea30d3e75e21df",
    ),
    "sing-tn": (
        "9e057c01741f5dec", "0dc1fe36e8be229f", "6398a93f545f2157",
        "2dd244611a75fb85", "d3991501ca1b47e0",
    ),
    "tn": (
        "ab1848f68b453da8", "82679f3664340e43", "f410051ee2a3ef32",
        "efeb1cd7e67321d9", "20c87e2f07cf7836",
    ),
    "fn": (
        "6f11858b359435d6", "f42d732ebc6a04c2", "c7031451c712edcb",
        "9060dbb459340288", "0e82800d10e09c47",
    ),
    "on": (
        "053ffdb346e74d79", "6349fc4c7ed87252", "29d4a84deef17148",
        "3a83f9b00db15cea", "6f81462ceb478102",
    ),
    "planar-intermediate": (
        "438fc660bd808289", "d44045127d3a3038", "aa48f501a714182b",
        "1a90f3dc8fc2e448", "37ff89d50892b0f2",
    ),
}


def schema_digest(pres: Presentation) -> str:
    payload = json.dumps([pres.to_dict(), [d.text() for d in pres.images]], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_schemas_are_pinned(name):
    assert tuple(schema_digest(schema(name, n)) for n in range(2, 7)) == SCHEMA_DIGESTS[name]


def test_images_stay_out_of_the_presentation_value():
    pres = schema("dn", 3)
    assert len(pres.images) == len(pres.alphabet)
    assert "images" not in pres.to_dict() and "images" not in repr(pres)
    bare = Presentation(pres.name, pres.n, pres.kind, pres.alphabet, pres.relations)
    assert bare == pres and bare.images == ()


def test_verify_builds_its_schema_once(monkeypatch):
    calls = []
    build = presentations._BUILDERS["dn"]

    def counted(n):
        calls.append(n)
        return build(n)

    monkeypatch.setitem(presentations._BUILDERS, "dn", counted)
    assert verify_presentation("dn", 4).verified
    assert calls == [4]


# -- standard assignments ---------------------------------------------------------


def test_assignment_matches_alphabet():
    for name in SCHEMA_NAMES:
        for n in (2, 3, 4):
            pres = schema(name, n)
            asg = standard_assignment(name, n)
            assert tuple(asg) == pres.alphabet
            assert tuple(asg.values()) == pres.images
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


@pytest.mark.parametrize("word", [[], ["a"]])
def test_eval_word_names_an_empty_assignment(word):
    with pytest.raises(ValueError, match="nonempty assignment"):
        eval_word({}, word)


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
    mutated = Presentation(pres.name, pres.n, pres.kind, pres.alphabet,
                           pres.relations + (bad,), pres.images)
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


def test_soundness_refuses_an_image_of_another_degree():
    pres = Presentation("adhoc", 2, "monoid", ("a", "b"), ((("a",), ("a", "a")),))
    with pytest.raises(ValueError, match="degrees must match, got 2 and 3"):
        check_soundness(pres, {"a": merge(3, 1, 2), "b": merge(2, 1, 2)})
    # an image no relation uses is never multiplied
    assert check_soundness(pres, {"a": merge(2, 1, 2), "b": merge(3, 1, 2)}).holds


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


@pytest.mark.parametrize("name,n", [("full-yq", 4), ("sing-xr", 3)])
def test_soundness_multiplies_each_distinct_prefix_once(monkeypatch, name, n):
    # counts applications of the images' row maps, on label rows
    applied = []
    plain_rows = partitions.multiply_rows

    def counting_rows(g):
        by = plain_rows(g)

        def times(x):
            applied.append(1)
            return by(x)

        return times

    monkeypatch.setattr(partitions, "multiply_rows", counting_rows)
    pres, assignment = schema(name, n), standard_assignment(name, n)
    built = []
    plain_init = Diagram.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        plain_init(self, *args, **kwargs)

    monkeypatch.setattr(Diagram, "__init__", counting_init)
    rep = check_soundness(pres, assignment)
    assert rep.holds
    sides = [side for relation in pres.relations for side in relation]
    prefixes = {side[:k] for side in sides for k in range(1, len(side) + 1)}
    # the sides share prefixes, so multiplying each side out on its own
    # would apply more maps than there are distinct prefixes
    assert len(prefixes) < sum(map(len, sides))
    assert len(applied) == len(prefixes)
    # a holding check builds no diagram
    assert built == []


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
    import diagcalc.partitions as partitions

    # dn's count with a membership test that only the identity passes: the
    # closure has the right size but is not the model
    def only_identity(up, lo):
        return up == lo == tuple(range(len(up)))

    monkeypatch.setitem(partitions.MEMBERS, "dn", only_identity)
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


@pytest.mark.parametrize("pres,message", [
    (_adhoc("monoid", "a", ("ab", "a")), "relation symbol 'b' is not in the alphabet"),
    (_adhoc("monoid", "aa", ("aa", "a")), "alphabet symbols must be distinct"),
    (_adhoc("group", "a", ("aa", "")), "kind must be 'monoid' or 'semigroup', got 'group'"),
], ids=["unknown-symbol", "repeated-symbol", "unknown-kind"])
def test_enumerate_rejects_a_malformed_presentation(pres, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        enumerate_presented(pres)


@pytest.mark.parametrize("budget,error", [
    (0, ValueError), (-1, ValueError), (True, TypeError), (False, TypeError),
    (5.0, TypeError), ("5", TypeError), (None, TypeError),
])
def test_enumerate_and_verify_reject_a_bad_budget(budget, error):
    message = "budget must be at least 1" if error is ValueError else "budget must be an int"
    with pytest.raises(error, match=message):
        enumerate_presented(schema("dn", 3), budget=budget)
    with pytest.raises(error, match=message):
        verify_presentation("dn", 3, budget=budget)


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


@pytest.mark.parametrize("name,n,nodes", [
    ("sing-xr", 4, 11_785), ("tn", 5, 11_198), ("dn", 7, 986), ("full-yq", 4, 4_692),
    ("planar-zo", 4, 147), ("planar-intermediate", 4, 281), ("sing-tn", 4, 704), ("on", 6, 837),
    ("en", 5, 99),
])
def test_node_budget_used_is_pinned(name, n, nodes):
    # node_budget_used is part of the report bytes: the enumeration must
    # keep allocating exactly these many nodes
    rep = verify_presentation(name, n)
    assert rep.verified and rep.node_budget_used == nodes


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


def hat_morphism(n: int) -> dict[str, Word]:
    """Rewrites each pairwise symbol as a word over the swap alphabet.

    Maps e_ij to its conjugated join and t_ij to its conjugated collapse,
    so that any word over the pairwise alphabet can be replayed through
    ``schema("full-yq", n)``.
    """
    out: dict[str, Word] = {}
    for a, b in itertools.combinations(range(1, n + 1), 2):
        out[sym_e(a, b)] = derived_word("epsilon", a, b, n)
    for a, b in itertools.permutations(range(1, n + 1), 2):
        out[sym_t(a, b)] = derived_word("tau", a, b, n)
    return out


def apply_morphism(word, mapping: dict[str, Word]) -> Word:
    """Concatenate the images of each letter of ``word`` under ``mapping``."""
    out: list[str] = []
    for symbol in word:
        out.extend(mapping[symbol])
    return tuple(out)


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
    # each interval cap lifts to its ``alpha`` word over the planar alphabet
    for n in range(2, 6):
        dn = standard_assignment("dn", n)
        zo = standard_assignment("planar-zo", n)
        for eq in all_equivalences(n):
            if not eq.is_planar():
                continue
            spans = cap_word(eq)
            word = tuple(sym_cap(i, j) for i, j in spans)
            lifted = tuple(x for i, j in spans for x in derived_word("alpha", i, j, n))
            assert eval_word(dn, word) == cap(eq)
            assert eval_word(zo, lifted) == cap(eq)


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
