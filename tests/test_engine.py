import gc
import hashlib
import itertools
import random
import re
import weakref

import pytest

from diagcalc import engine, laws
from diagcalc.cli import main
from diagcalc.counting import FAMILY_COUNTS
from diagcalc.engine import (
    BudgetExceeded,
    carrier,
    cayley_dot,
    closure,
    from_elements,
)
from diagcalc.partitions import (
    FAMILY_NAMES,
    GENERATORS,
    MEMBERS,
    Diagram,
    cap_atom,
    collapse,
    domain_projection,
    family,
    identity,
    merge,
    multiply,
    range_cap,
    range_projection,
    transposition,
)
from diagcalc.presentations import standard_assignment
from test_green_reference import ref_band_type as band_type
from test_green_reference import ref_green as green
from test_green_reference import ref_units_and_singular as units_and_singular


def s3():
    return closure(3, [transposition(3, 1), transposition(3, 2)])


def test_closure_symmetric_group():
    m = s3()
    assert len(m) == 6
    assert m.identity_index is not None
    assert m.word_for(m.elements[m.identity_index]) == ()


def test_closure_empty_generators():
    m = closure(3, [])
    assert len(m) == 1
    assert m.elements == [identity(3)]


def test_closure_semigroup_mode():
    # without the adjoined identity the singular transformations close
    # on themselves
    gens = [d for d in family("sing-tn", 3) if d.rank() == 2]
    m = closure(3, gens, monoid=False)
    assert len(m) == 21
    assert identity(3) not in m


def test_closure_reproduces_brute_force_families():
    zo = standard_assignment("planar-zo", 3)
    assert set(closure(3, list(zo.values())).elements) == set(family("ppnfd", 3))
    caps = [cap_atom(4, i, j) for i, j in itertools.combinations(range(1, 5), 2)]
    d4 = closure(4, caps)
    assert len(d4) == 14
    assert set(d4.elements) == set(family("dn", 4))


def test_closure_generator_images_idempotent():
    # both singular generating sets consist of idempotents
    for name in ("sing-xr", "planar-zo"):
        for d in standard_assignment(name, 4).values():
            assert multiply(d, d) == d


def test_closure_size_independent_of_generator_order():
    gens = list(standard_assignment("planar-zo", 3).values())
    rng = random.Random(9)
    reference = set(closure(3, gens).elements)
    for _ in range(5):
        rng.shuffle(gens)
        assert set(closure(3, gens).elements) == reference


def test_closure_budget():
    with pytest.raises(BudgetExceeded):
        closure(3, [transposition(3, 1), transposition(3, 2)], budget=3)


@pytest.mark.parametrize("budget,error", [
    (0, ValueError), (-1, ValueError), (True, TypeError), (False, TypeError),
    (2.5, TypeError), ("5", TypeError), (None, TypeError),
])
def test_closure_and_action_pair_reject_a_bad_budget(budget, error):
    # the checks and messages of ``presentations.enumerate_presented``
    message = "budget must be at least 1" if error is ValueError else "budget must be an int"
    with pytest.raises(error, match=message):
        closure(3, [merge(3, 1, 2)], budget=budget)
    u, s = laws.action_pair_elements("dn-on", 3)
    with pytest.raises(error, match=message):
        laws.check_action_pair(u, s, "dn-on", budget=budget)


def test_rep_words_evaluate():
    m = closure(3, list(standard_assignment("tn", 3).values()))
    gens = [m.elements[k] for k in m.generators]
    for d in m.elements:
        value = identity(3)
        for g in m.word_for(d):
            value = multiply(value, gens[g])
        assert value == d


def test_rep_words_shortlex():
    # the first word in shortlex order evaluating to each element is the
    # stored representative
    m = s3()
    gens = [m.elements[k] for k in m.generators]
    first_hit = {}
    for length in range(4):
        for word in itertools.product(range(len(gens)), repeat=length):
            value = identity(3)
            for g in word:
                value = multiply(value, gens[g])
            first_hit.setdefault(value, word)
    for d in m.elements:
        assert m.word_for(d) == first_hit[d]


def test_right_table_consistency():
    m = closure(4, list(standard_assignment("full-yq", 4).values()))
    assert len(m) == 855
    gens = [m.elements[k] for k in m.generators]
    rng = random.Random(10)
    for _ in range(10_000):
        k = rng.randrange(len(m))
        g = rng.randrange(len(gens))
        assert m.elements[m.right[k][g]] == multiply(m.elements[k], gens[g])


def test_product_method():
    m = s3()
    for i, j in itertools.product(range(len(m)), repeat=2):
        assert m.elements[m.product(i, j)] == multiply(m.elements[i], m.elements[j])


def test_from_elements_right_table_iterates_like_it_indexes():
    m = from_elements(2, family("pn", 2))
    rows = [row for row in m.right]
    assert rows == [m.right[k] for k in range(len(m))]
    assert m.right[0:2] == rows[0:2]
    gens = [m.elements[g] for g in m.generators]
    for k, row in enumerate(rows):
        assert [m.elements[x] for x in row] == [multiply(m.elements[k], g) for g in gens]


def test_from_elements_wraps():
    m = from_elements(3, family("dn", 3))
    assert len(m) == 5
    assert identity(3) in m
    for i, j in itertools.product(range(len(m)), repeat=2):
        assert m.elements[m.product(i, j)] == multiply(m.elements[i], m.elements[j])


def test_a_carrier_iterates_over_its_elements():
    m = carrier("on", 3)
    # an ambient diagram interned past the carrier is not one of them
    m.intern(transposition(3, 1))
    assert list(m) == m.elements and len(list(m)) == len(m) == 10
    assert sorted(m) == family("on", 3) and {d.labels for d in m} == set(m.index)


def test_a_closure_builds_one_diagram_per_element(monkeypatch):
    # the closure runs on label rows: no product is wrapped in a Diagram
    gens = [image for _, image in GENERATORS["pnfd"](4)[1]]
    built = [0]
    real = Diagram.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(Diagram, "__init__", counted)
    m = closure(4, gens)
    assert built[0] == len(m) == FAMILY_COUNTS["pnfd"](4)


def test_from_elements_checks_degrees():
    with pytest.raises(ValueError, match="every element must have degree 3"):
        from_elements(3, family("pnfd", 2))


@pytest.mark.parametrize("name,n,count", [
    ("pnfd", 4, 6), ("ppnfd", 5, 12), ("dn", 6, 31), ("pnfd", 5, 7),
])
def test_from_elements_greedy_generator_counts(name, n, count):
    assert len(from_elements(n, family(name, n)).generators) == count


def test_from_elements_greedy_generators_of_pnfd_three():
    # descending rank, then canonical order: each element not generated yet
    m = from_elements(3, family("pnfd", 3))
    assert [m.elements[g].text() for g in m.generators] == [
        "[[1,-1],[2,-3],[3,-2]]",
        "[[1,-2],[2,-1],[3,-3]]",
        "[[1,2,-1,-2],[3,-3]]",
        "[[1,2,-1],[3,-2,-3]]",
        "[[1,2,-1],[3,-2],[-3]]",
    ]


@pytest.mark.parametrize("build", ["from_elements", "closure"])
def test_ambient_products_and_images(build):
    # the carrier is ptn 3 (order-preserving maps) and the escapes are the
    # diagrams its law terms reach outside it: every product and image on
    # ambient indices must be the plain diagram product or operation
    n = 3
    if build == "closure":
        m = closure(n, list(standard_assignment("on", n).values()))
    else:
        m = from_elements(n, family("ptn", n))
    carrier = list(m.elements)
    outside = [merge(3, 1, 3), cap_atom(3, 1, 2), transposition(3, 1)]
    escapes = [m.intern(d) for d in outside]
    assert escapes == list(range(len(m), len(m) + 3))
    assert [m.intern(d) for d in outside] == escapes
    assert [m.diagram(k) for k in escapes] == outside
    ambient = list(range(len(m))) + escapes
    for i, j in itertools.product(ambient, repeat=2):
        assert m.diagram(m.product(i, j)) == multiply(m.diagram(i), m.diagram(j))
    for op in (domain_projection, range_projection, range_cap):
        image = m.unary(op)
        for k in ambient:
            assert m.diagram(image[k]) == op(m.diagram(k))
        assert m.unary(op) is image
    # the carrier view ignores everything interned past it
    assert len(m) == len(carrier) and m.elements == carrier
    assert m.intern(m.elements[0]) == 0
    for d in outside + [m.diagram(k) for k in range(len(m) + 3, len(m) + len(m._escapes))]:
        assert d not in m
        with pytest.raises(KeyError):
            m.word_for(d)
    assert all(row_k < len(m) for row in m.right for row_k in row)
    assert all(row_k < len(m) for row in m.left for row_k in row)


@pytest.mark.parametrize("build", [
    lambda: carrier("pnfd", 3),
    lambda: closure(3, list(standard_assignment("on", 3).values())),
    lambda: from_elements(3, family("ppnfd", 3)),
], ids=["carrier", "closure", "from_elements"])
def test_a_carrier_nobody_holds_is_freed_without_the_cycle_collector(build):
    # every memo reaches its carrier through a weak proxy; a memo that held
    # the carrier itself would make a cycle that only the collector frees
    enabled = gc.isenabled()
    gc.disable()
    try:
        m = build()
        size = len(m)
        for i in range(size):
            for j in range(size):
                m.table[i][j]
        # not full-domain, so outside each of the three carriers
        escape = m.intern(Diagram.from_text("[[1],[2,-2],[3,-3],[-1]]"))
        assert escape == size
        m.table[0][escape]
        images = m.unary(domain_projection)
        for k in range(size + 1):
            images[k]
        m.columns(range(size), range(size))
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# ``entries`` is what the law tables held after the check when every row
# walked words, keeping the products with their prefixes too; a generator's
# row now keeps only what is read, so a check that reads part of one (left
# restriction reads one entry of the last generator's) stores less
@pytest.mark.parametrize("name,check,entries", [
    ("pnfd", laws.check_ehresmann, 14_446),
    ("ppnfd", laws.check_grrac, 2_220),
    ("pnfd", lambda m: laws.check_restriction(m, "left"), 4_324),
], ids=["ehresmann-pnfd-4", "grrac-ppnfd-4", "left-restriction-pnfd-4"])
def test_generator_rows_are_read_off_the_left_table(name, check, entries):
    m = carrier(name, 4)
    check(m)
    assert sum(map(len, m.table.values())) <= entries
    size = len(m)
    for a, g in enumerate(m.generators):
        assert all(m.table[g][j] == m.left[j][a] for j in range(size))
    assert all(m.table[m.identity_index][j] == j for j in range(size))


def _columns_agree(m, rows, cols):
    # read before ``table`` is, so a column that were memoised would show
    got = m.columns(rows, cols)
    assert len(m.table) == 0
    assert got == [[m.table[i][j] for i in rows] for j in cols]


@pytest.mark.parametrize("name", FAMILY_NAMES)
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_columns_are_table_reads_on_every_family(name, n):
    m = carrier(name, n)
    everything = range(len(m))
    _columns_agree(m, everything, everything)


@pytest.mark.parametrize("pair", sorted(laws.ACTION_PAIRS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_columns_are_table_reads_on_each_joint_closure(pair, n):
    u, s = laws.action_pair_elements(pair, n)
    m = closure(n, [c.elements[g] for c in (u, s) for g in c.generators])
    everything = range(len(m))
    _columns_agree(m, everything, everything)


@pytest.mark.parametrize("name,n,seed", [("pnfd", 5, 5), ("ppnfd", 6, 6)])
def test_columns_are_table_reads_on_random_indices(name, n, seed):
    m = carrier(name, n)
    rng = random.Random(seed)
    # unsorted and with repeats, so shared and repeated words occur
    rows = [rng.randrange(len(m)) for _ in range(150)]
    cols = [rng.randrange(len(m)) for _ in range(150)] + [m.identity_index] + m.generators
    _columns_agree(m, rows, cols)


def test_columns_take_one_shot_iterators():
    m = carrier("tn", 2)
    assert m.columns(range(4), iter([1])) == [[1, 0, 3, 2]]
    assert m.columns(iter(range(4)), iter([1])) == [[1, 0, 3, 2]]


def test_columns_of_nothing_and_of_escapes():
    m = carrier("pnfd", 3)
    size = len(m)
    assert m.columns([], range(size)) == [[] for _ in range(size)]
    assert m.columns(range(size), []) == []
    escape = m.intern(Diagram.from_text("[[1],[2,-2],[3,-3],[-1]]"))
    for rows, cols in [([0, escape], [0]), ([0], [escape]), ([-1], [0]), ([0], [size + 1])]:
        with pytest.raises(ValueError):
            m.columns(rows, cols)
    assert len(m.table) == 0


def test_intern_rejects_another_degree():
    # the one degree check on the ambient, before any product or image reads it
    m = carrier("tn", 2)
    for d in (identity(3), identity(1), identity(0)):
        with pytest.raises(ValueError) as caught:
            m.intern(d)
        assert str(caught.value) == f"{d.text()} has degree {d.n}, not the carrier's degree 2"
    assert m._escapes == []
    with pytest.raises(ValueError, match="has degree 3"):
        m.unary(lambda d: identity(3))[0]


def test_word_for():
    m = s3()
    assert m.word_for(identity(3)) == ()
    with pytest.raises(KeyError):
        m.word_for(merge(3, 1, 2))
    swap13 = Diagram.from_text("[[1,-3],[2,-2],[3,-1]]")
    word = m.word_for(swap13)
    gens = [m.elements[k] for k in m.generators]
    value = identity(3)
    for g in word:
        value = multiply(value, gens[g])
    assert value == swap13


# -- Green's relations, by the references in test_green_reference -------------


def test_green_group_is_single_class():
    data = green(s3())
    assert data.counts() == {"R": 1, "L": 1, "J": 1, "H": 1}


def test_green_r_classes_of_p3():
    m = from_elements(3, family("pn", 3))
    data = green(m)
    # a R b  <=>  dom(a) = dom(b) and ker(a) = ker(b)
    keys = [(d.structure().dom, d.ker()) for d in m.elements]
    for i in range(len(m)):
        for j in range(len(m)):
            same = data.r_class_of[i] == data.r_class_of[j]
            assert same == (keys[i] == keys[j]), (
                m.elements[i].text(),
                m.elements[j].text(),
            )


def test_green_caps_l_trivial():
    m = from_elements(4, family("dn", 4))
    data = green(m)
    assert len(set(data.l_class_of)) == len(m)


def test_units_and_singular():
    m = from_elements(3, family("pnfd", 3))
    units, singular = units_and_singular(m)
    assert len(units) == 6
    assert {m.elements[k] for k in units} == set(family("sn", 3))
    assert len(singular) == 52 - 6

    planar = from_elements(3, family("ppnfd", 3))
    units, _ = units_and_singular(planar)
    assert [planar.elements[k] for k in units] == [identity(3)]

    trivial = closure(2, [])
    units, singular = units_and_singular(trivial)
    assert len(units) == 1 and singular == []


def test_band_type():
    en = band_type(from_elements(4, family("en", 4)))
    assert en.band and en.semilattice

    dn = band_type(from_elements(4, family("dn", 4)))
    assert dn.band and dn.right_regular and dn.l_trivial
    assert not dn.semilattice and not dn.left_regular

    # at degree 2 the caps are the two projections, hence commute
    assert band_type(from_elements(2, family("dn", 2))).semilattice

    assert not band_type(from_elements(2, family("tn", 2))).band


# -- graph export ----------------------------------------------------------------


# sha256 of ``cayley_dot(carrier(name, n))`` for n = 0..3 joined, as the
# per-edge-dict export wrote them
CAYLEY_DOT_SHA256 = {
    "pn": "b51c16e8eba1bfa9336f3756dee008bd78346d1f8360ecef943237fc2f4c0273",
    "pnfd": "1de1a5e33679940f1f3dc6318387837c2fc61e7ab1e355f47d3543b06e5f83a3",
    "ppn": "158bff063fe9a6b746d185d5dfef9112f04922f8cc59776fe4b3d9d1ea22221c",
    "ppnfd": "e1c1cc02fdbaf2279b830fa5d227f46ea468c9183862ac69d1652bdc94d91979",
    "tn": "24b5b74d29b812fe2202eab987c431e5e4b1d915f1036ca6e0f201e7d2067508",
    "sing-tn": "6d1dfa901df182deaeaaca7e0409a6ac5c141124d030bb01d8b3221327c50f3e",
    "ptn": "4363ffb3afd8f813894f9ff825f198b6fb000de1bacca34ddb785a54562ad1c5",
    "on": "4363ffb3afd8f813894f9ff825f198b6fb000de1bacca34ddb785a54562ad1c5",
    "sn": "77450e5d94fe18b82983475cd3c4ab405cd147cf584770d9043c6e8401da7202",
    "en": "498376d92f30a7b660c2856c2d41b0dddb71c16718d24835e03ba5eb703c42b2",
    "fn": "c03264d2c1a8942e9ea5602162564671459e01e1bae02c16658d30c5b9e06b73",
    "in": "9a0f731750c396a7a941889ca8d364b45d8cc5199736b99eb5e94c1032c9ee8f",
    "jn": "bf6fc04c77756bab1d4d6a187ec13eedf26fc6b2e370a1b22b30669cf5246d36",
    "dn": "5e48630597563138c6771acb5c3eb296d9f1299211e00aefe7609216b1fb1311",
    "pen": "7f39a6f48b09481af2d609a2d553ddf102bb831197f193c15b9b245a1df9a947",
}


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_cayley_dot_bytes_are_pinned(name):
    dot = "".join(line for n in range(4) for line in cayley_dot(carrier(name, n)))
    assert hashlib.sha256(dot.encode()).hexdigest() == CAYLEY_DOT_SHA256[name]


def test_cayley_dot_names_unnamed_generators_by_position():
    m = closure(3, [collapse(3, 1, 2), transposition(3, 1)], monoid=False)
    assert "".join(cayley_dot(m)) == (
        "digraph right_cayley {\n"
        '  n0 [label="[[1,2,-1],[3,-3],[-2]]"];\n'
        '  n1 [label="[[1,2,-2],[3,-3],[-1]]"];\n'
        '  n2 [label="[[1,-1],[2,-2],[3,-3]]"];\n'
        '  n3 [label="[[1,-2],[2,-1],[3,-3]]"];\n'
        '  n0 -> n0 [label="g0"];\n'
        '  n0 -> n1 [label="g1"];\n'
        '  n1 -> n0 [label="g0"];\n'
        '  n1 -> n0 [label="g1"];\n'
        '  n2 -> n0 [label="g0"];\n'
        '  n2 -> n3 [label="g1"];\n'
        '  n3 -> n0 [label="g0"];\n'
        '  n3 -> n2 [label="g1"];\n'
        "}\n"
    )


def test_cayley_dot_edges_are_right_products():
    images = {"f_1": collapse(2, 1, 2), "g_1": collapse(2, 2, 1)}
    m = closure(2, list(images.values()), symbols=list(images))
    lines = "".join(cayley_dot(m)).splitlines()
    nodes = [re.fullmatch(r'  n(\d+) \[label="(.*)"\];', line) for line in lines]
    edges = [re.fullmatch(r'  n(\d+) -> n(\d+) \[label="(.*)"\];', line) for line in lines]
    elements = [Diagram.from_text(node[2]) for node in nodes if node]
    assert [int(node[1]) for node in nodes if node] == list(range(len(m)))
    assert sorted(elements, key=lambda d: d.labels) == sorted(m.elements, key=lambda d: d.labels)
    edges = [edge for edge in edges if edge]
    assert len(edges) == len(m) * 2 == len(lines) - len(m) - 2
    for edge in edges:
        p, q, symbol = int(edge[1]), int(edge[2]), edge[3]
        assert multiply(elements[p], images[symbol]) == elements[q]


def test_cayley_dot_deterministic():
    m = closure(3, list(standard_assignment("dn", 3).values()),
                symbols=list(standard_assignment("dn", 3)))
    first = "".join(cayley_dot(m))
    second = "".join(cayley_dot(m))
    assert first == second
    assert first.startswith("digraph right_cayley {")
    assert first.rstrip().endswith("}")
    assert first.count(" -> ") == len(m) * len(m.generators)


# -- certified carriers -----------------------------------------------------------


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_family_is_its_certified_closure(name):
    for n in range(6):
        monoid, pairs = GENERATORS[name](n)
        m = carrier(name, n)
        assert len(m) == FAMILY_COUNTS[name](n), (name, n)
        assert m.symbols == tuple(symbol for symbol, _ in pairs), (name, n)
        assert m.generators == [m.index[image.labels] for _, image in pairs], (name, n)
        if monoid:
            assert m.elements[m.identity_index] == identity(n), (name, n)
        listed = family(name, n)
        assert all(a.labels < b.labels for a, b in zip(listed, listed[1:])), (name, n)
        assert set(listed) == set(m.elements), (name, n)
        assert all(MEMBERS[name](d.labels[:n], d.labels[n:]) for d in listed), (name, n)


def _without_t(table):
    def pnfd(n):
        monoid, pairs = table(n)
        return monoid, [pair for pair in pairs if pair[0] != "t"]

    return pnfd


def _join_for_collapse(table):
    def tn(n):  # the collapse t's image swapped for the join's
        monoid, pairs = table(n)
        return monoid, [(symbol, merge(n, 1, 2) if symbol == "t" else image)
                        for symbol, image in pairs]

    return tn


def _with_a_swap(table):
    def on(n):  # s_1 is no order-preserving map: the closure outgrows the count
        monoid, pairs = table(n)
        return monoid, [*pairs, ("s_1", transposition(n, 1))]

    return on


@pytest.mark.parametrize("name, mutated, argv", [
    ("pnfd", _without_t, ["verify", "--target", "ehresmann", "--n", "3"]),
    ("tn", _join_for_collapse, ["enumerate", "--monoid", "tn", "--n", "3", "--format", "json"]),
    ("on", _with_a_swap, ["enumerate", "--monoid", "on", "--n", "3", "--format", "dot"]),
])
def test_a_wrong_generator_table_is_an_internal_error(monkeypatch, capsys, tmp_path, name,
                                                       mutated, argv):
    monkeypatch.setitem(GENERATORS, name, mutated(GENERATORS[name]))
    with pytest.raises(RuntimeError, match=f"the generators of {name} at n=3"):
        carrier(name, 3)
    with pytest.raises(RuntimeError):
        family(name, 3)
    report = tmp_path / "report"
    assert main([*argv, "--output", str(report)]) == 4
    assert not report.exists()
    assert "internal error: RuntimeError" in capsys.readouterr().err


def test_a_carrier_over_budget_is_never_closed(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("closed a family counted past its budget")

    monkeypatch.setattr(engine, "closure", never)
    with pytest.raises(BudgetExceeded):
        carrier("pnfd", 7)  # 24,040,451 against the default 2,000,000
    with pytest.raises(BudgetExceeded):
        carrier("pn", 6)  # Bell(12) = 4,213,597
    with pytest.raises(BudgetExceeded):
        family("jn", 7)
