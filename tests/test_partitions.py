import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import diagcalc
from diagcalc.counting import bell, catalan, order_preserving_count
from diagcalc.equivalences import (
    Equivalence,
    all_equivalences,
    atom,
    cap_kernel,
    diagonal,
    join,
    successor,
)
from diagcalc.partitions import (
    FAMILY_NAMES,
    Diagram,
    all_diagrams,
    cap,
    cap_atom,
    collapse,
    embed,
    family,
    floor_map,
    from_transformation,
    identity,
    merge,
    multiply,
    transposition,
)

# Two hand-checked degree-6 partitions: A6 has a crossing, B6 is planar,
# and their product was worked out on paper via the three-row graph.
A6 = Diagram.from_text("[[1,4],[2,3,-4,-5],[5,6],[-1,-2,-6],[-3]]")
B6 = Diagram.from_text("[[1,2],[3,4,-1],[5,-5,-6],[6],[-2,-3],[-4]]")
A6_TIMES_B6 = "[[1,4],[2,3,-1,-5,-6],[5,6],[-2,-3],[-4]]"


def canonical_ok(d: Diagram) -> bool:
    """Re-check the representation invariants from the outside."""
    if len(d.labels) != 2 * d.n:
        return False
    seen: list[int] = []
    for label in d.labels:
        if label == len(seen):
            seen.append(label)
        elif label > len(seen):
            return False
    return len(seen) == (max(d.labels) + 1 if d.labels else 0)


def random_diagram(rng: random.Random, n: int) -> Diagram:
    return Diagram(n, [rng.randint(0, 2 * n - 1) for _ in range(2 * n)])


# -- parsing and formatting -------------------------------------------------


def test_parse_examples():
    assert A6.blocks()[0] == (1, 4)
    assert Diagram.from_text("[[1,-1],[2,-2]]") == identity(2)
    assert Diagram.from_text(" [ [1, -1] , [2 , -2] ] ") == identity(2)


def test_parse_errors():
    with pytest.raises(ValueError):
        Diagram.from_text("[[1,2],[1,-1]]")  # vertex 1 repeated
    with pytest.raises(ValueError):
        Diagram.from_blocks(2, [[1, 2, -1]])  # vertex -2 missing
    with pytest.raises(ValueError):
        Diagram.from_blocks(2, [[1, 2, 3, -1, -2]])  # out of range
    with pytest.raises(ValueError):
        Diagram.from_text("[[1,0,-1]]")


def test_format_round_trip():
    assert identity(2).text() == "[[1,-1],[2,-2]]"
    assert A6.text() == "[[1,4],[2,3,-4,-5],[5,6],[-1,-2,-6],[-3]]"
    rng = random.Random(1)
    for _ in range(1000):
        d = random_diagram(rng, rng.randint(1, 6))
        assert Diagram.from_text(d.text()) == d


# -- multiplication ----------------------------------------------------------


def test_multiply_worked_example():
    assert multiply(A6, B6).text() == A6_TIMES_B6


def test_multiply_identity():
    rng = random.Random(2)
    for _ in range(100):
        d = random_diagram(rng, rng.randint(1, 6))
        assert multiply(d, identity(d.n)) == d
        assert multiply(identity(d.n), d) == d


def test_merge_absorbs_collapse():
    # merging 1,2 and then collapsing 2 onto 1 is just the collapse
    assert multiply(merge(3, 1, 2), collapse(3, 1, 2)) == collapse(3, 1, 2)


def test_degree_mismatch():
    with pytest.raises(ValueError):
        multiply(identity(2), identity(3))


def test_input_checks_survive_optimized_mode():
    # ``python -O`` strips asserts; these checks must still raise
    script = (
        "import diagcalc.cli as cli\n"
        "import diagcalc.presentations as presentations\n"
        "from diagcalc.counting import bell, catalan, order_preserving_count\n"
        "from diagcalc.engine import cayley_json, closure\n"
        "from diagcalc.equivalences import (Equivalence, atom, cap_kernel, cap_word,\n"
        "    join, restricted_growth_sequences)\n"
        "from diagcalc.laws import LeftCongruence, join_left_congruences\n"
        "from diagcalc.partitions import (Diagram, collapse, floor_map,\n"
        "    from_transformation, identity, multiply, transposition)\n"
        "from diagcalc.presentations import (Presentation, enumerate_presented,\n"
        "    sym_cap)\n"
        "crossing = Equivalence.from_text('[[1,3],[2,4]]')\n"
        "for bad in (lambda: multiply(identity(3), identity(2)),\n"
        "            lambda: Diagram(2, [0, 1, 2]),\n"
        "            lambda: from_transformation([5, 1]),\n"
        "            lambda: floor_map(Equivalence.from_text('[[1,3],[2]]')),\n"
        "            lambda: transposition(3, 3),\n"
        "            lambda: collapse(3, 2, 2),\n"
        "            lambda: Diagram(2, [0, 0, 0, 0]).to_transformation(),\n"
        "            lambda: Equivalence(3, [0, 1]),\n"
        "            lambda: Equivalence(2, [0, 1]).class_of(3),\n"
        "            lambda: atom(3, 2, 2),\n"
        "            lambda: join(atom(3, 1, 2), atom(4, 1, 2)),\n"
        "            lambda: list(restricted_growth_sequences(-1)),\n"
        "            lambda: cap_kernel(crossing),\n"
        "            lambda: cap_word(crossing),\n"
        "            lambda: bell(-1),\n"
        "            lambda: catalan(-1),\n"
        "            lambda: order_preserving_count(-1),\n"
        "            lambda: cayley_json(closure(2, []), 'up'),\n"
        "            lambda: sym_cap(5, 2),\n"
        "            lambda: enumerate_presented(Presentation(\n"
        "                'p', 1, 'semigroup', ('a',), (((), ('a',)),))),\n"
        "            lambda: LeftCongruence([identity(2)], [0, 1]),\n"
        "            lambda: join_left_congruences(LeftCongruence([identity(2)], [0]),\n"
        "                                          LeftCongruence([identity(3)], [0]))):\n"
        "    try:\n"
        "        bad()\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
        "# a factorization that does not replay is an internal error, exit 4\n"
        "real = presentations.factor_product\n"
        "presentations.factor_product = lambda d, mode: (real(d, mode)[0], identity(d.n))\n"
        "print(cli.main(['factorize', '[[1,2,-1,-2],[3,-3]]', '--mode', 'tn-en']))\n"
    )
    src = str(Path(diagcalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 22 + ["4"]


def test_associativity_exhaustive_n2():
    elems = list(all_diagrams(2))
    assert len(elems) == bell(4)
    for a, b, c in itertools.product(elems, repeat=3):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_associativity_random():
    rng = random.Random(3)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        a, b, c = (random_diagram(rng, n) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_products_stay_canonical():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 6)
        d = multiply(random_diagram(rng, n), random_diagram(rng, n))
        assert canonical_ok(d)


# -- structure ----------------------------------------------------------------


def test_structure_worked_example():
    st = A6.structure()
    assert st.dom == (2, 3)
    assert st.codom == (4, 5)
    assert st.rank == 1
    assert st.upper_blocks == ((1, 4), (5, 6))
    assert st.lower_blocks == ((1, 2, 6), (3,))


def test_structure_identity():
    st = identity(4).structure()
    assert st.rank == 4
    assert st.dom == st.codom == (1, 2, 3, 4)
    assert identity(4).ker() == identity(4).coker() == diagonal(4)


def test_merge_structure():
    d = merge(4, 1, 2)
    assert d.ker() == d.coker() == atom(4, 1, 2)
    assert d.rank() == 3


def test_rank_submultiplicative():
    rng = random.Random(6)
    for _ in range(500):
        n = rng.randint(1, 6)
        a, b = random_diagram(rng, n), random_diagram(rng, n)
        assert multiply(a, b).rank() <= min(a.rank(), b.rank())


# -- planarity ----------------------------------------------------------------


def test_planarity_examples():
    assert not A6.is_planar()
    assert B6.is_planar()
    assert identity(5).is_planar()
    assert not transposition(2, 1).is_planar()


def test_planar_diagram_counts():
    for n in range(1, 4):
        count = sum(1 for d in all_diagrams(n) if d.is_planar())
        assert count == catalan(2 * n)


def test_planar_closed_under_product_exhaustive():
    planar = [d for d in all_diagrams(3) if d.is_planar()]
    for a, b in itertools.product(planar, repeat=2):
        assert multiply(a, b).is_planar()


def test_planar_and_full_domain_closed_random():
    rng = random.Random(7)
    planar_hits = fd_hits = 0
    while planar_hits < 300 or fd_hits < 300:
        n = rng.randint(2, 6)
        a, b = random_diagram(rng, n), random_diagram(rng, n)
        if a.is_planar() and b.is_planar():
            planar_hits += 1
            assert multiply(a, b).is_planar()
        amem, bmem = a.classify(), b.classify()
        if amem.full_domain and bmem.full_domain:
            fd_hits += 1
            assert multiply(a, b).classify().full_domain


# -- transformations -----------------------------------------------------------


def test_from_transformation_example():
    assert from_transformation([1, 1, 3]) == Diagram.from_blocks(
        3, [[1, 2, -1], [3, -3], [-2]]
    )
    assert from_transformation(range(1, 5)) == identity(4)
    assert collapse(2, 1, 2).to_transformation() == (1, 1)


def test_transformation_round_trip():
    for n in range(1, 5):
        for images in itertools.product(range(1, n + 1), repeat=n):
            assert from_transformation(images).to_transformation() == images


def test_transformation_composition_order():
    # x(fg) = (xf)g: partition product = left-to-right composition
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 5)
        f = [rng.randint(1, n) for _ in range(n)]
        g = [rng.randint(1, n) for _ in range(n)]
        fg = multiply(from_transformation(f), from_transformation(g))
        assert fg.to_transformation() == tuple(g[f[x] - 1] for x in range(n))


def test_to_transformation_rejects():
    with pytest.raises(ValueError):
        merge(2, 1, 2).to_transformation()
    with pytest.raises(ValueError):
        Diagram.from_text("[[1,-1],[2],[-2]]").to_transformation()


# -- membership flags -----------------------------------------------------------


def test_classify_identity():
    mem = identity(3).classify()
    assert all(
        getattr(mem, flag)
        for flag in (
            "permutation",
            "transformation",
            "order_preserving",
            "partial_injection",
            "block_bijection",
            "uniform_block_bijection",
            "projection",
            "full_domain",
            "planar",
            "planar_full_domain",
            "cap",
        )
    )


def test_classify_generators():
    s = transposition(3, 1).classify()
    assert s.permutation and not s.order_preserving and not s.planar

    f = collapse(3, 1, 2).classify()  # 2 -> 1
    g = collapse(3, 2, 1).classify()  # 1 -> 2
    assert f.order_preserving and g.order_preserving
    assert not f.permutation and not g.permutation

    # an adjacent cap is the same diagram as the matching merge, hence a
    # projection; a wider cap is not
    assert cap_atom(3, 1, 2) == merge(3, 1, 2)
    h = cap_atom(3, 1, 3).classify()
    assert h.cap and h.planar_full_domain and not h.projection
    assert not h.transformation

    e = merge(3, 1, 2).classify()
    assert e.projection and e.uniform_block_bijection and not e.permutation


def test_order_preserving_flag_meaning():
    # order-preserving = transformation whose diagram is planar
    for d in all_diagrams(3):
        mem = d.classify()
        assert mem.order_preserving == (mem.transformation and mem.planar)
        assert mem.planar_full_domain == (mem.planar and mem.full_domain)
        if mem.cap:
            assert mem.planar_full_domain


def test_projection_flag_meaning():
    for d in all_diagrams(3):
        mem = d.classify()
        assert mem.projection == (d.ker() == d.coker() and d == embed(d.ker()))


def test_cap_flag_matches_construction():
    for n in range(1, 5):
        built = set(family("dn", n))
        filtered = {d for d in all_diagrams(n) if d.classify().cap}
        assert built == filtered


# -- the family catalogue --------------------------------------------------------


def test_family_names_complete():
    assert set(FAMILY_NAMES) == {
        "pn", "pnfd", "ppn", "ppnfd", "tn", "sing-tn", "ptn", "on",
        "sn", "en", "fn", "in", "jn", "dn", "pen",
    }
    with pytest.raises(ValueError):
        family("qn", 3)


FAMILY_SIZES = {
    # name: sizes at n = 1, 2, 3 (plus n = 4 where cheap enough to check)
    "pn": [2, 15, 203],
    "pnfd": [1, 5, 52, 855],
    "ppn": [2, 14, 132, 1430],
    "ppnfd": [1, 4, 20, 110],
    "tn": [1, 4, 27, 256],
    "sing-tn": [0, 2, 21, 232],
    "ptn": [1, 3, 10, 35],
    "on": [1, 3, 10, 35],
    "sn": [1, 2, 6, 24],
    "en": [1, 2, 5, 15],
    "fn": [1, 3, 16, 131],
    "in": [2, 7, 34, 209],
    "jn": [1, 3, 25, 339],
    "dn": [1, 2, 5, 14],
    "pen": [1, 2, 4, 8],
}


@pytest.mark.parametrize("name", sorted(FAMILY_SIZES))
def test_family_sizes(name):
    for n, expected in enumerate(FAMILY_SIZES[name], start=1):
        assert len(family(name, n)) == expected, (name, n)


# families defined by a predicate, with the classify() flags they select
FLAG_FAMILIES = {
    "pnfd": ("full_domain",),
    "ppn": ("planar",),
    "ppnfd": ("planar_full_domain",),
    "ptn": ("transformation", "planar"),
    "fn": ("uniform_block_bijection",),
    "in": ("partial_injection",),
    "jn": ("block_bijection",),
}


@pytest.mark.parametrize("n", range(5))
def test_flag_families_match_classify(n):
    flags = [(d, d.classify()) for d in all_diagrams(n)]
    for name, wanted in FLAG_FAMILIES.items():
        expected = sorted(d for d, m in flags if all(getattr(m, f) for f in wanted))
        assert family(name, n) == expected, (name, n)


@pytest.mark.parametrize("n", range(6))
def test_planar_transformations_are_the_order_preserving_maps(n):
    # family("ptn") is generated as the order-preserving maps on this theorem
    assert family("ptn", n) == [d for d in family("tn", n) if d.is_planar()]


def test_family_closed_forms():
    for n in range(1, 5):
        assert len(family("en", n)) == bell(n)
        assert len(family("dn", n)) == catalan(n)
        assert len(family("sn", n)) == math.factorial(n)
        assert len(family("tn", n)) == n**n
        assert len(family("on", n)) == order_preserving_count(n)
    assert len(family("on", 5)) == order_preserving_count(5) == 126


def test_family_consistency():
    for n in range(1, 5):
        everything = set(family("pn", n)) if n <= 3 else None
        tn = set(family("tn", n))
        assert set(family("sn", n)) <= tn
        assert set(family("sing-tn", n)) == tn - set(family("sn", n))
        # planar transformations are exactly the order-preserving ones
        assert set(family("ptn", n)) == set(family("on", n))
        assert set(family("dn", n)) <= set(family("ppnfd", n))
        assert set(family("en", n)) <= set(family("pnfd", n))
        if everything is not None:
            assert set(family("pnfd", n)) <= everything
    # families come back sorted and duplicate-free
    for name in FAMILY_NAMES:
        elems = family(name, 3)
        assert elems == sorted(set(elems))


def test_all_diagrams_count():
    for n in range(4):
        assert sum(1 for _ in all_diagrams(n)) == bell(2 * n)


# -- projections and caps ----------------------------------------------------------


def test_embed_examples():
    assert embed(diagonal(4)) == identity(4)
    assert embed(atom(3, 1, 2)) == Diagram.from_text("[[1,2,-1,-2],[3,-3]]")
    for n in range(1, 6):
        images = {embed(e) for e in all_equivalences(n)}
        assert len(images) == bell(n)


def test_embed_multiplication_is_join():
    for n in range(1, 5):
        for e, f in itertools.product(all_equivalences(n), repeat=2):
            assert multiply(embed(e), embed(f)) == embed(join(e, f))


def test_cap_examples():
    eta = Equivalence.from_text("[[1,5,6],[2,3],[4],[7,8]]")
    assert cap(eta).text() == "[[1,2,3,4,5,6,-1,-5,-6],[7,8,-7,-8],[-2,-3],[-4]]"
    for n in range(1, 6):
        assert cap(diagonal(n)) == identity(n)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            assert cap(atom(n, i, j)) == cap_atom(n, i, j)


def test_cap_atom_blocks():
    # the span [i, j] together with i', j' forms the only fat block
    d = cap_atom(5, 2, 4)
    assert d.blocks() == ((1, -1), (2, 3, 4, -2, -4), (5, -5), (-3,))


def test_cap_rejects_non_planar():
    with pytest.raises(ValueError):
        cap(Equivalence.from_text("[[1,3],[2,4]]"))


def test_cap_coker_and_kernel():
    for n in range(1, 7):
        for e in all_equivalences(n):
            if not e.is_planar():
                continue
            d = cap(e)
            assert d.coker() == e
            assert d.ker() == cap_kernel(e)


def test_floor_map_examples():
    e = Equivalence.from_text("[[1,2],[3]]")
    assert floor_map(e).to_transformation() == (1, 1, 3)
    assert floor_map(diagonal(4)) == identity(4)
    with pytest.raises(ValueError):
        floor_map(Equivalence.from_text("[[1,3],[2]]"))


def test_floor_map_absorption():
    # with eta = ker(d): d * floor = floor and floor * d = d
    for n in range(1, 6):
        for e in all_equivalences(n):
            if not e.is_planar():
                continue
            d = cap(e)
            f = floor_map(d.ker())
            assert multiply(d, f) == f
            assert multiply(f, d) == d


def test_cap_left_multiplication_law():
    # multiplying a cap by an atom cap joins the two touched classes:
    # with p = max [i], q = min [j] over the kernel intervals,
    # cap_atom(i,j) * cap(eta) = cap(eta v atom(p,q)); and when the join
    # is proper the successor function changes at p alone.
    for n in range(1, 6):
        for e in all_equivalences(n):
            if not e.is_planar():
                continue
            hat = cap_kernel(e)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                p = max(hat.class_of(i))
                q = min(hat.class_of(j))
                mu = e if p == q else join(e, atom(n, min(p, q), max(p, q)))
                assert mu.is_planar()
                assert multiply(cap_atom(n, i, j), cap(e)) == cap(mu)
                if mu != e:
                    for x in range(1, n + 1):
                        expected = q if x == p else successor(e, x)
                        assert successor(mu, x) == expected


def test_cap_family_closed_and_absorbing():
    for n in range(1, 6):
        dn = family("dn", n)
        for a, b in itertools.product(dn, repeat=2):
            ab = multiply(a, b)
            assert ab in set(dn)
            # right regular band identity
            assert multiply(ab, a) == multiply(b, a)
