"""Differential tests: ``Diagram``'s views against separate bucket passes,
and the block-level ``multiply`` against the point-level one.

The reference views below are the versions that the single bucket pass
``Diagram._parts`` replaced: ``blocks`` and ``structure`` each bucket the
labels on their own, ``classify`` reads ``structure`` and checks order
preservation on the images, ``to_transformation`` rebuilds the diagram of
the map it read off and compares, and the predicate families are filtered
from all diagrams by the reference ``classify``.  ``ref_multiply`` is the
product that ``multiply``'s block-level union-find replaced: a union-find over
all ``3n`` points whose output goes through ``Diagram``'s normalising
constructor.  Both sides must agree on every diagram (or pair) at small
degree and on seeded random ones above that.  ``ref_multiply`` is also the
oracle of the row map ``multiply_rows``, built once for one right factor
and applied to many left factors: every pair at small degree, and every
generator image of every family against seeded random diagrams above that;
``multiply``, which builds that map for one product, must agree too.  The projections,
which build their label rows directly, have ``embed`` of the kernel and
cokernel as their oracle.
"""

from __future__ import annotations

import itertools
import random

import pytest

from diagcalc.counting import FAMILY_COUNTS
from diagcalc.partitions import (
    FAMILY_NAMES,
    GENERATORS,
    MEMBERS,
    Diagram,
    Membership,
    Structure,
    all_diagrams,
    domain_projection,
    embed,
    family,
    from_transformation,
    identity,
    multiply,
    multiply_rows,
    range_projection,
)
from diagcalc.equivalences import (
    Equivalence,
    _find,
    all_equivalences,
    restricted_growth_sequences,
)


def ref_blocks(d: Diagram) -> tuple[tuple[int, ...], ...]:
    count = 1 + max(d.labels, default=-1)
    upper: list[list[int]] = [[] for _ in range(count)]
    lower: list[list[int]] = [[] for _ in range(count)]
    for pos, label in enumerate(d.labels):
        if pos < d.n:
            upper[label].append(pos + 1)
        else:
            lower[label].append(-(pos - d.n + 1))
    return tuple(tuple(upper[b]) + tuple(lower[b]) for b in range(count))


def ref_structure(d: Diagram) -> Structure:
    n = d.n
    count = 1 + max(d.labels, default=-1)
    upper: list[list[int]] = [[] for _ in range(count)]
    lower: list[list[int]] = [[] for _ in range(count)]
    for pos, label in enumerate(d.labels):
        (upper if pos < n else lower)[label].append(pos + 1 if pos < n else pos - n + 1)
    transversals = []
    upper_blocks = []
    lower_blocks = []
    for b in range(count):
        if upper[b] and lower[b]:
            transversals.append((tuple(upper[b]), tuple(lower[b])))
        elif upper[b]:
            upper_blocks.append(tuple(upper[b]))
        else:
            lower_blocks.append(tuple(lower[b]))
    transversals.sort()
    upper_blocks.sort()
    lower_blocks.sort()
    return Structure(
        transversals=tuple(transversals),
        upper_blocks=tuple(upper_blocks),
        lower_blocks=tuple(lower_blocks),
        rank=len(transversals),
        dom=tuple(sorted(x for up, _ in transversals for x in up)),
        codom=tuple(sorted(y for _, lo in transversals for y in lo)),
    )


def ref_to_transformation(d: Diagram) -> tuple[int, ...]:
    n = d.n
    image_of_label: dict[int, int] = {}
    for pos in range(n, 2 * n):
        image_of_label.setdefault(d.labels[pos], pos - n + 1)
    images = []
    for x in range(n):
        label = d.labels[x]
        if label not in image_of_label:
            raise ValueError("diagram is not a transformation")
        images.append(image_of_label[label])
    result = tuple(images)
    if from_transformation(result) != d:
        raise ValueError("diagram is not a transformation")
    return result


def ref_classify(d: Diagram) -> Membership:
    n = d.n
    st = ref_structure(d)
    full_domain = len(st.dom) == n
    block_bijection = not st.upper_blocks and not st.lower_blocks
    planar = d.is_planar()
    transformation = (
        full_domain
        and all(len(lo) == 1 for _, lo in st.transversals)
        and all(len(block) == 1 for block in st.lower_blocks)
    )
    order_preserving = False
    if transformation:
        images = ref_to_transformation(d)
        order_preserving = all(images[k] <= images[k + 1] for k in range(n - 1))
    return Membership(
        permutation=st.rank == n,
        transformation=transformation,
        order_preserving=order_preserving,
        partial_injection=all(len(up) == 1 and len(lo) == 1 for up, lo in st.transversals)
        and all(len(b) == 1 for b in st.upper_blocks)
        and all(len(b) == 1 for b in st.lower_blocks),
        block_bijection=block_bijection,
        uniform_block_bijection=block_bijection
        and all(len(up) == len(lo) for up, lo in st.transversals),
        projection=d.labels[:n] == d.labels[n:],
        full_domain=full_domain,
        planar=planar,
        planar_full_domain=planar and full_domain,
        cap=planar and full_domain
        and all(up[0] == lo[0] and up[-1] == lo[-1] for up, lo in st.transversals),
    )


# Every family as a filter of all diagrams by the reference flags; ``pen``
# also needs the kernel to be convex.
REF_FAMILIES = {
    "pn": lambda d, m: True,
    "pnfd": lambda d, m: m.full_domain,
    "ppn": lambda d, m: m.planar,
    "ppnfd": lambda d, m: m.planar_full_domain,
    "tn": lambda d, m: m.transformation,
    "sing-tn": lambda d, m: m.transformation and not m.permutation,
    "ptn": lambda d, m: m.transformation and m.planar,
    "on": lambda d, m: m.order_preserving,
    "sn": lambda d, m: m.permutation,
    "en": lambda d, m: m.projection,
    "fn": lambda d, m: m.uniform_block_bijection,
    "in": lambda d, m: m.partial_injection,
    "jn": lambda d, m: m.block_bijection,
    "dn": lambda d, m: m.cap,
    "pen": lambda d, m: m.projection and d.ker().is_convex(),
}


def _outcome(view, d: Diagram):
    try:
        return view(d)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_views_match(d: Diagram) -> None:
    assert d.blocks() == ref_blocks(d), d
    assert d.structure() == ref_structure(d), d
    assert d.rank() == ref_structure(d).rank, d
    assert d.classify() == ref_classify(d), d
    assert _outcome(Diagram.to_transformation, d) == _outcome(ref_to_transformation, d), d


@pytest.mark.parametrize("n", range(5))
def test_views_match_exhaustively(n):
    for d in all_diagrams(n):
        assert_views_match(d)


def _random_diagrams(rng: random.Random, n: int):
    # uniform labels give mostly many small blocks; drawing the block count
    # first, and adding maps, also reaches coarse diagrams, transformations and
    # permutations
    for _ in range(150):
        blocks = rng.randint(1, 2 * n)
        yield Diagram(n, [rng.randrange(blocks) for _ in range(2 * n)])
    for _ in range(50):
        images = [rng.randint(1, n) for _ in range(n)]
        yield from_transformation(images)
        yield from_transformation(sorted(images))
        yield from_transformation(rng.sample(range(1, n + 1), n))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_views_match_random(n):
    for d in _random_diagrams(random.Random(1000 + n), n):
        assert_views_match(d)


@pytest.mark.parametrize("n", range(5))
def test_families_match_reference_filters(n):
    flags = [(d, ref_classify(d)) for d in all_diagrams(n)]
    assert set(REF_FAMILIES) == set(FAMILY_NAMES)
    assert set(MEMBERS) == set(FAMILY_COUNTS)
    for name, keep in REF_FAMILIES.items():
        listed = family(name, n)
        assert listed == [d for d, m in flags if keep(d, m)], (name, n)
        # the one rule table that ``classify`` and the presentation targets read
        rule = MEMBERS[name]
        assert listed == [d for d, _ in flags if rule(d.labels[:n], d.labels[n:])], (name, n)



def ref_full_domain(n: int) -> list[Diagram]:
    """The full-domain diagrams of degree ``n`` in lexicographic order.

    Each upper row is a restricted-growth sequence with ``k`` blocks; the
    lower rows that go with it meet every one of those blocks and number
    their own new blocks ``k, k + 1, ...`` in order of first occurrence.
    They are grown one point at a time, a label at a time in increasing
    order, and a prefix is dropped once its unmet upper blocks outnumber the
    points left.
    """
    out: list[Diagram] = []
    for up in restricted_growth_sequences(n):
        k = 1 + max(up, default=-1)
        # (lower row so far, bit mask of the upper blocks it has not met,
        # the label a new lower block would take)
        rows: list[tuple[tuple[int, ...], int, int]] = [((), (1 << k) - 1, k)]
        for left in range(n - 1, -1, -1):  # points after the one placed now
            rows = [
                (lo + (label,), unmet, fresh + 1 if label == fresh else fresh)
                for lo, before, fresh in rows
                for label in range(fresh + 1)
                for unmet in (before & ~(1 << label),)
                if unmet.bit_count() <= left
            ]
        out.extend(Diagram(n, up + lo, _canonical=True) for lo, _, _ in rows)
    return out


@pytest.mark.parametrize("n", range(6))
def test_full_domain_families_match_the_bell_filter(n):
    """``pnfd`` and ``ppnfd`` are closures of their generators; the filter
    over all Bell(2n) diagrams and the row-by-row listing are the oracles,
    in order."""
    full = [d for d in all_diagrams(n) if d.is_full_domain()]
    assert ref_full_domain(n) == full
    assert family("pnfd", n) == full
    assert family("ppnfd", n) == [d for d in full if d.is_planar()]


def ref_multiply(a: Diagram, b: Diagram) -> Diagram:
    if a.n != b.n:
        raise ValueError(f"degrees must match, got {a.n} and {b.n}")
    n = a.n
    parent = list(range(3 * n))
    # a's points occupy nodes 0..2n-1, b's occupy nodes n..3n-1: a's lower
    # row and b's upper row share the middle band n..2n-1.
    for labels, shift in ((a.labels, 0), (b.labels, n)):
        seen: dict[int, int] = {}
        for pos, label in enumerate(labels):
            node = pos + shift
            if label in seen:
                root = _find(parent, seen[label])
                parent[_find(parent, node)] = root
            else:
                seen[label] = node
    result = [_find(parent, x) for x in range(n)]
    result += [_find(parent, x) for x in range(2 * n, 3 * n)]
    return Diagram(n, result)


def assert_products_match(pairs) -> None:
    for a, b in pairs:
        got = multiply(a, b)
        assert got == ref_multiply(a, b), (a, b)
        # the kernel's output is stored as built: it must already be canonical
        assert type(got.labels) is tuple, (a, b)
        assert got.labels == Diagram(got.n, got.labels).labels, (a, b)


@pytest.mark.parametrize("n", range(4))
def test_multiply_matches_reference_exhaustively(n):
    # degrees 0 and 1 included; n = 3 is all 203**2 pairs
    assert_products_match(itertools.product(all_diagrams(n), repeat=2))


@pytest.mark.parametrize("n", range(4, 9))
def test_multiply_matches_reference_random(n):
    rng = random.Random(2000 + n)
    pool = list(_random_diagrams(rng, n))
    assert_products_match((rng.choice(pool), rng.choice(pool)) for _ in range(3000))


def assert_maps_match(g, xs) -> None:
    """One ``multiply_rows(g)`` applied to every ``x``, and ``multiply(x, g)``,
    against ``ref_multiply``."""
    rows = multiply_rows(g)
    for x in xs:
        got = rows(x.labels)
        assert type(got) is tuple, (x, g)
        assert got == Diagram(g.n, got).labels == ref_multiply(x, g).labels, (x, g)
        assert multiply(x, g) == ref_multiply(x, g), (x, g)


@pytest.mark.parametrize("n", range(4))
def test_multiply_by_matches_reference_exhaustively(n):
    # degrees 0 and 1 included; n = 3 is all 203 maps on all 203 diagrams
    listed = list(all_diagrams(n))
    for g in listed:
        assert_maps_match(g, listed)


@pytest.mark.parametrize("n", range(4, 8))
def test_multiply_by_matches_reference_on_every_generator(n):
    rng = random.Random(3000 + n)
    pool = list(_random_diagrams(rng, n))
    images = {image for name in FAMILY_NAMES for _, image in GENERATORS[name](n)[1]}
    for g in sorted(images):
        assert_maps_match(g, rng.sample(pool, 60))


@pytest.mark.parametrize("g", [identity(0), identity(1), from_transformation([1]),
                               Diagram.from_text("[[1],[-1]]"), identity(3),
                               Diagram.from_text("[[1,2,-1],[3,-2,-3]]")],
                         ids=lambda g: g.text())
def test_multiply_by_rejects_another_degree(g):
    # both kinds of right factor: one that joins no middle points and one that does
    for n in {0, 1, 2, 4} - {g.n}:
        x = identity(n)
        with pytest.raises(ValueError) as caught:
            multiply(x, g)
        assert str(caught.value) == f"degrees must match, got {n} and {g.n}"
        with pytest.raises(ValueError) as caught_reversed:
            multiply(g, x)
        assert str(caught_reversed.value) == f"degrees must match, got {g.n} and {n}"


def test_multiply_by_at_degrees_zero_and_one():
    empty = identity(0)
    assert multiply_rows(empty)(empty.labels) == () and multiply(empty, empty) == empty
    singles = list(all_diagrams(1))
    assert [d.text() for d in singles] == ["[[1,-1]]", "[[1],[-1]]"]
    strand, apart = singles
    for g in singles:
        rows = multiply_rows(g)
        assert rows(strand.labels) == g.labels and multiply(strand, g) == g
        assert rows(apart.labels) == apart.labels and multiply(apart, g) == apart


@pytest.mark.parametrize("n", range(4))
def test_trusted_constructor_matches_normalising_one(n):
    built = [(Diagram(n, labels, _canonical=True), Diagram(n, labels))
             for labels in restricted_growth_sequences(2 * n)]
    for trusted, checked in built:
        assert trusted == checked and hash(trusted) == hash(checked)
        assert trusted.labels == checked.labels and type(trusted) is Diagram
        assert not hasattr(trusted, "__dict__")
    for (t1, c1), (t2, c2) in itertools.product(built, repeat=2):
        assert (t1 < t2) == (c1 < c2) == (t1 < c2)
    # the producers that now skip normalisation
    assert identity(n) == Diagram(n, list(range(n)) * 2)
    assert list(all_diagrams(n)) == [checked for _, checked in built]
    for eq in all_equivalences(n):
        assert embed(eq) == Diagram(n, eq.labels + eq.labels)


def assert_kernels_match(diagrams) -> None:
    for d in diagrams:
        ker, checked = d.ker(), Equivalence(d.n, d.labels[: d.n])
        assert ker == checked and hash(ker) == hash(checked), d
        assert ker.labels == checked.labels and type(ker.labels) is tuple, d
        assert d.coker().labels == Equivalence(d.n, d.labels[d.n :]).labels, d


@pytest.mark.parametrize("n", range(5))
def test_projections_match_embedded_kernels(n):
    for d in all_diagrams(n):
        for got, want in ((domain_projection(d), embed(d.ker())),
                          (range_projection(d), embed(d.coker()))):
            assert got == want and got.n == n, d
            assert type(got.labels) is tuple, d


@pytest.mark.parametrize("n", range(4))
def test_trusted_kernel_matches_normalising_one(n):
    assert_kernels_match(all_diagrams(n))
    assert list(all_equivalences(n)) == [
        Equivalence(n, labels) for labels in restricted_growth_sequences(n)
    ]


@pytest.mark.parametrize("n", range(4, 8))
def test_trusted_kernel_matches_normalising_one_random(n):
    assert_kernels_match(_random_diagrams(random.Random(3000 + n), n))
