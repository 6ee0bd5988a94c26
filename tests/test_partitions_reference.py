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
degree and on seeded random ones above that.
"""

from __future__ import annotations

import itertools
import random

import pytest

from diagcalc.partitions import (
    FAMILY_NAMES,
    Diagram,
    Membership,
    Structure,
    all_diagrams,
    embed,
    family,
    from_transformation,
    identity,
    multiply,
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
    for name, keep in REF_FAMILIES.items():
        assert family(name, n) == [d for d, m in flags if keep(d, m)], (name, n)



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


@pytest.mark.parametrize("n", range(4))
def test_trusted_kernel_matches_normalising_one(n):
    assert_kernels_match(all_diagrams(n))
    assert list(all_equivalences(n)) == [
        Equivalence(n, labels) for labels in restricted_growth_sequences(n)
    ]


@pytest.mark.parametrize("n", range(4, 8))
def test_trusted_kernel_matches_normalising_one_random(n):
    assert_kernels_match(_random_diagrams(random.Random(3000 + n), n))
