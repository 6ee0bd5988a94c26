"""Partition diagrams: canonical encoding, arithmetic and classification.

A diagram of degree ``n`` is a set partition of the ``2n`` points
``1, ..., n`` (the upper row) and ``1', ..., n'`` (the lower row).  Diagrams
multiply by stacking: the lower row of the left factor is glued to the upper
row of the right factor, connected components are computed, and the middle
row is discarded.

Canonical encoding
------------------
Points are scanned in the order ``1, ..., n, 1', ..., n'`` and blocks are
numbered ``0, 1, 2, ...`` by first occurrence (a restricted-growth
sequence over the ``2n`` points).  Equality, hashing and sorting all work on
that sequence.

Text form
---------
A block is a list of signed vertices -- positive for the upper row, negative
for the lower row -- written with the positives first, both halves
ascending.  Blocks appear in first-occurrence order, e.g.::

    [[1,4],[2,3,-4,-5],[5,6],[-1,-2,-6],[-3]]

Every vertex ``1..n`` and ``-1..-n`` must appear exactly once; the degree is
inferred from the largest absolute vertex.

Structure vocabulary
--------------------
A *transversal* is a block meeting both rows; its upper part contributes to
the domain and kernel, its lower part to the codomain and cokernel.  The
*rank* is the number of transversals.  Diagrams whose domain is the whole
upper row ("full domain") form a submonoid, as do the planar diagrams --
those drawable inside the rectangle without crossings, which is equivalent
to the block sequence being non-crossing in the boundary order
``1, ..., n, n', ..., 1'``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .equivalences import (
    Equivalence,
    _Canonical,
    _find,
    _normalize,
    _parse_nested_ints,
    all_equivalences,
    cap_kernel,
    noncrossing,
    restricted_growth_sequences,
    unnested_classes,
)


class Diagram(_Canonical):
    """A partition diagram of degree ``n`` in canonical form.

    ``labels[k]`` is the block index of upper point ``k + 1`` for ``k < n``
    and of lower point ``(k - n + 1)'`` for ``k >= n``.
    """

    __slots__ = ()

    def __init__(self, n: int, labels: Sequence[object], _canonical: bool = False):
        # ``_canonical=True`` is the trusted path for the library's own
        # producers of ``2n`` labels that are already a restricted-growth
        # tuple: it skips the length check and ``_normalize``.  It is a flag
        # here rather than a separate constructor so that a profiler wrapping
        # ``__init__`` still sees every construction.
        if _canonical:
            self.n = n
            self.labels = labels
            return
        if len(labels) != 2 * n:
            raise ValueError(f"a degree-{n} diagram needs {2 * n} labels, got {len(labels)}")
        self.n = n
        self.labels = _normalize(labels)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Diagram":
        labels: list[int] = [-1] * (2 * n)
        for block_id, block in enumerate(blocks):
            for vertex in block:
                if vertex == 0 or not -n <= vertex <= n:
                    raise ValueError(f"vertex {vertex} out of range for degree {n}")
                pos = vertex - 1 if vertex > 0 else n - vertex - 1
                if labels[pos] != -1:
                    raise ValueError(f"vertex {vertex} appears twice")
                labels[pos] = block_id
        if -1 in labels:
            pos = labels.index(-1)
            vertex = pos + 1 if pos < n else -(pos - n + 1)
            raise ValueError(f"vertex {vertex} is missing")
        return cls(n, labels)

    @classmethod
    def from_text(cls, text: str) -> "Diagram":
        """Parse the signed block list, inferring the degree.

        >>> Diagram.from_text("[[1,2,-1],[-2]]").labels
        (0, 0, 0, 1)
        """
        blocks = _parse_nested_ints(text)
        n = max((abs(v) for block in blocks for v in block), default=0)
        return cls.from_blocks(n, blocks)

    # -- canonical views -------------------------------------------------

    def _parts(self) -> list[tuple[list[int], list[int]]]:
        """Each block's upper points and lower points (unsigned, ascending),
        blocks in canonical order: the one pass behind the block views."""
        parts = [([], []) for _ in range(1 + max(self.labels, default=-1))]
        for x, label in enumerate(self.labels[: self.n], 1):
            parts[label][0].append(x)
        for y, label in enumerate(self.labels[self.n :], 1):
            parts[label][1].append(y)
        return parts

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Signed blocks in canonical order.

        >>> identity(2).blocks()
        ((1, -1), (2, -2))
        """
        return tuple(tuple(up + [-y for y in lo]) for up, lo in self._parts())

    def text(self) -> str:
        return "[%s]" % ",".join(
            "[%s]" % ",".join(str(v) for v in block) for block in self.blocks()
        )

    def __mul__(self, other: "Diagram") -> "Diagram":
        return multiply(self, other)

    # -- structure -------------------------------------------------------

    def is_planar(self) -> bool:
        """Non-crossing in the boundary order ``1, ..., n, n', ..., 1'``.

        >>> Diagram.from_text("[[1,-2],[2,-1]]").is_planar()
        False
        >>> Diagram.from_text("[[1,2,-1,-2]]").is_planar()
        True
        """
        boundary = self.labels[: self.n] + self.labels[: self.n - 1 : -1]
        return noncrossing(boundary)

    def is_full_domain(self) -> bool:
        """Every upper point lies in a transversal.

        >>> Diagram.from_text("[[1,2,-1],[-2]]").is_full_domain()
        True
        >>> Diagram.from_text("[[1],[2,-1,-2]]").is_full_domain()
        False
        """
        return set(self.labels[: self.n]).issubset(self.labels[self.n :])

    def structure(self) -> "Structure":
        parts = [(tuple(up), tuple(lo)) for up, lo in self._parts()]
        transversals = sorted((up, lo) for up, lo in parts if up and lo)
        return Structure(
            transversals=tuple(transversals),
            upper_blocks=tuple(sorted(up for up, lo in parts if not lo)),
            lower_blocks=tuple(sorted(lo for up, lo in parts if not up)),
            rank=len(transversals),
            dom=tuple(sorted(x for up, _ in transversals for x in up)),
            codom=tuple(sorted(y for _, lo in transversals for y in lo)),
        )

    def ker(self) -> Equivalence:
        """Restriction to the upper row."""
        return Equivalence(self.n, self.labels[: self.n])

    def coker(self) -> Equivalence:
        """Restriction to the lower row (renumbered: its labels need not
        start at 0)."""
        return Equivalence(self.n, self.labels[self.n :])

    def rank(self) -> int:
        return sum(1 for up, lo in self._parts() if up and lo)

    def classify(self) -> "Membership":
        parts = self._parts()
        planar = self.is_planar()
        full_domain = all(lo for _, lo in parts)
        transformation = all(len(lo) == 1 for _, lo in parts)
        images = self.to_transformation() if transformation else ()
        return Membership(
            permutation=all(len(up) == len(lo) == 1 for up, lo in parts),
            transformation=transformation,
            order_preserving=transformation and images == tuple(sorted(images)),
            partial_injection=all(len(up) <= 1 and len(lo) <= 1 for up, lo in parts),
            block_bijection=all(up and lo for up, lo in parts),
            uniform_block_bijection=all(len(up) == len(lo) for up, lo in parts),
            projection=self.labels[: self.n] == self.labels[self.n :],
            full_domain=full_domain,
            planar=planar,
            planar_full_domain=planar and full_domain,
            cap=planar and full_domain
            and all(not up or (up[0], up[-1]) == (lo[0], lo[-1]) for up, lo in parts),
        )

    def to_transformation(self) -> tuple[int, ...]:
        """The map ``x -> y`` with ``y'`` in the block of ``x``.

        Defined exactly when every block has one lower point (the images of
        :func:`from_transformation`); raises ``ValueError`` otherwise.  These
        maps compose the same way the diagrams multiply.
        """
        images = [0] * self.n
        for up, lo in self._parts():
            if len(lo) != 1:
                raise ValueError("diagram is not a transformation")
            for x in up:
                images[x - 1] = lo[0]
        return tuple(images)


@dataclass(frozen=True)
class Structure:
    """Blocks of a diagram sorted into transversal and one-row parts."""

    transversals: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    upper_blocks: tuple[tuple[int, ...], ...]
    lower_blocks: tuple[tuple[int, ...], ...]
    rank: int
    dom: tuple[int, ...]
    codom: tuple[int, ...]


@dataclass(frozen=True)
class Membership:
    """Submonoid membership flags for a single diagram."""

    permutation: bool
    transformation: bool
    order_preserving: bool
    partial_injection: bool
    block_bijection: bool
    uniform_block_bijection: bool
    projection: bool
    full_domain: bool
    planar: bool
    planar_full_domain: bool
    cap: bool


# Membership tests on a diagram's two label rows, ``up = labels[:n]`` and
# ``lo = labels[n:]``.  They read nothing but the labels, for callers that
# test many diagrams against one family without listing it.
Row = tuple[int, ...]


def _rows_full_domain(up: Row, lo: Row) -> bool:
    return set(up).issubset(lo)


def _rows_transformation(up: Row, lo: Row) -> bool:
    return len(set(lo)) == len(lo) and _rows_full_domain(up, lo)


def _rows_order_preserving(up: Row, lo: Row) -> bool:
    if not _rows_transformation(up, lo):
        return False
    images = [lo.index(label) for label in up]
    return images == sorted(images)


def _rows_planar_full_domain(up: Row, lo: Row) -> bool:
    return _rows_full_domain(up, lo) and noncrossing(up + lo[::-1])


def _rows_cap(up: Row, lo: Row) -> bool:
    """Planar full domain, and each transversal's upper and lower ends coincide."""
    pu, pl = up[::-1], lo[::-1]
    return _rows_planar_full_domain(up, lo) and all(
        up.index(b) == lo.index(b) and pu.index(b) == pl.index(b) for b in set(up)
    )


def multiply(a: Diagram, b: Diagram) -> Diagram:
    """Stack ``a`` on top of ``b`` and contract the middle row.

    The union-find runs over blocks, not points: node ``l`` is ``a``'s block
    ``l`` and node ``2n + l`` is ``b``'s block ``l`` (either factor has at
    most ``2n`` blocks).  Middle point ``i`` glues ``a``'s block of ``i'`` to
    ``b``'s block of ``i``, so there are exactly ``n`` unions.  One pass over
    ``a``'s upper row and then ``b``'s lower row numbers the roots by first
    occurrence, so the output is canonical by construction and is never
    normalised again.

    >>> t = collapse(2, 1, 2)   # 2 -> 1
    >>> s = transposition(2, 1)
    >>> multiply(t, s).text()
    '[[1,2,-2],[-1]]'
    """
    if a.n != b.n:
        raise ValueError(f"degrees must match, got {a.n} and {b.n}")
    n = a.n
    al, bl = a.labels, b.labels
    shift = 2 * n
    parent = list(range(4 * n))
    # each lookup steps to the parent inline and calls ``_find`` only when
    # that parent is not yet a root
    for x, y in zip(al[n:], bl[:n]):
        x = parent[x]
        if parent[x] != x:
            x = _find(parent, x)
        y = parent[y + shift]
        if parent[y] != y:
            y = _find(parent, y)
        parent[y] = x
    code = [-1] * (4 * n)
    out: list[int] = []
    push = out.append
    fresh = 0
    for x in al[:n]:
        x = parent[x]
        if parent[x] != x:
            x = _find(parent, x)
        c = code[x]
        if c < 0:
            c = code[x] = fresh
            fresh += 1
        push(c)
    for x in bl[n:]:
        x = parent[x + shift]
        if parent[x] != x:
            x = _find(parent, x)
        c = code[x]
        if c < 0:
            c = code[x] = fresh
            fresh += 1
        push(c)
    # ``_canonical`` passed by position: the keyword costs a few percent here
    return Diagram(n, tuple(out), True)


def identity(n: int) -> Diagram:
    """Blocks ``{x, x'}`` for every point."""
    return Diagram(n, tuple(range(n)) * 2, _canonical=True)


def from_transformation(images: Sequence[int]) -> Diagram:
    """Diagram of the map ``x -> images[x-1]``.

    Each block joins a fibre of the map to the dash of its image; values
    missed by the map sit in lower singletons.

    >>> from_transformation([1, 1, 3]).text()
    '[[1,2,-1],[3,-3],[-2]]'
    """
    n = len(images)
    if not all(1 <= y <= n for y in images):
        raise ValueError(f"images must lie in 1..{n}, got {list(images)}")
    labels: list[object] = [("img", y) for y in images]
    hit = set(images)
    labels += [("img", y) if y in hit else ("miss", y) for y in range(1, n + 1)]
    return Diagram(n, labels)


def transposition(n: int, i: int) -> Diagram:
    """The adjacent swap ``i <-> i+1``."""
    if not 1 <= i < n:
        raise ValueError(f"no adjacent swap {i} <-> {i + 1} in degree {n}")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return from_transformation(images)


def collapse(n: int, i: int, j: int) -> Diagram:
    """The map sending ``j`` onto ``i`` and fixing everything else.

    Its diagram has the block ``{i, j, i'}`` and the singleton ``{j'}``.
    """
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError(f"collapse needs distinct points in 1..{n}, got {i} and {j}")
    images = list(range(1, n + 1))
    images[j - 1] = i
    return from_transformation(images)


def embed(eq: Equivalence) -> Diagram:
    """The diagram with blocks ``B (union) B'`` for each class ``B``.

    These are exactly the projections: ``embed(d.ker())`` is the domain
    projection of ``d``.

    >>> from .equivalences import atom
    >>> embed(atom(3, 1, 2)).text()
    '[[1,2,-1,-2],[3,-3]]'
    """
    return Diagram(eq.n, eq.labels + eq.labels, _canonical=True)


def merge(n: int, i: int, j: int) -> Diagram:
    """The projection joining ``i`` and ``j`` on both rows."""
    from .equivalences import atom

    return embed(atom(n, i, j))


def cap(eq: Equivalence) -> Diagram:
    """The cap of a planar relation.

    Each unnested class ``B`` is capped by the transversal
    ``[min B, max B] (union) B'``; nested classes stay as lower blocks.  The
    result is an idempotent with cokernel ``eq`` and kernel
    :func:`diagcalc.equivalences.cap_kernel` applied to ``eq``.

    >>> cap(Equivalence.from_text("[[1,5,6],[2,3],[4],[7,8]]")).text()
    '[[1,2,3,4,5,6,-1,-5,-6],[7,8,-7,-8],[-2,-3],[-4]]'
    """
    if not eq.is_planar():
        raise ValueError(f"only planar relations have caps, got {eq.text()}")
    hull = cap_kernel(eq)
    span_index = {block: idx for idx, block in enumerate(unnested_classes(eq))}
    classes = eq.classes()
    upper: list[object] = [("t", hull.labels[x]) for x in range(eq.n)]
    lower: list[object] = []
    for x in range(eq.n):
        block = classes[eq.labels[x]]
        if block in span_index:
            lower.append(("t", span_index[block]))
        else:
            lower.append(("nested", eq.labels[x]))
    return Diagram(eq.n, upper + lower)


def cap_atom(n: int, i: int, j: int) -> Diagram:
    """Cap of the atom joining ``i`` and ``j``: one long transversal
    ``[i, j] (union) {i', j'}`` over lower singletons, identity elsewhere."""
    from .equivalences import atom

    return cap(atom(n, i, j))


def floor_map(eq: Equivalence) -> Diagram:
    """The order-preserving idempotent sending each class to its minimum.

    Defined for convex relations only.

    >>> floor_map(Equivalence.from_text("[[1,2],[3],[4,5]]")).text()
    '[[1,2,-1],[3,-3],[4,5,-4],[-2],[-5]]'
    """
    if not eq.is_convex():
        raise ValueError(f"floor maps need a convex relation, got {eq.text()}")
    images = [eq.class_of(x)[0] for x in range(1, eq.n + 1)]
    return from_transformation(images)


def domain_projection(d: Diagram) -> Diagram:
    """``D(d)``: the projection with the same kernel as ``d``."""
    return embed(d.ker())


def range_projection(d: Diagram) -> Diagram:
    """``R(d)``: the projection with the same cokernel as ``d``."""
    return embed(d.coker())


def range_cap(d: Diagram) -> Diagram:
    """The cap of the cokernel of ``d`` (cokernel must be planar)."""
    return cap(d.coker())


def all_diagrams(n: int) -> Iterator[Diagram]:
    """All diagrams of degree ``n`` in lexicographic order of the encoding."""
    for labels in restricted_growth_sequences(2 * n):
        yield Diagram(n, labels, _canonical=True)


FAMILY_NAMES = (
    "pn", "pnfd", "ppn", "ppnfd", "tn", "sing-tn", "ptn", "on", "sn",
    "en", "fn", "in", "jn", "dn", "pen",
)

# the presentation schemas of ``presentations``, named here so that the CLI
# parser can offer them without importing that module
SCHEMA_NAMES = (
    "sing-xr", "full-yq", "planar-zo", "dn", "en", "sing-tn", "tn", "fn", "on",
    "planar-intermediate",
)


def family(name: str, n: int) -> list[Diagram]:
    """The named standard family of degree-``n`` diagrams, sorted.

    ===========  ====================================================
    ``pn``       every diagram
    ``pnfd``     full domain
    ``ppn``      planar
    ``ppnfd``    planar with full domain
    ``tn``       transformations
    ``sing-tn``  non-bijective transformations
    ``ptn``      planar transformations
    ``on``       order-preserving transformations
    ``sn``       permutations
    ``en``       projections (embedded equivalences)
    ``fn``       uniform block bijections
    ``in``       partial injections
    ``jn``       block bijections
    ``dn``       caps of planar equivalences
    ``pen``      embedded convex equivalences
    ===========  ====================================================

    ``ptn`` is generated as ``on``: a transformation's diagram is planar
    exactly when the map is order-preserving.  The other families defined
    by a predicate are produced by filtering all diagrams, so they are
    usable as independent cross-checks against anything built from
    generators.

    >>> [len(family(name, 2)) for name in ("pn", "pnfd", "tn", "dn")]
    [15, 5, 4, 2]
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    points = range(1, n + 1)
    if name == "tn":
        return sorted(from_transformation(images) for images in itertools.product(points, repeat=n))
    if name == "sing-tn":
        return sorted(
            from_transformation(images)
            for images in itertools.product(points, repeat=n)
            if len(set(images)) < n
        )
    if name in ("on", "ptn"):
        return sorted(
            from_transformation(images)
            for images in itertools.combinations_with_replacement(points, n)
        )
    if name == "sn":
        return sorted(from_transformation(images) for images in itertools.permutations(points))
    if name == "en":
        return sorted(embed(eq) for eq in all_equivalences(n))
    if name == "dn":
        return sorted(cap(eq) for eq in all_equivalences(n) if eq.is_planar())
    if name == "pen":
        return sorted(embed(eq) for eq in all_equivalences(n) if eq.is_convex())
    member = {
        "pn": lambda d: True,
        "pnfd": Diagram.is_full_domain,
        "ppn": Diagram.is_planar,
        "ppnfd": lambda d: d.is_full_domain() and d.is_planar(),
        "fn": lambda d: d.classify().uniform_block_bijection,
        "in": lambda d: d.classify().partial_injection,
        "jn": lambda d: d.classify().block_bijection,
    }
    if name not in member:
        raise ValueError(f"unknown family {name!r}; expected one of {', '.join(FAMILY_NAMES)}")
    keep = member[name]
    return [d for d in all_diagrams(n) if keep(d)]
