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

Any JSON array of non-empty integer arrays is read, in any order and with
any JSON whitespace; every vertex ``1..n`` and ``-1..-n`` must appear
exactly once, and the degree is inferred from the largest absolute vertex.

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
from typing import Callable, Iterable, Iterator, Sequence

from .counting import FAMILY_COUNTS
from .equivalences import (
    Equivalence,
    _Canonical,
    _Record,
    _find,
    _normalize,
    _parse_nested_ints,
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
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
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

    _groups = blocks  # what ``text()`` writes

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
        return MEMBERS["ppn"](self.labels[: self.n], self.labels[self.n :])

    def is_full_domain(self) -> bool:
        """Every upper point lies in a transversal.

        >>> Diagram.from_text("[[1,2,-1],[-2]]").is_full_domain()
        True
        >>> Diagram.from_text("[[1],[2,-1,-2]]").is_full_domain()
        False
        """
        return MEMBERS["pnfd"](self.labels[: self.n], self.labels[self.n :])

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
        """The number of transversals: blocks with points in both rows."""
        return len(set(self.labels[: self.n]).intersection(self.labels[self.n :]))

    def classify(self) -> "Membership":
        up, lo = self.labels[: self.n], self.labels[self.n :]
        return Membership(*(MEMBERS[name](up, lo) for name in _MEMBERSHIP_FAMILIES))

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


class Structure(_Record):
    """Blocks of a diagram sorted into transversal and one-row parts."""

    __slots__ = ("transversals", "upper_blocks", "lower_blocks", "rank", "dom", "codom")


class Membership(_Record):
    """Submonoid membership flags for a single diagram."""

    __slots__ = ("permutation", "transformation", "order_preserving", "partial_injection",
                 "block_bijection", "uniform_block_bijection", "projection", "full_domain",
                 "planar", "planar_full_domain", "cap")


# Each family's membership rule, on a diagram's two label rows ``up =
# labels[:n]`` and ``lo = labels[n:]``.  The rules read nothing but the
# labels, for callers that test many diagrams against one family without
# listing it; a compound family is written through the entries it is made of.
Row = tuple[int, ...]

MEMBERS: dict[str, Callable[[Row, Row], bool]] = {
    "pn": lambda up, lo: True,
    "pnfd": lambda up, lo: set(up).issubset(lo),
    # non-crossing in the boundary order 1, ..., n, n', ..., 1'
    "ppn": lambda up, lo: noncrossing(up + lo[::-1]),
    "ppnfd": lambda up, lo: MEMBERS["pnfd"](up, lo) and MEMBERS["ppn"](up, lo),
    # full domain, and no two lower points share a block
    "tn": lambda up, lo: len(set(lo)) == len(lo) and MEMBERS["pnfd"](up, lo),
    "sing-tn": lambda up, lo: MEMBERS["tn"](up, lo) and len(set(up)) < len(up),
    "ptn": lambda up, lo: MEMBERS["tn"](up, lo) and MEMBERS["ppn"](up, lo),
    # the image of each upper point is no smaller than that of the one before
    "on": lambda up, lo: MEMBERS["tn"](up, lo)
    and all(lo.index(a) <= lo.index(b) for a, b in zip(up, up[1:])),
    "sn": lambda up, lo: MEMBERS["tn"](up, lo) and len(set(up)) == len(up),
    "en": lambda up, lo: up == lo,
    # every block has as many upper points as lower ones
    "fn": lambda up, lo: sorted(up) == sorted(lo),
    "in": lambda up, lo: len(set(up)) == len(up) and len(set(lo)) == len(lo),
    "jn": lambda up, lo: set(up) == set(lo),
    # each transversal's upper and lower parts have the same first and last point
    "dn": lambda up, lo: MEMBERS["ppnfd"](up, lo)
    and all(up.index(b) == lo.index(b) and up[::-1].index(b) == lo[::-1].index(b)
            for b in set(up)),
    # a restricted-growth row has interval classes exactly when it never falls
    "pen": lambda up, lo: MEMBERS["en"](up, lo) and list(up) == sorted(up),
}

# the families behind the fields of :class:`Membership`, in field order
_MEMBERSHIP_FAMILIES = ("sn", "tn", "on", "in", "jn", "fn", "en", "pnfd", "ppn", "ppnfd", "dn")


def multiply(a: Diagram, b: Diagram) -> Diagram:
    """Stack ``a`` on top of ``b`` and contract the middle row: the map
    :func:`multiply_by` of ``b``, built for this one product.

    >>> t = collapse(2, 1, 2)   # 2 -> 1
    >>> s = transposition(2, 1)
    >>> multiply(t, s).text()
    '[[1,2,-2],[-1]]'
    """
    return multiply_by(b)(a)


def multiply_by(g: Diagram) -> Callable[[Diagram], Diagram]:
    """The map ``x -> x * g``: :func:`multiply_rows` on diagrams of ``g``'s degree.

    >>> by_s = multiply_by(transposition(2, 1))
    >>> by_s(collapse(2, 1, 2)).text()
    '[[1,2,-2],[-1]]'
    >>> by_s(by_s(identity(2))) == identity(2)
    True
    """
    n, rows = g.n, multiply_rows(g)

    def by(x: Diagram) -> Diagram:
        if x.n != n:
            raise ValueError(f"degrees must match, got {x.n} and {n}")
        return Diagram(n, rows(x.labels), True)  # a ``_canonical=`` keyword costs a few %

    return by


def multiply_rows(g: Diagram) -> Callable[[Row], Row]:
    """The map ``x.labels -> (x * g).labels`` on the label rows of degree
    ``g.n`` diagrams, reading ``g`` once for many products.

    Stacking ``x`` on ``g`` joins two of ``x``'s blocks only through an
    upper block of ``g``: the block with upper points ``i < j < ...`` glues
    ``x``'s blocks of ``i'``, ``j'``, ...  So the map records those pairs of
    middle points, and for each lower point of ``g`` the first middle point
    of its block, or a fresh block when its block has no upper point.  A
    product unions ``x``'s lower labels along the pairs (over ``x``'s at
    most ``2n`` blocks) and numbers the roots by first occurrence along
    ``x``'s upper row and then ``g``'s lower row, so the output is
    canonical by construction.  When ``g`` joins no two middle points (a
    permutation, say), nothing is unioned: ``x``'s upper row is already the
    product's, and only the ``n`` lower labels are numbered.

    >>> multiply_rows(transposition(2, 1))(collapse(2, 1, 2).labels)
    (0, 0, 1, 0)
    """
    n = g.n
    # A product reads its nodes from ``x.labels + tail``: at ``n + i - 1``
    # the block of ``x`` that holds middle point ``i`` (``x``'s ``i'``), and
    # past ``x``'s at most ``2n`` blocks a fresh node for each block of ``g``
    # without upper points.  ``first[b]`` is where the first middle point of
    # ``g``'s upper block ``b`` is read (``g``'s labels are restricted-growth,
    # so its upper blocks are numbered first).
    first: list[int] = []
    pairs = []
    for k, b in enumerate(g.labels[:n], n):
        if b < len(first):
            pairs.append((first[b], k))
        else:
            first.append(k)
    shift = 2 * n - len(first)  # the fresh node of any other block ``b``
    lower = [first[b] if b < len(first) else b + shift for b in g.labels[n:]]
    nodes = (max(g.labels) + 1 if n else 0) + shift
    tail = tuple(range(2 * n, nodes))
    # copied per product: copying a list is cheaper than building it
    roots, blank = list(range(nodes)), [-1] * nodes

    def by(labels: Row) -> Row:
        if pairs:
            parent = roots.copy()
            # each lookup steps to the parent inline and calls ``_find``
            # only when that parent is not yet a root
            for p, q in pairs:
                p = parent[labels[p]]
                if parent[p] != p:
                    p = _find(parent, p)
                q = parent[labels[q]]
                if parent[q] != q:
                    q = _find(parent, q)
                parent[q] = p
            code = blank.copy()
            out: list[int] = []
            push = out.append
            top = 0
            for v in labels[:n]:
                v = parent[v]
                if parent[v] != v:
                    v = _find(parent, v)
                c = code[v]
                if c < 0:
                    c = code[v] = top
                    top += 1
                push(c)
        else:
            # nothing is joined: the upper row is restricted-growth, and its
            # ``top`` labels keep their codes
            parent = roots
            out = list(labels[:n])
            push = out.append
            top = max(out) + 1 if n else 0
            code = roots[:top] + blank[top:]
        labels += tail
        for k in lower:
            v = parent[labels[k]]
            if parent[v] != v:
                v = _find(parent, v)
            c = code[v]
            if c < 0:
                c = code[v] = top
                top += 1
            push(c)
        return tuple(out)

    return by


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
    """``D(d) = embed(d.ker())``; a canonical upper row is the kernel's."""
    up = d.labels[: d.n]
    return Diagram(d.n, up + up, True)


def range_projection(d: Diagram) -> Diagram:
    """``R(d) = embed(d.coker())``: the lower row, renumbered."""
    lo = _normalize(d.labels[d.n :])
    return Diagram(d.n, lo + lo, True)


def range_cap(d: Diagram) -> Diagram:
    """The cap of the cokernel of ``d`` (cokernel must be planar)."""
    return cap(d.coker())


def all_diagrams(n: int) -> Iterator[Diagram]:
    """All diagrams of degree ``n`` in lexicographic order of the encoding."""
    for labels in restricted_growth_sequences(2 * n):
        yield Diagram(n, labels, _canonical=True)


FAMILY_NAMES = tuple(FAMILY_COUNTS)

# the presentation schemas of ``presentations``, named here so that the CLI
# parser can offer them without importing that module
SCHEMA_NAMES = (
    "sing-xr", "full-yq", "planar-zo", "dn", "en", "sing-tn", "tn", "fn", "on",
    "planar-intermediate",
)


# -- generator symbols -------------------------------------------------------


def sym_s(i: int) -> str:
    return f"s_{i}"


def sym_f(i: int) -> str:
    return f"f_{i}"


def sym_g(i: int) -> str:
    return f"g_{i}"


def sym_h(i: int) -> str:
    return f"h_{i}"


def sym_e(i: int, j: int) -> str:
    """Join symbol; the pair is unordered, so the name uses (min, max).

    >>> sym_e(3, 1)
    'e_13'
    """
    if i > j:
        i, j = j, i
    return f"e_{i}{j}"


def sym_t(i: int, j: int) -> str:
    """Collapse symbol sending j onto i; the pair is ordered.

    >>> sym_t(3, 1)
    't_31'
    """
    return f"t_{i}{j}"


def sym_cap(i: int, j: int) -> str:
    """Interval-cap symbol for the span [i, j], i < j.

    >>> sym_cap(2, 5)
    'h_2_5'
    """
    if not i < j:
        raise ValueError(f"a cap span needs i < j, got {i} and {j}")
    return f"h_{i}_{j}"


# -- the generator table -------------------------------------------------------

Pairs = list[tuple[str, Diagram]]


def _strands(n: int, *blocks: list[int]) -> Diagram:
    """The given blocks, with a strand ``{x, x'}`` for every point they miss."""
    used = {abs(v) for block in blocks for v in block}
    return Diagram.from_blocks(n, [*blocks, *([x, -x] for x in range(1, n + 1) if x not in used)])


# Each kind of generator, keyed by its symbol, as its ``(symbol, image)``
# pairs at degree ``n``; a single one is left out below the points it needs.
_KINDS: dict[str, Callable[[int], Pairs]] = {
    "s_i": lambda n: [(sym_s(i), transposition(n, i)) for i in range(1, n)],
    # the adjacent collapses i+1 -> i, then i -> i+1
    "f_i g_i": lambda n: [(sym_f(i), collapse(n, i, i + 1)) for i in range(1, n)]
    + [(sym_g(i), collapse(n, i + 1, i)) for i in range(1, n)],
    "h_i": lambda n: [(sym_h(i), merge(n, i, i + 1)) for i in range(1, n)],
    "e_ij": lambda n: [(sym_e(i, j), merge(n, i, j))
                       for i, j in itertools.combinations(range(1, n + 1), 2)],
    "t_ij": lambda n: [(sym_t(i, j), collapse(n, i, j))
                       for i, j in itertools.permutations(range(1, n + 1), 2)],
    "h_i_j": lambda n: [(sym_cap(i, j), cap_atom(n, i, j))
                        for i, j in itertools.combinations(range(1, n + 1), 2)],
    # i and i' as singletons
    "p_i": lambda n: [(f"p_{i}", _strands(n, [i], [-i])) for i in range(1, n + 1)],
    "p": lambda n: [("p", _strands(n, [1], [-1]))] if n >= 1 else [],
    "e": lambda n: [("e", merge(n, 1, 2))] if n >= 2 else [],
    "t": lambda n: [("t", collapse(n, 1, 2))] if n >= 2 else [],
    # a block bijection that is not uniform
    "b": lambda n: [("b", _strands(n, [1, 2, -1], [3, -2, -3]))] if n >= 3 else [],
}


def _monoid(*kinds: str) -> Callable[[int], tuple[bool, Pairs]]:
    return lambda n: (True, [pair for kind in kinds for pair in _KINDS[kind](n)])


# Each family's generators at degree ``n``: whether it is a monoid (its
# identity the empty word) and its ``(symbol, image)`` pairs in alphabet
# order.  The schemas that present a family read their alphabet here, and
# :func:`diagcalc.engine.carrier` closes it and certifies the closure
# against ``FAMILY_COUNTS`` and ``MEMBERS``.  The sets that no schema
# presents are those of ``pn`` (East, 2011), ``ppn``, ``in``, ``jn`` and
# ``pen``.
GENERATORS: dict[str, Callable[[int], tuple[bool, Pairs]]] = {
    "pn": _monoid("s_i", "p", "e"),
    "pnfd": _monoid("s_i", "e", "t"),
    "ppn": _monoid("p_i", "h_i"),
    "ppnfd": _monoid("f_i g_i", "h_i"),
    "tn": _monoid("s_i", "t"),
    "sing-tn": lambda n: (False, _KINDS["t_ij"](n)),
    "ptn": _monoid("f_i g_i"),
    "on": _monoid("f_i g_i"),
    "sn": _monoid("s_i"),
    "en": _monoid("e_ij"),
    "fn": _monoid("s_i", "e"),
    "in": _monoid("s_i", "p"),
    "jn": _monoid("s_i", "e", "b"),
    "dn": _monoid("h_i_j"),
    "pen": _monoid("h_i"),
}


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

    The elements are those of :func:`diagcalc.engine.carrier`, the closure
    of the family's :data:`GENERATORS` certified against its count and its
    rule in :data:`MEMBERS`, sorted by their labels.  Nothing is filtered
    from all diagrams, so a family counted past the default closure budget
    raises :class:`~diagcalc.engine.BudgetExceeded`, and a wrong generator
    table ``RuntimeError``.

    >>> [len(family(name, 2)) for name in ("pn", "pnfd", "tn", "dn")]
    [15, 5, 4, 2]
    """
    from .engine import carrier  # ``engine`` imports this module

    return sorted(carrier(name, n).elements, key=lambda d: d.labels)
