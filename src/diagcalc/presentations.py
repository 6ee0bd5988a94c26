"""Generator-and-relation descriptions of the diagram monoids.

Each schema instantiates, at a concrete degree ``n``, a finite alphabet of
symbols together with a fully expanded list of defining relations, and a
standard assignment mapping every symbol to the diagram it names.  Words
are tuples of symbols; a relation is a pair of words asserting that both
sides multiply to the same element.

Schema names (all require ``n >= 2``):

========================  =========  ==========================================
name                      kind       presents
========================  =========  ==========================================
``sing-xr``               semigroup  singular full-domain diagrams (joins and
                                     collapses ``e_ij``/``t_ij``)
``full-yq``               monoid     all full-domain diagrams (adjacent swaps
                                     plus one join ``e`` and one collapse ``t``)
``planar-zo``             monoid     planar full-domain diagrams (adjacent
                                     collapses ``f_i``/``g_i`` and joins ``h_i``)
``dn``                    monoid     interval caps ``h_i_j``
``en``                    monoid     joins only (diagonal projections)
``sing-tn``               semigroup  non-bijective transformations
``tn``                    monoid     all transformations
``fn``                    monoid     uniform block bijections
``on``                    monoid     order-preserving transformations
``planar-intermediate``   monoid     planar full-domain diagrams again, over
                                     the mixed alphabet ``f_i``/``g_i``/``h_i_j``
========================  =========  ==========================================

``enumerate_presented`` builds the presented monoid or semigroup exactly by
right-Cayley-graph completion.  ``verify_presentation`` checks soundness,
enumerates, and then evaluates the completed table, one product per
element, to certify that the images are the target and that no two
elements of the presented structure share an image: a single verdict.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Callable, Iterable

# kernel functions that ``perfbench/tracing.py`` wraps are called through
# their module, so the wrappers are used whenever this module was imported
from . import engine, partitions
from .counting import FAMILY_COUNTS
from .engine import DEFAULT_BUDGET, BudgetExceeded, CheckReport, _check_budget
from .equivalences import _find, _Memo, _Record
from .partitions import (
    GENERATORS,
    MEMBERS,
    SCHEMA_NAMES,
    Diagram,
    Row,
    from_transformation,
    identity,
    sym_cap,
    sym_e,
    sym_f,
    sym_g,
    sym_h,
    sym_s,
    sym_t,
)

Word = tuple[str, ...]
Relation = tuple[Word, Word]


# One-letter words: relations are written as concatenations of these.
_s = lambda i: (sym_s(i),)
_f = lambda i: (sym_f(i),)
_g = lambda i: (sym_g(i),)
_h = lambda i: (sym_h(i),)
_e = lambda i, j: (sym_e(i, j),)
_t = lambda i, j: (sym_t(i, j),)
_cap = lambda i, j: (sym_cap(i, j),)


class Presentation(_Record):
    """A symbol alphabet with fully expanded defining relations.

    ``kind`` is ``"monoid"`` or ``"semigroup"``.  ``images``, the standard
    assignment with one image per symbol, is not part of the value.
    """

    __slots__ = ("name", "n", "kind", "alphabet", "relations", "images")
    _hidden = 1
    _defaults = {"images": tuple}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "kind": self.kind,
            "alphabet": list(self.alphabet),
            "relations": [[list(lhs), list(rhs)] for lhs, rhs in self.relations],
        }


class _Relations:
    """Accumulates relations, dropping trivial and repeated pairs.

    A pair already present with its sides swapped counts as repeated.
    """

    def __init__(self) -> None:
        self._pairs: dict[Relation, None] = {}

    def add(self, lhs: Iterable[str], rhs: Iterable[str]) -> None:
        lhs, rhs = tuple(lhs), tuple(rhs)
        if lhs == rhs or (rhs, lhs) in self._pairs:
            return
        self._pairs.setdefault((lhs, rhs), None)

    def chain(self, *words: Iterable[str]) -> None:
        ws = [tuple(w) for w in words]
        for a, b in zip(ws, ws[1:]):
            self.add(a, b)

    def done(self) -> tuple[Relation, ...]:
        return tuple(self._pairs)


# ---------------------------------------------------------------------------
# Schema builders.  Each relation group adds its relations to ``rels``; a
# schema's builder joins its groups to the generators of the families that
# make up its alphabet.


def _join_relations(n: int, rels: _Relations) -> None:
    """Idempotency, commutation, and absorption among the joins e_ij."""
    for i, j in itertools.combinations(range(1, n + 1), 2):
        rels.add(_e(i, j) + _e(i, j), _e(i, j))
        for k, l in itertools.combinations(range(1, n + 1), 2):
            rels.add(_e(i, j) + _e(k, l), _e(k, l) + _e(i, j))
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        rels.add(_e(i, j) + _e(j, k), _e(j, k) + _e(k, i))


def _collapse_relations(n: int, rels: _Relations) -> None:
    """Relations among the point collapses t_ij alone."""
    for i, j in itertools.permutations(range(1, n + 1), 2):
        rels.chain(_t(i, j) + _t(i, j), _t(i, j), _t(j, i) + _t(i, j))
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        rels.add(_t(i, k) + _t(j, k), _t(i, k))
        rels.chain(_t(i, j) + _t(i, k), _t(i, k) + _t(i, j), _t(j, k) + _t(i, j))
        rels.add(_t(k, i) + _t(i, j) + _t(j, k), _t(i, k) + _t(k, j) + _t(j, i) + _t(i, k))
    for i, j, k, l in itertools.permutations(range(1, n + 1), 4):
        rels.add(_t(i, j) + _t(k, l), _t(k, l) + _t(i, j))
        rels.add(
            _t(k, i) + _t(i, j) + _t(j, k) + _t(k, l),
            _t(i, k) + _t(k, l) + _t(l, i) + _t(i, j) + _t(j, l),
        )


def _sing_xr_relations(n: int, rels: _Relations) -> None:
    """Relations between the joins e_ij and the collapses t_ij."""
    for i, j in itertools.permutations(range(1, n + 1), 2):
        rels.add(_e(i, j) + _t(i, j), _t(i, j))
        rels.add(_t(i, j) + _e(i, j), _e(i, j))
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        rels.add(_e(j, k) + _t(i, j), _t(i, j) + _e(i, k))
    for i, j, k, l in itertools.permutations(range(1, n + 1), 4):
        rels.add(_e(k, l) + _t(i, j), _t(i, j) + _e(k, l))


def _swap_relations(n: int, rels: _Relations) -> None:
    """Coxeter relations for the adjacent swaps s_1 .. s_{n-1}."""
    for i in range(1, n):
        rels.add(_s(i) + _s(i), ())
    for i, j in itertools.permutations(range(1, n), 2):
        if abs(i - j) > 1:
            rels.add(_s(i) + _s(j), _s(j) + _s(i))
        else:
            rels.add(_s(i) + _s(j) + _s(i), _s(j) + _s(i) + _s(j))


def _full_yq_relations(n: int, rels: _Relations) -> None:
    """Relations of the join e and the collapse t with each other and the swaps."""
    e, t = ("e",), ("t",)
    rels.chain(t + t, t, e + t, _s(1) + t)
    rels.chain(e + e, e, t + e, _s(1) + e, e + _s(1))
    for i in range(3, n):
        rels.add(_s(i) + t, t + _s(i))
        rels.add(_s(i) + e, e + _s(i))
    if n >= 3:
        rels.add(t + _s(1) + _s(2) + t, t + _s(1) + _s(2) + _s(1))
        rels.add(t + _s(2) + t + _s(2), _s(2) + t + _s(2) + t)
        rels.add(e + _s(2) + e + _s(2), _s(2) + e + _s(2) + e)
        rels.add(t + _s(2) + e + _s(2), _s(2) + e + _s(2) + t)
    if n >= 4:
        w = _s(2) + _s(3) + _s(1) + _s(2)
        rels.add(t + w + t + w, w + t + w + t)
        rels.add(e + w + e + w, w + e + w + e)
        rels.add(t + w + e + w, w + e + w + t)


def _adjacent_collapse_relations(n: int, rels: _Relations) -> None:
    """Relations among the adjacent collapses f_i (forward) and g_i (backward)."""
    for x in (_f, _g):
        for y in (_f, _g):
            for i in range(1, n):
                rels.add(x(i) + y(i), y(i))
    for fam in (_f, _g):
        for i, j in itertools.permutations(range(1, n), 2):
            if abs(i - j) > 1:
                rels.add(fam(i) + fam(j), fam(j) + fam(i))
    for i in range(1, n - 1):
        rels.chain(_f(i) + _f(i + 1) + _f(i), _f(i + 1) + _f(i) + _f(i + 1), _f(i + 1) + _f(i))
        rels.chain(_g(i) + _g(i + 1) + _g(i), _g(i + 1) + _g(i) + _g(i + 1), _g(i) + _g(i + 1))
    for i in range(1, n):
        for j in range(1, n):
            if j not in (i, i + 1):
                rels.add(_f(i) + _g(j), _g(j) + _f(i))
    for i in range(1, n - 1):
        rels.add(_f(i) + _g(i + 1), _f(i))
        rels.add(_g(i + 1) + _f(i), _g(i + 1))


def _planar_zo_relations(n: int, rels: _Relations) -> None:
    """Relations of the adjacent joins h_i with themselves and f_i, g_i."""
    for x in (_f, _g, _h):
        for y in (_f, _g, _h):
            for i in range(1, n):
                rels.add(x(i) + y(i), y(i))
    for i, j in itertools.permutations(range(1, n), 2):
        rels.add(_h(i) + _h(j), _h(j) + _h(i))
    for i in range(1, n):
        for j in range(1, n):
            if j not in (i, i - 1):
                rels.add(_h(i) + _f(j), _f(j) + _h(i))
            if j not in (i, i + 1):
                rels.add(_h(i) + _g(j), _g(j) + _h(i))
    for i in range(1, n - 1):
        rels.add(_h(i) + _g(i + 1), _h(i + 1) + _f(i))


def _cap_relations(n: int, rels: _Relations) -> None:
    """Absorption, commutation, and overlap relations among interval caps."""
    spans = list(itertools.combinations(range(1, n + 1), 2))
    for (i, j), (k, l) in itertools.product(spans, spans):
        if k <= i and j <= l:
            rels.add(_cap(i, j) + _cap(k, l), _cap(k, l))
        elif j <= k:
            rels.add(_cap(i, j) + _cap(k, l), _cap(k, l) + _cap(i, j))
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        rels.chain(_cap(i, j) + _cap(j, k), _cap(i, k) + _cap(i, j), _cap(i, k) + _cap(j, k))


def _tn_relations(n: int, rels: _Relations) -> None:
    """Relations of the collapse t with itself and the swaps."""
    t = ("t",)
    rels.add(t + t, t)
    rels.add(_s(1) + t, t)
    for i in range(3, n):
        rels.add(_s(i) + t, t + _s(i))
    if n >= 3:
        rels.add(t + _s(1) + _s(2) + t, t + _s(1) + _s(2) + _s(1))
        rels.add(t + _s(2) + t + _s(2), _s(2) + t + _s(2) + t)
        rels.add(t + _s(2) + t + _s(2), t + _s(2) + t)
    if n >= 4:
        w = _s(2) + _s(3) + _s(1) + _s(2)
        rels.add(t + w + t + w, w + t + w + t)


def _fn_relations(n: int, rels: _Relations) -> None:
    """Relations of the join e with itself and the swaps."""
    e = ("e",)
    rels.add(e + e, e)
    rels.add(_s(1) + e, e)
    rels.add(e + _s(1), e)
    for i in range(3, n):
        rels.add(_s(i) + e, e + _s(i))
    if n >= 3:
        rels.add(e + _s(2) + e + _s(2), _s(2) + e + _s(2) + e)
    if n >= 4:
        w = _s(2) + _s(3) + _s(1) + _s(2)
        rels.add(e + w + e + w, w + e + w + e)


def _planar_intermediate_relations(n: int, rels: _Relations) -> None:
    """Relations between the interval caps h_i_j and f_i, g_i."""

    def hull(i: int, j: int) -> Word:
        # degenerate spans vanish: the cap over [i, i] is the identity
        return () if i == j else _cap(i, j)

    for i, j in itertools.combinations(range(1, n + 1), 2):
        for k in range(1, n):
            if k == i - 1:
                rhs = _f(k) + hull(i - 1, j)
            elif k == j - 1:
                rhs = _f(k) + hull(i, j - 1)
            else:
                rhs = _f(k) + _cap(i, j)
            rels.add(_cap(i, j) + _f(k), rhs)
            if k == i:
                rhs = _g(k) + hull(i + 1, j)
            elif k == j:
                rhs = _g(k) + hull(i, j + 1)
            else:
                rhs = _g(k) + _cap(i, j)
            rels.add(_cap(i, j) + _g(k), rhs)
    for i in range(1, n):
        rels.add(_f(i) + _cap(i, i + 1), _cap(i, i + 1))


def _builder(families: tuple[str, ...], *groups: Callable[[int, _Relations], None]) -> Callable:
    """A schema's builder: at degree ``n`` it returns the kind, the
    ``(symbol, image)`` pairs of ``families``' generators in order (a
    semigroup when one of them is), and the relations of ``groups``."""

    def build(n: int) -> tuple[str, list[tuple[str, Diagram]], tuple[Relation, ...]]:
        monoid, pairs = True, []
        for family in families:
            is_monoid, more = GENERATORS[family](n)
            monoid, pairs = monoid and is_monoid, pairs + more
        rels = _Relations()
        for group in groups:
            group(n, rels)
        return "monoid" if monoid else "semigroup", pairs, rels.done()

    return build


_BUILDERS: dict[str, Callable] = {
    "sing-xr": _builder(("en", "sing-tn"), _collapse_relations, _join_relations,
                        _sing_xr_relations),
    "full-yq": _builder(("pnfd",), _swap_relations, _full_yq_relations),
    "planar-zo": _builder(("ppnfd",), _adjacent_collapse_relations, _planar_zo_relations),
    "dn": _builder(("dn",), _cap_relations),
    "en": _builder(("en",), _join_relations),
    "sing-tn": _builder(("sing-tn",), _collapse_relations),
    "tn": _builder(("tn",), _swap_relations, _tn_relations),
    "fn": _builder(("fn",), _swap_relations, _fn_relations),
    "on": _builder(("on",), _adjacent_collapse_relations),
    "planar-intermediate": _builder(("on", "dn"), _adjacent_collapse_relations, _cap_relations,
                                    _planar_intermediate_relations),
}


def _check_schema(name: str, n: int) -> None:
    if name not in _BUILDERS:
        raise ValueError(f"unknown schema {name!r}; expected one of {', '.join(SCHEMA_NAMES)}")
    if n < 2:
        raise ValueError(f"schemas are defined for n >= 2, got n={n}")


def schema(name: str, n: int) -> Presentation:
    """The presentation named ``name`` instantiated at degree ``n``.

    >>> p = schema("dn", 3)
    >>> p.alphabet
    ('h_1_2', 'h_1_3', 'h_2_3')
    >>> schema("full-yq", 5).alphabet
    ('s_1', 's_2', 's_3', 's_4', 'e', 't')
    """
    _check_schema(name, n)
    kind, pairs, relations = _BUILDERS[name](n)
    alphabet, images = zip(*pairs)
    return Presentation(name, n, kind, alphabet, relations, images)


def standard_assignment(name: str, n: int) -> dict[str, Diagram]:
    """The generator images for ``schema(name, n)``, keyed by symbol.

    >>> standard_assignment("sing-xr", 3)["t_12"].text()
    '[[1,2,-1],[3,-3],[-2]]'
    >>> standard_assignment("sing-xr", 3)["e_12"].text()
    '[[1,2,-1,-2],[3,-3]]'
    """
    p = schema(name, n)
    return dict(zip(p.alphabet, p.images))


def eval_word(assignment: dict[str, Diagram], word: Iterable[str]) -> Diagram:
    """Left-to-right product of the images of ``word``; empty word → identity.

    >>> asg = standard_assignment("planar-zo", 3)
    >>> eval_word(asg, ["h_1", "g_2"]).text()
    '[[1,2,3,-1,-3],[-2]]'
    """
    if not assignment:
        raise ValueError("eval_word needs a nonempty assignment to read the degree from")
    out = identity(next(iter(assignment.values())).n)
    for symbol in word:
        out = partitions.multiply(out, assignment[symbol])
    return out


def check_soundness(pres: Presentation, assignment: dict[str, Diagram]) -> CheckReport:
    """Evaluate both sides of every relation; report the first mismatch.

    Each distinct prefix of a relation side is multiplied out once per call,
    as its longest proper prefix's value times the image of its last letter,
    through that image's map on label rows
    (:func:`diagcalc.partitions.multiply_rows`); diagrams are built only for
    a mismatch's witness.
    """
    n = pres.n

    def times(symbol: str) -> Callable[[Row], Row]:
        image = assignment[symbol]
        if image.n != n:
            raise ValueError(f"degrees must match, got {n} and {image.n}")
        return partitions.multiply_rows(image)

    by = _Memo(times)
    value = _Memo(lambda word: by[word[-1]](value[word[:-1]]))
    value[()] = tuple(range(n)) * 2  # identity(n)'s row

    checked, witness = 0, None
    for lhs, rhs in pres.relations:
        checked += 1
        left = value[lhs]
        right = value[rhs]
        if left != right:
            witness = (" ".join(lhs) or "1", " ".join(rhs) or "1",
                       Diagram(n, left, True).text(), Diagram(n, right, True).text())
            break
    return CheckReport(
        name=f"soundness:{pres.name}:n={pres.n}",
        holds=witness is None,
        witness=witness,
        counts={"relations": len(pres.relations), "checked": checked},
    )


# ---------------------------------------------------------------------------
# Concrete targets, built independently of the schemas.


# The family each schema presents, where its name is not the family's.
# sing-xr presents Pnfd without its n! units, which is not one of the
# families.
PRESENTS: dict[str, str | None] = {
    "sing-xr": None,
    "full-yq": "pnfd",
    "planar-zo": "ppnfd",
    "planar-intermediate": "ppnfd",
}


class Target:
    """A concrete model of degree ``n`` given by its size and a membership
    test.

    ``size`` (``len()`` too, up to ``sys.maxsize``) is read from
    :data:`diagcalc.counting.FAMILY_COUNTS` without building a diagram, and
    ``in`` reads only a diagram's labels.
    """

    __slots__ = ("n", "size", "member")

    def __init__(self, n: int, size: int, member: Callable[[Row, Row], bool]):
        self.n, self.size, self.member = n, size, member

    def __len__(self) -> int:
        return self.size

    def __contains__(self, d: Diagram) -> bool:
        n = self.n
        return d.n == n and self.member(d.labels[:n], d.labels[n:])


def target_elements(name: str, n: int) -> Target:
    """The concrete model that ``schema(name, n)`` is supposed to present.

    Neither the count nor the membership test goes through the generators,
    so agreement with the generated closure is an actual check: when every
    closure element is in the model and the closure has the model's size,
    the two are equal.  :func:`diagcalc.partitions.family` lists the same
    models, certified the same way; the tests check both against filters of
    all diagrams.

    >>> target = target_elements("planar-zo", 6)
    >>> len(target), identity(6) in target, partitions.cap_atom(6, 2, 5) in target
    (3808, True, True)
    >>> Diagram.from_text("[[1,-2],[2,-1]]") in target_elements("planar-zo", 2)
    False
    """
    _check_schema(name, n)
    presented = PRESENTS.get(name, name)
    if presented is None:  # sing-xr: the full-domain diagrams that are not permutations
        return Target(n, FAMILY_COUNTS["pnfd"](n) - factorial(n),
                      lambda up, lo: MEMBERS["pnfd"](up, lo) and not MEMBERS["sn"](up, lo))
    return Target(n, FAMILY_COUNTS[presented](n), MEMBERS[presented])


# ---------------------------------------------------------------------------
# Exact enumeration of a presented monoid or semigroup.


class EnumerationResult(_Record):
    """Outcome of ``enumerate_presented``.

    ``table`` is the right Cayley table of the quotient, numbered by a
    breadth-first search from the empty-word node in letter order: row 0 is
    the empty word, and the rows then follow in order of first appearance.
    That numbering depends only on the presented structure, never on the
    order in which the enumeration allocated and merged nodes.  For a
    semigroup presentation the root node stands outside the semigroup, so
    ``size`` is one less than the number of rows; for a monoid it is the row
    count.  ``node_budget_used`` counts the nodes allocated, merged ones
    included, not the nodes live at the end.  ``status`` is ``"completed"``
    or ``"exhausted"``.
    """

    __slots__ = ("status", "size", "table", "node_budget_used")


def _prefix_table(
    relations: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
) -> tuple[list[tuple[int, int]], list[tuple[int, int, int, int]]]:
    """Share the relations' proper prefixes and name each relation's closing.

    Slot 0 is the empty prefix; every other slot is a distinct proper prefix
    of some relation side, stored as (parent slot, last letter) after its
    parent.  A relation becomes ``(su, xu, sv, xv)``: side ``u`` ends with
    letter ``xu`` after the prefix in slot ``su``, and likewise ``v``.  An
    empty side is always ``v`` and is ``(sv, xv) = (-1, 0)``: the last row
    of the scan's prefix ends holds only the scanned node, which is where
    ``u = 1`` leads.  Relations with equal sides and repeated closings are
    dropped.

    >>> _prefix_table([((0, 1, 1), (0, 1)), ((1,), ())])
    ([(0, 0), (1, 1)], [(2, 1, 1, 1), (0, 1, -1, 0)])
    """
    slot_of: dict[tuple[int, ...], int] = {(): 0}
    slots: list[tuple[int, int]] = []

    def end(side: tuple[int, ...]) -> tuple[int, int]:
        for i in range(1, len(side)):
            if side[:i] not in slot_of:
                slot_of[side[:i]] = len(slot_of)
                slots.append((slot_of[side[: i - 1]], side[i - 1]))
        return slot_of[side[:-1]], side[-1]

    closers: dict[tuple[int, int, int, int], None] = {}
    for u, v in relations:
        if u == v:
            continue
        if not u:
            u, v = v, u
        closer = (*end(u), *end(v)) if v else (*end(u), -1, 0)
        closers.setdefault(closer, None)
    return slots, list(closers)


def enumerate_presented(pres: Presentation, *, budget: int = DEFAULT_BUDGET) -> EnumerationResult:
    """Exactly enumerate the monoid or semigroup presented by ``pres``.

    Completes the right Cayley graph of the quotient in
    Hazelgrove–Leech–Trotter order (Coleman, Mitchell, Smith & Tsalakou,
    *The Todd–Coxeter algorithm for semigroups and monoids*, 2022): live
    nodes are scanned in index order from the empty-word node.  A scanned
    node first gets its missing letter edges; then every distinct proper
    prefix of a relation side is traced from it once, through the prefix
    table of :func:`_prefix_table`, allocating a node for each missing edge.
    Each relation ``u = v`` is then closed by the last letters of its two
    prefix ends (scan and fill): edges already equal, most of them, stay;
    a missing edge is set to the other's end, two missing edges get one new
    node, and different node ids are merged before the next node is scanned.

    Merging never separates nodes, so every equality established along the
    way survives to the end; when the scan drains within ``budget`` allocated
    nodes, the surviving table is exactly the presented structure.  On budget
    exhaustion the result carries status ``"exhausted"`` and no size — never
    a wrong one.  An unknown ``kind``, a repeated alphabet symbol, a relation
    symbol outside the alphabet and a budget below 1 raise ``ValueError``; a
    budget that is not an ``int``, or is a ``bool``, raises ``TypeError``.

    >>> enumerate_presented(schema("dn", 3)).size
    5
    """
    _check_budget(budget)
    if pres.kind not in ("monoid", "semigroup"):
        raise ValueError(f"kind must be 'monoid' or 'semigroup', got {pres.kind!r}")
    if pres.kind == "semigroup" and not all(lhs and rhs for lhs, rhs in pres.relations):
        raise ValueError("semigroup relations must have nonempty sides")
    index = {symbol: a for a, symbol in enumerate(pres.alphabet)}
    if len(index) < len(pres.alphabet):
        raise ValueError("alphabet symbols must be distinct")
    try:
        relations = [tuple(tuple(index[x] for x in side) for side in rel) for rel in pres.relations]
    except KeyError as missing:
        raise ValueError(f"relation symbol {missing.args[0]!r} is not in the alphabet") from None
    slots, closers = _prefix_table(relations)
    k = len(pres.alphabet)

    fresh = iter(range(1, budget))  # node ids: running out is exhaustion
    blank = [-1] * k
    parent = [0]
    rows: list[list[int] | None] = [blank[:]]
    pending: list[tuple[int, int]] = []
    try:
        scan = 0
        while scan < len(parent):
            if parent[scan] != scan:
                scan += 1
                continue
            row = rows[scan]
            if -1 in row:
                for letter in range(k):
                    if row[letter] < 0:
                        row[letter] = x = next(fresh)
                        parent.append(x)
                        rows.append(blank[:])

            # Trace every shared prefix once.  Merges wait until every
            # relation is closed, so the rows in ``ends`` stay live.
            ends = [row]
            for slot, letter in slots:
                row = ends[slot]
                y = row[letter]
                if y < 0:
                    row[letter] = y = next(fresh)
                    parent.append(y)
                    rows.append(blank[:])
                elif parent[y] != y:
                    y = row[letter] = _find(parent, y)
                ends.append(rows[y])

            # Close every relation.  Raw edge ids are compared first: equal
            # ids need no root, and a clash is queued raw, since the merge
            # drain finds the roots.  A missing edge gets the other's root.
            ends.append([scan])  # slot -1: u = 1 leads back to the scanned node
            for su, xu, sv, xv in closers:
                y, z = ends[su][xu], ends[sv][xv]
                if y == z:
                    if y >= 0:
                        continue
                    ends[su][xu] = ends[sv][xv] = x = next(fresh)
                    parent.append(x)
                    rows.append(blank[:])
                elif y < 0:
                    ends[su][xu] = z if parent[z] == z else _find(parent, z)
                elif z < 0:
                    ends[sv][xv] = y if parent[y] == y else _find(parent, y)
                else:
                    pending.append((y, z))

            # Fold the edge rows of merged nodes together; clashing edges
            # queue further merges.  The smaller index survives as the root.
            while pending:
                a, b = pending.pop()
                if parent[a] != a:
                    a = _find(parent, a)
                if parent[b] != b:
                    b = _find(parent, b)
                if a == b:
                    continue
                if b < a:
                    a, b = b, a
                parent[b] = a
                row_a, row_b = rows[a], rows[b]
                rows[b] = None
                for letter in range(k):
                    y = row_b[letter]
                    if y >= 0:
                        z = row_a[letter]
                        if z < 0:
                            row_a[letter] = y
                        elif z != y:
                            pending.append((z, y))
            scan += 1
    except StopIteration:
        return EnumerationResult("exhausted", None, None, budget)

    # Number the live nodes in breadth-first order from the root.
    number = [-1] * len(parent)
    number[0] = 0
    order = [0]
    for x in order:
        row = rows[x]
        for letter, y in enumerate(row):
            if parent[y] != y:
                y = row[letter] = _find(parent, y)
            if number[y] < 0:
                number[y] = len(order)
                order.append(y)
    table = tuple(tuple(map(number.__getitem__, rows[x])) for x in order)
    size = len(order) if pres.kind == "monoid" else len(order) - 1
    return EnumerationResult("completed", size, table, len(parent))


class PresentationReport(_Record):
    """Verdict of ``verify_presentation``.

    ``status`` is ``"verified"`` when soundness, generation, and the size
    comparison all pass; ``"refuted"`` when any of them fails; and
    ``"exhausted"`` when the node or closure budget ran out first, which is
    inconclusive rather than a failure.
    """

    __slots__ = ("name", "n", "status", "sound", "witness", "target_size", "closure_size",
                 "enumerated_size", "node_budget_used")

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "status": self.status,
            "sound": self.sound,
            "witness": list(self.witness) if self.witness else None,
            "target_size": self.target_size,
            "closure_size": self.closure_size,
            "enumerated_size": self.enumerated_size,
            "node_budget_used": self.node_budget_used,
        }


def verify_presentation(name: str, n: int, *, budget: int = DEFAULT_BUDGET) -> PresentationReport:
    """End-to-end check that ``schema(name, n)`` presents its target.

    First every relation must hold under the standard assignment, so that
    evaluation ``phi`` is a homomorphism from the presented structure ``M``
    onto the monoid or semigroup its images generate.  Then ``M`` is
    enumerated, and each row of its table is evaluated once, along the
    breadth-first tree that numbers the rows: ``phi(x a) = phi(x) image(a)``,
    about one product per element.  Being onto, ``phi`` has exactly as many
    distinct values as the images generate, which the report gives as
    ``closure_size``.  If every value is in the target, there are as many
    values as the target's independently counted size, and ``|M|`` is that
    size too, then ``phi`` is a bijection onto the target, an isomorphism.
    The target is never listed.

    When the enumeration exhausts its budget, a Froidure–Pin closure of the
    images decides instead between a refutation (the images do not
    generate the target) and an inconclusive verdict.  So an assignment
    that is sound but does not generate the target is refuted only after
    the enumeration, whose cost ``budget`` bounds.
    """
    _check_budget(budget)
    pres = schema(name, n)
    assignment = dict(zip(pres.alphabet, pres.images))
    target = target_elements(name, n)
    target_size = target.size  # ``len()`` stops at ``sys.maxsize``, n**n does not

    soundness = check_soundness(pres, assignment)
    if not soundness.holds:
        return PresentationReport(
            name, n, "refuted", False, soundness.witness, target_size, None, None, 0
        )

    monoid = pres.kind == "monoid"
    outcome = enumerate_presented(pres, budget=budget)
    if outcome.status == "completed":
        # Row y, first reached from the earlier row x by letter a, evaluates
        # to value[x] * image(a), through the image's map on label rows.  The
        # root row is the empty word: the rows it reaches are the images, and
        # in a semigroup it is no element.
        images = pres.images
        times = [partitions.multiply_rows(image) for image in images]
        value: list = [identity(n).labels] + [None] * (len(outcome.table) - 1)
        for x, row in enumerate(outcome.table):
            for a, y in enumerate(row):
                if value[y] is None:
                    value[y] = times[a](value[x]) if x else images[a].labels
        generated = set(value if monoid else value[1:])
    else:
        try:  # the closure's index is keyed by the label rows
            generated = engine.closure(n, pres.images, monoid=monoid, budget=budget).index
        except BudgetExceeded:
            return PresentationReport(
                name, n, "exhausted", True, None, target_size, None, None, budget
            )
    closure_size = len(generated)
    if closure_size != target_size or not all(target.member(r[:n], r[n:]) for r in generated):
        return PresentationReport(
            name, n, "refuted", True, None, target_size, closure_size, None, 0
        )
    if outcome.status == "exhausted":
        return PresentationReport(
            name, n, "exhausted", True, None, target_size, closure_size, None,
            outcome.node_budget_used,
        )
    status = "verified" if outcome.size == target_size else "refuted"
    return PresentationReport(
        name, n, status, True, None, target_size, closure_size, outcome.size,
        outcome.node_budget_used,
    )


# ---------------------------------------------------------------------------
# Derived words.


def derived_word(kind: str, i: int, j: int, n: int) -> Word:
    """Named words used to move between the presentations.

    ``c``        conjugator bringing {i, j} to {1, 2} (i < j);
    ``epsilon``  conjugated join, evaluating to the join of i and j;
    ``tau``      conjugated collapse, evaluating to the collapse j -> i
                 (either order of i, j is allowed);
    ``alpha``    cap word h_i g_{i+1} .. g_{j-1} (i < j);
    ``beta``     cap word h_{j-1} f_{j-2} .. f_i (i < j).

    >>> derived_word("c", 1, 2, 4)
    ()
    >>> derived_word("epsilon", 1, 2, 4)
    ('e',)
    >>> derived_word("tau", 2, 1, 4)
    ('t', 's_1')
    >>> derived_word("alpha", 1, 3, 4)
    ('h_1', 'g_2')
    >>> derived_word("beta", 1, 3, 4)
    ('h_2', 'f_1')
    """
    lo, hi = min(i, j), max(i, j)
    if not (1 <= lo < hi <= n):
        raise ValueError(f"need distinct indices within 1..{n}, got ({i}, {j})")
    if kind in ("c", "alpha", "beta") and i > j:
        raise ValueError(f"{kind} words require i < j, got ({i}, {j})")
    conj = tuple(sym_s(x) for x in range(2, hi)) + tuple(sym_s(x) for x in range(1, lo))
    back = conj[::-1]
    if kind == "c":
        return conj
    if kind == "epsilon":
        return back + ("e",) + conj
    if kind == "tau":
        middle = ("t",) if i < j else ("t", "s_1")
        return back + middle + conj
    if kind == "alpha":
        return (sym_h(i),) + tuple(sym_g(x) for x in range(i + 1, j))
    if kind == "beta":
        return (sym_h(j - 1),) + tuple(sym_f(x) for x in range(j - 2, i - 1, -1))
    raise ValueError(f"unknown derived word kind {kind!r}")


# ---------------------------------------------------------------------------
# Product factorizations.


def factor_product(a: Diagram, mode: str) -> tuple[Diagram, Diagram]:
    """Split ``a`` into a transformation times a fixed right factor.

    ``"tn-en"``: any full-domain diagram factors as b * u where b is the
    transformation sending each transversal's upper part to the least
    member of its lower part and u is the range projection of ``a``.

    ``"on-dn"``: any planar full-domain diagram factors as f * d where d is
    the cap of coker(a) and f is the order-preserving map sending each
    transversal's upper part to the least member of its lower part (which
    is the left end of the matching cap interval).

    The least member is chosen to make the left factor deterministic; any
    member of the lower part would do.

    >>> a = Diagram.from_text("[[1,2,3,4,5,-1],[-2,-5],[-3,-4]]")
    >>> f, d = factor_product(a, "on-dn")
    >>> f.text()
    '[[1,2,3,4,5,-1],[-2],[-3],[-4],[-5]]'
    >>> d.text()
    '[[1,-1],[2,3,4,5,-2,-5],[-3,-4]]'
    >>> partitions.multiply(f, d) == a
    True
    """
    if mode == "tn-en":
        if not a.is_full_domain():
            raise ValueError("tn-en factorization needs a full-domain diagram")
        right = partitions.range_projection(a)
    elif mode == "on-dn":
        if not (a.is_full_domain() and a.is_planar()):
            raise ValueError("on-dn factorization needs a planar full-domain diagram")
        right = partitions.cap(a.coker())
    else:
        raise ValueError(f"unknown factorization mode {mode!r}")
    images = [0] * a.n
    for upper, lower in a.structure().transversals:
        least = min(lower)
        for x in upper:
            images[x - 1] = least
    left = from_transformation(images)
    return left, right
