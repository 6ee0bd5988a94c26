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
right-Cayley-graph completion, and ``verify_presentation`` combines it with
soundness and generation checks into a single verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Iterable

# kernel functions that ``perfbench/tracing.py`` wraps are called through
# their module, so the wrappers are used whenever this module was imported
from . import engine, partitions
from .counting import (
    bell,
    catalan,
    full_domain_count,
    order_preserving_count,
    planar_full_domain_count,
    uniform_block_bijection_count,
)
from .engine import DEFAULT_BUDGET, BudgetExceeded, CheckReport
from .equivalences import _find
from .partitions import (
    SCHEMA_NAMES,
    Diagram,
    Row,
    _rows_cap,
    _rows_full_domain,
    _rows_order_preserving,
    _rows_planar_full_domain,
    _rows_transformation,
    cap_atom,
    collapse,
    from_transformation,
    identity,
    merge,
    transposition,
)

Word = tuple[str, ...]
Relation = tuple[Word, Word]


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


# One-letter words: relations are written as concatenations of these.
_s = lambda i: (sym_s(i),)
_f = lambda i: (sym_f(i),)
_g = lambda i: (sym_g(i),)
_h = lambda i: (sym_h(i),)
_e = lambda i, j: (sym_e(i, j),)
_t = lambda i, j: (sym_t(i, j),)
_cap = lambda i, j: (sym_cap(i, j),)


@dataclass(frozen=True)
class Presentation:
    """A symbol alphabet with fully expanded defining relations."""

    name: str
    n: int
    kind: str  # "monoid" or "semigroup"
    alphabet: tuple[str, ...]
    relations: tuple[Relation, ...]
    # the standard assignment, one image per symbol; not part of the value
    images: tuple[Diagram, ...] = field(default=(), compare=False, repr=False)

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

    def extend(self, relations: Iterable[Relation]) -> None:
        for lhs, rhs in relations:
            self.add(lhs, rhs)

    def done(self) -> tuple[Relation, ...]:
        return tuple(self._pairs)


# ---------------------------------------------------------------------------
# Schema builders.  Each returns (kind, [(symbol, image), ...], relations).


def _pair_alphabet(n: int) -> tuple[list[tuple[str, Diagram]], list[tuple[str, Diagram]]]:
    joins = [(sym_e(i, j), merge(n, i, j)) for i, j in itertools.combinations(range(1, n + 1), 2)]
    collapses = [(sym_t(i, j), collapse(n, i, j)) for i, j in itertools.permutations(range(1, n + 1), 2)]
    return joins, collapses


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


def _build_sing_xr(n: int):
    joins, collapses = _pair_alphabet(n)
    rels = _Relations()
    _collapse_relations(n, rels)
    _join_relations(n, rels)
    for i, j in itertools.permutations(range(1, n + 1), 2):
        rels.add(_e(i, j) + _t(i, j), _t(i, j))
        rels.add(_t(i, j) + _e(i, j), _e(i, j))
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        rels.add(_e(j, k) + _t(i, j), _t(i, j) + _e(i, k))
    for i, j, k, l in itertools.permutations(range(1, n + 1), 4):
        rels.add(_e(k, l) + _t(i, j), _t(i, j) + _e(k, l))
    return "semigroup", joins + collapses, rels.done()


def _swap_relations(n: int, rels: _Relations) -> None:
    """Coxeter relations for the adjacent swaps s_1 .. s_{n-1}."""
    for i in range(1, n):
        rels.add(_s(i) + _s(i), ())
    for i, j in itertools.permutations(range(1, n), 2):
        if abs(i - j) > 1:
            rels.add(_s(i) + _s(j), _s(j) + _s(i))
        else:
            rels.add(_s(i) + _s(j) + _s(i), _s(j) + _s(i) + _s(j))


def _build_full_yq(n: int):
    pairs = [(sym_s(i), transposition(n, i)) for i in range(1, n)]
    pairs.append(("e", merge(n, 1, 2)))
    pairs.append(("t", collapse(n, 1, 2)))
    e, t = ("e",), ("t",)
    rels = _Relations()
    _swap_relations(n, rels)
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
    return "monoid", pairs, rels.done()


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


def _build_planar_zo(n: int):
    pairs = [(sym_f(i), collapse(n, i, i + 1)) for i in range(1, n)]
    pairs += [(sym_g(i), collapse(n, i + 1, i)) for i in range(1, n)]
    pairs += [(sym_h(i), merge(n, i, i + 1)) for i in range(1, n)]
    rels = _Relations()
    _adjacent_collapse_relations(n, rels)
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
    return "monoid", pairs, rels.done()


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


def _build_dn(n: int):
    pairs = [(sym_cap(i, j), cap_atom(n, i, j)) for i, j in itertools.combinations(range(1, n + 1), 2)]
    rels = _Relations()
    _cap_relations(n, rels)
    return "monoid", pairs, rels.done()


def _build_en(n: int):
    joins, _ = _pair_alphabet(n)
    rels = _Relations()
    _join_relations(n, rels)
    return "monoid", joins, rels.done()


def _build_sing_tn(n: int):
    _, collapses = _pair_alphabet(n)
    rels = _Relations()
    _collapse_relations(n, rels)
    return "semigroup", collapses, rels.done()


def _build_tn(n: int):
    pairs = [(sym_s(i), transposition(n, i)) for i in range(1, n)]
    pairs.append(("t", collapse(n, 1, 2)))
    t = ("t",)
    rels = _Relations()
    _swap_relations(n, rels)
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
    return "monoid", pairs, rels.done()


def _build_fn(n: int):
    pairs = [(sym_s(i), transposition(n, i)) for i in range(1, n)]
    pairs.append(("e", merge(n, 1, 2)))
    e = ("e",)
    rels = _Relations()
    _swap_relations(n, rels)
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
    return "monoid", pairs, rels.done()


def _build_on(n: int):
    pairs = [(sym_f(i), collapse(n, i, i + 1)) for i in range(1, n)]
    pairs += [(sym_g(i), collapse(n, i + 1, i)) for i in range(1, n)]
    rels = _Relations()
    _adjacent_collapse_relations(n, rels)
    return "monoid", pairs, rels.done()


def _build_planar_intermediate(n: int):
    pairs = [(sym_f(i), collapse(n, i, i + 1)) for i in range(1, n)]
    pairs += [(sym_g(i), collapse(n, i + 1, i)) for i in range(1, n)]
    pairs += [(sym_cap(i, j), cap_atom(n, i, j)) for i, j in itertools.combinations(range(1, n + 1), 2)]

    def hull(i: int, j: int) -> Word:
        # degenerate spans vanish: the cap over [i, i] is the identity
        return () if i == j else _cap(i, j)

    rels = _Relations()
    _adjacent_collapse_relations(n, rels)
    _cap_relations(n, rels)
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
    return "monoid", pairs, rels.done()


_BUILDERS: dict[str, Callable] = {
    "sing-xr": _build_sing_xr,
    "full-yq": _build_full_yq,
    "planar-zo": _build_planar_zo,
    "dn": _build_dn,
    "en": _build_en,
    "sing-tn": _build_sing_tn,
    "tn": _build_tn,
    "fn": _build_fn,
    "on": _build_on,
    "planar-intermediate": _build_planar_intermediate,
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
    degree = next(iter(assignment.values())).n
    out = identity(degree)
    for symbol in word:
        out = partitions.multiply(out, assignment[symbol])
    return out


def check_soundness(pres: Presentation, assignment: dict[str, Diagram]) -> CheckReport:
    """Evaluate both sides of every relation; report the first mismatch.

    Each distinct prefix of a relation side is multiplied out once per call,
    as its longest proper prefix's value times the image of its last letter.
    """
    value = {(): identity(pres.n)}

    def evaluate(word: Word) -> Diagram:
        d = value.get(word)
        if d is None:
            d = value[word] = partitions.multiply(evaluate(word[:-1]), assignment[word[-1]])
        return d

    checked, witness = 0, None
    for lhs, rhs in pres.relations:
        checked += 1
        left = evaluate(lhs)
        right = evaluate(rhs)
        if left != right:
            witness = (" ".join(lhs) or "1", " ".join(rhs) or "1", left.text(), right.text())
            break
    return CheckReport(
        name=f"soundness:{pres.name}:n={pres.n}",
        holds=witness is None,
        witness=witness,
        counts={"relations": len(pres.relations), "checked": checked},
    )


# ---------------------------------------------------------------------------
# Concrete targets, built independently of the schemas.


# Each schema's model as (independent count, membership test on the upper
# and lower label rows).  The four schemas not named after a standard family
# present Pnfd (sing-xr without its units) and PPnfd.  A full-domain diagram
# is singular (not a permutation) when two upper points share a block.
_TARGETS = {
    "sing-xr": (
        lambda n: full_domain_count(n) - factorial(n),
        lambda up, lo: _rows_full_domain(up, lo) and len(set(up)) < len(up),
    ),
    "full-yq": (full_domain_count, _rows_full_domain),
    "planar-zo": (planar_full_domain_count, _rows_planar_full_domain),
    "dn": (catalan, _rows_cap),
    "en": (bell, lambda up, lo: up == lo),
    "sing-tn": (
        lambda n: n**n - factorial(n),
        lambda up, lo: _rows_transformation(up, lo) and len(set(up)) < len(up),
    ),
    "tn": (lambda n: n**n, _rows_transformation),
    "fn": (uniform_block_bijection_count, lambda up, lo: sorted(up) == sorted(lo)),
    "on": (order_preserving_count, _rows_order_preserving),
    "planar-intermediate": (planar_full_domain_count, _rows_planar_full_domain),
}


class Target:
    """A concrete model of degree ``n`` given by its size and a membership
    test.

    ``len()`` is the size, counted by :mod:`diagcalc.counting` without
    building a diagram, and ``in`` reads only a diagram's labels.
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
    models and is the tests' cross-check.

    >>> target = target_elements("planar-zo", 6)
    >>> len(target), identity(6) in target, cap_atom(6, 2, 5) in target
    (3808, True, True)
    >>> Diagram.from_text("[[1,-2],[2,-1]]") in target_elements("planar-zo", 2)
    False
    """
    _check_schema(name, n)
    count, member = _TARGETS[name]
    return Target(n, count(n), member)


# ---------------------------------------------------------------------------
# Exact enumeration of a presented monoid or semigroup.


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of ``enumerate_presented``.

    ``table`` is the right Cayley table of the quotient, numbered by a
    breadth-first search from the empty-word node in letter order: row 0 is
    the empty word, and the rows then follow in order of first appearance.
    That numbering depends only on the presented structure, never on the
    order in which the enumeration allocated and merged nodes.  For a
    semigroup presentation the root node stands outside the semigroup, so
    ``size`` is one less than the number of rows; for a monoid it is the row
    count.  ``node_budget_used`` counts the nodes allocated, merged ones
    included, not the nodes live at the end.
    """

    status: str  # "completed" or "exhausted"
    size: int | None
    table: tuple[tuple[int, ...], ...] | None
    node_budget_used: int


def _prefix_table(
    relations: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
) -> tuple[list[tuple[int, int]], list[tuple[int, int, int, int]]]:
    """Share the relations' proper prefixes and name each relation's closing.

    Slot 0 is the empty prefix; every other slot is a distinct proper prefix
    of some relation side, stored as (parent slot, last letter) after its
    parent.  A relation becomes ``(su, xu, sv, xv)``: side ``u`` ends with
    letter ``xu`` after the prefix in slot ``su``, and likewise ``v``.  An
    empty side is always ``v`` and has ``xv = -1``.  Relations with equal
    sides and repeated closings are dropped.

    >>> _prefix_table([((0, 1, 1), (0, 1)), ((1,), ())])
    ([(0, 0), (1, 1)], [(2, 1, 1, 1), (0, 1, 0, -1)])
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
        closer = (*end(u), *end(v)) if v else (*end(u), 0, -1)
        closers.setdefault(closer, None)
    return slots, list(closers)


def enumerate_presented(pres: Presentation, *, budget: int = DEFAULT_BUDGET) -> EnumerationResult:
    """Exactly enumerate the monoid or semigroup presented by ``pres``.

    Completes the right Cayley graph of the quotient in
    Hazelgrove–Leech–Trotter order (Coleman, Mitchell, Smith & Tsalakou,
    *The Todd–Coxeter algorithm for semigroups and monoids*, 2022): live
    nodes are scanned in index order, starting from the empty-word node.  A
    scanned node first gets all its letter edges.  Then every distinct
    proper prefix of a relation side is traced from it once, through the
    prefix table of :func:`_prefix_table`, allocating a node for each
    missing edge.  Each relation ``u = v`` is then closed from its two
    prefix endpoints by their last letters (scan and fill): if one last edge
    is missing it is set to the other's end, if both are missing they get
    one new node, and if they end at different nodes the two are queued to
    merge.  The queued merges are processed before the next node is scanned.

    Merging never separates nodes, so every equality established along the
    way survives to the end; when the scan drains without exceeding
    ``budget`` allocated nodes, the surviving table is exactly the presented
    structure.  On budget exhaustion the result carries status
    ``"exhausted"`` and no size — never a wrong one.

    >>> enumerate_presented(schema("dn", 3)).size
    5
    """
    if pres.kind == "semigroup":
        if not all(lhs and rhs for lhs, rhs in pres.relations):
            raise ValueError("semigroup relations must have nonempty sides")
    index = {symbol: a for a, symbol in enumerate(pres.alphabet)}
    slots, closers = _prefix_table(
        (tuple(index[x] for x in lhs), tuple(index[x] for x in rhs))
        for lhs, rhs in pres.relations
    )
    k = len(pres.alphabet)

    parent = [0]
    rows: list[list[int] | None] = [[-1] * k]
    pending: list[tuple[int, int]] = []

    def allocate() -> int:
        if len(parent) >= budget:
            raise BudgetExceeded(budget)
        parent.append(len(parent))
        rows.append([-1] * k)
        return len(parent) - 1

    try:
        scan = 0
        while scan < len(parent):
            if parent[scan] != scan:
                scan += 1
                continue
            row = rows[scan]
            for letter in range(k):
                if row[letter] < 0:
                    row[letter] = allocate()

            # Trace every shared prefix once.  Merges wait until every
            # relation is closed, so the rows in ``ends`` stay live.
            ends = [row]
            for slot, letter in slots:
                row = ends[slot]
                y = row[letter]
                if y < 0:
                    y = row[letter] = allocate()
                elif parent[y] != y:
                    y = row[letter] = _find(parent, y)
                ends.append(rows[y])

            for su, xu, sv, xv in closers:
                row_u = ends[su]
                y = row_u[xu]
                if y >= 0 and parent[y] != y:
                    y = row_u[xu] = _find(parent, y)
                if xv < 0:
                    z = scan  # u = 1 leads back to the scanned node
                else:
                    row_v = ends[sv]
                    z = row_v[xv]
                    if z >= 0 and parent[z] != z:
                        z = row_v[xv] = _find(parent, z)
                if y < 0:
                    if z < 0:
                        z = row_v[xv] = allocate()
                    row_u[xu] = z
                elif z < 0:
                    row_v[xv] = y
                elif y != z:
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
                for letter, y in enumerate(row_b):
                    if y >= 0:
                        z = row_a[letter]
                        if z < 0:
                            row_a[letter] = y
                        elif z != y:
                            pending.append((z, y))
            scan += 1
    except BudgetExceeded:
        return EnumerationResult("exhausted", None, None, len(parent))

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
    table = tuple(tuple(number[y] for y in rows[x]) for x in order)
    size = len(order) if pres.kind == "monoid" else len(order) - 1
    return EnumerationResult("completed", size, table, len(parent))


@dataclass(frozen=True)
class PresentationReport:
    """Verdict of ``verify_presentation``.

    ``status`` is ``"verified"`` when soundness, generation, and the size
    comparison all pass; ``"refuted"`` when any of them fails; and
    ``"exhausted"`` when the node or closure budget ran out first, which is
    inconclusive rather than a failure.
    """

    name: str
    n: int
    status: str
    sound: bool
    witness: tuple[str, ...] | None
    target_size: int
    closure_size: int | None
    enumerated_size: int | None
    node_budget_used: int

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

    Three facts together certify the isomorphism: every relation holds
    under the standard assignment (so evaluation factors through the
    presented structure), the generator images generate exactly the target
    (surjectivity), and the presented structure has the same finite size
    (injectivity).  Generation is proven without listing the target: every
    closure element is in the model, and the closure has the model's
    independently counted size.
    """
    pres = schema(name, n)
    assignment = dict(zip(pres.alphabet, pres.images))
    target = target_elements(name, n)
    target_size = len(target)

    soundness = check_soundness(pres, assignment)
    if not soundness.holds:
        return PresentationReport(
            name, n, "refuted", False, soundness.witness, target_size, None, None, 0
        )

    try:
        generated = engine.closure(n, pres.images, monoid=pres.kind == "monoid", budget=budget)
    except BudgetExceeded:
        return PresentationReport(
            name, n, "exhausted", True, None, target_size, None, None, budget
        )
    closure_size = len(generated)
    if closure_size != target_size or not all(d in target for d in generated.elements):
        return PresentationReport(
            name, n, "refuted", True, None, target_size, closure_size, None, 0
        )
    del generated  # free the Cayley tables before the coset enumeration

    outcome = enumerate_presented(pres, budget=budget)
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


def cap_lift(n: int) -> dict[str, Word]:
    """Rewrites each interval-cap symbol as a word over the planar alphabet."""
    return {
        sym_cap(a, b): derived_word("alpha", a, b, n)
        for a, b in itertools.combinations(range(1, n + 1), 2)
    }


def apply_morphism(word: Iterable[str], mapping: dict[str, Word]) -> Word:
    """Concatenate the images of each letter of ``word`` under ``mapping``."""
    out: list[str] = []
    for symbol in word:
        out.extend(mapping[symbol])
    return tuple(out)


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
