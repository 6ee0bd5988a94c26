"""Exhaustive checkers for the unary-operation laws of diagram monoids.

Every full-domain diagram monoid carries the two projection operations

* ``D(a) = embed(ker(a))`` -- the projection with the kernel of ``a``,
* ``R(a) = embed(coker(a))`` -- the projection with the cokernel of ``a``,

and the planar full-domain monoid additionally carries the cap-valued range
operation ``rho(a) = cap(coker(a))``.  The checkers below test the axiom
systems these operations are supposed to satisfy, by brute force over a
concrete finite carrier, and report the first counterexample in canonical
element order (so reports are independent of how the carrier was built).
Everything here runs on the indices of one carrier, a
:class:`~diagcalc.engine.FiniteMonoid` (for an action pair, the closure of
both of its sets together): products are read as
``T[a][b]`` from its ``table`` and an operation's images as ``X[a]`` from
:meth:`~diagcalc.engine.FiniteMonoid.unary`, so no product or image is
computed twice.  An action pair, which reads every product of one set with
the other, reads them a whole column at a time with
:meth:`~diagcalc.engine.FiniteMonoid.columns` instead.  A law term that leaves the carrier is interned in the
carrier's ambient and still evaluated there, so an operation that is not
closed hides none of the equational axioms.

Each binary axiom is written once, as a generator over one row: given
``T``, one operation ``X``, a range of ``b`` and ``a``, it yields every
``b`` in that range at which the law fails.  ``E2`` and ``E2*`` are the
same text with ``X = D`` and ``X = R``, and grrac's ``G5``--``G8`` are
Ehresmann and restriction texts with ``X = rho``.  :func:`_scan` first runs
a text over narrower ranges that decide it by induction on word length
(Howie, 1995, ch. 1): one ``a`` per image of ``X``, or every element against
the carrier's generators, read from its Cayley tables.  When a premise of
that induction fails, or the narrow run finds a failure, it scans all pairs
in canonical order, so a witness is the first failing pair either way.

The left-congruence machinery at the bottom implements the congruences
``theta_u = {(s, t) : s u = t u}`` used to present quotients by an action,
together with joins and saturation-closures of generating pairs, on the
completion of the same carrier.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import weakref
from typing import Callable, Iterable, Iterator, Sequence

# kernel functions that ``perfbench/tracing.py`` wraps are called through
# their module, so the wrappers are used whenever this module was imported
from . import engine, partitions
from .engine import CheckReport, FiniteMonoid
from .equivalences import Equivalence, _find, _normalize, _Record, join, noncrossing
from .partitions import Diagram, cap_atom, collapse, floor_map, identity, merge, range_cap

# ``T[i][j]`` is the index of ``i * j`` and ``X[i]`` that of ``op(i)``, read
# from the carrier's memo
Table = Sequence[Sequence[int]]
Images = Sequence[int]
Law = Callable[[Table, Images, Sequence[int], int], Iterator[int]]


def _projections(m: FiniteMonoid) -> tuple[Images, Images]:
    """``D`` and ``R`` on the ambient indices of ``m``."""
    return m.unary(partitions.domain_projection), m.unary(partitions.range_projection)


# -- the binary axioms ---------------------------------------------------------
# Each is a ``Law``; its parameters are left unannotated because annotations
# cost compile time in every process that imports this module.  Each
# evaluates its terms in the order its two sides are written.  Below, S is
# the carrier and G its generators, with its identity when it has one, and
# each docstring gives the induction by which :func:`_reduced` narrows the
# pairs to check to G x S, S x G, or one ``a`` and one ``b`` per image.


def _commute(T, X, order, a):
    """``X(a) X(b) = X(b) X(a)``; reads ``a`` and ``b`` only through ``X``."""
    xa = X[a]
    row = T[xa]
    for b in order:
        xb = X[b]
        if row[xb] != T[xb][xa]:
            yield b


def _kernel_absorbs(T, X, order, a):
    """``X(a b) = X(a X(b))``.  Induction on ``a = g a'``, from G x S:
    ``X(g a' b) = X(g X(a' b)) = X(g X(a' X(b))) = X(g a' X(b))``.  Premise:
    S is closed and ``X(S)`` lies in S, so that ``a' X(b)`` is in S."""
    row = T[a]
    for b in order:
        if X[row[b]] != X[row[X[b]]]:
            yield b


def _range_absorbs(T, X, order, a):
    """``X(a b) = X(X(a) b)``.  Induction on ``b = b' g``, from S x G:
    ``X(a b' g) = X(X(a b') g) = X(X(X(a) b') g) = X(X(a) b' g)``.  Premise:
    S is closed and ``X(S)`` lies in S, so that ``X(a) b'`` is in S."""
    row, xrow = T[a], T[X[a]]
    for b in order:
        if X[row[b]] != X[xrow[b]]:
            yield b


def _left_factor(T, X, order, a):
    """``X(a b) = X(a) X(a b)``.  Induction on ``b = b' g``, from S x G:
    ``X(a b' g) = X(a b') X(a b' g) = X(a) X(a b') X(a b' g)``, which is
    ``X(a) X(a b' g)`` by the first step again.  Premise: S is closed."""
    row, xrow = T[a], T[X[a]]
    for b in order:
        xab = X[row[b]]
        if xab != xrow[xab]:
            yield b


def _right_factor(T, X, order, a):
    """``X(a b) = X(a b) X(b)``.  Induction on ``a = g a'``, from G x S:
    ``X(g a' b) = X(g a' b) X(a' b) = X(g a' b) X(a' b) X(b)``, which is
    ``X(g a' b) X(b)`` by the first step again.  Premise: S is closed."""
    row = T[a]
    for b in order:
        xab = X[row[b]]
        if xab != T[xab][X[b]]:
            yield b


def _closed_product(T, X, order, a):
    """``X(a) X(b) = X(X(a) X(b))``; reads ``a`` and ``b`` only through ``X``."""
    xrow = T[X[a]]
    for b in order:
        p = xrow[X[b]]
        if p != X[p]:
            yield b


def _right_regular(T, X, order, a):
    """``X(a) X(b) X(a) = X(b) X(a)``; reads ``a``, ``b`` only through ``X``."""
    xa = X[a]
    xrow = T[xa]
    for b in order:
        xb = X[b]
        if T[xrow[xb]][xa] != T[xb][xa]:
            yield b


def _right_restriction(T, X, order, a):
    """``X(a) b = b X(a b)``.  Induction on ``b = b' g``, from S x G:
    ``X(a) b' g = b' X(a b') g = b' g X(a b' g)``.  Premise: S is closed;
    ``X`` may leave it."""
    row, xrow = T[a], T[X[a]]
    for b in order:
        if xrow[b] != T[b][X[row[b]]]:
            yield b


def _left_restriction(T, X, order, a):
    """``a X(b) = X(a b) a``.  Induction on ``a = g a'``, from G x S:
    ``g a' X(b) = g X(a' b) a' = X(g a' b) g a'``.  Premise: S is closed;
    ``X`` may leave it."""
    row = T[a]
    for b in order:
        if row[X[b]] != T[X[row[b]]][a]:
            yield b


# -- scans ---------------------------------------------------------------------

# the texts decided by one ``a`` and one ``b`` per image, and those decided
# by S x G (the others by G x S); the absorbs texts need ``X(S)`` inside S
_BY_IMAGE = (_commute, _closed_product, _right_regular)
_BY_RIGHT_GENERATOR = (_range_absorbs, _left_factor, _right_restriction)
_ABSORBS = (_kernel_absorbs, _range_absorbs)


def _reduced(m: FiniteMonoid, law: Law, X: Images) -> tuple[Sequence[int], Sequence[int]] | None:
    """The ranges of ``a`` and of ``b`` over which ``law`` holding proves it
    for all pairs, by the induction in its docstring; ``None`` when the
    absorbs texts' premise, ``X(S)`` inside the (closed) carrier, fails."""
    order = m.canonical_order()
    if law in _BY_IMAGE:
        first: dict[int, int] = {}
        for a in order:
            first.setdefault(X[a], a)
        reps = list(first.values())
        return reps, reps
    size = len(m)
    if law in _ABSORBS and any(X[a] >= size for a in order):
        return None
    gens = m.generators if m.identity_index is None else [*m.generators, m.identity_index]
    return (order, gens) if law in _BY_RIGHT_GENERATOR else (gens, order)


def _scan(m: FiniteMonoid, name: str, law: Law, op: Images) -> CheckReport:
    """Report the first ordered pair, in canonical order, failing ``law``.

    A holding law is proved over the ranges of :func:`_reduced`.  When
    those do not apply, or some pair in them fails, the scan runs over all
    pairs, so a witness is the first failing pair in canonical order.
    """
    T, order = m.table, m.canonical_order()
    ranges = _reduced(m, law, op)
    if ranges is not None and all(next(law(T, op, ranges[1], a), -1) < 0 for a in ranges[0]):
        return CheckReport(name, True, (), {"size": len(m)})
    for a in order:
        for b in law(T, op, order, a):
            return CheckReport(name, False, _texts(m, a, b), {"size": len(m)})
    return CheckReport(name, True, (), {"size": len(m)})


def _each(m: FiniteMonoid, name: str, law: Callable[[int], bool],
          image: Images | None = None) -> CheckReport:
    """Report the first element, in canonical order, failing ``law``.  With
    ``image`` the witness also names the image of that element (the closure
    checks report ``a`` with the escaping ``op(a)``)."""
    for a in m.canonical_order():
        if not law(a):
            witness = (a,) if image is None else (a, image[a])
            return CheckReport(name, False, _texts(m, *witness), {"size": len(m)})
    return CheckReport(name, True, (), {"size": len(m)})


def _closed(m: FiniteMonoid, name: str, op: Images) -> CheckReport:
    """Does ``op`` map the carrier into itself?"""
    size = len(m)
    return _each(m, name, lambda a: op[a] < size, image=op)


def _texts(m: FiniteMonoid, *indices: int) -> tuple[str, ...]:
    return tuple(m.diagram(k).text() for k in indices)


def check_ehresmann(m: FiniteMonoid) -> list[CheckReport]:
    """The projection-operation axioms, one report per axiom.

    Unary axioms are checked over all elements, binary ones over all ordered
    pairs.  The two closure reports say whether ``D`` and ``R`` even map the
    carrier into itself; the equational axioms are evaluated in the ambient
    diagram monoid regardless, so a closure failure does not hide them.
    """
    (D, R), T = _projections(m), m.table
    unary = {
        "E1": lambda a: T[D[a]][a] == a,
        "E1*": lambda a: T[a][R[a]] == a,
        "E5": lambda a: R[D[a]] == D[a],
        "E5*": lambda a: D[R[a]] == R[a],
        "E6": lambda a: D[D[a]] == D[a],
        "E6*": lambda a: R[R[a]] == R[a],
        "E7": lambda a: T[D[a]][D[a]] == D[a],
        "E7*": lambda a: T[R[a]][R[a]] == R[a],
    }
    binary = {
        "E2": (_commute, D),
        "E2*": (_commute, R),
        "E3": (_kernel_absorbs, D),
        "E3*": (_range_absorbs, R),
        "E4": (_left_factor, D),
        "E4*": (_right_factor, R),
        "E8": (_closed_product, D),
        "E8*": (_closed_product, R),
    }
    return (
        [_closed(m, "closure-D", D), _closed(m, "closure-R", R)]
        + [_each(m, name, law) for name, law in unary.items()]
        + [_scan(m, name, law, op) for name, (law, op) in binary.items()]
    )


def check_restriction(m: FiniteMonoid, side: str) -> CheckReport:
    """The one-sided restriction law over all ordered pairs.

    ``side="right"`` tests ``R(a) b = b R(ab)``;
    ``side="left"`` tests ``a D(b) = D(ab) a``.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    D, R = _projections(m)
    law, op = {"right": (_right_restriction, R), "left": (_left_restriction, D)}[side]
    return _scan(m, f"{side}-restriction", law, op)


def check_grrac(m: FiniteMonoid) -> list[CheckReport]:
    """Axioms of the cap-valued range operation ``rho(a) = cap(coker(a))``.

    Checked over a planar full-domain carrier; ``closure-rho`` reports
    whether the operation maps the carrier into itself.  Only a planar
    cokernel has a cap, so on a carrier with a crossing one ``rho`` is no
    operation at all: the one report is then a failing ``closure-rho``
    whose witness is the first such element in canonical order.
    """
    planar = _each(m, "closure-rho", lambda a: noncrossing(m.elements[a].labels[m.n:]))
    if not planar.holds:
        return [planar]
    rho, T = m.unary(range_cap), m.table
    unary = {
        "G1": lambda a: T[a][rho[a]] == a,
        "G2": lambda a: rho[rho[a]] == rho[a],
        "G3": lambda a: T[rho[a]][rho[a]] == rho[a],
    }
    binary = {
        "G4": _right_regular,
        "G5": _closed_product,
        "G6": _right_factor,
        "G7": _range_absorbs,
        "G8": _right_restriction,
    }
    return (
        [_closed(m, "closure-rho", rho)]
        + [_each(m, name, law) for name, law in unary.items()]
        + [_scan(m, name, law, rho) for name, law in binary.items()]
    )


def check_action_pair(
    u: FiniteMonoid,
    s: FiniteMonoid,
    name: str = "action-pair",
    *,
    budget: int = engine.DEFAULT_BUDGET,
) -> CheckReport:
    """Is ``(U, S)`` a strong action pair inside the diagram monoid?

    * A1: ``u s`` lies in ``s U`` for every ``u`` in U, ``s`` in S;
    * A2: ``s u = t v`` forces ``u = v``.

    When both hold and every element of U is a projection, the induced
    action is also validated against ``u^s = R(us)``.  Both carriers are
    interned, in canonical order, into the closure of their generators
    together, a monoid that is ``S U`` (with U, S and the identity) when A1
    holds; every product ``s u`` and ``u s`` is then read from that
    closure's word tree and right Cayley table, a whole column at a time
    (:meth:`~diagcalc.engine.FiniteMonoid.columns`), and that closure is
    the only place anything is multiplied.  A closure past ``budget``
    elements raises :class:`~diagcalc.engine.BudgetExceeded`.
    """
    m = engine.closure(u.n, [c.elements[g] for c in (u, s) for g in c.generators],
                       monoid=True, budget=budget)
    U = [m.intern(u.elements[k]) for k in u.canonical_order()]
    S = [m.intern(s.elements[k]) for k in s.canonical_order()]
    su = m.columns(S, U)  # su[k][x] is S[x] * U[k]
    counts = {"U": len(U), "S": len(S)}

    # A2 first (it is what makes the action well-defined): group the
    # products s*u by value and require a unique u in every fibre
    fibre = [-1] * len(m)  # by product, the position of its u in U
    for t, row in zip(S, zip(*su)):
        for k, p in enumerate(row):
            if fibre[p] < 0:
                fibre[p] = k
            elif fibre[p] != k:
                return CheckReport(name + "-A2", False, _texts(m, t, U[k], U[fibre[p]]), counts)

    # A1: us must equal sv for some v in U, and that v is the action u^s;
    # for projections it must also be R(us).  By A2 the only candidate v is
    # the u of us's fibre.
    us = m.columns(U, S)  # us[x][k] is U[k] * S[x]
    T = m.table
    D, R = _projections(m)
    projections = all(T[v][v] == v and D[v] == v and R[v] == v for v in U)
    holds = True
    witness: tuple[str, ...] = ()
    for v, row in zip(U, zip(*us)):
        for x, p in enumerate(row):
            k = fibre[p]
            if k < 0 or su[k][x] != p:
                return CheckReport(name + "-A1", False, _texts(m, v, S[x]), counts)
            if projections and holds and U[k] != R[p]:
                holds, witness = False, _texts(m, v, S[x], U[k])
    if projections:
        counts["projection_formula_checked"] = 1
    return CheckReport(name, holds, witness, counts)


# -- left congruences -------------------------------------------------------


class LeftCongruence(_Record):
    """A left congruence on a fixed, canonically sorted carrier."""

    __slots__ = ("carrier", "labels")

    def __init__(self, carrier: Sequence[Diagram], labels: Sequence[int]):
        if len(carrier) != len(labels):
            raise ValueError(f"{len(carrier)} carrier elements but {len(labels)} labels")
        super().__init__(tuple(carrier), _normalize(labels))

    def class_count(self) -> int:
        return 1 + max(self.labels, default=-1)

    def classes(self) -> tuple[tuple[str, ...], ...]:
        out: list[list[str]] = [[] for _ in range(self.class_count())]
        for d, label in zip(self.carrier, self.labels):
            out[label].append(d.text())
        return tuple(tuple(block) for block in out)


def completion(s: FiniteMonoid) -> tuple[Diagram, ...]:
    """The carrier of ``S`` with an identity adjoined when it lacks one."""
    elems = [s.elements[k] for k in s.canonical_order()]
    if s.identity_index is None:
        bisect.insort(elems, identity(s.n))
    return tuple(elems)


# each carrier's completion with the ambient indices of its elements
_completions: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _completed(s: FiniteMonoid) -> tuple[tuple[Diagram, ...], list[int]]:
    """:func:`completion` of ``S`` and the index of each element, interned
    once per carrier."""
    found = _completions.get(s)
    if found is None:
        carrier = completion(s)
        found = _completions[s] = carrier, [s.intern(x) for x in carrier]
    return found


def theta(u: Diagram, s: FiniteMonoid) -> LeftCongruence:
    """The left congruence ``{(x, y) : x u = y u}`` on the completion of S."""
    carrier, indices = _completed(s)
    ui, table = s.intern(u), s.table
    return LeftCongruence(carrier, [table[x][ui] for x in indices])


def join_left_congruences(a: LeftCongruence, b: LeftCongruence) -> LeftCongruence:
    """Smallest left congruence containing both (their lattice join).

    The transitive closure of the union of two left-compatible equivalences
    is again left-compatible (translate each link of a connecting chain), so
    the join is the plain equivalence join -- no saturation needed.
    """
    if a.carrier != b.carrier:
        raise ValueError("joins need a common carrier")
    size = len(a.carrier)
    return LeftCongruence(
        a.carrier, join(Equivalence(size, a.labels), Equivalence(size, b.labels)).labels
    )


def left_congruence_closure(
    s: FiniteMonoid, pairs: Iterable[tuple[Diagram, Diagram]]
) -> LeftCongruence:
    """Smallest left congruence on the completion of ``S`` containing the pairs.

    Saturation: whenever two classes merge, the products ``g*x`` and ``g*y``
    are queued for every generator ``g`` of ``S``.  An equivalence closed
    under left multiplication by the generators is closed under every
    element of ``S``, by induction on word length (the identity that the
    completion may add acts trivially), and the completion must be closed
    under multiplication (it is whenever ``S`` is a semigroup).  A pair
    with a diagram outside the completion raises ``ValueError``.
    """
    carrier, order = _completed(s)
    position = {k: p for p, k in enumerate(order)}

    def place(d: Diagram) -> int:
        if d.n != s.n:
            raise ValueError(f"{d.text()} has degree {d.n}, not the carrier's degree {s.n}")
        p = position.get(s.intern(d))
        if p is None:
            raise ValueError(f"{d.text()} is not in the completion of the carrier")
        return p

    parent = list(range(len(order)))
    rows = [s.table[g] for g in s.generators]
    work = [(place(a), place(b)) for a, b in pairs]
    while work:
        x, y = work.pop()
        rx, ry = _find(parent, x), _find(parent, y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        a, b = order[x], order[y]
        for row in rows:
            ca = position[row[a]]
            cb = position[row[b]]
            if _find(parent, ca) != _find(parent, cb):
                work.append((ca, cb))
    return LeftCongruence(carrier, [_find(parent, p) for p in range(len(order))])


def principal_pair_congruence(
    s: FiniteMonoid, a: Diagram, b: Diagram
) -> LeftCongruence:
    """The left congruence ``(a, b)^l`` generated by one pair on S-completion."""
    return left_congruence_closure(s, [(a, b)])


# ---------------------------------------------------------------------------
# Batteries over the standard families, for the CLI and the acceptance suite.

# the (U, S) family names of each action pair
ACTION_PAIRS = {
    "en-tn": ("en", "tn"),
    "en-sing-tn": ("en", "sing-tn"),
    "dn-on": ("dn", "on"),
    "pen-ptn": ("pen", "ptn"),
}


def action_pair_elements(pair: str, n: int) -> tuple[FiniteMonoid, FiniteMonoid]:
    """Resolve a named pair to the carriers of its (U, S) families.

    ``en-tn``       projections acted on by transformations;
    ``en-sing-tn``  projections acted on by non-bijective transformations;
    ``dn-on``       caps acted on by order-preserving transformations;
    ``pen-ptn``     convex projections and planar transformations (a pair
                    that genuinely fails A1, kept for refutation runs).

    Each is :func:`~diagcalc.engine.carrier`, the closure of the family's
    generators, which :func:`check_action_pair` closes together.
    """
    if pair not in ACTION_PAIRS:
        raise ValueError(f"unknown action pair {pair!r}; expected one of {', '.join(ACTION_PAIRS)}")
    u_name, s_name = ACTION_PAIRS[pair]
    return engine.carrier(u_name, n), engine.carrier(s_name, n)


def theta_battery(n: int) -> list[CheckReport]:
    """All the left-congruence laws at degree ``n``, exhaustively.

    * ``theta-join``: for projections u, v and S either all transformations
      or the non-bijective ones, ``theta_{uv} = theta_u v theta_v``;
    * ``theta-merge-principal``: the congruence of the join of i and j is
      generated by the single pair (identity, collapse of j onto i);
    * ``theta-cap-principal``: over the order-preserving maps, the
      congruence of a cap is generated by (identity, floor map of its
      kernel);
    * ``theta-cap-join``: that same congruence is the join of the
      congruences of the adjacent caps spanning its kernel.
    """
    reports: list[CheckReport] = []

    en_elements = partitions.family("en", n)
    tn = engine.carrier("tn", n)
    for label in ("tn", "sing-tn"):
        s = tn if label == "tn" else engine.carrier(label, n)
        en = [s.intern(u) for u in en_elements]
        thetas = [theta(u, s) for u in en_elements]
        holds, witness = True, None
        checked = 0
        for (u, th_u), (v, th_v) in itertools.product(zip(en, thetas), repeat=2):
            checked += 1
            if theta(s.diagram(s.table[u][v]), s) != join_left_congruences(th_u, th_v):
                holds, witness = False, _texts(s, u, v)
                break
        reports.append(
            CheckReport(
                f"theta-join:{label}",
                holds,
                witness,
                {"carrier": len(s), "pairs": checked},
            )
        )

    holds, witness = True, None
    for i, j in itertools.combinations(range(1, n + 1), 2):
        generated = principal_pair_congruence(tn, identity(n), collapse(n, i, j))
        if theta(merge(n, i, j), tn) != generated:
            holds, witness = False, (str(i), str(j))
            break
    reports.append(
        CheckReport("theta-merge-principal", holds, witness, {"carrier": len(tn)})
    )

    on = engine.carrier("on", n)
    caps = partitions.family("dn", n)
    atoms = {on.intern(a): theta(a, on) for a in (cap_atom(n, i, i + 1) for i in range(1, n))}
    holds, witness = True, None
    join_holds, join_witness = True, None
    equality = theta(identity(n), on)
    for u in caps:
        th = theta(u, on)
        if th != principal_pair_congruence(on, identity(n), floor_map(u.ker())):
            if holds:
                holds, witness = False, (u.text(),)
        ui = on.intern(u)
        adjacent = [th_a for a, th_a in atoms.items() if on.table[a][ui] == ui]
        if th != functools.reduce(join_left_congruences, adjacent, equality) and join_holds:
            join_holds, join_witness = False, (u.text(),)
    reports.append(
        CheckReport("theta-cap-principal", holds, witness, {"caps": len(caps)})
    )
    reports.append(
        CheckReport("theta-cap-join", join_holds, join_witness, {"caps": len(caps)})
    )
    return reports
