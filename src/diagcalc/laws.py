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
:class:`~diagcalc.engine.FiniteMonoid`: products come from
:meth:`~diagcalc.engine.FiniteMonoid.product` and ``D``, ``R`` and ``rho``
from :meth:`~diagcalc.engine.FiniteMonoid.unary`, so no product or image is
computed twice.  A law term that leaves the carrier is interned in the
carrier's ambient and still evaluated there, so an operation that is not
closed hides none of the equational axioms.

The left-congruence machinery at the bottom implements the congruences
``theta_u = {(s, t) : s u = t u}`` used to present quotients by an action,
together with joins and saturation-closures of generating pairs, on the
completion of the same carrier.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from typing import Callable, Iterable, Sequence

# kernel functions that ``perfbench/tracing.py`` wraps are called through
# their module, so the wrappers are used whenever this module was imported
from . import engine, partitions
from .engine import CheckReport, FiniteMonoid
from .equivalences import Equivalence, _find, _normalize, join
from .partitions import Diagram, cap_atom, collapse, floor_map, identity, merge, range_cap


def _projections(m: FiniteMonoid) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """``D`` and ``R`` on the ambient indices of ``m``."""
    return m.unary(partitions.domain_projection), m.unary(partitions.range_projection)


def _scan(
    m: FiniteMonoid,
    name: str,
    law: Callable[..., bool],
    image: Callable[[int], int] | None = None,
) -> CheckReport:
    """Report the first argument tuple, in canonical order, failing ``law``.

    The law's parameter count fixes the scan: one element or an ordered
    pair.  With ``image`` the witness also names the image of its element
    (the closure checks report ``a`` with the escaping ``op(a)``).
    """
    counts = {"size": len(m)}
    for args in itertools.product(m.canonical_order(), repeat=law.__code__.co_argcount):
        if not law(*args):
            if image is not None:
                args += (image(args[0]),)
            return CheckReport(name, False, _texts(m, *args), counts)
    return CheckReport(name, True, (), counts)


def _closed(m: FiniteMonoid, name: str, op: Callable[[int], int]) -> CheckReport:
    """Does ``op`` map the carrier into itself?"""
    return _scan(m, name, lambda a: op(a) < len(m), image=op)


def _texts(m: FiniteMonoid, *indices: int) -> tuple[str, ...]:
    return tuple(m.diagram(k).text() for k in indices)


def check_ehresmann(m: FiniteMonoid) -> list[CheckReport]:
    """The projection-operation axioms, one report per axiom.

    Unary axioms are checked over all elements, binary ones over all ordered
    pairs.  The two closure reports say whether ``D`` and ``R`` even map the
    carrier into itself; the equational axioms are evaluated in the ambient
    diagram monoid regardless, so a closure failure does not hide them.
    """
    (D, R), mul = _projections(m), m.product
    axioms = {
        "E1": lambda a: mul(D(a), a) == a,
        "E1*": lambda a: mul(a, R(a)) == a,
        "E5": lambda a: R(D(a)) == D(a),
        "E5*": lambda a: D(R(a)) == R(a),
        "E6": lambda a: D(D(a)) == D(a),
        "E6*": lambda a: R(R(a)) == R(a),
        "E7": lambda a: mul(D(a), D(a)) == D(a),
        "E7*": lambda a: mul(R(a), R(a)) == R(a),
        "E2": lambda a, b: mul(D(a), D(b)) == mul(D(b), D(a)),
        "E2*": lambda a, b: mul(R(a), R(b)) == mul(R(b), R(a)),
        "E3": lambda a, b: D(mul(a, b)) == D(mul(a, D(b))),
        "E3*": lambda a, b: R(mul(a, b)) == R(mul(R(a), b)),
        "E4": lambda a, b: D(mul(a, b)) == mul(D(a), D(mul(a, b))),
        "E4*": lambda a, b: R(mul(a, b)) == mul(R(mul(a, b)), R(b)),
        "E8": lambda a, b: mul(D(a), D(b)) == D(mul(D(a), D(b))),
        "E8*": lambda a, b: mul(R(a), R(b)) == R(mul(R(a), R(b))),
    }
    return [_closed(m, "closure-D", D), _closed(m, "closure-R", R)] + [
        _scan(m, name, law) for name, law in axioms.items()
    ]


def check_restriction(m: FiniteMonoid, side: str) -> CheckReport:
    """The one-sided restriction law over all ordered pairs.

    ``side="right"`` tests ``R(a) b = b R(ab)``;
    ``side="left"`` tests ``a D(b) = D(ab) a``.
    """
    (D, R), mul = _projections(m), m.product
    laws = {
        "right": lambda a, b: mul(R(a), b) == mul(b, R(mul(a, b))),
        "left": lambda a, b: mul(a, D(b)) == mul(D(mul(a, b)), a),
    }
    return _scan(m, f"{side}-restriction", laws[side])


def parts(m: FiniteMonoid) -> list[Diagram]:
    """The projections of the carrier: ``p*p = p = D(p) = R(p)``."""
    D, R = _projections(m)
    return [
        m.elements[p]
        for p in m.canonical_order()
        if m.product(p, p) == p and D(p) == p == R(p)
    ]


def projection_split(m: FiniteMonoid) -> dict[str, list[Diagram]]:
    """Split the carrier by triviality of its two projections.

    * ``trivial_range``: elements with ``R(a) = 1`` -- a submonoid;
    * ``proper_kernel``: elements with ``D(a) != 1`` -- a right ideal;
    * ``overlap``: their intersection -- a subsemigroup.

    The three closure claims are re-verified before returning (they are
    theorems for Ehresmann carriers, so a failure here is a bug).
    """
    one = m.intern(identity(m.n))
    (D, R), mul = _projections(m), m.product
    order = m.canonical_order()
    trivial_range = [a for a in order if R(a) == one]
    proper_kernel = [a for a in order if D(a) != one]
    kernel_set = set(proper_kernel)
    overlap = [a for a in trivial_range if a in kernel_set]

    range_set = set(trivial_range)
    assert one in range_set
    assert all(mul(a, b) in range_set for a in trivial_range for b in trivial_range)
    assert all(mul(a, b) in kernel_set for a in proper_kernel for b in order)
    overlap_set = set(overlap)
    assert all(mul(a, b) in overlap_set for a in overlap for b in overlap)
    return {
        "trivial_range": [m.elements[a] for a in trivial_range],
        "proper_kernel": [m.elements[a] for a in proper_kernel],
        "overlap": [m.elements[a] for a in overlap],
    }


def check_grrac(m: FiniteMonoid) -> list[CheckReport]:
    """Axioms of the cap-valued range operation ``rho(a) = cap(coker(a))``.

    Checked over a planar full-domain carrier; ``closure-rho`` reports
    whether the operation maps the carrier into itself.
    """
    rho, mul = m.unary(range_cap), m.product
    axioms = {
        "G1": lambda a: mul(a, rho(a)) == a,
        "G2": lambda a: rho(rho(a)) == rho(a),
        "G3": lambda a: mul(rho(a), rho(a)) == rho(a),
        "G4": lambda a, b: mul(mul(rho(a), rho(b)), rho(a)) == mul(rho(b), rho(a)),
        "G5": lambda a, b: rho(mul(rho(a), rho(b))) == mul(rho(a), rho(b)),
        "G6": lambda a, b: mul(rho(mul(a, b)), rho(b)) == rho(mul(a, b)),
        "G7": lambda a, b: rho(mul(a, b)) == rho(mul(rho(a), b)),
        "G8": lambda a, b: mul(rho(a), b) == mul(b, rho(mul(a, b))),
    }
    return [_closed(m, "closure-rho", rho)] + [
        _scan(m, name, law) for name, law in axioms.items()
    ]


def check_action_pair(
    u_elements: Sequence[Diagram],
    s_elements: Sequence[Diagram],
    name: str = "action-pair",
) -> CheckReport:
    """Is ``(U, S)`` a strong action pair inside the diagram monoid?

    * A1: ``u s`` lies in ``s U`` for every ``u`` in U, ``s`` in S;
    * A2: ``s u = t v`` forces ``u = v`` (products taken ambiently).

    When both hold and every element of U is a projection, the induced
    action is also validated against ``u^s = R(us)``.  Both run on the
    carrier of S, with U interned into its ambient.
    """
    m = engine.from_elements(s_elements[0].n if s_elements else 0, s_elements)
    U = [m.intern(u) for u in sorted(set(u_elements))]
    S = m.canonical_order()
    mul = m.product
    counts = {"U": len(U), "S": len(S)}

    # A2 first (it is what makes the action well-defined): group the
    # products s*u by value and require a unique u in every fibre.
    fibre_u: dict[int, int] = {}
    for s in S:
        for u in U:
            prev = fibre_u.setdefault(mul(s, u), u)
            if prev != u:
                return CheckReport(name + "-A2", False, _texts(m, s, u, prev), counts)

    # A1: us must equal sv for some v in U, and that v is the action u^s;
    # for projections it must also be R(us).
    products_by_s = {s: {mul(s, u) for u in U} for s in S}
    D, R = _projections(m)
    projections = all(mul(u, u) == u and D(u) == u == R(u) for u in U)
    holds = True
    witness: tuple[str, ...] = ()
    for u in U:
        for s in S:
            us = mul(u, s)
            if us not in products_by_s[s]:
                return CheckReport(name + "-A1", False, _texts(m, u, s), counts)
            if projections and holds and fibre_u[us] != R(us):
                holds, witness = False, _texts(m, u, s, fibre_u[us])
    if projections:
        counts["projection_formula_checked"] = 1
    return CheckReport(name, holds, witness, counts)


# -- left congruences -------------------------------------------------------


class LeftCongruence:
    """A left congruence on a fixed, canonically sorted carrier."""

    __slots__ = ("carrier", "labels")

    def __init__(self, carrier: Sequence[Diagram], labels: Sequence[int]):
        if len(carrier) != len(labels):
            raise ValueError(f"{len(carrier)} carrier elements but {len(labels)} labels")
        self.carrier = tuple(carrier)
        self.labels = _normalize(labels)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LeftCongruence)
            and self.carrier == other.carrier
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.carrier, self.labels))

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


def theta(u: Diagram, s: FiniteMonoid) -> LeftCongruence:
    """The left congruence ``{(x, y) : x u = y u}`` on the completion of S."""
    carrier = completion(s)
    ui = s.intern(u)
    return LeftCongruence(carrier, [s.product(s.intern(x), ui) for x in carrier])


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

    Saturation: whenever two classes merge, the products ``c*x`` and ``c*y``
    are queued for every element ``c`` of the completion, which must be
    closed under multiplication (it is whenever ``S`` is a semigroup).
    """
    carrier = completion(s)
    order = [s.intern(x) for x in carrier]
    position = {k: p for p, k in enumerate(order)}
    parent = list(range(len(order)))
    work = [(position[s.intern(a)], position[s.intern(b)]) for a, b in pairs]
    while work:
        x, y = work.pop()
        rx, ry = _find(parent, x), _find(parent, y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        a, b = order[x], order[y]
        for c in order:
            ca = position[s.product(c, a)]
            cb = position[s.product(c, b)]
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


def action_pair_elements(pair: str, n: int) -> tuple[list[Diagram], list[Diagram]]:
    """Resolve a named pair to its (U, S) element families.

    ``en-tn``       projections acted on by transformations;
    ``en-sing-tn``  projections acted on by non-bijective transformations;
    ``dn-on``       caps acted on by order-preserving transformations;
    ``pen-ptn``     convex projections and planar transformations (a pair
                    that genuinely fails A1, kept for refutation runs).
    """
    selectors = {
        "en-tn": ("en", "tn"),
        "en-sing-tn": ("en", "sing-tn"),
        "dn-on": ("dn", "on"),
        "pen-ptn": ("pen", "ptn"),
    }
    if pair not in selectors:
        raise ValueError(f"unknown action pair {pair!r}; expected one of {', '.join(selectors)}")
    u_name, s_name = selectors[pair]
    return partitions.family(u_name, n), partitions.family(s_name, n)


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
    tn = engine.from_elements(n, partitions.family("tn", n))
    for label in ("tn", "sing-tn"):
        s = tn if label == "tn" else engine.from_elements(n, partitions.family(label, n))
        en = [s.intern(u) for u in en_elements]
        thetas = [theta(u, s) for u in en_elements]
        holds, witness = True, None
        checked = 0
        for (u, th_u), (v, th_v) in itertools.product(zip(en, thetas), repeat=2):
            checked += 1
            if theta(s.diagram(s.product(u, v)), s) != join_left_congruences(th_u, th_v):
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

    on = engine.from_elements(n, partitions.family("on", n))
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
        adjacent = [th_a for a, th_a in atoms.items() if on.product(a, ui) == ui]
        if th != functools.reduce(join_left_congruences, adjacent, equality) and join_holds:
            join_holds, join_witness = False, (u.text(),)
    reports.append(
        CheckReport("theta-cap-principal", holds, witness, {"caps": len(caps)})
    )
    reports.append(
        CheckReport("theta-cap-join", join_holds, join_witness, {"caps": len(caps)})
    )
    return reports
