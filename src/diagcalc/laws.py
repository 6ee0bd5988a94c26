"""Exhaustive checkers for the unary-operation laws of diagram monoids.

Every full-domain diagram monoid carries the two projection operations

* ``D(a) = embed(ker(a))`` -- the projection with the kernel of ``a``,
* ``R(a) = embed(coker(a))`` -- the projection with the cokernel of ``a``,

and the planar full-domain monoid additionally carries the cap-valued range
operation ``rho(a) = cap(coker(a))``.  The checkers below test the axiom
systems these operations are supposed to satisfy, by brute force over a
concrete finite carrier, and report the first counterexample in canonical
element order (so reports are independent of how the carrier was built).
They all run on one indexed ambient: the carrier's elements come first, and
a law term that leaves the carrier is still evaluated there, on an interned
index, so an operation that is not closed hides none of the equational
axioms.

The left-congruence machinery at the bottom implements the congruences
``theta_u = {(s, t) : s u = t u}`` used to present quotients by an action,
together with joins and saturation-closures of generating pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .engine import FiniteMonoid, from_elements
from .partitions import (
    Diagram,
    cap_atom,
    collapse,
    domain_projection,
    family,
    floor_map,
    identity,
    merge,
    multiply,
    range_cap,
    range_projection,
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one exhaustive law check."""

    name: str
    holds: bool
    witness: tuple[str, ...] | None = None
    counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "witness": list(self.witness) if self.witness else None,
            "counts": dict(sorted(self.counts.items())),
        }


class _Products:
    """The indexed ambient that every law checker runs on.

    Indices ``0 .. size - 1`` are the carrier's elements in canonical order;
    every diagram a law term reaches outside the carrier (say a crossing
    ``R(a)`` of a planar ``a``) is interned at the next free index.  Products
    are memoised in lazily filled int rows and ``D``, ``R`` and ``rho`` in
    lazily filled index arrays, so equal indices mean equal diagrams and no
    product or image is computed twice.
    """

    def __init__(self, m: FiniteMonoid):
        self.elements = sorted(m.elements)
        self.size = len(self.elements)
        self.index = {d: k for k, d in enumerate(self.elements)}
        self.rows: list[list[int]] = [[] for _ in self.elements]
        self.D = self._unary(domain_projection)
        self.R = self._unary(range_projection)
        self.rho = self._unary(range_cap)

    def intern(self, d: Diagram) -> int:
        k = self.index.get(d)
        if k is None:
            k = self.index[d] = len(self.elements)
            self.elements.append(d)
            self.rows.append([])
        return k

    def mul(self, i: int, j: int) -> int:
        row = self.rows[i]
        if j >= len(row):
            row.extend([-1] * (len(self.elements) - len(row)))
        k = row[j]
        if k < 0:
            k = row[j] = self.intern(multiply(self.elements[i], self.elements[j]))
        return k

    def _unary(self, op: Callable[[Diagram], Diagram]) -> Callable[[int], int]:
        images: list[int] = []

        def image(i: int) -> int:
            if i >= len(images):
                images.extend([-1] * (len(self.elements) - len(images)))
            k = images[i]
            if k < 0:
                k = images[i] = self.intern(op(self.elements[i]))
            return k

        return image

    def scan(
        self, name: str, law: Callable[..., bool], image: Callable[[int], int] | None = None
    ) -> CheckReport:
        """Report the first argument tuple, in canonical order, failing ``law``.

        The law's parameter count fixes the scan: one element or an ordered
        pair.  With ``image`` the witness also names the image of its
        element (the closure checks report ``a`` with the escaping ``op(a)``).
        """
        counts = {"size": self.size}
        for args in itertools.product(range(self.size), repeat=law.__code__.co_argcount):
            if not law(*args):
                if image is not None:
                    args += (image(args[0]),)
                witness = tuple(self.elements[k].text() for k in args)
                return CheckReport(name, False, witness, counts)
        return CheckReport(name, True, (), counts)

    def closure(self, name: str, op: Callable[[int], int]) -> CheckReport:
        """Does ``op`` map the carrier into itself?"""
        return self.scan(name, lambda a: op(a) < self.size, image=op)


def check_ehresmann(m: FiniteMonoid) -> list[CheckReport]:
    """The projection-operation axioms, one report per axiom.

    Unary axioms are checked over all elements, binary ones over all ordered
    pairs.  The two closure reports say whether ``D`` and ``R`` even map the
    carrier into itself; the equational axioms are evaluated in the ambient
    diagram monoid regardless, so a closure failure does not hide them.
    """
    amb = _Products(m)
    D, R, mul = amb.D, amb.R, amb.mul
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
    return [amb.closure("closure-D", D), amb.closure("closure-R", R)] + [
        amb.scan(name, law) for name, law in axioms.items()
    ]


def check_restriction(m: FiniteMonoid, side: str) -> CheckReport:
    """The one-sided restriction law over all ordered pairs.

    ``side="right"`` tests ``R(a) b = b R(ab)``;
    ``side="left"`` tests ``a D(b) = D(ab) a``.
    """
    amb = _Products(m)
    D, R, mul = amb.D, amb.R, amb.mul
    laws = {
        "right": lambda a, b: mul(R(a), b) == mul(b, R(mul(a, b))),
        "left": lambda a, b: mul(a, D(b)) == mul(D(mul(a, b)), a),
    }
    return amb.scan(f"{side}-restriction", laws[side])


def parts(m: FiniteMonoid) -> list[Diagram]:
    """The projections of the carrier: ``p*p = p = D(p) = R(p)``."""
    out = []
    for p in sorted(m.elements):
        if multiply(p, p) == p and domain_projection(p) == p == range_projection(p):
            out.append(p)
    return out


def projection_split(m: FiniteMonoid) -> dict[str, list[Diagram]]:
    """Split the carrier by triviality of its two projections.

    * ``trivial_range``: elements with ``R(a) = 1`` -- a submonoid;
    * ``proper_kernel``: elements with ``D(a) != 1`` -- a right ideal;
    * ``overlap``: their intersection -- a subsemigroup.

    The three closure claims are re-verified before returning (they are
    theorems for Ehresmann carriers, so a failure here is a bug).
    """
    one = identity(m.n)
    elems = sorted(m.elements)
    trivial_range = [a for a in elems if range_projection(a) == one]
    proper_kernel = [a for a in elems if domain_projection(a) != one]
    kernel_set = set(proper_kernel)
    overlap = [a for a in trivial_range if a in kernel_set]

    range_set = set(trivial_range)
    assert one in range_set
    assert all(multiply(a, b) in range_set
               for a in trivial_range for b in trivial_range)
    assert all(multiply(a, b) in kernel_set
               for a in proper_kernel for b in elems)
    overlap_set = set(overlap)
    assert all(multiply(a, b) in overlap_set for a in overlap for b in overlap)
    return {
        "trivial_range": trivial_range,
        "proper_kernel": proper_kernel,
        "overlap": overlap,
    }


def check_grrac(m: FiniteMonoid) -> list[CheckReport]:
    """Axioms of the cap-valued range operation ``rho(a) = cap(coker(a))``.

    Checked over a planar full-domain carrier; ``closure-rho`` reports
    whether the operation maps the carrier into itself.
    """
    amb = _Products(m)
    rho, mul = amb.rho, amb.mul
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
    return [amb.closure("closure-rho", rho)] + [
        amb.scan(name, law) for name, law in axioms.items()
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
    action is also validated against ``u^s = R(us)``.
    """
    u_sorted = sorted(set(u_elements))
    s_sorted = sorted(set(s_elements))
    counts = {"U": len(u_sorted), "S": len(s_sorted)}

    # A2 first (it is what makes the action well-defined): group the
    # products s*u by value and require a unique u in every fibre.
    fibre_u: dict[Diagram, Diagram] = {}
    su_value: dict[tuple[int, int], Diagram] = {}
    for si, s in enumerate(s_sorted):
        for ui, u in enumerate(u_sorted):
            p = multiply(s, u)
            su_value[(si, ui)] = p
            prev = fibre_u.get(p)
            if prev is None:
                fibre_u[p] = u
            elif prev != u:
                return CheckReport(
                    name + "-A2",
                    False,
                    (s.text(), u.text(), prev.text()),
                    counts,
                )

    # A1: us must equal sv for some v in U.
    products_by_s: list[set[Diagram]] = [
        {su_value[(si, ui)] for ui in range(len(u_sorted))}
        for si in range(len(s_sorted))
    ]
    action: dict[tuple[int, int], Diagram] = {}
    for ui, u in enumerate(u_sorted):
        for si, s in enumerate(s_sorted):
            us = multiply(u, s)
            if us not in products_by_s[si]:
                return CheckReport(name + "-A1", False, (u.text(), s.text()), counts)
            action[(ui, si)] = fibre_u[us]

    holds = True
    witness: tuple[str, ...] = ()
    if all(
        multiply(u, u) == u and domain_projection(u) == u == range_projection(u)
        for u in u_sorted
    ):
        counts["projection_formula_checked"] = 1
        for (ui, si), v in action.items():
            u, s = u_sorted[ui], s_sorted[si]
            if v != range_projection(multiply(u, s)):
                holds = False
                witness = (u.text(), s.text(), v.text())
                break
    return CheckReport(name, holds, witness, counts)


# -- left congruences -------------------------------------------------------


class LeftCongruence:
    """A left congruence on a fixed, canonically sorted carrier."""

    __slots__ = ("carrier", "labels")

    def __init__(self, carrier: Sequence[Diagram], labels: Sequence[int]):
        assert len(carrier) == len(labels)
        self.carrier = tuple(carrier)
        seen: dict[int, int] = {}
        out = []
        for value in labels:
            if value not in seen:
                seen[value] = len(seen)
            out.append(seen[value])
        self.labels = tuple(out)

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
    elems = set(s.elements)
    if s.identity_index is None:
        elems.add(identity(s.n))
    return tuple(sorted(elems))


def theta(u: Diagram, s: FiniteMonoid) -> LeftCongruence:
    """The left congruence ``{(x, y) : x u = y u}`` on the completion of S."""
    carrier = completion(s)
    fibres: dict[Diagram, int] = {}
    labels = []
    for x in carrier:
        value = multiply(x, u)
        if value not in fibres:
            fibres[value] = len(fibres)
        labels.append(fibres[value])
    return LeftCongruence(carrier, labels)


def join_left_congruences(a: LeftCongruence, b: LeftCongruence) -> LeftCongruence:
    """Smallest left congruence containing both (their lattice join).

    The transitive closure of the union of two left-compatible equivalences
    is again left-compatible (translate each link of a connecting chain), so
    the join is the plain equivalence join -- no saturation needed.
    """
    assert a.carrier == b.carrier, "joins need a common carrier"
    parent = list(range(len(a.carrier)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for labels in (a.labels, b.labels):
        seen: dict[int, int] = {}
        for pos, label in enumerate(labels):
            if label in seen:
                parent[find(pos)] = find(seen[label])
            else:
                seen[label] = pos
    return LeftCongruence(a.carrier, [find(k) for k in range(len(a.carrier))])


def left_congruence_closure(
    carrier: Sequence[Diagram], pairs: Iterable[tuple[Diagram, Diagram]]
) -> LeftCongruence:
    """Smallest left congruence on the carrier containing the given pairs.

    Saturation: whenever two classes merge, the products ``s*x`` and ``s*y``
    are queued for every carrier element ``s``.  The carrier must be closed
    under multiplication (it normally is a monoid completion).
    """
    carrier = tuple(sorted(set(carrier)))
    index = {d: k for k, d in enumerate(carrier)}
    parent = list(range(len(carrier)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work: list[tuple[int, int]] = []
    for a, b in pairs:
        work.append((index[a], index[b]))
    while work:
        x, y = work.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        a, b = carrier[x], carrier[y]
        for s in carrier:
            sa = index[multiply(s, a)]
            sb = index[multiply(s, b)]
            if find(sa) != find(sb):
                work.append((sa, sb))
    return LeftCongruence(carrier, [find(k) for k in range(len(carrier))])


def principal_pair_congruence(
    s: FiniteMonoid, a: Diagram, b: Diagram
) -> LeftCongruence:
    """The left congruence ``(a, b)^l`` generated by one pair on S-completion."""
    return left_congruence_closure(completion(s), [(a, b)])


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
    return family(u_name, n), family(s_name, n)


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

    en_elements = family("en", n)
    for label in ("tn", "sing-tn"):
        s = from_elements(n, family(label, n))
        thetas = {u: theta(u, s) for u in en_elements}
        holds, witness = True, None
        checked = 0
        for u, v in itertools.product(en_elements, repeat=2):
            checked += 1
            joined = join_left_congruences(thetas[u], thetas[v])
            if theta(multiply(u, v), s) != joined:
                holds, witness = False, (u.text(), v.text())
                break
        reports.append(
            CheckReport(
                f"theta-join:{label}",
                holds,
                witness,
                {"carrier": len(s), "pairs": checked},
            )
        )

    s = from_elements(n, family("tn", n))
    holds, witness = True, None
    for i, j in itertools.combinations(range(1, n + 1), 2):
        generated = principal_pair_congruence(s, identity(n), collapse(n, i, j))
        if theta(merge(n, i, j), s) != generated:
            holds, witness = False, (str(i), str(j))
            break
    reports.append(
        CheckReport("theta-merge-principal", holds, witness, {"carrier": len(s)})
    )

    on = from_elements(n, family("on", n))
    caps = family("dn", n)
    holds, witness = True, None
    join_holds, join_witness = True, None
    for u in caps:
        kernel = u.ker()
        th = theta(u, on)
        if th != principal_pair_congruence(on, identity(n), floor_map(kernel)):
            if holds:
                holds, witness = False, (u.text(),)
        adjacent = [
            theta(cap_atom(n, i, i + 1), on)
            for i in range(1, n)
            if multiply(cap_atom(n, i, i + 1), u) == u
        ]
        if adjacent:
            joined = adjacent[0]
            for other in adjacent[1:]:
                joined = join_left_congruences(joined, other)
            ok = th == joined
        else:
            ok = th.class_count() == len(th.carrier)
        if not ok and join_holds:
            join_holds, join_witness = False, (u.text(),)
    reports.append(
        CheckReport("theta-cap-principal", holds, witness, {"caps": len(caps)})
    )
    reports.append(
        CheckReport("theta-cap-join", join_holds, join_witness, {"caps": len(caps)})
    )
    return reports
