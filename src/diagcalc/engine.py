"""Froidure-Pin closure of diagram sets and finite-monoid bookkeeping.

:func:`closure` grows the submonoid (or subsemigroup) generated by a list of
diagrams with the Froidure-Pin algorithm, recording for every element a
shortlex-minimal word over the generators and both Cayley tables, right and
left; a product is multiplied out only where the tables built so far cannot
supply it.  :class:`FiniteMonoid` is the one indexed carrier: the elements,
both Cayley tables, and an ambient past the carrier where diagrams that
products and unary operations reach outside it are interned, so the
exhaustive law checkers run on integer indices and multiply every product
at most once.

Budgets: closures stop with :class:`BudgetExceeded` rather than silently
truncating.  The default budget is generous; callers with tighter limits
pass their own.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .equivalences import Equivalence, _normalize, join
from .partitions import Diagram, identity, multiply

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(Exception):
    """Raised when a closure or enumeration outgrows its element budget."""

    def __init__(self, budget: int, message: str = ""):
        super().__init__(message or f"budget of {budget} elements exceeded")
        self.budget = budget


# kept here, not in ``laws``, so that a presentation verdict, whose soundness
# check returns one, does not load the law checkers
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


class FiniteMonoid:
    """A finite diagram monoid (or semigroup) with interned elements.

    ``elements`` is in discovery order; ``rep_words[k]`` is the
    shortlex-least word over the generator positions evaluating to
    ``elements[k]``.  ``identity_index`` is ``None`` for carriers without an
    identity (e.g. singular subsemigroups).  A ``right`` or ``left`` table
    of ``None`` is built in full on first use; :func:`closure` supplies both.

    Ambient indices: ``0 .. len(m) - 1`` are the carrier's elements, and
    :meth:`intern` gives any other diagram of the same degree the next free
    index past them, so a term that leaves the carrier (say a crossing
    ``R(a)`` of a planar ``a``) still has an index.  :meth:`product` and
    :meth:`unary` take and return ambient indices and :meth:`diagram` reads
    one back; equal indices mean equal diagrams.  ``len(m)``, ``d in m``,
    ``elements``, ``index`` and :meth:`word_for` mean the carrier only.
    """

    def __init__(
        self,
        n: int,
        elements: list[Diagram],
        generators: list[int],
        rep_words: list[tuple[int, ...]],
        right: list[list[int]] | None,
        identity_index: int | None,
        symbols: Sequence[str] | None = None,
        left: list[list[int]] | None = None,
    ):
        self.n = n
        self.elements = elements
        self.index = {d: k for k, d in enumerate(elements)}
        self.generators = generators
        self.rep_words = rep_words
        self._right = right
        self.identity_index = identity_index
        self.symbols = tuple(symbols) if symbols is not None else None
        self._left = left
        self._canonical: list[int] | None = None
        # carrier indices below this bound multiply by walking ``right``
        self._walk = len(elements) if right is not None else 0
        self._escapes: list[Diagram] = []
        self._escape_index: dict[Diagram, int] = {}
        self._rows: defaultdict[int, list[int]] = defaultdict(list)  # product memo
        self._images: dict[Callable[[Diagram], Diagram], list[int]] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, d: Diagram) -> bool:
        return d in self.index

    def diagram(self, k: int) -> Diagram:
        """The diagram at ambient index ``k``."""
        size = len(self.elements)
        return self.elements[k] if k < size else self._escapes[k - size]

    def intern(self, d: Diagram) -> int:
        """Ambient index of ``d``, appending it past the carrier on first sight."""
        k = self.index.get(d)
        if k is None:
            k = self._escape_index.get(d)
            if k is None:
                k = self._escape_index[d] = len(self.elements) + len(self._escapes)
                self._escapes.append(d)
        return k

    def product(self, i: int, j: int) -> int:
        """Ambient index of ``diagram(i) * diagram(j)``.

        Two carrier indices of a closure-built carrier walk ``rep_words[j]``
        through ``right`` and multiply nothing; every other product is
        multiplied once and memoised in lazily filled rows.
        """
        if j < self._walk and i < self._walk:
            right = self._right
            for g in self.rep_words[j]:
                i = right[i][g]
            return i
        row = self._rows[i]
        if j >= len(row):
            row.extend([-1] * (len(self.elements) + len(self._escapes) - len(row)))
        k = row[j]
        if k < 0:
            k = row[j] = self.intern(multiply(self.diagram(i), self.diagram(j)))
        return k

    def unary(self, op: Callable[[Diagram], Diagram]) -> Callable[[int], int]:
        """``op`` on ambient indices, each image computed once per monoid."""
        images = self._images.setdefault(op, [])

        def image(i: int) -> int:
            if i >= len(images):
                images.extend([-1] * (len(self.elements) + len(self._escapes) - len(images)))
            k = images[i]
            if k < 0:
                k = images[i] = self.intern(op(self.diagram(i)))
            return k

        return image

    @property
    def right(self) -> list[list[int]]:
        """``right[k][g]`` = index of ``elements[k] * generator_g``."""
        if self._right is None:
            self._right = [[self.product(k, g) for g in self.generators] for k in range(len(self))]
        return self._right

    def left_table(self) -> list[list[int]]:
        """``left[k][g]`` = index of ``generator_g * elements[k]`` (lazy)."""
        if self._left is None:
            self._left = [[self.product(g, k) for g in self.generators] for k in range(len(self))]
        return self._left

    def canonical_order(self) -> list[int]:
        """Element indices sorted by canonical encoding (for witness scans)."""
        if self._canonical is None:
            self._canonical = sorted(
                range(len(self.elements)), key=lambda k: self.elements[k].labels
            )
        return self._canonical

    def word_for(self, d: Diagram) -> tuple[int, ...]:
        """Shortlex word over generator positions evaluating to ``d``."""
        if d not in self.index:
            raise KeyError(f"{d!r} is not in the monoid")
        return self.rep_words[self.index[d]]


def closure(
    n: int,
    generators: Sequence[Diagram],
    *,
    monoid: bool = True,
    budget: int = DEFAULT_BUDGET,
    symbols: Sequence[str] | None = None,
) -> FiniteMonoid:
    """Froidure-Pin closure of the generators under multiplication.

    With ``monoid=True`` the identity is adjoined as the seed (empty word);
    otherwise only non-empty products are collected and the identity appears
    just if some product equals it.

    Elements are found in shortlex order of their representative words,
    one word length at a time.  An element ``u`` of length ``L`` is
    ``b * s`` for its first letter ``b`` and its suffix ``s`` (of length
    ``L - 1``, already known), and ``u * a`` is multiplied out only when
    ``rep(s) a`` is itself a representative word.  Otherwise ``s * a = r``
    has a shorter or lex-smaller word and ``u * a = (b * prefix(r)) *
    last(r)`` is read from rows that are already filled.  The left row of
    every element of length ``L`` is filled once all rows of length ``L``
    are known (Froidure & Pin, 1997).

    >>> from .partitions import transposition
    >>> len(closure(3, [transposition(3, 1), transposition(3, 2)]))
    6
    """
    if any(g.n != n for g in generators):
        raise ValueError(f"every generator must have degree {n}")
    k = len(generators)
    elements: list[Diagram] = []
    index: dict[Diagram, int] = {}
    rep_words: list[tuple[int, ...]] = []
    right: list[list[int]] = []
    left: list[list[int]] = []
    # per element: first and last letter, prefix and suffix of its word; -1
    # marks the empty word (a letter's prefix and suffix, all four of the seed)
    first: list[int] = []
    last: list[int] = []
    prefix: list[int] = []
    suffix: list[int] = []

    def intern(d: Diagram, word: tuple[int, ...], pre: int, suf: int) -> int:
        if d in index:
            return index[d]
        if len(elements) >= budget:
            raise BudgetExceeded(budget)
        index[d] = len(elements)
        elements.append(d)
        rep_words.append(word)
        first.append(word[0] if word else -1)
        last.append(word[-1] if word else -1)
        prefix.append(pre)
        suffix.append(suf)
        return index[d]

    if monoid:
        intern(identity(n), (), -1, -1)
    letter = [intern(g, (pos,), -1, -1) for pos, g in enumerate(generators)]
    lo = 0
    if monoid:
        right.append(list(letter))
        left.append(list(letter))
        lo = 1

    while lo < len(elements):
        hi = len(elements)
        for u in range(lo, hi):
            b, s = first[u], suffix[u]
            row = [0] * k
            right.append(row)
            for a in range(k):
                r = letter[a] if s < 0 else right[s][a]
                if prefix[r] == s and last[r] == a:
                    prod = multiply(elements[u], generators[a])
                    row[a] = intern(prod, rep_words[u] + (a,), u, r)
                elif last[r] < 0:  # s * a is the identity seed
                    row[a] = letter[b]
                else:
                    p = prefix[r]
                    row[a] = right[letter[b] if p < 0 else left[p][b]][last[r]]
        for v in range(lo, hi):
            p, c = prefix[v], last[v]
            left.append([right[letter[b] if p < 0 else left[p][b]][c] for b in range(k)])
        lo = hi

    return FiniteMonoid(
        n, elements, letter, rep_words, right, index.get(identity(n)), symbols, left,
    )


def from_elements(n: int, elements: Iterable[Diagram]) -> FiniteMonoid:
    """Wrap an explicit element set, every element acting as a generator.

    Products are multiplied on first use, so wrapping a large set is cheap
    until they are actually needed.  The Cayley tables (``right``,
    ``left_table()``) index the carrier only if the set is closed under
    multiplication.
    """
    elems = sorted(set(elements))
    m = FiniteMonoid(
        n, elems, list(range(len(elems))), [(k,) for k in range(len(elems))], None, None
    )
    m.identity_index = m.index.get(identity(n))
    return m


# -- Green's relations ----------------------------------------------------


@dataclass(frozen=True)
class GreenClasses:
    """Partitions of the element indices under Green's relations."""

    r_class_of: tuple[int, ...]
    l_class_of: tuple[int, ...]
    j_class_of: tuple[int, ...]
    h_class_of: tuple[int, ...]

    def counts(self) -> dict[str, int]:
        return {
            "R": len(set(self.r_class_of)),
            "L": len(set(self.l_class_of)),
            "J": len(set(self.j_class_of)),
            "H": len(set(self.h_class_of)),
        }


def _strongly_connected(size: int, edges: list[list[int]]) -> tuple[int, ...]:
    """Component id per node (iterative Tarjan), ids relabelled by least node."""
    indexes = [-1] * size
    low = [0] * size
    on_stack = [False] * size
    comp = [-1] * size
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(size):
        if indexes[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, ptr = work.pop()
            if ptr == 0:
                indexes[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            targets = edges[node]
            while ptr < len(targets):
                nxt = targets[ptr]
                ptr += 1
                if indexes[nxt] == -1:
                    work.append((node, ptr))
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], indexes[nxt])
            if advanced:
                continue
            if low[node] == indexes[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp[member] = ncomp
                    if member == node:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    # relabel components by their least member so the ids are canonical
    return _normalize(comp)


def green(m: FiniteMonoid) -> GreenClasses:
    """Green's R, L, J and H classes of a carrier closed under multiplication.

    R and L are the strongly connected components of the right and left
    Cayley graphs; in a finite semigroup J = D = R ∨ L, and H = R ∧ L.
    """
    size = len(m)
    r_of = _strongly_connected(size, [sorted(set(row)) for row in m.right])
    l_of = _strongly_connected(size, [sorted(set(row)) for row in m.left_table()])
    j_of = join(Equivalence(size, r_of), Equivalence(size, l_of)).labels
    return GreenClasses(r_of, l_of, j_of, _normalize(zip(r_of, l_of)))


@dataclass(frozen=True)
class BandReport:
    """Idempotency/commutation flags for a finite monoid."""

    band: bool
    left_regular: bool  # xyx = xy
    right_regular: bool  # xyx = yx
    semilattice: bool
    l_trivial: bool
    r_trivial: bool


def band_type(m: FiniteMonoid) -> BandReport:
    size = len(m)
    band = all(m.product(k, k) == k for k in range(size))
    left_regular = right_regular = commutative = band
    if band:
        for x in range(size):
            for y in range(size):
                xy = m.product(x, y)
                yx = m.product(y, x)
                xyx = m.product(xy, x)
                if xyx != xy:
                    left_regular = False
                if xyx != yx:
                    right_regular = False
                if xy != yx:
                    commutative = False
            if not (left_regular or right_regular or commutative):
                break
    classes = green(m)
    return BandReport(
        band=band,
        left_regular=left_regular,
        right_regular=right_regular,
        semilattice=band and commutative,
        l_trivial=len(set(classes.l_class_of)) == size,
        r_trivial=len(set(classes.r_class_of)) == size,
    )


def units_and_singular(m: FiniteMonoid) -> tuple[list[int], list[int]]:
    """Indices of the invertible elements and of everything else.

    The units of a finite monoid are the H-class of its identity (Howie,
    *Fundamentals of Semigroup Theory*, 1995, ch. 2), read off :func:`green`.
    """
    if m.identity_index is None:
        return [], list(range(len(m)))
    h_of = green(m).h_class_of
    unit_class = h_of[m.identity_index]
    units = [x for x in range(len(m)) if h_of[x] == unit_class]
    return units, [x for x in range(len(m)) if h_of[x] != unit_class]


# -- Cayley graph export ---------------------------------------------------


def cayley_json(m: FiniteMonoid, side: str = "right") -> dict:
    """Right or left Cayley graph as a plain JSON-ready dict."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    table = m.right if side == "right" else m.left_table()
    symbols = list(m.symbols) if m.symbols else [f"g{k}" for k in range(len(m.generators))]
    order = m.canonical_order()
    position = {k: p for p, k in enumerate(order)}
    return {
        "degree": m.n,
        "side": side,
        "size": len(m),
        "generators": symbols,
        "elements": [m.elements[k].text() for k in order],
        "edges": [
            {"from": position[k], "generator": symbols[g], "to": position[table[k][g]]}
            for k in order
            for g in range(len(m.generators))
        ],
    }


def cayley_dot(m: FiniteMonoid, side: str = "right") -> str:
    """The same graph in DOT syntax, deterministically ordered."""
    data = cayley_json(m, side)
    lines = [f"digraph {side}_cayley {{"]
    for k, text in enumerate(data["elements"]):
        lines.append(f'  n{k} [label="{text}"];')
    for edge in data["edges"]:
        lines.append(
            f'  n{edge["from"]} -> n{edge["to"]} [label="{edge["generator"]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
