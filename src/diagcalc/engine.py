"""Froidure-Pin closure of diagram sets and finite-monoid bookkeeping.

:func:`closure` grows the submonoid (or subsemigroup) generated by a list of
diagrams with the Froidure-Pin loop :func:`_froidure_pin`, recording for
every element its shortlex-minimal word over the generators, as the tree of
each word's prefix and last letter, and both Cayley tables; a product is
multiplied out only where the tables built so far cannot supply it (an
entry ``u * a`` with ``u = b * s`` is ``left[s * a][b]`` whenever ``s * a``
is shorter than ``u``), and then always by a generator, through that
generator's row map (:func:`diagcalc.partitions.multiply_rows`), built
once per closure.  It runs on label rows (``Diagram.labels``), so a
``Diagram`` is built once per element, never per product.
:class:`FiniteMonoid` is the one indexed carrier: the elements, an index
keyed by their label rows, both Cayley tables, and an ambient past the
carrier where diagrams that products and unary operations reach outside it
are interned, so the exhaustive law checkers run on integer indices and
multiply every product at most once.

Products and images are read by subscript: ``m.table[i][j]`` is the
ambient index of ``i * j`` and ``m.unary(op)[i]`` that of ``op(i)``; an
entry read for the first time is computed then and memoised.  Every carrier
is closed under multiplication, so the product of two of its elements is
looked up, not multiplied: ``i * j`` is ``(i * prefix(j)) * last(j)``, one
read of the right Cayley table past the product with the prefix of ``j``'s
word (Froidure & Pin, 1997); :meth:`FiniteMonoid.columns` reads whole
columns of such products the same way, without storing them.  A row of a
generator, with letter ``a``, reads ``j`` off the left Cayley table
instead, as ``left[j][a]``, and the identity's row reads ``j``.  Only
products with a diagram interned past the carrier are multiplied, each by
the row map :func:`~diagcalc.partitions.multiply_rows` of its right factor,
built once per right factor; :meth:`FiniteMonoid.intern` rejects a diagram
of another degree, so every ambient index has the carrier's degree.
:func:`carrier` is each standard family as the closure of its generators,
certified against its count and membership rule; :func:`from_elements`
builds a carrier the way :func:`closure` does, from a generating set it
picks inside an explicit element set.

Budgets: closures stop with :class:`BudgetExceeded` rather than silently
truncating.  The default budget is generous; callers with tighter limits
pass their own, an ``int`` of at least 1 (anything else raises
``TypeError`` or ``ValueError`` before anything is multiplied, as
:func:`diagcalc.presentations.enumerate_presented` does).
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .counting import FAMILY_COUNTS
from .equivalences import _Memo, _Record
from .partitions import FAMILY_NAMES, GENERATORS, MEMBERS, Diagram, Row, identity, multiply_rows

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(Exception):
    """Raised when a closure or enumeration outgrows its element budget."""

    def __init__(self, budget: int):
        super().__init__(f"budget of {budget} elements exceeded")
        self.budget = budget


def _check_budget(budget: int) -> None:
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise TypeError(f"budget must be an int, got {type(budget).__name__}")
    if budget < 1:
        raise ValueError("budget must be at least 1")


# kept here, not in ``laws``, so that a presentation verdict, whose soundness
# check returns one, does not load the law checkers
class CheckReport(_Record):
    """Outcome of one exhaustive law check."""

    __slots__ = ("name", "holds", "witness", "counts")
    _defaults = {"witness": lambda: None, "counts": dict}  # each report gets its own dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "witness": list(self.witness) if self.witness else None,
            "counts": dict(sorted(self.counts.items())),
        }


# A carrier's ``table`` and its ``unary`` images are ``_Memo`` tables,
# filled on first read, so a read of a known entry is one C-level lookup.
# A row of ``table`` is a ``_Row``, a dict class of its own because its
# ``__missing__`` reads the row's own earlier entries.


class _Row(dict):
    """``row[j]`` is the ambient index of ``i * j``, for a carrier ``j``
    read by walking ``j``'s word.  The rows of the generators and of the
    identity are :class:`_LetterRow` instead, one read of ``left`` each."""

    __slots__ = ("monoid", "i", "size", "prefix", "last", "right")

    def __init__(self, monoid: "FiniteMonoid", i: int):
        # the lookup reads the carrier's tables from the row itself; only a
        # product that leaves the carrier goes through ``monoid``, a proxy
        self.monoid = monoid
        self.i = i
        self.size = len(monoid.elements)
        self.prefix, self.last = monoid._tree
        self.right = monoid.right

    def __missing__(self, j: int) -> int:
        i, size = self.i, self.size
        if i < size and j < size:
            # i * j = (i * prefix(j)) * last(j); when the prefix's product is
            # not in the row yet, it is read down the path from the longest
            # prefix of j's word that is, and the path's products are kept
            prefix, last, right = self.prefix, self.last, self.right
            p = prefix[j]
            k = i if p < 0 else self.get(p)
            if k is None:
                path = [p]
                p = prefix[p]
                while p >= 0 and p not in self:
                    path.append(p)
                    p = prefix[p]
                k = i if p < 0 else self[p]
                for q in reversed(path):  # a prefix is never the empty word
                    k = self[q] = right[k][last[q]]
            a = last[j]
            if a >= 0:
                k = right[k][a]
        else:
            m = self.monoid
            k = m.intern(Diagram(m.n, m._by[j](m.diagram(i).labels), True))
        self[j] = k
        return k


class _LetterRow(_Row):
    """The row of a generator with letter ``a``, or of the identity
    (``a = -1``): a carrier ``j`` is read as ``left[j][a]``, or is ``j``,
    with no walk along ``j``'s word.  Only the entries read are stored.
    Its own class, so that other rows carry no extra slots."""

    __slots__ = ("left", "letter")

    def __init__(self, monoid: "FiniteMonoid", i: int, letter: int):
        super().__init__(monoid, i)
        self.left, self.letter = monoid.left, letter

    def __missing__(self, j: int) -> int:
        if j >= self.size:  # a product that leaves the carrier
            return _Row.__missing__(self, j)
        a = self.letter
        k = self[j] = self.left[j][a] if a >= 0 else j
        return k


class FiniteMonoid:
    """A finite diagram monoid (or semigroup) with interned elements.

    ``elements`` is in discovery order, ``index`` maps each one's label row
    (not the diagram) to its position, and ``tree`` is the word tree
    ``(prefix, last)`` of :func:`_froidure_pin`, read by :meth:`word_for`.
    ``identity_index`` is the index of the identity diagram, or ``None``
    for carriers without one (e.g. singular subsemigroups).  The carrier is
    closed under multiplication and generated by ``generators`` (and its
    identity): ``right[k][g]`` is the index of ``elements[k] * generator_g``
    and ``left[k][g]`` that of ``generator_g * elements[k]``, and products
    of its elements are looked up along ``tree``.

    Ambient indices: ``0 .. len(m) - 1`` are the carrier's elements, and
    :meth:`intern` gives any other diagram of the same degree the next free
    index past them, so a term that leaves the carrier (say a crossing
    ``R(a)`` of a planar ``a``) still has an index.  ``table``,
    :meth:`product` and :meth:`unary` take and return ambient indices and
    :meth:`diagram` reads one back; equal indices mean equal diagrams.
    ``len(m)``, ``d in m``, iteration (over ``elements``, in discovery
    order), ``elements``, ``index`` and :meth:`word_for` mean the carrier
    only, so ``set(m)`` and ``sorted(m)`` are its elements.
    """

    def __init__(
        self,
        n: int,
        elements: list[Diagram],
        generators: list[int],
        tree: tuple[Sequence[int], Sequence[int]],
        right: list[list[int]],
        symbols: Sequence[str] | None = None,
        *,
        left: list[list[int]],
        index: dict[Row, int] | None = None,
    ):
        self.n = n
        self.elements = elements
        self.index = {d.labels: k for k, d in enumerate(elements)} if index is None else index
        self.generators = generators
        self._tree = tree
        self.right = right
        self.left = left
        self.identity_index = self.index.get(tuple(range(n)) * 2)  # identity(n)'s row
        self.symbols = tuple(symbols) if symbols is not None else None
        self._canonical: list[int] | None = None
        self._escapes: list[Diagram] = []
        self._escape_index: dict[Row, int] = {}
        # the memos reach their carrier through a weak proxy, so a carrier
        # nobody holds is freed at once rather than by the cycle collector
        m = weakref.proxy(self)
        letters = {g: a for a, g in enumerate(generators)}  # a generator's letter
        if self.identity_index is not None:
            letters.setdefault(self.identity_index, -1)
        self.table = _Memo(lambda i: _LetterRow(m, i, letters[i]) if i in letters else _Row(m, i))
        self._by = _Memo(lambda j: multiply_rows(m.diagram(j)))  # products that leave it
        self._images = _Memo(lambda op: _Memo(lambda i: m.intern(op(m.diagram(i)))))

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, d: Diagram) -> bool:
        return d.labels in self.index

    def __iter__(self) -> Iterator[Diagram]:
        return iter(self.elements)

    def diagram(self, k: int) -> Diagram:
        """The diagram at ambient index ``k``."""
        size = len(self.elements)
        return self.elements[k] if k < size else self._escapes[k - size]

    def intern(self, d: Diagram) -> int:
        """Ambient index of ``d``, appending it past the carrier on first
        sight; a diagram of another degree raises ``ValueError``."""
        if d.n != self.n:
            raise ValueError(f"{d.text()} has degree {d.n}, not the carrier's degree {self.n}")
        k = self.index.get(d.labels)
        if k is None:
            k = self._escape_index.get(d.labels)
            if k is None:
                k = self._escape_index[d.labels] = len(self.elements) + len(self._escapes)
                self._escapes.append(d)
        return k

    def product(self, i: int, j: int) -> int:
        """Ambient index of ``diagram(i) * diagram(j)``: ``table[i][j]``."""
        return self.table[i][j]

    def columns(self, rows: Sequence[int], cols: Sequence[int]) -> list[list[int]]:
        """``[[i * j for i in rows] for j in cols]``, for carrier indices only.

        Each column is read as :class:`_Row` reads one product, batched over
        ``rows``: the column of ``j`` is that of ``prefix(j)`` moved by the
        right Cayley table's ``last(j)`` entries, and the column of the empty
        word is ``rows``.  Columns of prefixes that several words share are
        computed once.  Nothing is multiplied and nothing is stored in
        ``table``; an index outside the carrier raises ``ValueError``.  An
        index repeated in ``cols`` gets the same list each time.

        >>> m = carrier("tn", 2)
        >>> m.columns(range(4), [1]) == [[m.table[i][1] for i in range(4)]]
        True
        """
        size = len(self.elements)
        rows, cols = list(rows), list(cols)
        for k in (*rows, *cols):
            if not 0 <= k < size:
                raise ValueError(f"{k} is not a carrier index of a monoid of {size} elements")
        prefix, last = self._tree
        right = self.right
        known: dict[int, list[int]] = {}  # the column of each word read so far
        out = []
        for j in cols:
            path = []
            k = j
            while k >= 0 and k not in known:
                path.append(k)
                k = prefix[k]
            col = rows if k < 0 else known[k]
            for q in reversed(path):
                a = last[q]
                if a >= 0:
                    col = [right[x][a] for x in col]
                known[q] = col
            out.append(known[j])
        return out

    def unary(self, op: Callable[[Diagram], Diagram]) -> _Memo:
        """``op`` on ambient indices, read as ``images[i]``; each image is
        computed once per monoid."""
        return self._images[op]

    def canonical_order(self) -> list[int]:
        """Element indices sorted by canonical encoding (for witness scans)."""
        if self._canonical is None:
            self._canonical = sorted(
                range(len(self.elements)), key=lambda k: self.elements[k].labels
            )
        return self._canonical

    def word_for(self, d: Diagram) -> tuple[int, ...]:
        """Shortlex word over generator positions evaluating to ``d``."""
        k = self.index.get(d.labels)
        if k is None:
            raise KeyError(f"{d!r} is not in the monoid")
        prefix, last = self._tree
        word: list[int] = []
        while k >= 0 and last[k] >= 0:
            word.append(last[k])
            k = prefix[k]
        return tuple(reversed(word))


def _froidure_pin(generators: Sequence[Hashable], times: Sequence[Callable],
                  seed: Hashable | None, budget: int) -> tuple:
    """Closure of ``generators``, any hashable values, under the maps
    ``times[a]: x -> x * generators[a]``, with ``seed`` adjoined first as
    the empty word unless it is ``None``.

    Returns the elements in discovery order, their ``index``, the position
    ``letter[a]`` of each generator, the word tree ``(prefix, last)`` and
    both Cayley tables, ``right[u][a]`` the position of ``u * generators[a]``
    and ``left[u][a]`` that of ``generators[a] * u``.  The word of element
    ``u`` is the word of ``prefix[u]`` followed by the letter ``last[u]``;
    a letter's prefix is -1, and so are both entries of the seed.

    Elements are found in shortlex order of their representative words,
    one word length at a time.  An element ``u`` of length ``L`` is
    ``b * s`` for its first letter ``b`` and its suffix ``s`` (of length
    ``L - 1``, already known), and ``u * a`` is computed, as
    ``times[a](u)``, only when ``rep(s) a`` is itself a representative
    word.  Otherwise ``s * a = r`` has a shorter or lex-smaller word and
    ``u * a = b * r`` is read from rows that are already filled: as
    ``left[r][b]`` when ``r`` is shorter than ``u`` (its left row is
    filled), else as ``(b * prefix(r)) * last(r)``.  The left row of every
    element of length ``L`` is filled once all rows of length ``L`` are
    known (Froidure & Pin, 1997).
    """
    k = len(generators)
    elements: list = []
    index: dict = {}
    right: list[list[int]] = []
    left: list[list[int]] = []
    # per element: first and last letter, prefix and suffix of its word; -1
    # marks the empty word (a letter's prefix and suffix, all four of the seed)
    first: list[int] = []
    last: list[int] = []
    prefix: list[int] = []
    suffix: list[int] = []

    def intern(x: Hashable, b: int) -> int:
        u = index.setdefault(x, len(elements))
        if u == len(elements):
            if u >= budget:
                raise BudgetExceeded(budget)
            elements.append(x)
            first.append(b)
            last.append(b)
            prefix.append(-1)
            suffix.append(-1)
        return u

    if seed is not None:
        intern(seed, -1)
    letter = [intern(g, a) for a, g in enumerate(generators)]
    lo = 0
    if seed is not None:
        right.append(list(letter))
        left.append(list(letter))
        lo = 1

    size = len(elements)
    while lo < size:
        hi = size
        for u in range(lo, hi):
            b, s = first[u], suffix[u]
            x = elements[u]
            srow = letter if s < 0 else right[s]
            row = [0] * k
            right.append(row)
            for a, r in enumerate(srow):
                if r < lo:  # s * a is shorter than u: u * a = b * r
                    row[a] = left[r][b]
                elif prefix[r] == s and last[r] == a:
                    y = times[a](x)
                    v = index.setdefault(y, size)
                    if v == size:
                        if v >= budget:
                            raise BudgetExceeded(budget)
                        size += 1
                        elements.append(y)
                        first.append(b)
                        last.append(a)
                        prefix.append(u)
                        suffix.append(r)
                    row[a] = v
                else:
                    p = prefix[r]
                    row[a] = right[letter[b] if p < 0 else left[p][b]][last[r]]
        for v in range(lo, hi):
            p, c = prefix[v], last[v]
            left.append([right[w][c] for w in (letter if p < 0 else left[p])])
        lo = hi

    return elements, index, letter, (prefix, last), right, left


def closure(n: int, generators: Sequence[Diagram], *, monoid: bool = True,
            budget: int = DEFAULT_BUDGET, symbols: Sequence[str] | None = None) -> FiniteMonoid:
    """Froidure-Pin closure of the generators under multiplication.

    With ``monoid=True`` the identity is adjoined as the seed (empty word);
    otherwise only non-empty products are collected and the identity appears
    just if some product equals it.  Each generator's row map
    :func:`~diagcalc.partitions.multiply_rows` is built once, and every
    product the loop computes goes through one of them, on label rows; the
    carrier's ``index`` is the loop's own, keyed by those rows.

    >>> from .partitions import transposition
    >>> len(closure(3, [transposition(3, 1), transposition(3, 2)]))
    6
    """
    _check_budget(budget)
    if any(g.n != n for g in generators):
        raise ValueError(f"every generator must have degree {n}")
    times = [multiply_rows(g) for g in generators]
    one = tuple(range(n)) * 2 if monoid else None  # identity(n)'s row
    elements, index, letter, tree, right, left = _froidure_pin([g.labels for g in generators],
                                                               times, one, budget)
    for k, row in enumerate(elements):  # one Diagram per element, in place of its row
        elements[k] = Diagram(n, row, True)
    return FiniteMonoid(n, elements, letter, tree, right, symbols, left=left, index=index)


def carrier(name: str, n: int) -> FiniteMonoid:
    """The standard family ``name`` of degree ``n``: the closure of its
    generators in :data:`diagcalc.partitions.GENERATORS`, with their symbols.

    A family counted in :data:`~diagcalc.counting.FAMILY_COUNTS` at more
    than :data:`DEFAULT_BUDGET` elements raises :class:`BudgetExceeded`
    before anything is multiplied.  The closure is certified before it is
    returned: it has exactly the counted size and every element passes the
    family's rule in :data:`~diagcalc.partitions.MEMBERS`, so it is the
    family.  A closure that fails either check (a wrong table entry) raises
    ``RuntimeError``.

    >>> len(carrier("ppnfd", 3)), carrier("sing-tn", 3).identity_index
    (20, None)
    """
    if name not in GENERATORS:
        raise ValueError(f"unknown family {name!r}; expected one of {', '.join(FAMILY_NAMES)}")
    size = FAMILY_COUNTS[name](n)
    if size > DEFAULT_BUDGET:
        raise BudgetExceeded(DEFAULT_BUDGET)
    monoid, pairs = GENERATORS[name](n)
    symbols = [symbol for symbol, _ in pairs]
    rule = MEMBERS[name]
    # the closure stops as soon as it outgrows the count; a budget is at least
    # 1, and an empty family (sing-tn at n <= 1) closes to no element
    try:
        m = closure(n, [image for _, image in pairs], monoid=monoid, budget=size or 1,
                    symbols=symbols)
    except BudgetExceeded:
        m = None
    if m is None or len(m) != size or not all(rule(d.labels[:n], d.labels[n:]) for d in m.elements):
        raise RuntimeError(f"the generators of {name} at n={n} do not generate "
                           f"its {size} elements")
    return m


def from_elements(n: int, elements: Iterable[Diagram]) -> FiniteMonoid:
    """The carrier of an explicit element set closed under multiplication.

    A generating set inside the set is picked greedily, by descending rank
    and then canonical order, adding every element that the set so far does
    not generate, and each pick is closed by :func:`_froidure_pin` over
    positions in the set, which are keyed by label rows.  Each picked
    generator has one memo, keyed by position and filled through its row
    map :func:`~diagcalc.partitions.multiply_rows`, so each product of two
    positions is multiplied once across the restarts.  The carrier is then
    built as by :func:`closure`: elements in discovery order, that
    generating set, both Cayley tables and the word tree.  A set with an element of another
    degree, or with a product outside it, raises ``ValueError``.
    """
    distinct = set(elements)
    if any(d.n != n for d in distinct):
        raise ValueError(f"every element must have degree {n}")
    elems = sorted(distinct, key=lambda d: (-d.rank(), d.labels))
    size = len(elems)
    position = {d.labels: k for k, d in enumerate(elems)}
    seed = position.get(identity(n).labels)

    def times_by(g: Diagram) -> Callable[[int], int]:
        by = multiply_rows(g)

        def position_of(x: int) -> int:
            row = by(elems[x].labels)
            k = position.get(row, -1)
            if k < 0:
                raise ValueError(f"the set is not closed: {elems[x].text()} * {g.text()}"
                                 f" = {Diagram(n, row, True).text()}")
            return k
        return _Memo(position_of).__getitem__

    gens: list[int] = []
    times: list[Callable[[int], int]] = []
    found = _froidure_pin(gens, times, seed, size)
    for k in range(size):
        if len(found[0]) == size:
            break
        if k not in found[1]:  # not generated yet
            gens.append(k)
            times.append(times_by(elems[k]))
            found = _froidure_pin(gens, times, seed, size)
    at, _, letter, tree, right, left = found
    return FiniteMonoid(n, [elems[a] for a in at], letter, tree, right, left=left)


# -- Cayley graph export ---------------------------------------------------


def cayley_dot(m: FiniteMonoid) -> Iterator[str]:
    """The right Cayley graph ``m.right`` in DOT syntax, yielded a piece at
    a time: one node line per element in canonical order, then each one's
    edge lines in generator order, joined per element."""
    symbols = m.symbols or [f"g{g}" for g in range(len(m.generators))]
    order = m.canonical_order()
    position = [0] * len(order)
    for p, k in enumerate(order):
        position[k] = p
    yield "digraph right_cayley {\n"
    for p, k in enumerate(order):
        yield f'  n{p} [label="{m.elements[k].text()}"];\n'
    for p, k in enumerate(order):
        yield "".join([f'  n{p} -> n{position[q]} [label="{symbol}"];\n'
                       for symbol, q in zip(symbols, m.right[k])])
    yield "}\n"
