"""Equivalence relations on ``{1, ..., n}``.

Canonical encoding
------------------
An equivalence is stored as its restricted-growth sequence: scanning the
points ``1, 2, ..., n`` in order, each class is numbered ``0, 1, 2, ...`` by
first occurrence.  Two relations are equal iff their sequences are equal, so
instances can be hashed, sorted and compared directly.

Text form
---------
Classes are written as a JSON array of integer arrays in first-occurrence
order with ascending members, e.g. ``[[1,5,6],[2,3],[4],[7,8]]``.

Planarity vocabulary
--------------------
A relation is *planar* when every pair of classes is either separated (one
lies entirely below the other) or nested (one fits inside a single gap
between consecutive members of the other), and *convex* when every class is
an interval.  Planar relations are exactly the ones that admit a cap: see
:func:`cap_kernel`, :func:`cap_word` and :mod:`diagcalc.partitions`.
"""

from __future__ import annotations

import json
from typing import Callable, Hashable, Iterable, Iterator, Sequence


def _normalize(labels: Iterable[Hashable]) -> tuple[int, ...]:
    """Relabel an arbitrary label sequence into restricted-growth form."""
    seen: dict[Hashable, int] = {}
    out = []
    for value in labels:
        if value not in seen:
            seen[value] = len(seen)
        out.append(seen[value])
    return tuple(out)


def _find(parent: list[int], x: int) -> int:
    """Root of ``x`` in the union-find forest ``parent``, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def noncrossing(labels: Sequence[int]) -> bool:
    """Is the label sequence free of the interleaving pattern a..b..a..b?

    This is the single-pass stack test: a label may only be resumed while it
    is still on top of the stack of currently open labels.

    >>> noncrossing([0, 1, 1, 0])
    True
    >>> noncrossing([0, 1, 0, 1])
    False
    """
    last: dict[int, int] = {}
    for pos, label in enumerate(labels):
        last[label] = pos
    stack: list[int] = []
    opened: set[int] = set()
    for pos, label in enumerate(labels):
        if not (stack and stack[-1] == label):
            if label in opened:
                return False
            opened.add(label)
            stack.append(label)
        while stack and last[stack[-1]] == pos:
            stack.pop()
    return True


class _Canonical:
    """Comparisons and text shared by :class:`Equivalence` and ``Diagram``:
    both are a size ``n`` and a canonical (restricted-growth) label
    sequence, and both are written as the JSON list of their groups
    (classes or signed blocks) without spaces.  Equality and the hash read
    the labels alone, whose length fixes ``n`` within a class."""

    __slots__ = ("n", "labels")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, self.__class__) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __lt__(self, other: "_Canonical") -> bool:
        return (self.n, self.labels) < (other.n, other.labels)

    def __repr__(self) -> str:
        return f"{type(self).__name__}.from_text({self.text()!r})"

    def text(self) -> str:
        return "[%s]" % ",".join("[%s]" % ",".join(map(str, g)) for g in self._groups())


class _Record:
    """A frozen record over ``__slots__``, in place of a frozen dataclass,
    which would load :mod:`dataclasses` (and with it ``inspect`` and
    ``ast``) into every CLI run.

    The fields are the record class's own slots in order, except the last
    ``_hidden`` ones, which are stored but left out of ``==``, ``hash`` and
    ``repr``.  A subclass of a record must declare the same slots again.
    The constructor binds positional and then keyword arguments to the
    fields as a dataclass's does, and fills an omitted field by calling its
    factory in ``_defaults``.  Equality needs the same class and then equal
    field tuples, the hash is the field tuple's, and assignment raises
    ``AttributeError``.
    """

    __slots__ = ()
    _hidden = 0
    _defaults: dict = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names, kind = self.__slots__, type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{kind} takes {len(names)} fields but {len(args)} were given")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{kind} got field {name!r} twice")
            kwargs[name] = value
        for name in names:
            if name not in kwargs:
                if name not in self._defaults:
                    raise TypeError(f"{kind} is missing field {name!r}")
                kwargs[name] = self._defaults[name]()
            object.__setattr__(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{kind} got unknown fields {', '.join(map(repr, kwargs))}")

    def _fields(self) -> tuple[str, ...]:
        return self.__slots__[: len(self.__slots__) - self._hidden]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Memo(dict):
    """A table filled on first read: ``memo[key]`` is ``fill(key)``,
    computed and stored the first time it is read, so a read of a known
    entry is one C-level lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable[[Hashable], object]):
        self.fill = fill

    def __missing__(self, key: Hashable) -> object:
        value = self[key] = self.fill(key)
        return value


class Equivalence(_Canonical):
    """An equivalence relation on ``{1, ..., n}`` in canonical form."""

    __slots__ = ()

    def __init__(self, n: int, labels: Sequence[int]):
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        if len(labels) != n:
            raise ValueError(f"an equivalence on {n} points needs {n} labels, got {len(labels)}")
        self.n = n
        self.labels = _normalize(labels)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_classes(cls, n: int, classes: Iterable[Iterable[int]]) -> "Equivalence":
        labels = [-1] * n
        for block_id, block in enumerate(classes):
            for point in block:
                if type(point) is not int:  # ``True`` would pass as point 1
                    raise ValueError(f"point {point!r} is not an int")
                if not 1 <= point <= n:
                    raise ValueError(f"point {point} out of range 1..{n}")
                if labels[point - 1] != -1:
                    raise ValueError(f"point {point} appears twice")
                labels[point - 1] = block_id
        if -1 in labels:
            raise ValueError(f"point {labels.index(-1) + 1} is missing")
        return cls(n, labels)

    @classmethod
    def from_text(cls, text: str) -> "Equivalence":
        """Parse the JSON class list, inferring ``n`` from the points.

        >>> Equivalence.from_text("[[1,3],[2]]").labels
        (0, 1, 0)
        """
        classes = _parse_nested_ints(text)
        points = [p for block in classes for p in block]
        if any(p < 1 for p in points):
            raise ValueError("points must be positive")
        n = max(points, default=0)
        return cls.from_classes(n, classes)

    # -- canonical views -------------------------------------------------

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes in first-occurrence order, members ascending.

        >>> Equivalence(4, [0, 1, 0, 2]).classes()
        ((1, 3), (2,), (4,))
        """
        out: list[list[int]] = []
        for point, label in enumerate(self.labels, start=1):
            if label == len(out):
                out.append([])
            out[label].append(point)
        return tuple(tuple(block) for block in out)

    def class_of(self, x: int) -> tuple[int, ...]:
        if not 1 <= x <= self.n:
            raise ValueError(f"point {x} out of range 1..{self.n}")
        return self.classes()[self.labels[x - 1]]

    _groups = classes  # what ``text()`` writes

    # -- predicates ------------------------------------------------------

    def is_planar(self) -> bool:
        """Every pair of classes separated or nested.

        >>> Equivalence.from_text("[[1,3],[2,4]]").is_planar()
        False
        >>> Equivalence.from_text("[[1,4],[2,3]]").is_planar()
        True
        """
        return noncrossing(self.labels)

    def is_convex(self) -> bool:
        """Every class an interval: the restricted-growth row never falls.

        >>> Equivalence.from_text("[[1,2],[3],[4,5]]").is_convex()
        True
        >>> Equivalence.from_text("[[1,3],[2]]").is_convex()
        False
        """
        return list(self.labels) == sorted(self.labels)


def diagonal(n: int) -> Equivalence:
    """The finest relation: every point its own class."""
    return Equivalence(n, range(n))


def atom(n: int, i: int, j: int) -> Equivalence:
    """The relation whose only non-trivial class is ``{i, j}``.

    >>> atom(4, 2, 4).classes()
    ((1,), (2, 4), (3,))
    """
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError(f"an atom needs two distinct points in 1..{n}, got {i} and {j}")
    labels = list(range(n))
    labels[max(i, j) - 1] = min(i, j) - 1
    return Equivalence(n, labels)


def join(a: Equivalence, b: Equivalence) -> Equivalence:
    """Smallest equivalence containing both ``a`` and ``b``.

    >>> join(atom(3, 1, 2), atom(3, 2, 3)).classes()
    ((1, 2, 3),)
    """
    if a.n != b.n:
        raise ValueError(f"joins need a common point set, got {a.n} and {b.n} points")
    parent = list(range(a.n))
    for labels in (a.labels, b.labels):
        seen: dict[int, int] = {}
        for pos, label in enumerate(labels):
            if label in seen:
                parent[_find(parent, pos)] = _find(parent, seen[label])
            else:
                seen[label] = pos
    return Equivalence(a.n, [_find(parent, x) for x in range(a.n)])


def all_equivalences(n: int) -> Iterator[Equivalence]:
    """All equivalences on ``{1..n}`` in lexicographic order of the encoding."""
    for labels in restricted_growth_sequences(n):
        yield Equivalence(n, labels)


def restricted_growth_sequences(length: int) -> Iterator[tuple[int, ...]]:
    """All restricted-growth sequences of the given length, lexicographically.

    >>> list(restricted_growth_sequences(2))
    [(0, 0), (0, 1)]
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if length == 0:
        yield ()
        return
    seq = [0] * length
    maxes = [0] * length  # maxes[k] = 1 + max(seq[:k])
    pos = 1
    while True:
        if pos == length:
            yield tuple(seq)
            pos -= 1
        else:
            maxes[pos] = max(maxes[pos - 1], seq[pos - 1] + 1)
            seq[pos] = 0
            pos += 1
            continue
        # backtrack to the rightmost position that can still be incremented
        while pos > 0 and seq[pos] >= maxes[pos]:
            pos -= 1
        if pos == 0:
            return
        seq[pos] += 1
        pos += 1


def successor(eq: Equivalence, x: int) -> int:
    """Next member of the class of ``x`` above ``x``, or ``x`` if it is the max.

    >>> eq = Equivalence.from_text("[[1,5,6],[2,3],[4],[7,8]]")
    >>> [successor(eq, x) for x in range(1, 9)]
    [5, 3, 3, 4, 6, 6, 8, 8]
    """
    block = eq.class_of(x)
    for member in block:
        if member > x:
            return member
    return x


def unnested_classes(eq: Equivalence) -> tuple[tuple[int, ...], ...]:
    """The classes whose span is not contained in another class's span.

    For a planar relation these tile ``{1..n}``: consecutive spans abut.
    """
    classes = eq.classes()
    spans = [(block[0], block[-1]) for block in classes]
    out = []
    for block, (lo, hi) in zip(classes, spans):
        if not any(o_lo < lo and hi < o_hi for o_lo, o_hi in spans):
            out.append(block)
    return tuple(sorted(out))


def cap_kernel(eq: Equivalence) -> Equivalence:
    """Interval closure of a planar relation.

    The classes are the spans ``[min B, max B]`` of the unnested classes
    ``B``; for planar input these intervals tile ``{1..n}``, and the result
    is the kernel of the cap diagram built from ``eq``.

    >>> cap_kernel(Equivalence.from_text("[[1,5,6],[2,3],[4],[7,8]]")).classes()
    ((1, 2, 3, 4, 5, 6), (7, 8))
    """
    if not eq.is_planar():
        raise ValueError("cap machinery needs a planar relation")
    labels = [0] * eq.n
    edge = 0
    for block_id, block in enumerate(unnested_classes(eq)):
        if block[0] != edge + 1:
            raise RuntimeError("unnested spans of a planar relation abut")
        edge = block[-1]
        for point in range(block[0], edge + 1):
            labels[point - 1] = block_id
    if edge != eq.n:
        raise RuntimeError("unnested spans of a planar relation cover the points")
    return Equivalence(eq.n, labels)


def cap_word(eq: Equivalence) -> tuple[tuple[int, int], ...]:
    """Successor letters ``(x, successor(x))`` for the planar relation.

    One letter per point that is not the maximum of its class, in point
    order: the consecutive members of each class, sorted.  Evaluating the
    letters as interval caps multiplies out to the cap diagram of ``eq``
    (see :func:`diagcalc.partitions.cap`).

    >>> cap_word(Equivalence.from_text("[[1,5,6],[2,3],[4],[7,8]]"))
    ((1, 5), (2, 3), (5, 6), (7, 8))
    """
    if not eq.is_planar():
        raise ValueError("cap machinery needs a planar relation")
    return tuple(sorted(pair for block in eq.classes() for pair in zip(block, block[1:])))


def bricks(eq: Equivalence) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The cap word split along the intervals of :func:`cap_kernel`.

    Intervals that contribute no letters (all-singleton stretches) are
    dropped, so the concatenation of the bricks is exactly the cap word.

    >>> bricks(Equivalence.from_text("[[1,5,6],[2,3],[4],[7,8]]"))
    (((1, 5), (2, 3), (5, 6)), ((7, 8),))
    """
    hull = cap_kernel(eq)
    grouped: dict[int, list[tuple[int, int]]] = {}
    for x, k in cap_word(eq):
        grouped.setdefault(hull.labels[x - 1], []).append((x, k))
    return tuple(
        tuple(grouped[label]) for label in sorted(grouped) if grouped[label]
    )


def _parse_nested_ints(text: str) -> list[list[int]]:
    """Parse a JSON array of non-empty integer arrays, e.g. ``[[1,4],[2,3,-4]]``."""
    try:
        blocks = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"expected a JSON list of non-empty integer lists: {exc}") from exc
    if type(blocks) is not list or not all(
        type(b) is list and b and all(type(v) is int for v in b) for b in blocks
    ):
        raise ValueError("expected a JSON list of non-empty integer lists")
    return blocks
