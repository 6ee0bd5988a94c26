"""Differential tests: ``enumerate_presented`` against two oracles.

``reference_enumerate`` below is the coset enumeration that
``enumerate_presented`` replaced first, kept verbatim as the oracle: every
scanned node gets all its letter edges, then both sides of every relation
are traced letter by letter from it, and each clash is merged at once.  Its
table is numbered by live-node index, so the comparison renumbers it
breadth-first from the root in letter order, as ``enumerate_presented``
numbers its own.  The two must agree on status, size and that table.  They
allocate different numbers of nodes, so at one budget one side may run out
and the other not; the side that ran out must then agree once it is given a
larger budget.

``ref_hlt`` is the prefix-table HLT loop that the present one tightened,
kept verbatim: a nested ``allocate()``, row locals bound at every closing,
and ``enumerate`` over the merged row.  It allocates the same nodes in the
same order, so the two must agree on ``node_budget_used`` too, at every
budget.
"""

from __future__ import annotations

import random

import pytest

from diagcalc.engine import DEFAULT_BUDGET, BudgetExceeded
from diagcalc.equivalences import _find
from diagcalc.presentations import (
    SCHEMA_NAMES,
    EnumerationResult,
    Presentation,
    _prefix_table,
    enumerate_presented,
    schema,
)


def reference_enumerate(pres: Presentation, *, budget: int = DEFAULT_BUDGET) -> EnumerationResult:
    if pres.kind == "semigroup":
        if not all(lhs and rhs for lhs, rhs in pres.relations):
            raise ValueError("semigroup relations must have nonempty sides")
    index = {symbol: a for a, symbol in enumerate(pres.alphabet)}
    relations = [
        (tuple(index[x] for x in lhs), tuple(index[x] for x in rhs))
        for lhs, rhs in pres.relations
    ]
    k = len(pres.alphabet)

    parent = [0]
    rows: list[list[int] | None] = [[-1] * k]
    pending: list[tuple[int, int]] = []

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def allocate() -> int:
        if len(parent) >= budget:
            raise BudgetExceeded(budget)
        parent.append(len(parent))
        rows.append([-1] * k)
        return len(parent) - 1

    def settle() -> None:
        # Fold the edge rows of merged nodes together; clashing edges queue
        # further merges.  The smaller index always survives as the root.
        while pending:
            a, b = pending.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            row_b = rows[b]
            rows[b] = None
            row_a = rows[a]
            for letter in range(k):
                y = row_b[letter]
                if y < 0:
                    continue
                if row_a[letter] < 0:
                    row_a[letter] = y
                else:
                    pending.append((row_a[letter], y))

    def trace(start: int, word: tuple[int, ...]) -> int:
        cur = find(start)
        for letter in word:
            row = rows[cur]
            nxt = row[letter]
            if nxt < 0:
                nxt = allocate()
                row[letter] = nxt
            cur = find(nxt)
        return cur

    try:
        scan = 0
        while scan < len(parent):
            if find(scan) != scan:
                scan += 1
                continue
            row = rows[scan]
            for letter in range(k):
                if row[letter] < 0:
                    row[letter] = allocate()
            for lhs, rhs in relations:
                a = trace(scan, lhs)
                b = trace(scan, rhs)
                if a != b:
                    pending.append((a, b))
                    settle()
                if find(scan) != scan:
                    # this node just merged into an earlier one, which has
                    # already traced every relation; move on
                    break
            scan += 1
    except BudgetExceeded:
        return EnumerationResult("exhausted", None, None, len(parent))

    live = [x for x in range(len(parent)) if find(x) == x]
    number = {x: i for i, x in enumerate(live)}
    table = tuple(
        tuple(number[find(rows[x][letter])] for letter in range(k)) for x in live
    )
    size = len(live) if pres.kind == "monoid" else len(live) - 1
    return EnumerationResult("completed", size, table, len(parent))


def ref_hlt(pres: Presentation, *, budget: int = DEFAULT_BUDGET) -> EnumerationResult:
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

            # Close every relation.  Raw edge ids are compared first: equal
            # ids need no root, and a clash is queued raw, since the merge
            # drain finds the roots.  A missing edge gets the other's root.
            ends.append([scan])  # slot -1: u = 1 leads back to the scanned node
            for su, xu, sv, xv in closers:
                row_u, row_v = ends[su], ends[sv]
                y, z = row_u[xu], row_v[xv]
                if y == z:
                    if y < 0:
                        row_u[xu] = row_v[xv] = allocate()
                elif y < 0:
                    row_u[xu] = z if parent[z] == z else _find(parent, z)
                elif z < 0:
                    row_v[xv] = y if parent[y] == y else _find(parent, y)
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


def outcome(result: EnumerationResult) -> tuple:
    return result.status, result.size, result.table, result.node_budget_used


def assert_same_nodes(pres: Presentation, budget: int) -> EnumerationResult:
    """Same outcome as ``ref_hlt`` at ``budget``, node count included."""
    fast = enumerate_presented(pres, budget=budget)
    assert outcome(fast) == outcome(ref_hlt(pres, budget=budget))
    return fast


def standardise(table):
    """Renumber ``table`` breadth-first from row 0, successors in letter order."""
    number = {0: 0}
    order = [0]
    for x in order:
        for y in table[x]:
            if y not in number:
                number[y] = len(order)
                order.append(y)
    return tuple(tuple(number[y] for y in table[x]) for x in order)


def oracle(pres: Presentation, budget: int) -> EnumerationResult:
    result = reference_enumerate(pres, budget=budget)
    if result.table is None:
        return result
    return EnumerationResult(result.status, result.size, standardise(result.table),
                             result.node_budget_used)


def assert_same(pres: Presentation, *, budget: int = DEFAULT_BUDGET, retry: int = 200_000):
    """Compare at ``budget``; a side that alone runs out is rerun at ``retry``."""
    fast = enumerate_presented(pres, budget=budget)
    slow = oracle(pres, budget)
    if fast.status != slow.status:
        if fast.status == "exhausted":
            fast = enumerate_presented(pres, budget=retry)
        else:
            slow = oracle(pres, retry)
        assert fast.status == slow.status == "completed"
    assert (fast.status, fast.size, fast.table) == (slow.status, slow.size, slow.table)
    if fast.status == "completed":
        assert fast.table == standardise(fast.table)
        assert len(fast.table) == fast.size + (pres.kind == "semigroup")
    return fast


# schemas start at n = 2
SCHEMA_JOBS = [(name, n) for name in SCHEMA_NAMES for n in (2, 3, 4)] + [("dn", 6), ("on", 5)]


@pytest.mark.parametrize("name,n", SCHEMA_JOBS)
def test_schema_enumerations_match(name, n):
    out = assert_same(schema(name, n))
    assert out.status == "completed"


def random_presentation(rng: random.Random) -> Presentation:
    letters = "abc"[: rng.choice((2, 3))]
    kind = rng.choice(("monoid", "semigroup"))
    shortest = 1 if kind == "semigroup" else 0

    def word(longest: int) -> tuple[str, ...]:
        return tuple(rng.choice(letters) for _ in range(rng.randint(shortest, longest)))

    relations = []
    for a in letters:
        # every letter alone generates a finite monogenic monoid
        power = rng.randint(2, 4)
        relations.append(((a,) * power, (a,) * rng.randint(shortest, power - 1)))
    if rng.random() < 0.5:
        # commuting letters make the whole quotient finite
        relations += [((a, b), (b, a)) for a in letters for b in letters if a < b]
    for _ in range(rng.randint(0, 4)):
        relations.append((word(5), word(5)))
    rng.shuffle(relations)
    return Presentation("random", len(letters), kind, tuple(letters), tuple(relations))


@pytest.mark.parametrize("seed", range(8))
def test_random_presentations_match(seed):
    rng = random.Random(seed)
    completed = 0
    for _ in range(25):
        pres = random_presentation(rng)
        out = assert_same(pres, budget=3_000)
        assert_same_nodes(pres, 3_000)
        completed += out.status == "completed"
    assert completed >= 10


@pytest.mark.parametrize("name,n", [("tn", 3), ("sing-xr", 3), ("dn", 5), ("full-yq", 3)])
def test_budget_exhaustion(name, n):
    pres = schema(name, n)
    used = enumerate_presented(pres).node_budget_used
    slow_used = reference_enumerate(pres).node_budget_used
    assert used < slow_used
    for budget in sorted({1, 2, 5, used - 1, used, used + 1, slow_used - 1, slow_used}):
        assert_same(pres, budget=budget)
        # completed exactly when the allocated nodes fit into the budget
        run = enumerate_presented(pres, budget=budget)
        if budget >= used:
            assert run.status == "completed" and run.node_budget_used == used
        else:
            assert run.status == "exhausted" and run.node_budget_used == budget
            assert run.size is None and run.table is None


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_every_budget_matches_the_hlt_reference(name, n):
    pres = schema(name, n)
    used = enumerate_presented(pres).node_budget_used
    for budget in range(1, used + 2):
        out = assert_same_nodes(pres, budget)
        assert out.status == ("completed" if budget >= used else "exhausted")
        assert out.node_budget_used == min(budget, used)


# the nine jobs of the benchmark's presentations workload
PRESENTATION_JOBS = [("planar-zo", 4), ("dn", 7), ("tn", 5), ("sing-xr", 4), ("full-yq", 4),
                     ("planar-intermediate", 4), ("sing-tn", 4), ("on", 6), ("en", 5)]


@pytest.mark.parametrize("name,n", PRESENTATION_JOBS)
def test_presentation_jobs_match_the_hlt_reference_around_their_node_count(name, n):
    pres = schema(name, n)
    used = assert_same_nodes(pres, DEFAULT_BUDGET).node_budget_used
    for budget in sorted({1, used // 2, used - 1, used, used + 1}):
        assert_same_nodes(pres, budget)
