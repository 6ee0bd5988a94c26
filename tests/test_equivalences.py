import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import diagcalc
from diagcalc.counting import bell, catalan
from diagcalc.equivalences import (
    Equivalence,
    _parse_nested_ints,
    all_equivalences,
    atom,
    bricks,
    cap_kernel,
    cap_word,
    diagonal,
    join,
    restricted_growth_sequences,
    successor,
    unnested_classes,
)

# Running example: eight points, classes {1,5,6}, {2,3}, {4}, {7,8}.
ETA8 = Equivalence.from_text("[[1,5,6],[2,3],[4],[7,8]]")


def test_canonical_form():
    e = Equivalence(3, [7, 7, 2])
    assert e.labels == (0, 0, 1)
    assert Equivalence.from_classes(3, [[3], [1, 2]]) == e


@pytest.mark.parametrize("labels", [(), (0,)])
def test_negative_degree_is_named(labels):
    with pytest.raises(ValueError, match="^degree must be nonnegative, got -1$"):
        Equivalence(-1, labels)


def test_from_classes_errors():
    with pytest.raises(ValueError):
        Equivalence.from_classes(3, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        Equivalence.from_classes(3, [[1, 2]])
    with pytest.raises(ValueError):
        Equivalence.from_classes(3, [[0, 1], [2, 3]])


@pytest.mark.parametrize("point", [True, False, 1.0, "1", None])
def test_from_classes_rejects_a_point_that_is_not_an_int(point):
    # ``True == 1`` and ``1.0 == 1``, so only the type tells them apart
    with pytest.raises(ValueError, match="is not an int"):
        Equivalence.from_classes(2, [[point], [2]])


def test_text_round_trip():
    assert ETA8.text() == "[[1,5,6],[2,3],[4],[7,8]]"
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 7)
        e = Equivalence(n, [rng.randint(0, n - 1) for _ in range(n)])
        assert Equivalence.from_text(e.text()) == e


def test_text_grammar_is_exactly_json():
    assert _parse_nested_ints(" [ [1, -3] ,\n [2] ] ") == [[1, -3], [2]]
    assert _parse_nested_ints("[]") == []
    sloppy = ["[[1,2,]]", "[[1] [2]]", "[[1],,[2]]", "[[+1,-1]]", "[[1_0]]"]
    for text in sloppy + ["[[true]]", "[[1.0]]", "[[]]", "[[[1]]]", "[" * 100_000]:
        with pytest.raises(ValueError):
            _parse_nested_ints(text)
    # the old scanner read these as the equivalence [[1,2]] or [[1],[2]]
    for text in sloppy[:3]:
        with pytest.raises(ValueError):
            Equivalence.from_text(text)
    assert Equivalence.from_text(" [ [1, 3] ,\n [2] ] ") == Equivalence(3, [0, 1, 0])


def test_class_of():
    assert ETA8.class_of(5) == (1, 5, 6)
    assert ETA8.class_of(4) == (4,)


def test_diagonal_and_atom():
    assert diagonal(3).classes() == ((1,), (2,), (3,))
    assert atom(3, 1, 2).classes() == ((1, 2), (3,))
    assert atom(5, 2, 4).classes() == ((1,), (2, 4), (3,), (5,))
    with pytest.raises(ValueError):
        atom(3, 2, 2)


def test_join_basics():
    assert join(atom(3, 1, 2), atom(3, 2, 3)).classes() == ((1, 2, 3),)
    for e in all_equivalences(4):
        assert join(e, diagonal(4)) == e
        assert join(e, e) == e


def test_join_commutative_associative():
    pool = list(all_equivalences(4))
    rng = random.Random(11)
    for _ in range(300):
        e, f, g = (rng.choice(pool) for _ in range(3))
        assert join(e, f) == join(f, e)
        assert join(join(e, f), g) == join(e, join(f, g))


def test_equivalence_counts():
    for n in range(1, 6):
        assert sum(1 for _ in all_equivalences(n)) == bell(n)
    for n in range(1, 8):
        planar = sum(1 for e in all_equivalences(n) if e.is_planar())
        assert planar == catalan(n)


def test_rgs_enumeration_is_lexicographic():
    seqs = list(restricted_growth_sequences(4))
    assert len(seqs) == bell(4)
    assert seqs == sorted(seqs)
    assert seqs[0] == (0, 0, 0, 0)
    assert seqs[-1] == (0, 1, 2, 3)


def test_planar_and_convex_predicates():
    assert ETA8.is_planar()
    assert not ETA8.is_convex()
    assert Equivalence.from_text("[[1,3],[2,4]]").is_planar() is False
    assert Equivalence.from_text("[[1,2],[3],[4,5]]").is_convex()
    for n in range(1, 6):
        assert diagonal(n).is_planar() and diagonal(n).is_convex()
    # convex implies planar
    for e in all_equivalences(5):
        if e.is_convex():
            assert e.is_planar()


def test_convex_means_every_class_is_an_interval():
    # exhaustive against the definition, n = 0 .. 8 (5,296 relations)
    for n in range(9):
        for e in all_equivalences(n):
            intervals = all(block == tuple(range(block[0], block[-1] + 1)) for block in e.classes())
            assert e.is_convex() == intervals, e.text()


def test_planar_equivalences_not_join_closed():
    # at n = 4 the planar equivalences stop being closed under joins;
    # find a witness automatically rather than hard-coding one
    planar = [e for e in all_equivalences(4) if e.is_planar()]
    witnesses = [
        (e, f)
        for e, f in itertools.combinations(planar, 2)
        if not join(e, f).is_planar()
    ]
    assert witnesses, "expected a non-planar join of planar equivalences"
    # and at n = 3 they are still closed
    planar3 = [e for e in all_equivalences(3) if e.is_planar()]
    assert all(join(e, f).is_planar() for e, f in itertools.product(planar3, repeat=2))


def test_successor_running_example():
    assert [successor(ETA8, x) for x in (1, 2, 5, 7)] == [5, 3, 6, 8]
    # class maxima are fixed points
    assert successor(ETA8, 6) == 6
    assert successor(ETA8, 4) == 4


def test_successor_on_diagonal():
    for x in range(1, 6):
        assert successor(diagonal(5), x) == x


def test_successors_determine_equivalence():
    # e = f  <=>  same successor function, exhaustively at n <= 5
    for n in range(1, 6):
        table = {}
        for e in all_equivalences(n):
            key = tuple(successor(e, x) for x in range(1, n + 1))
            assert key not in table, (e, table[key])
            table[key] = e


def test_unnested_classes():
    assert unnested_classes(ETA8) == ((1, 5, 6), (7, 8))
    assert unnested_classes(diagonal(3)) == ((1,), (2,), (3,))
    nested = Equivalence.from_text("[[1,4],[2,3]]")
    assert unnested_classes(nested) == ((1, 4),)


def test_cap_kernel():
    assert cap_kernel(ETA8).text() == "[[1,2,3,4,5,6],[7,8]]"
    for n in range(1, 6):
        assert cap_kernel(diagonal(n)) == diagonal(n)
    # the kernel interval structure is always convex
    for e in all_equivalences(6):
        if e.is_planar():
            assert cap_kernel(e).is_convex()


def test_cap_kernel_claims_survive_optimized_mode():
    # ``python -O`` strips asserts; spans that fail to tile must still raise.
    # A gap after {1} fails the first claim, spans ending short the second.
    script = (
        "import diagcalc.equivalences as eq\n"
        "for spans in (((1,), (3,)), ((1,), (2,))):\n"
        "    eq.unnested_classes = lambda e: spans\n"
        "    try:\n"
        "        eq.cap_kernel(eq.diagonal(3))\n"
        "    except RuntimeError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(diagcalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "unnested spans of a planar relation abut",
        "unnested spans of a planar relation cover the points",
    ]


def test_cap_word_and_bricks():
    assert cap_word(ETA8) == ((1, 5), (2, 3), (5, 6), (7, 8))
    assert bricks(ETA8) == (((1, 5), (2, 3), (5, 6)), ((7, 8),))
    assert cap_word(diagonal(4)) == ()
    assert bricks(diagonal(4)) == ()


def test_cap_word_letters_follow_successors():
    # the word lists (x, suc(x)) for every non-maximal x, in x order
    for n in range(1, 9):
        for e in all_equivalences(n):
            if not e.is_planar():
                continue
            expected = tuple(
                (x, successor(e, x))
                for x in range(1, n + 1)
                if successor(e, x) != x
            )
            assert cap_word(e) == expected


def test_bricks_partition_the_word():
    # bricks concatenate to the word, and each brick stays inside one
    # interval of the cap kernel
    for n in range(1, 7):
        for e in all_equivalences(n):
            if not e.is_planar():
                continue
            parts = bricks(e)
            assert sum(parts, ()) == cap_word(e)
            intervals = cap_kernel(e).classes()
            used = [
                next(k for k, cl in enumerate(intervals) if brick[0][0] in cl)
                for brick in parts
            ]
            assert used == sorted(set(used))
            for brick, k in zip(parts, used):
                lo, hi = intervals[k][0], intervals[k][-1]
                assert all(lo <= s <= t <= hi for s, t in brick)
