"""Differential test: ``verify_presentation`` against the closure-first check.

``reference_verify`` below is the ``verify_presentation`` that the
table-evaluating one replaced, kept verbatim as the oracle: after soundness
it builds the Froidure–Pin closure of the generator images, compares it with
the target, and only then enumerates the presented structure.  The current
one enumerates first and evaluates the completed table instead, running the
closure only when the enumeration exhausts its budget.  The two must give
the same report, field for field, on every outcome: verified, unsound,
sound but not generating the target, a presented structure larger than the
target, a broken membership rule, and budgets that stop either stage.
"""

from __future__ import annotations

import pytest

from diagcalc import engine, partitions, presentations
from diagcalc.engine import DEFAULT_BUDGET, BudgetExceeded
from diagcalc.partitions import SCHEMA_NAMES, identity, merge
from diagcalc.presentations import (
    PresentationReport,
    check_soundness,
    enumerate_presented,
    schema,
    target_elements,
    verify_presentation,
)


def reference_verify(name: str, n: int, *, budget: int = DEFAULT_BUDGET) -> PresentationReport:
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


def agree(name: str, n: int, **kwargs) -> dict:
    report = verify_presentation(name, n, **kwargs).to_dict()
    assert report == reference_verify(name, n, **kwargs).to_dict()
    return report


def rebuild(monkeypatch, name: str, change) -> None:
    """Replace schema ``name``'s builder by ``change`` applied to its output."""
    build = presentations._BUILDERS[name]
    monkeypatch.setitem(presentations._BUILDERS, name, lambda n: change(n, *build(n)))


@pytest.mark.parametrize("name,n", [(name, n) for name in SCHEMA_NAMES for n in (2, 3, 4)]
                         + [("dn", 6), ("on", 5)])
def test_every_schema_agrees(name, n):
    assert agree(name, n)["status"] == "verified"


def test_an_unsound_assignment_agrees(monkeypatch):
    # the join e stands where the collapse t should
    rebuild(monkeypatch, "full-yq", lambda n, kind, pairs, rels: (
        kind, pairs[:-1] + [("t", merge(n, 1, 2))], rels))
    report = agree("full-yq", 3)
    assert report["status"] == "refuted" and not report["sound"] and report["witness"]


@pytest.mark.parametrize("name", ["en", "sing-tn"])
def test_a_sound_assignment_that_does_not_generate_agrees(monkeypatch, name):
    # every relation of en and sing-tn holds with each image the identity
    rebuild(monkeypatch, name, lambda n, kind, pairs, rels: (
        kind, [(symbol, identity(n)) for symbol, _ in pairs], rels))
    report = agree(name, 3)
    assert report["status"] == "refuted" and report["sound"]
    assert report["closure_size"] == 1 and report["enumerated_size"] is None


@pytest.mark.parametrize("name,dropped,size", [
    ("tn", (("s_1", "t"), ("t",)), 51),
    ("full-yq", (("t", "s_2", "e", "s_2"), ("s_2", "e", "s_2", "t")), 61),
    ("sing-tn", (("t_12", "t_13"), ("t_13", "t_12")), 22),
])
def test_a_dropped_relation_agrees(monkeypatch, name, dropped, size):
    rebuild(monkeypatch, name, lambda n, kind, pairs, rels: (
        kind, pairs, tuple(r for r in rels if r != dropped)))
    report = agree(name, 3)
    assert report["status"] == "refuted" and report["sound"]
    assert report["closure_size"] == report["target_size"] < report["enumerated_size"] == size


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 50, 10])
def test_a_broken_membership_rule_agrees(monkeypatch, budget):
    # dn 5's rule with the identity left out: the count is right, the set is
    # not.  Its enumeration allocates 63 nodes, so at 50 only the closure
    # can refute, and at 10 the closure exhausts too.
    rule = partitions.MEMBERS["dn"]
    one = identity(5).labels
    monkeypatch.setitem(partitions.MEMBERS, "dn", lambda up, lo: rule(up, lo) and up + lo != one)
    report = agree("dn", 5, budget=budget)
    assert report["status"] == ("exhausted" if budget == 10 else "refuted")
    assert report["closure_size"] == (None if budget == 10 else 42)


@pytest.mark.parametrize("name,n,between", [
    ("full-yq", 4, 2_000), ("sing-xr", 4, 5_000), ("tn", 4, 500), ("dn", 5, 50),
])
def test_budgets_that_stop_either_stage_agree(name, n, between):
    size = len(target_elements(name, n))
    nodes = agree(name, n)["node_budget_used"]
    assert size < between < nodes
    for budget in (1, 10, between):
        report = agree(name, n, budget=budget)
        assert report["status"] == "exhausted" and report["enumerated_size"] is None
        assert report["closure_size"] == (size if budget == between else None)
