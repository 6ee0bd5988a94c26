import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from diagcalc.cli import main
from diagcalc.counting import FAMILY_COUNTS
from diagcalc.engine import CheckReport, carrier, cayley_dot, closure
from diagcalc.equivalences import Equivalence
from diagcalc.partitions import (
    FAMILY_NAMES,
    GENERATORS,
    Diagram,
    cap,
    from_transformation,
    identity,
    multiply,
    transposition,
)
from diagcalc.presentations import eval_word, schema, standard_assignment
from diagcalc.render import render_svg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def usage_error(*argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 3


# -- verify -----------------------------------------------------------------------


def test_verify_presentation_target(capsys):
    code, report = run_json(capsys, "verify", "--target", "dn", "--n", "5", "--seed", "7")
    assert code == 0
    assert report["command"] == "verify"
    assert report["target"] == "dn" and report["n"] == 5
    assert report["seed"] == 7 and report["expect_fail"] is False
    assert report["status"] == "verified"
    assert report["presentation"]["target_size"] == 42
    assert report["presentation"]["enumerated_size"] == 42


def test_verify_text_format(capsys):
    code, out = run(capsys, "verify", "--target", "dn", "--n", "3", "--format", "text")
    assert code == 0
    assert "status=verified" in out and "target_size=5" in out


def test_verify_law_targets(capsys):
    code, report = run_json(capsys, "verify", "--target", "grrac", "--n", "3")
    assert code == 0
    assert {c["name"] for c in report["checks"]} == {
        "closure-rho", "G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8",
    }

    code, report = run_json(capsys, "verify", "--target", "theta-laws", "--n", "2")
    assert code == 0
    assert len(report["checks"]) == 5

    code, report = run_json(capsys, "verify", "--target", "ehresmann", "--n", "2")
    assert code == 0 and report["status"] == "verified"


def test_verify_refuted_and_expect_fail(capsys):
    argv = ["verify", "--target", "restriction", "--side", "left",
            "--monoid", "pn", "--n", "2"]
    code, report = run_json(capsys, *argv)
    assert code == 1
    assert report["status"] == "refuted"
    assert report["checks"][0]["name"] == "left-restriction"

    code, report = run_json(capsys, *argv, "--expect-fail")
    assert code == 0
    assert report["status"] == "refuted"

    code, _ = run_json(capsys, "verify", "--target", "dn", "--n", "3", "--expect-fail")
    assert code == 1


def test_verify_planar_carrier_fails_r_closure(capsys):
    code, report = run_json(
        capsys, "verify", "--target", "ehresmann", "--monoid", "ppnfd", "--n", "3"
    )
    assert code == 1
    failing = [c["name"] for c in report["checks"] if not c["holds"]]
    assert failing == ["closure-R"]


def test_verify_action_pair_targets(capsys):
    code, report = run_json(capsys, "verify", "--target", "action-pair", "--n", "3")
    assert code == 0
    assert report["checks"][0]["name"] == "en-tn"

    code, report = run_json(
        capsys, "verify", "--target", "action-pair", "--monoid", "pen-ptn", "--n", "3"
    )
    assert code == 1
    assert report["checks"][0]["name"] == "pen-ptn-A1"


@pytest.mark.parametrize("monoid,witness", [
    ("pnfd", "[[1,2,3,4,-1,-3],[-2,-4]]"),
    ("en", "[[1,3,-1,-3],[2,4,-2,-4]]"),
    ("fn", "[[1,2,-1,-3],[3,4,-2,-4]]"),
    ("jn", "[[1,2,3,-1,-3],[4,-2,-4]]"),
], ids=["pnfd", "en", "fn", "jn"])
def test_verify_grrac_on_crossing_carrier_is_refuted(capsys, monoid, witness):
    # at degree 4 some cokernels cross, and only planar relations have caps:
    # rho is no operation on the carrier, refuted at the first such element
    code, report = run_json(capsys, "verify", "--target", "grrac", "--monoid", monoid,
                            "--n", "4")
    assert code == 1 and report["status"] == "refuted"
    assert report["checks"] == [{
        "name": "closure-rho", "holds": False, "witness": [witness],
        "counts": {"size": FAMILY_COUNTS[monoid](4)},
    }]
    # at degree 3 every cokernel is planar: rho is an operation that leaves
    # the carrier, and every axiom is still scanned
    code, report = run_json(capsys, "verify", "--target", "grrac", "--monoid", monoid,
                            "--n", "3")
    assert code == 1 and report["status"] == "refuted"
    assert len(report["checks"]) == 9


@pytest.mark.parametrize("expect_fail", [[], ["--expect-fail"]])
def test_internal_error_exits_4(capsys, monkeypatch, expect_fail):
    import diagcalc.cli as cli
    import diagcalc.presentations as presentations

    def crash(*args, **kwargs):
        raise RuntimeError("simulated\ncrash")

    monkeypatch.setattr(presentations, "verify_presentation", crash)
    code = main(["verify", "--target", "dn", "--n", "3", *expect_fail])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "diagcalc: internal error: RuntimeError: simulated crash\n"

    monkeypatch.setattr(cli, "family", crash)
    assert main(["enumerate", "--monoid", "pn", "--n", "2"]) == 4
    assert capsys.readouterr().err.count("\n") == 1


def test_closure_budget_exhaustion_exits_2(capsys, monkeypatch):
    import diagcalc.engine as engine

    def never(*args, **kwargs):
        raise AssertionError("closed a family counted past the default budget")

    monkeypatch.setattr(engine, "closure", never)
    for argv in (
        ["enumerate", "--monoid", "pnfd", "--n", "7", "--format", "dot"],  # 24,040,451
        ["factorize", "[[1,2,-1],[3,-2],[4,-3],[5,-4],[6,-5],[7,-6],[8,-7],[-8]]",
         "--mode", "tn-en"],  # |T8| = 8^8 = 16,777,216
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "diagcalc: inconclusive: budget of 2000000 elements exceeded\n"


def test_no_output_file_is_left_after_exit_2(capsys, tmp_path):
    # the --output check creates the file, and removes it again before the work
    target = tmp_path / "report"
    assert main(["enumerate", "--monoid", "pn", "--n", "6", "--output", str(target)]) == 2
    assert capsys.readouterr().err == "diagcalc: inconclusive: budget of 2000000 elements exceeded\n"
    assert not target.exists()


@pytest.mark.parametrize("expect_fail", [[], ["--expect-fail"]])
def test_budget_exhaustion_is_never_swapped(capsys, monkeypatch, expect_fail):
    import diagcalc.presentations as presentations
    from diagcalc.engine import BudgetExceeded

    def exhaust(*args, **kwargs):
        raise BudgetExceeded(7)

    monkeypatch.setattr(presentations, "verify_presentation", exhaust)
    assert main(["verify", "--target", "dn", "--n", "3", *expect_fail]) == 2
    assert capsys.readouterr().err == "diagcalc: inconclusive: budget of 7 elements exceeded\n"


def test_verify_budget_exhaustion(capsys):
    code, report = run_json(
        capsys, "verify", "--target", "full-yq", "--n", "4", "--budget", "20"
    )
    assert code == 2
    assert report["status"] == "exhausted"
    assert report["budget"] == 20


def test_law_scans_over_budget_exhaust_before_scanning(capsys, monkeypatch):
    import diagcalc.cli as cli
    import diagcalc.laws as laws

    def never(*args, **kwargs):
        raise AssertionError("an axiom scan started over the budget")

    for name in ("check_ehresmann", "check_restriction", "check_grrac"):
        monkeypatch.setattr(laws, name, never)
    monkeypatch.setattr(cli, "carrier", never)
    # P4 has 4,140 elements: 17,139,600 pairs against the default 2,000,000
    for extra in ([], ["--expect-fail"]):
        code, report = run_json(capsys, "verify", "--target", "ehresmann", "--monoid", "pn",
                                "--n", "4", *extra)
        assert code == 2
        assert report["status"] == "exhausted" and report["budget"] == 2_000_000
        assert report["carrier_size"] == 4140 and "checks" not in report
    code, out = run(capsys, "verify", "--target", "restriction", "--n", "3",
                    "--budget", "100", "--format", "text")
    assert code == 2
    assert out == "target=restriction n=3 status=exhausted carrier_size=52 pairs=2704\n"


def test_counted_carriers_exhaust_before_they_are_built(capsys, monkeypatch):
    import diagcalc.cli as cli
    from diagcalc.partitions import family

    assert set(FAMILY_COUNTS) == set(FAMILY_NAMES)
    for monoid, count in FAMILY_COUNTS.items():
        assert [count(n) for n in range(5)] == [len(family(monoid, n)) for n in range(5)]

    def never(*args, **kwargs):
        raise AssertionError("the carrier was built over the budget")

    monkeypatch.setattr(cli, "family", never)
    # P6 alone is Bell(12) = 4,213,597 diagrams
    for target, monoid, n, size in [
        ("ehresmann", "pn", 6, 4213597),
        ("restriction", "ppn", 5, 16796),
        ("ehresmann", "pnfd", 5, 19921),
        ("grrac", "ppnfd", 7, 23256),
        ("ehresmann", "sing-tn", 7, 818503),
        # Bell(12) candidates to filter through their rule in ``MEMBERS``
        ("ehresmann", "fn", 6, 22482),
        ("restriction", "in", 6, 13327),
        ("grrac", "jn", 6, 179643),
    ]:
        code, report = run_json(capsys, "verify", "--target", target, "--monoid", monoid,
                                "--n", str(n))
        assert code == 2 and report["status"] == "exhausted"
        assert report["carrier_size"] == size and "checks" not in report
    code, out = run(capsys, "verify", "--target", "grrac", "--n", "4", "--budget", "12099",
                    "--format", "text")
    assert code == 2
    assert out == "target=grrac n=4 status=exhausted carrier_size=110 pairs=12100\n"


def test_action_pair_exhausts_before_its_sets_are_built(capsys, monkeypatch):
    import diagcalc.engine as engine
    import diagcalc.laws as laws

    for u_name, s_name in laws.ACTION_PAIRS.values():
        assert u_name in FAMILY_COUNTS and s_name in FAMILY_COUNTS

    def never(*args, **kwargs):
        raise AssertionError("an action-pair set was built over the budget")

    # both carriers and their joint closure are built by these two
    monkeypatch.setattr(engine, "carrier", never)
    monkeypatch.setattr(engine, "closure", never)
    # en-tn 6 is Bell(6) = 203 projections times 6**6 = 46,656 transformations
    for extra in ([], ["--expect-fail"]):
        code, report = run_json(capsys, "verify", "--target", "action-pair", "--n", "6", *extra)
        assert code == 2 and report["status"] == "exhausted"
        assert report["u_size"] == 203 and report["carrier_size"] == 46656
        assert "checks" not in report
    # dn-on 4 is 14 caps times 35 order-preserving maps: 490 pairs
    code, out = run(capsys, "verify", "--target", "action-pair", "--monoid", "dn-on", "--n",
                    "4", "--budget", "489", "--format", "text")
    assert code == 2
    assert out == (
        "target=action-pair n=4 status=exhausted carrier_size=35 u_size=14 pairs=490\n"
    )
    monkeypatch.undo()
    code, report = run_json(capsys, "verify", "--target", "action-pair", "--monoid", "dn-on",
                            "--n", "4", "--budget", "490")
    assert code == 0 and report["status"] == "verified"


@pytest.mark.parametrize("expect_fail", [[], ["--expect-fail"]])
def test_action_pair_closure_over_budget_is_exhausted(capsys, monkeypatch, expect_fail):
    import diagcalc.laws as laws

    # the 490 pairs of dn-on 4 fit the budget, and their closure, PP4fd with
    # 110 elements, is then built under a budget of 109
    check = laws.check_action_pair
    monkeypatch.setattr(laws, "check_action_pair",
                        lambda u, s, name, *, budget: check(u, s, name, budget=109))
    code, report = run_json(capsys, "verify", "--target", "action-pair", "--monoid", "dn-on",
                            "--n", "4", *expect_fail)
    assert code == 2 and report["status"] == "exhausted"
    assert (report["carrier_size"], report["u_size"]) == (35, 14)
    assert "checks" not in report


def test_theta_laws_exhausts_before_the_battery_runs(capsys, monkeypatch):
    import diagcalc.laws as laws

    def never(n):
        raise AssertionError("theta_battery ran over the budget")

    monkeypatch.setattr(laws, "theta_battery", never)
    # n = 5: Bell(5)**2 = 2,704 pairs of projections, each on 5**5 = 3,125 maps
    code, report = run_json(capsys, "verify", "--target", "theta-laws", "--n", "5")
    assert code == 2 and report["status"] == "exhausted"
    assert report["u_size"] == 52 and report["carrier_size"] == 3125
    assert "checks" not in report
    code, out = run(capsys, "verify", "--target", "theta-laws", "--n", "3", "--budget",
                    "674", "--format", "text")
    assert code == 2
    assert out == "target=theta-laws n=3 status=exhausted carrier_size=27 u_size=5 pairs=675\n"
    # the bound is inclusive, and a battery inside it runs
    monkeypatch.setattr(laws, "theta_battery", lambda n: [CheckReport(f"theta:{n}", True)])
    code, report = run_json(capsys, "verify", "--target", "theta-laws", "--n", "5",
                            "--budget", "8450000")
    assert code == 0 and report["checks"][0]["name"] == "theta:5"


def test_law_scan_budget_bound_is_inclusive(capsys):
    # PP3fd has 20 elements: 400 pairs fit a budget of 400, not of 100
    code, report = run_json(capsys, "verify", "--target", "grrac", "--n", "3",
                            "--budget", "100")
    assert code == 2 and report["status"] == "exhausted"
    code, report = run_json(capsys, "verify", "--target", "grrac", "--n", "3",
                            "--budget", "400")
    assert code == 0 and report["status"] == "verified"


def test_budget_env_and_override(capsys):
    code, report = run_json(
        capsys, "verify", "--target", "full-yq", "--n", "3", "--budget", "100000"
    )
    assert code == 0 and report["budget"] == 100000


def test_the_budget_environment_variable_is_ignored(capsys, monkeypatch):
    # the budget comes from --budget alone, whatever the environment holds
    monkeypatch.setenv("DIAGCALC_BUDGET", "20")
    code, report = run_json(capsys, "verify", "--target", "full-yq", "--n", "3")
    assert code == 0 and report["budget"] == 2_000_000
    monkeypatch.setenv("DIAGCALC_BUDGET", "sometimes")
    code, report = run_json(capsys, "verify", "--target", "full-yq", "--n", "3")
    assert code == 0 and report["budget"] == 2_000_000


@pytest.mark.parametrize("argv, sizes, pairs", [
    # P6 is Bell(12) = 4,213,597 diagrams, past the fixed closure cap
    (("ehresmann", "--monoid", "pn", "--n", "6", "--budget", str(10**14)),
     {"carrier_size": 4213597}, 4213597**2),
    # T8 is 8**8 = 16,777,216 transformations
    (("action-pair", "--monoid", "en-tn", "--n", "8", "--budget", str(10**14)),
     {"carrier_size": 8**8, "u_size": 4140}, 4140 * 8**8),
    (("theta-laws", "--n", "8", "--budget", str(10**15)),
     {"carrier_size": 8**8, "u_size": 4140}, 4140**2 * 8**8),
])
def test_a_carrier_past_the_cap_writes_an_exhausted_report(capsys, tmp_path, argv, sizes, pairs):
    report_path = tmp_path / "report.json"
    code, out = run(capsys, "verify", "--target", *argv, "--output", str(report_path))
    assert code == 2 and out == ""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["status"] == "exhausted" and "checks" not in report
    assert {key: report[key] for key in sizes} == sizes
    assert set(report) - set(sizes) == {
        "command", "target", "n", "budget", "seed", "expect_fail", "status"}
    code, out = run(capsys, "verify", "--target", *argv, "--format", "text")
    assert code == 2
    assert out == (f"target={argv[0]} n={report['n']} status=exhausted "
                   + "".join(f"{key}={value} " for key, value in sizes.items())
                   + f"pairs={pairs}\n")


@pytest.mark.parametrize("argv, message", [
    (("ehresmann", "--monoid", "bogus"), "unknown family 'bogus'; expected one of pn, "),
    (("action-pair", "--monoid", "tn-en"), "unknown action pair 'tn-en'; expected one of "),
    # a family name is not a pair name, whatever its count
    (("action-pair", "--monoid", "pn", "--budget", "1"), "unknown action pair 'pn'; "),
])
def test_unknown_law_carriers_keep_their_messages(capsys, argv, message):
    usage_error("verify", "--target", *argv, "--n", "6")
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"diagcalc: error: {message}")


def test_verify_usage_errors():
    usage_error("verify", "--target", "nonsense", "--n", "3")
    usage_error("verify", "--target", "dn")
    usage_error("verify", "--target", "ehresmann", "--monoid", "bogus", "--n", "3")
    usage_error("verify", "--target", "action-pair", "--monoid", "tn-en", "--n", "3")
    usage_error("verify", "--target", "dn", "--n", "3", "--budget", "0")


@pytest.mark.parametrize("argv, message", [
    (("--target", "full-yq", "--monoid", "nonsense"), "--monoid does not apply to --target full-yq"),
    (("--target", "dn", "--monoid", "dn"), "--monoid does not apply to --target dn"),
    (("--target", "theta-laws", "--monoid", "tn"), "--monoid does not apply to --target theta-laws"),
    (("--target", "ehresmann", "--side", "right"),
     "--side applies only to --target restriction, not ehresmann"),
    (("--target", "action-pair", "--side", "left"),
     "--side applies only to --target restriction, not action-pair"),
    (("--target", "full-yq", "--side", "left"),
     "--side applies only to --target restriction, not full-yq"),
])
def test_flags_the_target_does_not_read_are_usage_errors(capsys, argv, message):
    usage_error("verify", *argv, "--n", "2")
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_restriction_side_defaults_to_right(capsys):
    argv = ("verify", "--target", "restriction", "--monoid", "pnfd", "--n", "3")
    code, out = run(capsys, *argv)
    assert (code, out) == run(capsys, *argv, "--side", "right")
    assert code == 0 and json.loads(out)["checks"][0]["name"].startswith("right")


def test_no_command_is_a_usage_error():
    usage_error()


# -- enumerate --------------------------------------------------------------------


def test_enumerate_text(capsys):
    code, out = run(capsys, "enumerate", "--monoid", "dn", "--n", "6")
    assert code == 0 and out == "132\n"
    code, out = run(capsys, "enumerate", "--monoid", "pn", "--n", "2")
    assert code == 0 and out == "15\n"
    code, out = run(capsys, "enumerate", "--monoid", "en", "--n", "1")
    assert code == 0 and out == "1\n"


def test_enumerate_elements_listing(capsys):
    code, out = run(capsys, "enumerate", "--monoid", "sn", "--n", "2", "--elements")
    assert code == 0
    assert out.splitlines() == ["2", "[[1,-1],[2,-2]]", "[[1,-2],[2,-1]]"]


def test_enumerate_json(capsys):
    code, report = run_json(
        capsys, "enumerate", "--monoid", "dn", "--n", "3", "--format", "json", "--elements"
    )
    assert code == 0
    assert report["command"] == "enumerate"
    assert report["monoid"] == "dn" and report["n"] == 3
    assert report["size"] == 5 and report["closed_form"] == 5
    assert len(report["elements"]) == 5
    assert all(Diagram.from_text(t).classify().cap for t in report["elements"])

    code, report = run_json(
        capsys, "enumerate", "--monoid", "pnfd", "--n", "3", "--format", "json"
    )
    assert code == 0
    assert report["size"] == 52 and report["closed_form"] == 52
    assert "elements" not in report


def test_enumerate_checks_the_count(capsys, monkeypatch):
    # a closure whose size differs from the independent count is an
    # internal error, and no listing is printed
    monkeypatch.setitem(FAMILY_COUNTS, "pnfd", lambda n: 51)
    for extra in (["--format", "json"], []):
        code, out = run(capsys, "enumerate", "--monoid", "pnfd", "--n", "3", *extra)
        assert code == 4 and out == ""


def test_enumerate_dot_checks_the_count(capsys, monkeypatch):
    # the graph export compares the closure it exports with the count
    import diagcalc.cli

    code, out = run(capsys, "enumerate", "--monoid", "dn", "--n", "3", "--format", "dot")
    assert code == 0
    monkeypatch.setitem(FAMILY_COUNTS, "dn", lambda n: 4)
    monkeypatch.setattr(diagcalc.cli, "family", None)  # no listing is built
    code, wrong = run(capsys, "enumerate", "--monoid", "dn", "--n", "3", "--format", "dot")
    assert code == 4 and wrong == ""


def test_enumerate_dot_export(capsys):
    code, out = run(capsys, "enumerate", "--monoid", "dn", "--n", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph right_cayley {")
    assert out.rstrip().endswith("}")

    code, out = run(capsys, "enumerate", "--monoid", "sn", "--n", "3", "--format", "dot")
    assert code == 0
    assert out.count(" -> ") > 0

    # sn's generating set is the transpositions, not a schema's: none at n < 2
    for n in ("0", "1"):
        code, out = run(capsys, "enumerate", "--monoid", "sn", "--n", n, "--format", "dot")
        assert code == 0 and out.startswith("digraph right_cayley {")


# Oracle for graph export: the schema whose generator images span each
# family's exported graph, written out by hand (``cli`` reads it off
# ``presentations.PRESENTS``); ``sn`` is generated by its transpositions.
GRAPH_GENERATORS = {
    "pnfd": "full-yq",
    "ppnfd": "planar-zo",
    "tn": "tn",
    "sing-tn": "sing-tn",
    "on": "on",
    "en": "en",
    "fn": "fn",
    "dn": "dn",
}


@pytest.mark.parametrize("monoid", [*GRAPH_GENERATORS, "sn"])
def test_enumerate_dot_exports_the_table_generators(capsys, monoid):
    if monoid == "sn":
        symbols, images, kind = ("s_1", "s_2"), (transposition(3, 1), transposition(3, 2)), "monoid"
    else:
        pres = schema(GRAPH_GENERATORS[monoid], 3)
        symbols, images, kind = pres.alphabet, pres.images, pres.kind
    expected = "".join(cayley_dot(closure(3, images, monoid=kind == "monoid", symbols=symbols)))
    assert run(capsys, "enumerate", "--monoid", monoid, "--n", "3", "--format", "dot") == (
        0, expected)


def test_enumerate_dot_names_the_exportable_families(capsys):
    # every family is exported, over the symbols of its generator table
    for monoid in FAMILY_NAMES:
        for n in range(4):
            code, out = run(capsys, "enumerate", "--monoid", monoid, "--n", str(n),
                            "--format", "dot")
            assert code == 0, (monoid, n)
            assert out.count("label=\"[") == FAMILY_COUNTS[monoid](n), (monoid, n)
            symbols = {symbol for symbol, _ in GENERATORS[monoid](n)[1]}
            edges = out.count(" -> ")
            assert edges == FAMILY_COUNTS[monoid](n) * len(symbols), (monoid, n)
            assert {line.rsplit('label="', 1)[1][:-3] for line in out.splitlines()
                    if " -> " in line} == (symbols if edges else set()), (monoid, n)


def test_enumerate_degree_zero(capsys):
    # each family but sing-tn has one degree-0 element, the empty diagram,
    # and the empty diagram is a permutation
    for monoid in FAMILY_NAMES:
        code, report = run_json(capsys, "enumerate", "--monoid", monoid, "--n", "0",
                                "--format", "json")
        assert code == 0, monoid
        assert report["size"] == report["closed_form"] == (monoid != "sing-tn"), monoid
    code, out = run(capsys, "enumerate", "--monoid", "on", "--n", "0")
    assert code == 0 and out == "1\n"


def test_enumerate_usage_errors():
    usage_error("enumerate", "--monoid", "nonsense", "--n", "3")
    usage_error("enumerate", "--monoid", "dn")
    usage_error("enumerate", "--monoid", "pn", "--n", "2", "--format", "svg")


def test_enumerate_dot_takes_no_element_list(capsys):
    # the graph's nodes are the elements already; the flag would be ignored
    usage_error("enumerate", "--monoid", "dn", "--n", "3", "--format", "dot", "--elements")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: --elements does not apply to --format dot\n")


@pytest.mark.parametrize("n, argv", [
    (1, ("enumerate", "--monoid", "tn", "--n", "1", "--format", "dot")),
    (0, ("enumerate", "--monoid", "dn", "--n", "0", "--format", "dot")),
    (1, ("enumerate", "--monoid", "dn", "--n", "1", "--format", "dot")),
    (0, ("enumerate", "--monoid", "pnfd", "--n", "0", "--format", "dot")),
    (1, ("enumerate", "--monoid", "pnfd", "--n", "1", "--format", "dot")),
    (1, ("factorize", "[[1,-1]]", "--mode", "tn-en")),
    (1, ("factorize", "[[1,-1]]", "--mode", "on-dn")),
    (0, ("factorize", "[]", "--mode", "tn-en")),
    (0, ("factorize", "[]", "--mode", "on-dn")),
])
def test_degree_below_the_schemas_is_a_usage_error(capsys, n, argv):
    # factor words come from the schemas (n >= 2); graph export reads the
    # generator table, which covers every degree
    if argv[0] == "enumerate":
        code, out = run(capsys, *argv)
        assert code == 0 and out.startswith("digraph right_cayley {")
        assert out.count('label="[') == FAMILY_COUNTS[argv[2]](n)
        return
    usage_error(*argv)
    err = capsys.readouterr().err
    assert f"error: schemas are defined for n >= 2, got n={n}" in err
    assert "internal error" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--target", "dn"),
    ("verify", "--target", "ehresmann"),
    ("verify", "--target", "action-pair"),
    ("verify", "--target", "theta-laws"),
    ("enumerate", "--monoid", "pnfd"),
])
def test_negative_degree_is_one_usage_error(capsys, argv):
    # the parser rejects it before any target or family sees it
    usage_error(*argv, "--n", "-1")
    err = capsys.readouterr().err
    assert err.endswith("error: argument --n: degree must be nonnegative, got -1\n")


def test_non_integer_degree_keeps_the_int_message(capsys):
    usage_error("verify", "--target", "dn", "--n", "abc")
    assert capsys.readouterr().err.endswith("error: argument --n: invalid int value: 'abc'\n")


# -- factorize --------------------------------------------------------------------


def test_factorize_planar_example(capsys):
    code, report = run_json(
        capsys, "factorize", "[[1,2,3,4,5,-1],[-2,-5],[-3,-4]]",
        "--mode", "on-dn", "--format", "json",
    )
    assert code == 0
    assert report["left"] == "[[1,2,3,4,5,-1],[-2],[-3],[-4],[-5]]"
    assert report["right"] == "[[1,-1],[2,3,4,5,-2,-5],[-3,-4]]"
    assert report["word"] == ["f_4", "f_3", "f_2", "f_1", "h_2", "g_3", "g_4", "h_3"]
    assert report["verified"] is True


def test_factorize_check_word(capsys):
    base = ["factorize", "[[1,2,3,4,5,-1],[-2,-5],[-3,-4]]", "--mode", "on-dn",
            "--format", "json"]
    code, report = run_json(capsys, *base, "--check", "f_4 f_3 f_2 f_1 h_3 f_2 g_4 h_3")
    assert code == 0
    assert report["check_matches"] is True
    assert "check_value" not in report

    code, report = run_json(capsys, *base, "--check", "f_1")
    assert code == 1
    assert report["check_matches"] is False
    assert report["check_value"] == standard_assignment("planar-zo", 5)["f_1"].text()

    usage_error(*base, "--check", "f_1 nonsense")


def test_factorize_transformation_example(capsys):
    code, report = run_json(
        capsys, "factorize", "[[1,3,-2],[2,-1,-3]]", "--mode", "tn-en", "--format", "json"
    )
    assert code == 0
    assert report["left"] == "[[1,3,-2],[2,-1],[-3]]"
    assert report["right"] == "[[1,3,-1,-3],[2,-2]]"
    assert report["word"] == ["s_2", "t", "s_2", "s_1", "s_2", "e", "s_2"]


def test_factorize_identity_gives_empty_word(capsys):
    code, out = run(capsys, "factorize", "[[1,-1],[2,-2]]", "--mode", "tn-en")
    assert code == 0
    assert "word:  (empty)" in out


def test_factorize_text_format(capsys):
    code, out = run(
        capsys, "factorize", "[[1,2,-1],[-2]]", "--mode", "on-dn",
        "--check", "f_1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "input: [[1,2,-1],[-2]]"
    assert lines[-1] == "check: match"


def test_factorize_usage_errors():
    usage_error("factorize", "[[1,-2],[2,-1]]", "--mode", "on-dn")  # not planar
    usage_error("factorize", "[[1],[2,-1,-2]]", "--mode", "tn-en")  # not full domain
    usage_error("factorize", "[[1,oops]]", "--mode", "tn-en")
    usage_error("factorize", "[[1,-1]]", "--mode", "dn-on")


@pytest.mark.parametrize("broken", ["factor_product", "_right_factor_word"])
def test_unverified_factorization_exits_4(capsys, monkeypatch, broken):
    # the replay checks are explicit raises, not asserts, so ``python -O``
    # cannot turn a wrong factor or word into a "verified" report
    import diagcalc.cli as cli
    import diagcalc.presentations as presentations

    owner = presentations if broken == "factor_product" else cli
    real = getattr(owner, broken)
    if broken == "factor_product":
        fake = lambda d, mode: (real(d, mode)[0], identity(d.n))  # noqa: E731
    else:
        fake = lambda n, right, mode: ()  # noqa: E731
    monkeypatch.setattr(owner, broken, fake)
    code = main(["factorize", "[[1,2,3,4,5,-1],[-2,-5],[-3,-4]]", "--mode", "on-dn"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("diagcalc: internal error: RuntimeError:")


def test_factorize_random_planar_samples(capsys):
    rng = random.Random(66_2024)
    zo = standard_assignment("planar-zo", 6)
    for _ in range(20):
        images = tuple(sorted(rng.choices(range(1, 7), k=6)))
        order_map = from_transformation(images)
        while True:
            eq = Equivalence(6, [rng.randrange(3) for _ in range(6)])
            if eq.is_planar():
                break
        a = multiply(order_map, cap(eq))
        code, report = run_json(
            capsys, "factorize", a.text(), "--mode", "on-dn", "--format", "json"
        )
        assert code == 0
        left = Diagram.from_text(report["left"])
        right = Diagram.from_text(report["right"])
        assert multiply(left, right) == a
        assert eval_word(zo, report["word"]) == a


# -- render -----------------------------------------------------------------------


def test_render_svg_stdout(capsys):
    d = Diagram.from_text("[[1,2],[3,4,-1],[5,-5,-6],[6],[-2,-3],[-4]]")
    code, out = run(capsys, "render", d.text())
    assert code == 0
    assert out == render_svg(d)


def test_render_text_canonicalizes(capsys):
    code, out = run(capsys, "render", "[[2,-2],[1,-1]]", "--format", "text")
    assert code == 0
    assert out == "[[1,-1],[2,-2]]\n"


def test_render_usage_error():
    usage_error("render", "[[1]]")
    usage_error("render", "not a diagram")
    usage_error("render", "[[1,-1],,[2,-2]]")
    # too deep for the JSON decoder: a usage error, not an internal one
    usage_error("render", "[" * 100_000)
    usage_error("render", "[" * 100_000 + "]" * 100_000)


# -- --output files -----------------------------------------------------------------


def test_output_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run(
        capsys, "enumerate", "--monoid", "dn", "--n", "3", "--format", "json",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["size"] == 5

    svg = tmp_path / "picture.svg"
    code, out = run(capsys, "render", "[[1,-1]]", "--output", str(svg))
    assert code == 0 and out == ""
    assert svg.read_text(encoding="utf-8") == render_svg(identity(1))


@pytest.mark.parametrize("argv", [
    ("render", "[[1,-1]]"),
    ("verify", "--target", "dn", "--n", "3"),
])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "report"
    usage_error(*argv, "--output", str(target))
    captured = capsys.readouterr()
    assert captured.out == "" and not target.parent.exists()
    assert captured.err == f"diagcalc: error: cannot write --output {target}: " \
                           "No such file or directory\n"


@pytest.mark.parametrize("argv,module,verdict", [
    (("verify", "--target", "sing-xr", "--n", "5"), "presentations", "verify_presentation"),
    (("verify", "--target", "grrac", "--n", "3"), "laws", "check_grrac"),
    (("enumerate", "--monoid", "pnfd", "--n", "3", "--format", "dot"), "cli", "carrier"),
])
def test_unwritable_output_stops_before_the_work(monkeypatch, capsys, tmp_path, argv, module,
                                                 verdict):
    def never(*args, **kwargs):
        raise AssertionError(f"{verdict} ran before --output was checked")

    monkeypatch.setattr(importlib.import_module(f"diagcalc.{module}"), verdict, never)
    for target in (tmp_path / "missing" / "report", tmp_path):
        usage_error(*argv, "--output", str(target))
        assert capsys.readouterr().err.startswith(f"diagcalc: error: cannot write --output {target}: ")


def test_output_check_keeps_an_existing_file(capsys, tmp_path):
    # the check opens for appending, so a command that then fails leaves the file as it was
    target = tmp_path / "report"
    target.write_text("kept\n", encoding="utf-8")
    usage_error("verify", "--target", "dn", "--n", "3", "--monoid", "pn", "--output", str(target))
    assert target.read_text(encoding="utf-8") == "kept\n"
    code, out = run(capsys, "enumerate", "--monoid", "dn", "--n", "3", "--format", "dot",
                    "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == "".join(cayley_dot(carrier("dn", 3)))


def test_a_target_past_sys_maxsize_is_exhausted(capsys):
    # |T_30| = 30**30 does not fit ``len()``: this exited 4 with an OverflowError
    code, report = run_json(capsys, "verify", "--target", "tn", "--n", "30", "--budget", "1000")
    assert code == 2
    assert report["presentation"]["target_size"] == 30**30


# -- module entry point ---------------------------------------------------------------


def test_python_dash_m_invocation(monkeypatch):
    # the children import diagcalc from this checkout, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    monkeypatch.setenv("PYTHONPATH", src, prepend=os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-m", "diagcalc", "enumerate", "--monoid", "dn", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "5\n"

    proc = subprocess.run(
        [sys.executable, "-m", "diagcalc", "enumerate", "--monoid", "dn"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "error" in proc.stderr
