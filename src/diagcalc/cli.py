"""Command-line workbench for the diagram-monoid library.

Four subcommands:

* ``verify``     run a named verification target and exit 0 (verified),
                 1 (refuted), or 2 (budget exhausted, inconclusive);
* ``enumerate``  list a standard family, the closure of its generators
                 certified against the independent count, exit 0, optionally
                 listing elements or exporting its right Cayley graph;
* ``factorize``  split a diagram into a transformation times a canonical
                 right factor, with a generator word that replays it;
* ``render``     draw a diagram as deterministic SVG.

Usage errors exit 3.  A family in ``enumerate`` or ``factorize`` counted
past the default budget exits 2 (inconclusive), and any other uncaught
exception exits 4 (internal error), among them a closure that disagrees
with its count; both print a one-line message on stderr.  All reports are
deterministic for a fixed input and library version: JSON is emitted with
sorted keys and no timestamps, so two identical runs produce identical
bytes.

The ``verify`` budget defaults to the ``DIAGCALC_BUDGET`` environment
variable when set, and ``--budget`` overrides both.  It bounds the coset
nodes of presentation enumeration and the pairs of the ``ehresmann``,
``restriction`` and ``grrac`` law scans: a carrier of ``k`` elements whose
``k**2`` pairs exceed it is reported as exhausted before any axiom is
scanned.  ``action-pair`` is bounded the same way by its ``|U| * |S|``
pairs, and then by the elements of the closure of U and S together, which
is reported as exhausted when it outgrows the budget.  ``theta-laws`` is
bounded by its ``Bell(n)**2 * n**n`` theta-join pairs (each pair of the
``Bell(n)`` projections compares congruences on the ``n**n``
transformations).  Every size is read from
:data:`diagcalc.counting.FAMILY_COUNTS`, so an over-budget scan builds no
carrier.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .counting import FAMILY_COUNTS
from .engine import DEFAULT_BUDGET, BudgetExceeded, CheckReport, carrier, cayley_dot
from .equivalences import cap_word
from .partitions import FAMILY_NAMES, SCHEMA_NAMES, Diagram, family, multiply

# ``laws``, ``presentations`` and ``render`` are imported by the commands
# that use them, so each run loads only the modules its verdict needs

LAW_TARGETS = ("ehresmann", "restriction", "action-pair", "grrac", "theta-laws")
# law targets that scan pairs of one carrier, with their default carrier
_PAIR_SCANS = {"ehresmann": "pnfd", "restriction": "pnfd", "grrac": "ppnfd"}
VERIFY_TARGETS = SCHEMA_NAMES + LAW_TARGETS

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit 3 instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _degree(text: str) -> int:
    try:
        n = int(text)
    except ValueError:  # argparse's own wording for ``type=int``
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"degree must be nonnegative, got {n}")
    return n


def _build_parser() -> _Parser:
    parser = _Parser(prog="diagcalc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification target")
    verify.add_argument("--target", required=True, choices=VERIFY_TARGETS)
    verify.add_argument("--n", type=_degree, required=True, help="degree")
    verify.add_argument(
        "--monoid",
        help="carrier for law targets (family name, or a pair name like "
        "en-tn for action-pair); defaults: ehresmann/restriction pnfd, "
        "grrac ppnfd, action-pair en-tn",
    )
    verify.add_argument("--side", choices=("left", "right"),
                        help="which restriction law to test (default right)")
    verify.add_argument("--budget", type=int, help="node budget for enumeration")
    verify.add_argument("--seed", type=int, help="echoed into the report")
    verify.add_argument("--expect-fail", action="store_true",
                        help="swap the verified/refuted exit codes")
    verify.add_argument("--output", help="write the report here instead of stdout")
    verify.add_argument("--format", choices=("json", "text"), default="json")

    enum = sub.add_parser("enumerate", help="count a standard family")
    enum.add_argument("--monoid", required=True, choices=FAMILY_NAMES)
    enum.add_argument("--n", type=_degree, required=True)
    enum.add_argument("--elements", action="store_true",
                      help="include the canonical element texts")
    enum.add_argument("--output", help="write here instead of stdout")
    enum.add_argument("--format", choices=("text", "json", "dot"), default="text")

    fact = sub.add_parser("factorize", help="factor a diagram through a standard pair")
    fact.add_argument("text", help="diagram in block notation, e.g. [[1,2,-1],[-2]]")
    fact.add_argument("--mode", required=True, choices=("tn-en", "on-dn"))
    fact.add_argument("--check", metavar="WORD",
                      help="whitespace-separated generator word to verify against the input")
    fact.add_argument("--output", help="write here instead of stdout")
    fact.add_argument("--format", choices=("text", "json"), default="text")

    rend = sub.add_parser("render", help="draw a diagram")
    rend.add_argument("text", help="diagram in block notation")
    rend.add_argument("--output", help="write here instead of stdout")
    rend.add_argument("--format", choices=("svg", "text"), default="svg")
    return parser


def _emit(payload: str, output: str | None) -> None:
    if output:
        Path(output).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _resolve_budget(args: argparse.Namespace, parser: _Parser) -> int:
    if getattr(args, "budget", None) is not None:
        budget = args.budget
    else:
        raw = os.environ.get("DIAGCALC_BUDGET")
        if raw is None:
            return DEFAULT_BUDGET
        try:
            budget = int(raw)
        except ValueError:
            parser.error(f"DIAGCALC_BUDGET must be an integer, got {raw!r}")
    if budget < 1:
        parser.error("budget must be at least 1")
    return budget


def _check_lines(checks: Sequence[CheckReport]) -> str:
    lines = []
    for rep in checks:
        mark = "ok  " if rep.holds else "FAIL"
        extra = f"  witness={list(rep.witness)}" if rep.witness else ""
        lines.append(f"[{mark}] {rep.name}{extra}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace, parser: _Parser) -> int:
    if args.monoid is not None and args.target not in (*_PAIR_SCANS, "action-pair"):
        parser.error(f"--monoid does not apply to --target {args.target}")
    if args.side is not None and args.target != "restriction":
        parser.error(f"--side applies only to --target restriction, not {args.target}")
    budget = _resolve_budget(args, parser)
    report: dict = {
        "command": "verify",
        "target": args.target,
        "n": args.n,
        "budget": budget,
        "seed": args.seed,
        "expect_fail": args.expect_fail,
    }

    try:
        if args.target in SCHEMA_NAMES:
            from .presentations import verify_presentation

            outcome = verify_presentation(args.target, args.n, budget=budget)
            status = outcome.status
            report["presentation"] = outcome.to_dict()
            text_body = (
                f"target={args.target} n={args.n} status={status} "
                f"target_size={outcome.target_size} "
                f"closure_size={outcome.closure_size} "
                f"presented_size={outcome.enumerated_size}\n"
            )
        else:
            checks = _law_checks(args, budget)
            if isinstance(checks, dict):
                status = "exhausted"
                pairs = checks.pop("pairs")
                report.update(checks)
                sizes = "".join(f"{key}={value} " for key, value in checks.items())
                text_body = (
                    f"target={args.target} n={args.n} status={status} {sizes}pairs={pairs}\n"
                )
            else:
                status = "verified" if all(rep.holds for rep in checks) else "refuted"
                report["checks"] = [rep.to_dict() for rep in checks]
                text_body = (
                    f"target={args.target} n={args.n} status={status}\n" + _check_lines(checks)
                )
    except ValueError as exc:
        parser.error(str(exc))

    report["status"] = status
    payload = _json(report) if args.format == "json" else text_body
    _emit(payload, args.output)
    if status == "exhausted":
        return EXIT_INCONCLUSIVE
    verified = status == "verified"
    if args.expect_fail:
        verified = not verified
    return EXIT_VERIFIED if verified else EXIT_REFUTED


def _law_checks(args: argparse.Namespace, budget: int) -> list[CheckReport] | dict[str, int]:
    """The target's check reports, or the sizes and the ``pairs`` of a scan
    whose pairs exceed the budget."""
    from . import laws

    n = args.n
    if args.target in _PAIR_SCANS:
        name = args.monoid or _PAIR_SCANS[args.target]
        # an unknown name gets ``carrier``'s error message
        counted = FAMILY_COUNTS.get(name)
        if counted and (size := counted(n)) ** 2 > budget:
            return {"carrier_size": size, "pairs": size**2}
        monoid = carrier(name, n)
        if args.target == "ehresmann":
            return laws.check_ehresmann(monoid)
        if args.target == "restriction":
            return [laws.check_restriction(monoid, args.side or "right")]
        return laws.check_grrac(monoid)
    if args.target == "action-pair":
        pair = args.monoid or "en-tn"
        if pair in laws.ACTION_PAIRS:
            u_name, s_name = laws.ACTION_PAIRS[pair]
            u_size, s_size = FAMILY_COUNTS[u_name](n), FAMILY_COUNTS[s_name](n)
            exhausted = {"carrier_size": s_size, "u_size": u_size, "pairs": u_size * s_size}
            if u_size * s_size > budget:
                return exhausted
        # an unknown pair gets ``action_pair_elements``' error message
        u, s = laws.action_pair_elements(pair, n)
        try:  # the closure of U and S together is bounded by the budget too
            return [laws.check_action_pair(u, s, pair, budget=budget)]
        except BudgetExceeded:
            return exhausted
    u_size, s_size = FAMILY_COUNTS["en"](n), FAMILY_COUNTS["tn"](n)
    if (pairs := u_size**2 * s_size) > budget:
        return {"carrier_size": s_size, "u_size": u_size, "pairs": pairs}
    return laws.theta_battery(n)


def _cmd_enumerate(args: argparse.Namespace, parser: _Parser) -> int:
    # the carrier is certified against the count, and raises otherwise
    if args.format == "dot":
        _emit(cayley_dot(carrier(args.monoid, args.n)), args.output)
        return EXIT_VERIFIED

    elements = family(args.monoid, args.n)
    size = len(elements)
    if args.format == "json":
        report = {
            "command": "enumerate",
            "monoid": args.monoid,
            "n": args.n,
            "size": size,
            "closed_form": FAMILY_COUNTS[args.monoid](args.n),
        }
        if args.elements:
            report["elements"] = [d.text() for d in elements]
        payload = _json(report)
    else:
        lines = [str(size)]
        if args.elements:
            lines += [d.text() for d in elements]
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.output)
    return EXIT_VERIFIED


def _transformation_word(n: int, left: Diagram, mode: str) -> tuple[str, ...]:
    """A generator word for the left factor, over the matching alphabet."""
    monoid = carrier("on" if mode == "on-dn" else "tn", n)
    return tuple(monoid.symbols[k] for k in monoid.word_for(left))


def _right_factor_word(n: int, right: Diagram, mode: str) -> tuple[str, ...]:
    """A generator word for the canonical right factor."""
    from .presentations import cap_lift, derived_word, sym_cap

    if mode == "on-dn":
        lift = cap_lift(n)
        word: list[str] = []
        for i, j in cap_word(right.coker()):
            word.extend(lift[sym_cap(i, j)])
        return tuple(word)
    word = []
    for block in right.coker().classes():
        for a, b in zip(block, block[1:]):
            word.extend(derived_word("epsilon", a, b, n))
    return tuple(word)


def _cmd_factorize(args: argparse.Namespace, parser: _Parser) -> int:
    from .presentations import eval_word, factor_product, standard_assignment

    try:
        d = Diagram.from_text(args.text)
        left, right = factor_product(d, args.mode)
        assignment = standard_assignment(
            "planar-zo" if args.mode == "on-dn" else "full-yq", d.n
        )
    except ValueError as exc:
        parser.error(str(exc))
    n = d.n
    word = _transformation_word(n, left, args.mode) + _right_factor_word(n, right, args.mode)
    # never print an unverified factorization (explicit checks: they must
    # survive ``python -O``, and a failure is an internal error, exit 4)
    if multiply(left, right) != d:
        raise RuntimeError(f"factor product {left.text()} * {right.text()} is not the input")
    if eval_word(assignment, word) != d:
        raise RuntimeError(f"generator word {' '.join(word)} does not replay the input")

    report = {
        "command": "factorize",
        "mode": args.mode,
        "input": d.text(),
        "left": left.text(),
        "right": right.text(),
        "word": list(word),
        "verified": True,
    }
    status = EXIT_VERIFIED
    if args.check is not None:
        check_word = tuple(args.check.split())
        try:
            value = eval_word(assignment, check_word)
        except KeyError as exc:
            parser.error(f"unknown generator symbol {exc.args[0]!r} in --check word")
        report["check_word"] = list(check_word)
        report["check_matches"] = value == d
        if not report["check_matches"]:
            report["check_value"] = value.text()
            status = EXIT_REFUTED

    if args.format == "json":
        payload = _json(report)
    else:
        lines = [
            f"input: {report['input']}",
            f"left:  {report['left']}",
            f"right: {report['right']}",
            f"word:  {' '.join(word) or '(empty)'}",
        ]
        if args.check is not None:
            lines.append(f"check: {'match' if report['check_matches'] else 'MISMATCH'}")
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.output)
    return status


def _cmd_render(args: argparse.Namespace, parser: _Parser) -> int:
    from .render import render_svg

    try:
        d = Diagram.from_text(args.text)
    except ValueError as exc:
        parser.error(str(exc))
    payload = d.text() + "\n" if args.format == "text" else render_svg(d)
    _emit(payload, args.output)
    return EXIT_VERIFIED


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {
        "verify": _cmd_verify,
        "enumerate": _cmd_enumerate,
        "factorize": _cmd_factorize,
        "render": _cmd_render,
    }[args.command]
    try:
        return command(args, parser)
    except BudgetExceeded as exc:  # inconclusive, whatever --expect-fail says
        print(f"{parser.prog}: inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:  # a crash must never read as a verdict
        message = " ".join(str(exc).split())
        print(f"{parser.prog}: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
