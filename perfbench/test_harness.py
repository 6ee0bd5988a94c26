"""Self-tests of the benchmark harness (standard library only).

    python3 perfbench/test_harness.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

import calibrate
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

import diagcalc  # noqa: E402
from diagcalc import partitions  # noqa: E402


def synthetic(spans) -> tracing.Tracer:
    """A tracer holding ``(label, parent, start, end)`` spans, in order."""
    t = tracing.Tracer()
    for label, parent, start, end in spans:
        if label not in t.labels:
            t.labels.append(label)
        t.name.append(t.labels.index(label))
        t.parent.append(parent)
        t.job.append(0)
        t.start.append(start)
        t.end.append(end)
    return t


class SelfTime(unittest.TestCase):
    def test_nested_trace(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8].
        t = synthetic([
            ("laws.check_grrac@laws", -1, 0.0, 10.0),
            ("partitions.multiply@laws", 0, 1.0, 4.0),
            ("partitions.cap@partitions", 0, 5.0, 9.0),
            ("equivalences.cap_kernel@partitions", 2, 6.0, 8.0),
        ])
        self.assertEqual(tracing.self_times(t), [3.0, 3.0, 2.0, 2.0])
        q = tracing.job_quantities(t)
        self.assertEqual(q["laws.check_grrac.self_s"], 3.0)
        self.assertEqual(q["partitions.cap.total_s"], 4.0)
        self.assertEqual(q["partitions.multiply.calls"], 1)

    def test_slice_ignores_earlier_parents(self):
        t = synthetic([
            ("cli.main@cli", -1, 0.0, 5.0),
            ("partitions.multiply@cli", 0, 1.0, 2.0),
            ("partitions.diagram@class", 1, 1.5, 1.75),
        ])
        self.assertEqual(tracing.self_times(t, lo=1), [0.75, 0.25])

    def test_dump_and_load_round_trip(self):
        t = synthetic([("engine.closure@engine", -1, 1.0, 2.0)])
        t.payload[0] = 7
        path = run.OUT / "selftest.spans"
        run.OUT.mkdir(exist_ok=True)
        t.dump(path)
        back = tracing.load(path)
        path.unlink()
        self.assertEqual(tracing.job_quantities(back), tracing.job_quantities(t))


class KnownAnswers(unittest.TestCase):
    def test_corrupted_answer_is_a_failure(self):
        saved = dict(workloads.PRESENTED)
        try:
            workloads.PRESENTED["en", 5] += 1
            jobs = [workloads.presentation_job("en", 5)]
        finally:
            workloads.PRESENTED.clear()
            workloads.PRESENTED.update(saved)
        tally = run.Tally()
        run.passes(jobs, 0, lambda k, first: run.execute(jobs[k], tally))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("expected", tally.messages[0])

    def test_pinned_answer_passes(self):
        tally = run.Tally()
        jobs = [workloads.presentation_job("en", 5)]
        run.passes(jobs, 0, lambda k, first: run.execute(jobs[k], tally))
        self.assertEqual((tally.attempted, tally.failed), (1, 0))

    def test_raising_job_is_a_failure(self):
        job = workloads.Job("boom", lambda: partitions.family("no-such-family", 2), lambda r: None)
        tally = run.Tally()
        run.execute(job, tally)
        self.assertEqual(tally.failed, 1)

    def test_closed_forms(self):
        self.assertEqual([workloads.bell(n) for n in range(7)], [1, 1, 2, 5, 15, 52, 203])
        self.assertEqual(workloads.catalan(8), 1430)
        self.assertEqual(workloads.PRESENTED["sing-xr", 4], 831)
        self.assertEqual(workloads.PRESENTED["sing-tn", 5], 3005)


class NoLeakedWrappers(unittest.TestCase):
    def assert_originals(self, before):
        for owner, name, fn, _, _ in before:
            self.assertIs(getattr(owner, name), fn, f"{owner!r}.{name}")

    def test_untraced_run_keeps_originals(self):
        before = tracing.bindings()
        self.assertTrue(before)
        jobs = [workloads.presentation_job("en", 5), workloads.ehresmann_job("pn", 2, 15)]
        tally = run.Tally()
        run.passes(jobs, 0, lambda k, first: run.execute(jobs[k], tally))
        self.assertEqual(tally.failed, 0)
        self.assert_originals(before)

    def test_uninstall_restores_originals(self):
        before = tracing.bindings()
        original = partitions.multiply
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(partitions.multiply, original)
            self.assertIsNot(diagcalc.multiply, original)
            partitions.multiply(partitions.identity(2), partitions.identity(2))
        finally:
            tracer.uninstall()
        self.assert_originals(before)
        labels = [tracer.labels[i] for i in tracer.name]
        # multiply's canonicalisation is its child span
        self.assertEqual(labels, ["partitions.diagram@class"] * 2
                         + ["partitions.multiply@partitions", "partitions.diagram@class"])
        self.assertEqual(tracer.parent[3], 2)


class Calibration(unittest.TestCase):
    def test_reference_kernel_closes_p3(self):
        self.assertEqual(calibrate.CLOSURE_SIZE, workloads.bell(2 * calibrate.DEGREE))
        self.assertEqual(calibrate.reference(), calibrate.CLOSURE_SIZE)
        self.assertNotIn("diagcalc", vars(calibrate))

    def test_factor_is_nominal_over_median(self):
        probe = calibrate.SpeedProbe()
        probe.times = [0.003, 0.012, 0.012]
        self.assertEqual(probe.factor(), calibrate.NOMINAL_S / 0.012)

    def test_probe_before_every_job(self):
        probe = calibrate.SpeedProbe()
        jobs = [workloads.presentation_job("en", 5), workloads.ehresmann_job("pn", 2, 15)]
        tally = run.Tally()
        run.passes(jobs, 0, lambda k, first: run.execute(jobs[k], tally), probe)
        self.assertEqual(len(probe.times), len(jobs) * calibrate.REPEATS)
        self.assertEqual(tally.failed, 0)


class Declarations(unittest.TestCase):
    def test_layers_match_benchmark_json(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        layers = json.loads((run.HERE / "layers.json").read_text())
        self.assertEqual(bench["per_layer"],
                         [{k: m[k] for k in ("name", "unit", "better")} for m in layers])
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
