"""Check the tracer's counts against the calculator's recorded baseline.

    python3 perfbench/baseline.py

Runs the slow jobs of the baseline table twice each under the tracer.  Each
verdict must match its pinned answer, both runs must give the same counts,
and those counts must equal the figures below, which were measured on the
3,465-line source by wrapping the same functions from outside.  Exits 1 on
any mismatch.  Takes a few minutes; the timed workloads use smaller degrees.
A change that removes work from these jobs (fewer multiplies, fewer coset
nodes) changes these figures on purpose and updates them here.
"""

from __future__ import annotations

import sys

import run
import tracing
import workloads

BASELINE = (
    (lambda: workloads.ehresmann_job("pn", 3, workloads.bell(6)),
     {"partitions.multiply.calls": 536_529}),
    (lambda: workloads.grrac_job(4),
     {"partitions.cap.calls": 218_680}),
    (lambda: workloads.presentation_job("full-yq", 5),
     {"partitions.classify.calls": 115_975,
      "presentations.enumerate_presented.nodes": 212_305}),
    (lambda: workloads.presentation_job("dn", 8),
     {"presentations.enumerate_presented.nodes": 41_906}),
    (lambda: workloads.presentation_job("planar-zo", 5), {}),
    (lambda: workloads.presentation_job("sing-tn", 5), {}),
)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import diagcalc  # noqa: F401  (the tracer resolves its targets in the package)

    tally = run.Tally()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for make, figures in BASELINE:
            job = make()
            counts = []
            for _ in range(2):
                sample = run.execute(job, tally)
                counts.append(tracing.job_quantities(tracer))
                tracer.truncate(0)
                print(f"{job.label}: {sample.wall:.2f} s traced", flush=True)
            for key, value in counts[0].items():
                if key.endswith(run.COUNT_SUFFIXES) and counts[1].get(key) != value:
                    tally.record(job.label, f"{key} {value} then {counts[1].get(key)}")
            for key, want in figures.items():
                got = counts[0].get(key)
                print(f"  {key} {got:.0f} (baseline {want})")
                if got != want:
                    tally.record(job.label, f"{key} is {got}, baseline {want}")
    finally:
        tracer.uninstall()
    for message in tally.messages:
        print(f"FAILED {message}")
    print("baseline counts reproduced" if not tally.failed else "baseline check FAILED")
    return 1 if tally.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
