"""diagcalc benchmark: time to an exact verdict, end to end and per layer.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 30 --trace 0

Run from anywhere; the calculator is imported from ``src/`` next to this
directory, never from an installed copy.  Every job's verdict is checked
against the answers pinned in ``workloads.py``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of ``layers.json`` from a separate traced run.  The
lines before it print every metric with its unit, the error rate and the
run's provenance; the same record is written to
``.perfbench-out/result-<workload>-seed<seed>-trace<t>.json``.

Load model: a closed loop with one client.  Each job runs to its verdict
before the next starts.  Every job runs once in the seed's order, and passes
continue while the next job still fits into ``--seconds``.  Timings are
per-job medians over the passes, so a partial last pass biases nothing.
Between the jobs the reference of ``calibrate.py`` is timed, and every
reported time is in reference seconds: the measured time scaled by the
reference's nominal time over its median time in the run, which cancels the
host's drift in speed.  The measured times are kept in the provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 9
JOB_DEADLINE_S = 60
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "job_p50_s": "s",
    "job_max_s": "s",
    "peak_rss_mb": "MB",
}
# Count metrics must repeat exactly from one pass (and one run) to the next.
COUNT_SUFFIXES = (".calls", ".multiplies", ".elements", ".nodes", ".kept", ".drawn", ".bytes")


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout(f"job ran past its {JOB_DEADLINE_S} s deadline")


@dataclass
class Sample:
    wall: float
    cpu: float
    result: object = None
    quantities: dict = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.messages.append(f"{label}: {error}")


def cpu_now() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def execute(job, tally: Tally) -> Sample:
    """Run one job to its verdict and check it; only ``job.run`` is timed."""
    result, error = None, None
    signal.setitimer(signal.ITIMER_REAL, JOB_DEADLINE_S)
    c0, t0 = cpu_now(), time.perf_counter()
    try:
        result = job.run()
    except JobTimeout as exc:
        error = str(exc)
    except Exception as exc:  # a crash is a failed verdict, not a harness error
        error = f"raised {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall, cpu = time.perf_counter() - t0, cpu_now() - c0
    if error is None:
        error = job.check(result)
    tally.record(job.label, error)
    return Sample(wall, cpu, result)


def passes(jobs, seconds: float, run_one, probe=None) -> dict[int, list[Sample]]:
    """Run every job once, then keep cycling while the next job still fits.

    With a ``calibrate.SpeedProbe``, the reference is sampled before every
    ``probe.every``-th job.  A job that times out ends the run: the verdict
    is already counted as failed, and the remaining time is not worth
    spending.
    """
    samples: dict[int, list[Sample]] = {k: [] for k in range(len(jobs))}
    deadline = time.perf_counter() + seconds
    first = True
    while True:
        for k in range(len(jobs)):
            if not first and time.perf_counter() + samples[k][-1].wall > deadline:
                return samples
            if probe is not None and k % probe.every == 0:
                probe.sample()
            sample = run_one(k, first)
            samples[k].append(sample)
            if sample.wall >= JOB_DEADLINE_S:
                return samples
        first = False


def medians(samples: dict[int, list[Sample]], attr: str) -> list[float]:
    return [statistics.median(getattr(s, attr) for s in runs) for runs in samples.values()]


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time for a fresh interpreter to import diagcalc and build the jobs.

    Returns it measured and in reference seconds, scaled by a reference
    child timed before each probe.
    """
    code = (
        "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
        "import diagcalc, workloads; "
        "workloads.build(sys.argv[3], int(sys.argv[4]), Path(sys.argv[1]), Path(sys.argv[5]))"
    )
    times = []
    probe = calibrate.ChildProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(HERE), workload, str(seed), str(OUT)],
            check=True, stdin=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    measured = statistics.median(times)
    return measured, measured * probe.factor()


def end_to_end(workload: str, samples, setup_s: float, factor: float = 1.0) -> dict[str, float]:
    """The metrics of one run; the job times are scaled by ``factor``."""
    walls = [w * factor for w in medians(samples, "wall")]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s,
        "wall_s": sum(walls),
        "cpu_s": sum(medians(samples, "cpu")) * factor,
        "job_p50_s": statistics.median(walls),
        "job_max_s": max(walls),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def check_counts(jobs, samples, tally: Tally) -> None:
    """Every count quantity must repeat exactly in every traced pass."""
    for k, runs in samples.items():
        for key, value in runs[0].quantities.items():
            if key.endswith(COUNT_SUFFIXES) and any(s.quantities.get(key) != value for s in runs[1:]):
                tally.record(jobs[k].label, f"count {key} changed between passes")


def per_layer(jobs, traced, plain, import_times) -> dict[str, float]:
    """The metrics of ``layers.json`` from the traced passes."""

    def median_sum(key: str) -> float:
        return sum(statistics.median(s.quantities.get(key, 0.0) for s in runs)
                   for runs in traced.values())

    def count(key: str, only=None) -> float:
        return sum(runs[0].quantities.get(key, 0.0) for k, runs in traced.items()
                   if only is None or only(jobs[k]))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for group in ("partitions.multiply", "partitions.classify", "partitions.cap",
                  "partitions.projection", "equivalences.cap_kernel", "engine.product"):
        m[f"{group}.calls"] = count(f"{group}.calls")
        m[f"{group}.self_s"] = median_sum(f"{group}.self_s")
    m["partitions.multiply.per_s"] = ratio(m["partitions.multiply.calls"],
                                           median_sum("partitions.multiply.total_s"))
    m["partitions.diagram.constructed"] = count("partitions.diagram.calls")
    m["partitions.diagram.init_self_s"] = median_sum("partitions.diagram.self_s")
    for group in ("partitions.family", "equivalences.all_equivalences", "engine.closure",
                  "engine.from_elements", "laws.check_ehresmann", "laws.check_grrac",
                  "laws.check_restriction", "laws.check_action_pair", "laws.theta_battery",
                  "presentations.target_elements", "presentations.check_soundness",
                  "presentations.schema", "presentations.enumerate_presented",
                  "render.render_svg", "cli.main"):
        m[f"{group}.self_s"] = median_sum(f"{group}.self_s")
    m["engine.closure.elements"] = count("engine.closure.elements")
    m["engine.closure.multiplies"] = count("engine.closure.multiplies")
    m["engine.closure.yield"] = ratio(m["engine.closure.elements"], m["engine.closure.multiplies"])
    m["engine.table.multiplies"] = count("engine.table.multiplies")

    pairs = sum(job.pairs for job in jobs)
    m["laws.multiplies_per_pair"] = ratio(count("partitions.multiply.calls", lambda j: j.pairs), pairs)

    # Candidates are the diagrams or equivalences a target filter drew; a
    # target built directly (transformations) draws none and keeps them all.
    kept = count("presentations.target_elements.kept")
    candidates = sum(runs[0].quantities.get("presentations.target_elements.drawn")
                     or runs[0].quantities.get("presentations.target_elements.kept", 0.0)
                     for runs in traced.values())
    m["presentations.target_elements.candidates"] = candidates
    m["presentations.target_elements.kept_ratio"] = ratio(kept, candidates)
    nodes = count("presentations.enumerate_presented.nodes")
    m["presentations.enumerate_presented.nodes"] = nodes
    enumerated = sum(runs[0].quantities.get("presentations.target_elements.kept", 0.0)
                     for runs in traced.values()
                     if runs[0].quantities.get("presentations.enumerate_presented.nodes"))
    m["presentations.enumerate_presented.overshoot"] = ratio(nodes, enumerated)

    m["cli.import_s"] = statistics.median(import_times) if import_times else 0.0
    m["cli.output_bytes"] = count("cli.output_bytes")
    m["trace.overhead"] = ratio(sum(medians(traced, "wall")), sum(medians(plain, "wall")))
    return m


def import_probe(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import diagcalc.cli"], env=env, check=True)
    return time.perf_counter() - t0


def run_traced(workload: str, seed: int, jobs, seconds: float, tally: Tally,
               probe: calibrate.SpeedProbe) -> dict[str, float]:
    """A warm-up pass, an untraced pass as the overhead reference, then traced passes."""
    import tracing
    import workloads

    t_end = time.perf_counter() + seconds
    passes(jobs, 0, lambda k, first: execute(jobs[k], tally), probe)
    plain = passes(jobs, 0, lambda k, first: execute(jobs[k], tally), probe)
    if workload == "cli":
        jobs = workloads.build(workload, seed, SRC, OUT, traced=True)
    import_times: list[float] = []
    env = workloads.child_env(SRC)
    tracer = tracing.Tracer()

    def run_one(k: int, first: bool) -> Sample:
        if workload == "cli":
            if k == 0:
                import_times.append(import_probe(env))
            sample = execute(jobs[k], tally)
            if isinstance(sample.result, workloads.CliResult) and sample.result.spans.exists():
                sample.quantities = tracing.job_quantities(tracing.load(sample.result.spans))
                sample.quantities["cli.output_bytes"] = len(sample.result.output)
            return sample
        lo = len(tracer.start)
        tracer.job_id = k
        sample = execute(jobs[k], tally)
        sample.quantities = tracing.job_quantities(tracer, lo)
        if not first:
            tracer.truncate(lo)  # the spans of the first pass are the ones written out
        return sample

    if workload != "cli":
        tracer.install()
    try:
        traced = passes(jobs, max(t_end - time.perf_counter(), 0), run_one, probe)
    finally:
        tracer.uninstall()
    if workload != "cli":
        tracer.dump(OUT / f"spans-{workload}-seed{seed}.bin")
    check_counts(jobs, traced, tally)
    return per_layer(jobs, traced, plain, import_times)


def loadavg() -> str:
    """The 1, 5 and 15 minute load averages, read-only from /proc."""
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    package = SRC / "diagcalc"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no calculator source at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import diagcalc
    import workloads

    if Path(diagcalc.__file__).resolve().parent != package:
        print(f"perfbench: imported diagcalc from {diagcalc.__file__}, not {package}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    provenance = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": loadavg(),
    }
    signal.signal(signal.SIGALRM, _alarm)
    tally = Tally()
    # the cli jobs are fresh interpreters, so a fresh interpreter is their reference
    probe = calibrate.ChildProbe() if args.workload == "cli" else calibrate.SpeedProbe()
    if args.trace:
        jobs = workloads.build(args.workload, args.seed, SRC, OUT)
        measured = run_traced(args.workload, args.seed, jobs, args.seconds, tally, probe)
        units = {m["name"]: m["unit"] for m in json.loads((HERE / "layers.json").read_text())}
        scale = {"s": probe.factor(), "1/s": 1 / probe.factor()}
        metrics = {name: value * scale.get(units[name], 1.0) for name, value in measured.items()}
    else:
        setup_measured, setup_s = measure_setup(args.workload, args.seed)
        jobs = workloads.build(args.workload, args.seed, SRC, OUT)
        samples = passes(jobs, args.seconds, lambda k, first: execute(jobs[k], tally), probe)
        metrics = end_to_end(args.workload, samples, setup_s, probe.factor())
        measured = end_to_end(args.workload, samples, setup_measured)
        units = E2E_UNITS
        provenance["passes"] = {j.label: len(samples[k]) for k, j in enumerate(jobs)}
    provenance["reference_median_s"] = probe.median()
    provenance["reference_samples"] = len(probe.times)
    provenance["measured"] = {name: measured[name] for name in units}
    provenance["loadavg_end"] = loadavg()
    provenance["elapsed_s"] = time.perf_counter() - started

    for message in tally.messages[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    out = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"error_rate {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} verdicts)")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**out, "provenance": provenance}, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
