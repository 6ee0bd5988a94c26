"""The benchmark's tracer must still find every function it wraps.

``perfbench/tracing.py`` looks methods up in their class's own ``__dict__``
and functions in the ``diagcalc`` modules, so moving one of its targets (to
a base class, say) would crash every traced benchmark run.  The harness's
own self-tests must pass too.  These tests only read and run ``perfbench/``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracing_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    originals = {fn for _, _, fn, _, _ in tracing.bindings()}
    for module, attribute, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"diagcalc.{module}")
        for name in attribute.split("."):
            owner = getattr(owner, name)
        assert owner in originals, f"{module}.{attribute}"


def test_harness_self_tests_pass():
    # ``testpaths`` holds only ``tests``, so the harness's own unittest
    # suite would otherwise never run with the rest
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "test_harness.py")],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


TRACED_CANNED = """
import importlib, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import tracing, workloads
import diagcalc.cli
if sys.argv[3] == "all":
    for name in ("counting", "engine", "equivalences", "laws", "partitions",
                 "presentations", "render"):
        importlib.import_module(f"diagcalc.{name}")
tracer = tracing.Tracer()
tracer.install()
out = []
for k, (_, _, argv) in enumerate(workloads.CANNED_RUNS):
    lo = len(tracer.start)
    tracer.job_id = k
    code = diagcalc.cli.main([*argv, "--output", str(Path(sys.argv[2]) / f"cli-{k}.out")])
    counts = {key: value for key, value in tracing.job_quantities(tracer, lo).items()
              if key.endswith((".calls", ".multiplies"))}
    out.append([code, counts])
tracer.uninstall()
print(json.dumps(out))
"""


def test_traced_counts_do_not_depend_on_import_order(tmp_path):
    # ``bindings()`` imports the modules of later targets while it scans, so
    # a module that ``diagcalc.cli`` loads lazily must still reach the
    # wrapped kernel functions: the canned commands must count the same
    # spans whether the tracer is installed after ``diagcalc.cli`` alone or
    # after every module
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    env.pop("DIAGCALC_BUDGET", None)
    runs = {}
    for order in ("cli", "all"):
        proc = subprocess.run(
            [sys.executable, "-c", TRACED_CANNED, str(PERFBENCH), str(tmp_path), order],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs[order] = json.loads(proc.stdout.splitlines()[-1])
    assert len(runs["cli"]) == 15
    for k, (lazy, eager) in enumerate(zip(runs["cli"], runs["all"])):
        assert lazy == eager, k
    totals = {key for _, counts in runs["cli"] for key in counts}
    for key in ("partitions.multiply.calls", "partitions.projection.calls",
                "partitions.cap.calls", "partitions.family.calls",
                "engine.closure.calls", "engine.from_elements.calls"):
        assert key in totals, key
