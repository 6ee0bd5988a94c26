"""Span recording around diagcalc's public functions, from outside the package.

``Tracer.install()`` rebinds every function listed in ``TARGETS`` in each
``diagcalc`` module namespace that holds it (and on ``Diagram`` /
``FiniteMonoid`` for methods), so calls made from inside the library are
seen too.  Each call becomes a span: name, start, end, parent span and job
id, kept in flat arrays in memory and written out with ``dump``.  A separate
wrapper is made per importing module, so a span also records the call site
(``partitions.multiply@engine`` is a multiply issued from ``engine``).
``uninstall()`` puts the original objects back.

Only the benchmark's traced runs install wrappers; end-to-end runs never do.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, attribute, group, kind).  kind "call" records one span per call;
# "gen" wraps a generator function and records one span per resume.
TARGETS = (
    ("partitions", "Diagram.__init__", "partitions.diagram", "call"),
    ("partitions", "Diagram.classify", "partitions.classify", "call"),
    ("partitions", "multiply", "partitions.multiply", "call"),
    ("partitions", "cap", "partitions.cap", "call"),
    ("partitions", "domain_projection", "partitions.projection", "call"),
    ("partitions", "range_projection", "partitions.projection", "call"),
    ("partitions", "family", "partitions.family", "call"),
    ("partitions", "all_diagrams", "partitions.all_diagrams", "gen"),
    ("equivalences", "cap_kernel", "equivalences.cap_kernel", "call"),
    ("equivalences", "all_equivalences", "equivalences.all_equivalences", "gen"),
    ("engine", "closure", "engine.closure", "call"),
    ("engine", "from_elements", "engine.from_elements", "call"),
    ("engine", "FiniteMonoid.product", "engine.product", "call"),
    ("laws", "check_ehresmann", "laws.check_ehresmann", "call"),
    ("laws", "check_grrac", "laws.check_grrac", "call"),
    ("laws", "check_restriction", "laws.check_restriction", "call"),
    ("laws", "check_action_pair", "laws.check_action_pair", "call"),
    ("laws", "theta_battery", "laws.theta_battery", "call"),
    ("presentations", "schema", "presentations.schema", "call"),
    ("presentations", "check_soundness", "presentations.check_soundness", "call"),
    ("presentations", "target_elements", "presentations.target_elements", "call"),
    ("presentations", "enumerate_presented", "presentations.enumerate_presented", "call"),
    ("render", "render_svg", "render.render_svg", "call"),
    ("cli", "main", "cli.main", "call"),
)

# Result sizes kept as the span's payload, for the ratio metrics.
RESULT_SIZE = {
    "engine.closure": len,
    "presentations.target_elements": len,
    "presentations.enumerate_presented": lambda r: r.node_budget_used,
}
# Payload of a generator's last resume, the one that raised StopIteration.
EXHAUSTED = -1


def _modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "diagcalc" or name.startswith("diagcalc."))]


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(f"diagcalc.{module}")
    if "." in attribute:
        cls_name, attr = attribute.split(".")
        owner = getattr(owner, cls_name)
        return owner, attr, owner.__dict__[attr]
    return owner, attribute, getattr(owner, attribute)


def bindings() -> list[tuple[object, str, object, str, str]]:
    """Every binding a tracer replaces: (owner, name, original, group, site).

    A function is rebound wherever a ``diagcalc`` module holds it, so calls
    between the library's own modules pass through the wrapper too.
    """
    out = []
    for module, attribute, group, _ in TARGETS:
        owner, attr, fn = _resolve(module, attribute)
        if "." in attribute:
            out.append((owner, attr, fn, group, "class"))
            continue
        for mod in _modules():
            for name, value in vars(mod).items():
                if value is fn:
                    out.append((mod, name, fn, group, mod.__name__.rpartition(".")[2]))
    return out


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.payload: dict[int, int] = {}
        self.job_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _label(self, label: str) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    # The two wrappers inline the span bookkeeping: they sit on the hottest
    # calls (multiply, Diagram.__init__), where a helper call would add
    # measurable overhead.

    def _wrap_call(self, fn, label: str, size=None):
        nid = self._label(label)
        name, parent, job, start, end = self.name, self.parent, self.job, self.start, self.end
        stack, payload, clock, tracer = self._stack, self.payload, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            job.append(tracer.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if size is not None:
                payload[idx] = size(out)
            return out

        return wrapper

    def _wrap_gen(self, fn, label: str):
        nid = self._label(label)
        name, parent, job, start, end = self.name, self.parent, self.job, self.start, self.end
        stack, payload, clock, tracer = self._stack, self.payload, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(start)
                name.append(nid)
                parent.append(stack[-1])
                job.append(tracer.job_id)
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    payload[idx] = EXHAUSTED
                    return
                finally:
                    end[idx] = clock()
                    stack.pop()
                yield item

        return wrapper

    def install(self) -> None:
        """Replace every binding listed by :func:`bindings` with a wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        kinds = {group: kind for _, _, group, kind in TARGETS}
        for where, name, fn, group, site in bindings():
            label = f"{group}@{site}"
            if kinds[group] == "gen":
                wrapper = self._wrap_gen(fn, label)
            else:
                wrapper = self._wrap_call(fn, label, RESULT_SIZE.get(group))
            self._patches.append((where, name, fn))
            setattr(where, name, wrapper)

    def uninstall(self) -> None:
        for where, name, fn in reversed(self._patches):
            setattr(where, name, fn)
        self._patches.clear()

    def truncate(self, lo: int) -> None:
        """Drop the spans from index ``lo`` on (after they were reduced)."""
        for arr in (self.name, self.parent, self.job, self.start, self.end):
            del arr[lo:]
        for key in [k for k in self.payload if k >= lo]:
            del self.payload[key]

    # -- output ----------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {
            "labels": self.labels,
            "count": len(self.start),
            "payload": sorted(self.payload.items()),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.job, self.start, self.end):
                arr.tofile(fh)


def load(path: Path) -> Tracer:
    """Read back a file written by :meth:`Tracer.dump`."""
    out = Tracer()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out.labels = header["labels"]
        count = header["count"]
        for arr in (out.name, out.parent, out.job, out.start, out.end):
            arr.fromfile(fh, count)
    out.payload = {int(k): v for k, v in header["payload"]}
    return out


def self_times(t: Tracer, lo: int = 0) -> list[float]:
    """Self time of each span from index ``lo`` on: its duration minus the
    time covered by its direct children.

    Spans nest strictly in a single thread, so the children of a span are
    disjoint sub-intervals of it and their durations can simply be summed.
    """
    start, end, parent = t.start, t.end, t.parent
    child = [0.0] * (len(start) - lo)
    for i in range(lo, len(start)):
        p = parent[i]
        if p >= lo:
            child[p - lo] += end[i] - start[i]
    return [end[i] - start[i] - child[i - lo] for i in range(lo, len(start))]


def job_quantities(t: Tracer, lo: int = 0) -> dict[str, float]:
    """Totals over the spans from index ``lo`` on (one job's spans).

    ``<group>.calls``, ``.self_s`` and ``.total_s`` for every group, plus the
    counts the ratio metrics are built from.
    """
    split = [label.partition("@") for label in t.labels]
    q: dict[str, float] = defaultdict(float)
    for i, own in enumerate(self_times(t, lo), start=lo):
        group, _, site = split[t.name[i]]
        p = t.parent[i]
        parent_group = split[t.name[p]][0] if p >= 0 else None
        payload = t.payload.get(i)
        q[group + ".calls"] += 1
        q[group + ".self_s"] += own
        q[group + ".total_s"] += t.end[i] - t.start[i]
        if group == "partitions.multiply" and site == "engine":
            key = "closure" if parent_group == "engine.closure" else "table"
            q[f"engine.{key}.multiplies"] += 1
        elif group == "engine.closure":
            q["engine.closure.elements"] += payload or 0  # no payload when the call raised
        elif group == "presentations.enumerate_presented":
            q["presentations.enumerate_presented.nodes"] += payload or 0
        elif group == "presentations.target_elements":
            q["presentations.target_elements.kept"] += payload or 0
        elif payload != EXHAUSTED and parent_group == "presentations.target_elements" and group in (
            "partitions.all_diagrams", "equivalences.all_equivalences"
        ):
            q["presentations.target_elements.drawn"] += 1
    return dict(q)
