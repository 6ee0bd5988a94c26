"""Each command loads only the modules its verdict uses.

``import diagcalc`` imports no submodule: the package namespace resolves
each public name on first use (PEP 562).  The CLI imports ``laws``,
``presentations`` and ``render`` inside the commands that need them, and
no command loads :mod:`dataclasses` or the stdlib modules it pulls in.  An
import regression then shows up here as a changed module set, not only as
a slower child.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diagcalc
from diagcalc import presentations
from diagcalc.partitions import SCHEMA_NAMES

SRC = str(Path(diagcalc.__file__).resolve().parents[1])
BASE = {"cli", "counting", "engine", "equivalences", "partitions"}

# one command line of each kind, with the submodules it must leave loaded
COMMANDS = [
    (["verify", "--target", "dn", "--n", "3"], BASE | {"presentations"}),
    (["enumerate", "--monoid", "dn", "--n", "3", "--format", "dot"], BASE),
    (["factorize", "[[1,2,-1],[3,-2],[-3]]", "--mode", "tn-en"], BASE | {"presentations"}),
    (["verify", "--target", "ehresmann", "--n", "2"], BASE | {"laws"}),
    (["verify", "--target", "theta-laws", "--n", "2"], BASE | {"laws"}),
    (["render", "[[1,2,-1],[-2]]"], BASE | {"render"}),
    (["enumerate", "--monoid", "pnfd", "--n", "2", "--format", "json"], BASE),
    (["enumerate", "--monoid", "pnfd", "--n", "2"], BASE),
]

# stdlib modules that ``dataclasses`` would load; no command may need them
HEAVY = ("dataclasses", "inspect", "dis", "ast", "tokenize")

LOADED = (
    "print(json.dumps(sorted(m.removeprefix('diagcalc.') for m in sys.modules\n"
    f"                        if m.startswith('diagcalc.') or m in {HEAVY!r})))"
)


def loaded_after(script: str, *args: str) -> set[str]:
    """The ``diagcalc`` submodules, and any of ``HEAVY``, loaded after the
    script ran; the probe itself imports only ``json`` and ``sys``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{script}\n{LOADED}", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv, expected", COMMANDS, ids=[" ".join(c) for c, _ in COMMANDS])
def test_command_loads_only_its_modules(tmp_path, argv, expected):
    script = (
        "import diagcalc.cli\n"
        "code = diagcalc.cli.main(sys.argv[1:])\n"
        "assert code == 0, code"
    )
    assert loaded_after(script, *argv, "--output", str(tmp_path / "out")) == expected


def test_import_diagcalc_loads_no_submodule():
    assert loaded_after("import diagcalc") == set()


def test_every_public_name_resolves_to_its_owner():
    star: dict = {}
    exec("from diagcalc import *", star)
    for name in diagcalc.__all__:
        if name == "__version__":
            continue
        owner = importlib.import_module(f"diagcalc.{diagcalc._OWNER[name]}")
        value = getattr(owner, name)
        assert getattr(diagcalc, name) is value, name
        assert star[name] is value, name
        # the table names the defining module, not one that re-exports
        assert getattr(value, "__module__", owner.__name__) == owner.__name__, name
    assert star["__version__"] == diagcalc.__version__


def test_namespace_listing_and_unknown_names():
    listed = dir(diagcalc)
    assert "__all__" in listed and "__version__" in listed
    assert set(diagcalc.__all__) <= set(listed)
    with pytest.raises(AttributeError, match="no_such_name"):
        diagcalc.no_such_name  # noqa: B018
    assert not hasattr(diagcalc, "laws_checker")


def test_lookups_are_not_cached(monkeypatch):
    from diagcalc import partitions

    real = diagcalc.multiply
    assert "multiply" not in vars(diagcalc)
    monkeypatch.setattr(partitions, "multiply", lambda a, b: None)
    assert diagcalc.multiply is partitions.multiply
    monkeypatch.undo()
    assert diagcalc.multiply is real


def test_schema_names_match_the_builders():
    assert tuple(presentations._BUILDERS) == SCHEMA_NAMES
    assert presentations.SCHEMA_NAMES is SCHEMA_NAMES
