"""Each module stays below the size where compiling it costs more memory.

Without cached bytecode every ``python -m diagcalc`` child compiles from
source the modules its command loads (``diagcalc`` imports its submodules
lazily, and the CLI imports ``laws``, ``presentations`` and ``render`` only
in the commands that use them).  Compiling a module of more than about 8,190 tokens
takes about 0.5 MB more peak memory (``tracemalloc`` around ``compile()``,
CPython 3.11), and in a short CLI run that becomes the peak RSS.  The
tokens are counted as ``tokenize`` yields them, without comments and
without the newlines of blank or continued lines.
"""

import tokenize
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "diagcalc").glob("*.py"))
TOKEN_LIMIT = 8_100


def code_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        skipped = (tokenize.ENCODING, tokenize.COMMENT, tokenize.NL)
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in skipped)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_stays_below_the_compile_cliff(path):
    assert code_tokens(path) <= TOKEN_LIMIT, path.name
