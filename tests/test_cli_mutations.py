"""Line-level mutants of the bundled scripts end in an exit code, never a traceback or a hang.

Each mutant starts from one corpus or pinned script and deletes, duplicates,
swaps or splices in (from any script) one to four lines. Most mutants no
longer parse; the rest reach the runner with labels, groups and expectations
out of their usual order. `run` and `diff` must each return 0, 1 or 2,
raise nothing, and finish in under a second.
"""

import contextlib
import io
import time

import pytest
from hypothesis import given, settings, strategies as st

from nftaa_sim import cli
from tests.corpus import SCRIPTS

SOURCES = [path.read_text().splitlines() for path in SCRIPTS]
LINES = sorted({line for lines in SOURCES for line in lines})


@st.composite
def mutants(draw) -> str:
    lines = list(draw(st.sampled_from(SOURCES)))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("delete", "duplicate", "swap", "splice")))
        if kind == "splice" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(LINES)))
            continue
        index = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[index]
        elif kind == "duplicate":
            lines.insert(index, lines[index])
        else:
            other = draw(st.integers(0, len(lines) - 1))
            lines[index], lines[other] = lines[other], lines[index]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def script_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant.scn"


@settings(max_examples=300, deadline=None)
@given(mutants())
def test_line_mutants_exit_cleanly(script_path, text):
    script_path.write_text(text)
    for command in ("run", "diff"):
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, str(script_path)])
        assert code in (0, 1, 2), (command, code)
        assert time.perf_counter() - started < 1.0, command
