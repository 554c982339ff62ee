"""The bundled scenario scripts, listed once for every test that walks them.

`CORPUS` is every script under `scenarios/`, the native ones and those of
`scenarios/diff/`, in path order. `PINNED` holds the scripts kept next to the
golden transcripts, which reach runner paths the corpus does not. `SCRIPTS`
is both. `_stdout` runs one CLI call through `cli.main` and gives its stdout
followed by an `exit=<code>` line. The module needs no pytest, so
`tests.transcripts` runs without it.
"""

import contextlib
import io
from pathlib import Path

from nftaa_sim.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"
CORPUS = sorted(SCENARIOS.glob("**/*.scn"))
PINNED = sorted(GOLDEN.glob("*.scn"))
SCRIPTS = CORPUS + PINNED


def _stdout(argv: list[str]) -> str:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = main(argv)
    return f"{captured.getvalue()}exit={code}\n"
