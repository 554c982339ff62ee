"""The bundled scenario scripts, listed once for every test that walks them.

`CORPUS` is every script under `scenarios/`, the native ones and those of
`scenarios/diff/`, in path order. `PINNED` holds the scripts kept next to the
golden transcripts, which reach runner paths the corpus does not. `SCRIPTS`
is both.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"
CORPUS = sorted(SCENARIOS.glob("**/*.scn"))
PINNED = sorted(GOLDEN.glob("*.scn"))
SCRIPTS = CORPUS + PINNED
