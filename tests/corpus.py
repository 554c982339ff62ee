"""The bundled scenario scripts, listed once for every test that walks them.

`CORPUS` is every script under `scenarios/`, the native ones and those of
`scenarios/diff/`, in path order. `PINNED` holds the scripts kept next to the
golden transcripts, which reach runner paths the corpus does not. `SCRIPTS`
is both. `_stdout` runs one CLI call through `cli.main` and gives its stdout
followed by an `exit=<code>` line. `event_logs` gives the event logs the
event tests walk. The module needs no pytest, so `tests.transcripts` runs
without it.
"""

import contextlib
import io
from pathlib import Path

from nftaa_sim import parse_scenario, run_scenario
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


def event_logs() -> list[list]:
    """The event log of each script of `SCRIPTS` and of `gen.spot` at seeds 1, 7 and 11,
    run in each lane, and of one 200-step fuzz run at seed 5."""
    # imported here: `tests.transcripts` imports this module with another version's program,
    # and the fuzz driver's helpers need this one's
    from tests.fuzz_engine import FuzzDriver
    from tests.perfbench_modules import load

    texts = [path.read_text() for path in SCRIPTS] + [load("gen").spot(seed).text
                                                      for seed in (1, 7, 11)]
    logs = []
    for text in texts:
        script = parse_scenario(text)
        logs += [run_scenario(script, lane=lane).events for lane in ("native", "nftaa", "tba")]
    driver = FuzzDriver(5)
    driver.run(200)
    logs.append(driver.ledger.events)
    return logs
