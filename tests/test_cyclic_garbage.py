"""Runs leave nothing for the cyclic garbage collector.

A rolled-back transaction raises a `LedgerError` whose traceback holds every
frame it passed through. A frame on that traceback that also holds the error
in a plain local, directly or through its receipt, closes a cycle that only
the collector frees, and a run with many rollbacks then pays for collector
pauses. The CLI builds its parser once per process for the same reason.

With the collector off and the parser built by a first CLI call, each
`run_scenario`, `run_differential` and `cli.main` call over the corpus, the
failures script and a few generated `fraud_diff` scripts must leave
`gc.collect()` nothing to free.
"""

import contextlib
import gc
import io

from nftaa_sim import cli, parse_scenario
from nftaa_sim.runner import ROLLED_BACK, run_differential, run_scenario
from tests.corpus import SCRIPTS
from tests.perfbench_modules import load


def test_runs_leave_no_cyclic_garbage(tmp_path):
    for seed in (1, 2, 3):
        text = load("gen").fraud_diff(seed, actors=4, nftaas=4, tokens=4, transactions=40).text
        (tmp_path / f"fraud{seed}.scn").write_text(text)
    paths = SCRIPTS + sorted(tmp_path.glob("*.scn"))
    scripts = {path: parse_scenario(path.read_text()) for path in paths}
    left, rolled_back = {}, set()
    enabled = gc.isenabled()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", str(paths[0])])
            gc.collect()
            for path, script in scripts.items():
                diff = run_differential(script, path.stem)
                left[f"diff {path.name}"] = gc.collect()
                report = run_scenario(script, path.stem)
                left[f"run {path.name}"] = gc.collect()
                for command in ("run", "diff"):
                    cli.main([command, str(path)])
                    left[f"cli.main {command} {path.name}"] = gc.collect()
                for lane in (report, diff.nftaa, diff.tba):
                    if any(outcome.status == ROLLED_BACK for outcome in lane.outcomes):
                        rolled_back.add(lane.lane)
    finally:
        if enabled:
            gc.enable()
    assert rolled_back == {"native", "nftaa", "tba"}
    assert {call: objects for call, objects in left.items() if objects} == {}
