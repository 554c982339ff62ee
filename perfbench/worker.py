"""One measured process: import the simulator, run a CLI plan, report.

    python3 perfbench/worker.py PLAN RESULT SPAWN_NS MODE

PLAN is a JSON list of CLI argument lists. SPAWN_NS is the parent's
`time.monotonic_ns()` just before it started this process, so that set-up
time covers interpreter start-up. MODE is one of:

* ``setup``  - stop once `nftaa_sim` is imported and the CLI parser built;
* ``plain``  - run the plan with three bare call counters (transactions,
  ledger blocks, drain blocks) and no clock reads inside the simulator;
* ``traced`` - run the plan with spans around every public function (see
  tracing.py) and write them next to RESULT at exit.

Each invocation goes through `nftaa_sim.cli.main` with stdout captured; the
captured text is written to RESULT's directory after the clock stops. The
process starts no thread and no other process.

Every process also times a fixed reference task (`reference_s`) after set-up
and after the plan. The speed of the shared machine drifts by up to 2x within
a minute, and the same drift slows the reference, so the benchmark divides it
out (see run.py).
"""

from __future__ import annotations

import collections
import contextlib
import copy
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

MODES = ("setup", "plain", "traced")


def _import_simulator(source: Path):
    """Import `nftaa_sim` from this checkout's `src`, never from elsewhere."""
    sys.path.insert(0, str(source))
    from nftaa_sim import cli, ledger, runner, scenario, staking, tba
    package = Path(cli.__file__).resolve().parent
    if package != (source / "nftaa_sim").resolve():
        raise ImportError(f"nftaa_sim imported from {package}, not from {source}")
    modules = {"cli": cli, "ledger": ledger, "runner": runner, "scenario": scenario,
               "staking": staking, "tba": tba}
    return cli, modules


class _Queue:
    def __init__(self, entries: int):
        self.pending = collections.deque(range(entries))

    def step(self, cap: int) -> list[int]:
        if not self.pending:
            return []
        return [self.pending.popleft() for _ in range(min(cap, len(self.pending)))]


def reference_s() -> float:
    """Host time of a fixed task shaped like the simulator's work: deep copies
    of a small world of records, per-block method calls on a queue, and
    hashing. It uses the standard library only and never changes."""
    world = {index: {"balance": index, "owner": index.to_bytes(20, "big"),
                     "tokens": [index, index + 1], "note": f"acct {index}"}
             for index in range(1000)}
    idle = _Queue(0)
    start = time.perf_counter()
    for _ in range(12):
        copy.deepcopy(world)
    for _ in range(75):    # small queues, so the task barely moves peak memory
        busy = _Queue(1600)
        while busy.pending:
            busy.step(16)
    for _ in range(120_000):
        idle.step(16)
    digest = hashlib.sha256()
    for index in range(60_000):
        digest.update(index.to_bytes(8, "big"))
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    plan_path, result_path, spawn_ns, mode = argv
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}")
    cli, modules = _import_simulator(Path.cwd() / "src")
    cli.build_parser()
    setup_s = (time.monotonic_ns() - int(spawn_ns)) / 1e9
    result: dict = {"setup_s": setup_s, "ref_setup_s": reference_s()}
    if mode != "setup":
        result.update(_run_plan(cli, modules, Path(plan_path), Path(result_path), mode))
    Path(result_path).write_text(json.dumps(result))
    return 0


def _run_plan(cli, modules: dict, plan_path: Path, result_path: Path, mode: str) -> dict:
    from tracing import Counter, Tracer

    recorder = Tracer() if mode == "traced" else Counter()
    recorder.install(modules)
    invocations = []
    outputs = []
    for args in json.loads(plan_path.read_text()):
        if mode == "traced":
            recorder.mark_invocation()
        captured = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(list(args))
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else int(stop.code is not None)
        except Exception:   # an exception escaping the simulator is a failure to report
            code, error = None, traceback.format_exc()
        wall_s = time.perf_counter() - start
        text = captured.getvalue()
        outputs.append(text)
        invocations.append({"argv": args, "exit": code, "error": error, "wall_s": wall_s,
                            "bytes": len(text.encode()),
                            "sha256": hashlib.sha256(text.encode()).hexdigest()})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stem = result_path.with_suffix("")
    for index, text in enumerate(outputs):
        Path(f"{stem}.out{index}").write_text(text)
    result = {"invocations": invocations, "peak_rss_mb": peak_rss_mb,
              "ref_end_s": reference_s()}
    if mode == "traced":
        spans_path = f"{stem}.spans.json"
        recorder.dump(spans_path)
        result["spans"] = spans_path
    else:
        result["counts"] = recorder.counts
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
