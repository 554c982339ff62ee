"""Spans around the simulator's public functions, and the layer metrics they give.

`Tracer.install` replaces each function in TRACED, in every namespace its
callers look it up in, with a wrapper that records a span (name, start,
end, parent, tag) in memory. The per-block `WithdrawalQueue.process_block`
is the exception: it runs millions of times per workload, so its wrapper
keeps only counters and summed time. `Tracer.dump` writes everything out
once, when the traced process ends; `layer_metrics` turns a dump into the
per-layer metrics. `Counter` is the untraced run's stand-in: it counts
transactions and blocks and reads no clock.

A span's self time is its duration minus the durations of its direct
children. Calls never overlap (the simulator is single-threaded), so the
children of a span never overlap each other either.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns

# (layer, public name, namespaces the callers look it up in, attribute)
# A namespace is "module" for a module-level function or "module:Class" for
# a method. Each entry becomes one span name.
TRACED = (
    ("scenario", "parse_scenario", ("cli", "scenario"), "parse_scenario"),
    ("runner", "ScenarioRunner.run", ("runner:ScenarioRunner",), "run"),
    ("runner", "run_differential", ("cli", "runner"), "run_differential"),
    ("runner", "RunReport.to_text", ("runner:RunReport",), "to_text"),
    ("runner", "DiffResult.to_text", ("runner:DiffResult",), "to_text"),
    ("ledger", "Ledger.apply_transaction", ("ledger:Ledger",), "apply_transaction"),
    ("ledger", "Ledger.advance_blocks", ("ledger:Ledger",), "advance_blocks"),
    ("ledger", "Ledger.state_digest", ("ledger:Ledger",), "state_digest"),
    ("staking", "simulate_drain", ("cli", "runner", "staking"), "simulate_drain"),
    ("tba", "TbaRegistry.get_deployed", ("tba:TbaRegistry",), "get_deployed"),
    ("tba", "TbaRegistry.compute_address", ("tba:TbaRegistry",), "compute_address"),
    ("tba", "diagnostic_lines", ("runner", "tba"), "diagnostic_lines"),
    ("cli", "DrainTrace.trace_lines", ("staking:DrainTrace",), "trace_lines"),
)


def _tag(name: str, args: tuple, result) -> object:
    """The one fact a span keeps about its call, for the layer metrics."""
    if name == "parse_scenario":
        return len(result.steps)
    if name == "Ledger.apply_transaction":
        return "c" if result.committed else "r"
    if name == "Ledger.advance_blocks":
        return args[1]
    if name == "Ledger.state_digest":
        return len(args[0].state.accounts)
    if name == "simulate_drain":
        return len(result.per_block)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, tag]
        self.stack: list[int] = []
        self.marks: list[int] = []    # span count at the start of each CLI invocation
        self.blocks = {"calls": 0, "idle": 0, "missed": 0, "busy": 0,
                       "withdrawals": 0, "max_per_block": 0, "ns": 0}

    def mark_invocation(self) -> None:
        self.marks.append(len(self.spans))

    def wrap(self, name: str, function):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter_ns()
            spans[index][4] = _tag(name, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, function):
        """A span from the call to exhaustion; the consumer's work in between counts."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1, None])
            try:
                yield from function(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter_ns()

        return traced

    def count_blocks(self, function):
        counts = self.blocks

        def counted(queue, config, rng):
            pending = len(queue.pending)
            start = perf_counter_ns()
            processed = function(queue, config, rng)
            counts["ns"] += perf_counter_ns() - start
            counts["calls"] += 1
            if not pending:
                counts["idle"] += 1
            elif not processed:
                counts["missed"] += 1
            else:
                counts["busy"] += 1
                counts["withdrawals"] += len(processed)
                counts["max_per_block"] = max(counts["max_per_block"], len(processed))
            return processed

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"spans": self.spans, "marks": self.marks,
                       "blocks": self.blocks}, out)

    def install(self, modules: dict) -> None:
        _install(modules, {name: self.wrap for _, name, _, _ in TRACED}
                 | {"DrainTrace.trace_lines": self.wrap_generator})
        queue = modules["staking"].WithdrawalQueue
        queue.process_block = self.count_blocks(queue.process_block)


class Counter:
    """What the untraced run needs to know about the work done: three bare
    counters, each bumped once per call, and no clock reads."""

    COUNTED = ("Ledger.apply_transaction", "Ledger.advance_blocks", "simulate_drain")

    def __init__(self):
        self.counts = {"tx": 0, "ledger_blocks": 0, "drain_blocks": 0}

    def wrap(self, name: str, function):
        counts = self.counts
        if name == "Ledger.apply_transaction":
            def counted(*args, **kwargs):
                counts["tx"] += 1
                return function(*args, **kwargs)
        elif name == "Ledger.advance_blocks":
            def counted(ledger, count):
                counts["ledger_blocks"] += count
                return function(ledger, count)
        else:
            def counted(*args, **kwargs):
                trace = function(*args, **kwargs)
                counts["drain_blocks"] += len(trace.per_block)
                return trace
        return counted

    def install(self, modules: dict) -> None:
        _install(modules, {name: self.wrap for name in self.COUNTED})


def _install(modules: dict, wrappers: dict) -> None:
    """Replace each function named in `wrappers` wherever its callers look it up.

    `modules` maps short names ("cli", "ledger", ...) to the imported
    `nftaa_sim` modules. A missing name raises AttributeError: the benchmark
    must fail rather than silently report a layer as idle.
    """
    for _layer, name, namespaces, attribute in TRACED:
        if name not in wrappers:
            continue
        for namespace in namespaces:
            module_name, _, class_name = namespace.partition(":")
            owner = modules[module_name]
            if class_name:
                owner = getattr(owner, class_name)
            setattr(owner, attribute, wrappers[name](name, getattr(owner, attribute)))


# ---------------------------------------------------------------------------
# Analysis of a dump
# ---------------------------------------------------------------------------

def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * fraction // 1))
    return sorted_values[int(rank) - 1]


def layer_metrics(dump: dict, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as name -> (value, unit), from one traced process.

    `wall_s` is the traced process's time inside the CLI entry point. The
    first CLI invocation is the workload's main one: transaction growth and
    world size are read from its spans only.
    """
    spans = dump["spans"]
    first_end = dump["marks"][1] if len(dump["marks"]) > 1 else len(spans)
    duration = [(end - start) / 1e9 for _, start, end, _, _ in spans]
    child_s = [0.0] * len(spans)
    top_level_s = 0.0
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for index, (name, _, _, parent, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + duration[index]
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_s[parent] += duration[index]
        else:
            top_level_s += duration[index]

    def busy(name: str) -> float:
        return total.get(name, 0.0)

    def self_time(name: str) -> float:
        return sum(duration[i] - child_s[i] for i, span in enumerate(spans)
                   if span[0] == name)

    def tags(name: str, limit: int | None = None) -> list:
        return [span[4] for span in spans[:limit] if span[0] == name]

    applies = [(duration[i] * 1e6, span[4]) for i, span in enumerate(spans)
               if span[0] == "Ledger.apply_transaction"]
    commits = sorted(us for us, status in applies if status == "c")
    rollbacks = sorted(us for us, status in applies if status == "r")
    main = [duration[i] * 1e6 for i, span in enumerate(spans[:first_end])
            if span[0] == "Ledger.apply_transaction"]
    tenth = max(1, len(main) // 10)
    growth = (statistics.median(main[-tenth:]) / statistics.median(main[:tenth])
              if main else 0.0)
    blocks = dump["blocks"]
    tx = len(applies)
    return {
        "scenario.parse_s": (busy("parse_scenario"), "s"),
        "scenario.steps": (sum(tags("parse_scenario")), "count"),
        "runner.self_s": (self_time("ScenarioRunner.run"), "s"),
        "runner.diff_self_s": (self_time("run_differential"), "s"),
        "runner.render_s": (busy("RunReport.to_text") + busy("DiffResult.to_text"), "s"),
        "ledger.tx": (tx, "count"),
        "ledger.tx_committed": (len(commits), "count"),
        "ledger.tx_rolled_back": (len(rollbacks), "count"),
        "ledger.commit_ratio": (len(commits) / tx if tx else 0.0, "ratio"),
        "ledger.apply_s": (busy("Ledger.apply_transaction"), "s"),
        "ledger.commit_p50_us": (_percentile(commits, 0.5), "us"),
        "ledger.commit_p99_us": (_percentile(commits, 0.99), "us"),
        "ledger.commit_n": (len(commits), "count"),
        "ledger.rollback_p50_us": (_percentile(rollbacks, 0.5), "us"),
        "ledger.rollback_p99_us": (_percentile(rollbacks, 0.99), "us"),
        "ledger.rollback_n": (len(rollbacks), "count"),
        "ledger.tx_growth": (growth, "ratio"),
        "ledger.accounts_end": (max(tags("Ledger.state_digest", first_end), default=0),
                                "count"),
        "ledger.advance_s": (busy("Ledger.advance_blocks"), "s"),
        "ledger.blocks_advanced": (sum(tags("Ledger.advance_blocks")), "count"),
        "ledger.digest_s": (busy("Ledger.state_digest"), "s"),
        "staking.busy_blocks": (blocks["busy"], "count"),
        "staking.idle_blocks": (blocks["idle"], "count"),
        "staking.missed_slots": (blocks["missed"], "count"),
        "staking.withdrawals": (blocks["withdrawals"], "count"),
        "staking.max_per_block": (blocks["max_per_block"], "count"),
        "staking.process_block_s": (blocks["ns"] / 1e9, "s"),
        "staking.simulate_drain_s": (busy("simulate_drain"), "s"),
        "staking.drain_blocks": (sum(tags("simulate_drain")), "count"),
        "tba.get_deployed": (calls.get("TbaRegistry.get_deployed", 0), "count"),
        "tba.compute_address": (calls.get("TbaRegistry.compute_address", 0), "count"),
        "tba.diagnostics_s": (busy("diagnostic_lines"), "s"),
        "cli.trace_render_s": (busy("DrainTrace.trace_lines"), "s"),
        "cli.self_s": (wall_s - top_level_s, "s"),
        "trace.top_level_s": (top_level_s, "s"),
    }
