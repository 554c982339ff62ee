"""Every name the benchmark's tracer patches or reads still exists in nftaa_sim,
and a traced benchmark process records a span under each of them.

`perfbench/tracing.py` replaces the functions in its TRACED table by name,
plus `WithdrawalQueue.process_block`; its untraced `Counter` wraps the
TRACED entries named in `Counter.COUNTED`. Its span tags and counters read
attributes of the results. A rename, or a caller that holds a function
from before the patch, would otherwise surface only when someone runs the
benchmark.
"""

import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

from tests.corpus import ROOT
from tests.perfbench_modules import PERFBENCH, load


def test_every_traced_name_resolves():
    tracing = load("tracing")
    missing = []
    for _layer, name, namespaces, attribute in tracing.TRACED:
        for namespace in namespaces:
            module_name, _, class_name = namespace.partition(":")
            owner = importlib.import_module(f"nftaa_sim.{module_name}")
            if class_name:
                owner = getattr(owner, class_name, None)
            if not callable(getattr(owner, attribute, None)):
                missing.append(f"{name} in {namespace}")
    assert tracing.TRACED and not missing


def test_block_counter_and_counted_names_resolve():
    tracing = load("tracing")
    staking = importlib.import_module("nftaa_sim.staking")
    assert callable(getattr(staking.WithdrawalQueue, "process_block", None))
    traced = {name for _layer, name, _namespaces, _attribute in tracing.TRACED}
    assert tracing.Counter.COUNTED
    assert set(tracing.Counter.COUNTED) <= traced


def test_span_tags_and_counters_read_real_results():
    """`_tag` and `Counter` read attributes of what the simulator returns:
    `ScenarioScript.steps`, `TxReceipt.committed`, `DrainTrace.per_block` and
    `Ledger.state.accounts`. Each is read here through the benchmark's own
    wrapper around the real function, called on real objects. An untraced
    drain must count the same blocks as a traced one."""
    from nftaa_sim import Fail, Ledger, QueueConfig, TransferValue, scenario, simulate_drain

    tracing = load("tracing")
    tracer, counter = tracing.Tracer(), tracing.Counter()
    config = QueueConfig()
    ledger = Ledger(config)
    alice, bob = ledger.create_eoa("alice"), ledger.create_eoa("bob")
    ledger.faucet(alice, 10)
    script = tracer.wrap("parse_scenario", scenario.parse_scenario)("actor a\nadvance 3\n")
    apply = tracer.wrap("Ledger.apply_transaction", Ledger.apply_transaction)
    apply(ledger, TransferValue(alice, bob, 4))
    apply(ledger, Fail())
    tracer.wrap("Ledger.advance_blocks", Ledger.advance_blocks)(ledger, 3)
    tracer.wrap("Ledger.state_digest", Ledger.state_digest)(ledger)
    trace = tracer.wrap("simulate_drain", simulate_drain)(40, config)
    tracer.wrap("simulate_drain", simulate_drain)(40, config, trace=False)
    assert (len(script.steps), len(ledger.state.accounts), len(trace.per_block)) == (2, 6, 3)
    assert [span[4] for span in tracer.spans] == [2, "c", "r", 3, 6, 3, 3]

    counter.wrap("Ledger.apply_transaction", Ledger.apply_transaction)(ledger, Fail())
    counter.wrap("Ledger.advance_blocks", Ledger.advance_blocks)(ledger, 5)
    counter.wrap("simulate_drain", simulate_drain)(40, config)
    counter.wrap("simulate_drain", simulate_drain)(40, config, trace=False)
    assert counter.counts == {"tx": 1, "ledger_blocks": 5, "drain_blocks": 6}


def test_traced_worker_records_a_span_for_every_traced_name(tmp_path):
    """`perfbench/worker.py` in `traced` mode, in its own process, over one
    `run`, one `diff --verbose` and one `queue --simulate`. The runner's own
    calls of `simulate_drain` and `diagnostic_lines` must be spans inside
    `ScenarioRunner.run`: a runner that held either function from import time
    would bypass the patch and read as an idle layer."""
    script = tmp_path / "tiny.scn"
    script.write_text('actor alice\n'
                      'minttoken alice t1 "p"\n'
                      'createtba alice t1 0 b1\n'
                      'tbacall alice b1 noop\n'
                      'advance 2\n'
                      'probe locked\n'
                      'queue_report 160 simulate\n')
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([["run", str(script)], ["diff", "--verbose", str(script)],
                                ["queue", "--pending", "1600", "--simulate"]]))
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), str(plan), str(result),
                    str(time.monotonic_ns()), "traced"], cwd=ROOT, check=True, timeout=120)
    report = json.loads(result.read_text())
    assert [invocation["error"] for invocation in report["invocations"]] == [None] * 3
    spans = json.loads(Path(report["spans"]).read_text())["spans"]
    traced = {name for _layer, name, _namespaces, _attribute in load("tracing").TRACED}
    assert len(traced) == 13
    assert traced - {span[0] for span in spans} == set()
    in_runner = {span[0] for span in spans
                 if span[3] >= 0 and spans[span[3]][0] == "ScenarioRunner.run"}
    assert {"simulate_drain", "diagnostic_lines"} <= in_runner
