"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import statistics
import time

import pytest

from nftaa_sim import (
    EventKind,
    QueueConfig,
    parse_scenario,
    run_differential,
    run_scenario,
    simulate_drain,
    simulate_saturated_days,
)
from nftaa_sim.cli import main

from tests.corpus import CORPUS, SCENARIOS
from tests.fuzz_engine import replay_owner_gate, run_sequence

FIVE = ["flow", "validations", "staking", "attributes", "proxy"]
DIFFS = ["fraud", "creation", "binding", "selflock", "counterfactual"]


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def _run_bundled(stem):
    path = SCENARIOS / f"{stem}.scn"
    return run_scenario(parse_scenario(path.read_text()), name=stem)


def _run_diff(stem):
    path = SCENARIOS / "diff" / f"{stem}.scn"
    return run_differential(parse_scenario(path.read_text()), name=stem)


# -- criterion 1: queue arithmetic, exact ----------------------------------

def test_c1_queue_arithmetic_exact(capsys):
    started = time.monotonic()
    assert main(["queue", "--pending", "115200", "--missed-prob", "0"]) == 0
    closed_day = capsys.readouterr().out
    assert "drained_in_blocks=7200 days=1.000" in closed_day

    assert main(["queue", "--pending", "800000"]) == 0
    closed_week = capsys.readouterr().out
    assert "drained_in_blocks=50000 days=6.944" in closed_week

    assert main(["queue", "--pending", "115200", "--missed-prob", "0",
                 "--simulate", "--no-trace"]) == 0
    assert "drained_in_blocks=7200 days=1.000" in capsys.readouterr().out

    assert main(["queue", "--pending", "800000", "--simulate", "--no-trace"]) == 0
    assert "drained_in_blocks=50000 days=6.944" in capsys.readouterr().out

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"simulated mode took {elapsed:.2f}s"
    _report("C1 queue arithmetic (115200 -> 1.000 days, 800000 -> 50000 blocks / 6.944 days)")


# -- criterion 2: per-block cap, property -----------------------------------

def test_c2_per_block_cap_never_exceeded():
    for pending in (0, 1, 15, 16, 17, 160, 10_007):
        trace = simulate_drain(pending, QueueConfig())
        assert all(processed <= 16 for processed in trace.per_block), pending
        assert sum(trace.per_block) == pending
        # a missed-slot run must respect the cap too
        noisy = simulate_drain(pending, QueueConfig(missed_slot_probability=0.25,
                                                    rng_seed=pending))
        assert all(processed <= 16 for processed in noisy.per_block), pending
        assert sum(noisy.per_block) == pending
    _report("C2 per-block cap of 16 (pending in {0,1,15,16,17,160,10007})")


def test_c2b_cap_holds_in_ledger_event_log():
    # end to end: withdrawal events per block never exceed the cap
    report = _run_bundled("staking")
    per_block = {}
    for event in report.events:
        if event.kind is EventKind.WITHDRAWAL_PROCESSED:
            per_block[event.block] = per_block.get(event.block, 0) + 1
    assert per_block and max(per_block.values()) <= 16
    _report("C2b cap visible in the committed event log")


# -- criterion 3: missed-slot throughput, statistical ------------------------

def test_c3_missed_slot_throughput():
    started = time.monotonic()
    config = QueueConfig(missed_slot_probability=0.1, rng_seed=2024)
    days = simulate_saturated_days(10_000, config)
    mean = statistics.fmean(days)
    target = 115_200 * 0.9  # 103,680
    assert abs(mean - target) / target < 0.02, mean
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"statistical run took {elapsed:.2f}s"
    _report(f"C3 mean daily throughput {mean:.0f} within 2% of 103680 "
            f"({elapsed:.1f}s)")


# -- criterion 4: harness parity with the five scenario groups ---------------

def test_c4_five_scenarios_cover_eleven_behaviors():
    reports = {stem: _run_bundled(stem) for stem in FIVE}
    for stem, report in reports.items():
        assert report.exit_code == 0, f"{stem} failed: " + "; ".join(
            v.description for v in report.verdicts if not v.passed)

    verdicts = [v for r in reports.values() for v in r.verdicts if v.passed]
    events = [e for r in reports.values() for e in r.events]
    descriptions = " | ".join(v.description for v in verdicts)
    kinds = {e.kind for e in events}

    behaviors = {
        "new-nftaa-event": "event NewNFTAA present" in descriptions,
        "binding-check": "account of" in descriptions,
        "empty-note-revert": "expected EmptyNote, got EmptyNote" in descriptions,
        "oversize-note-revert": "expected NoteTooLarge, got NoteTooLarge" in descriptions,
        "stake": EventKind.STAKED in kinds and "stake of" in descriptions,
        "add-to-stake": EventKind.STAKE_INCREASED in kinds,
        "unstake-after-unlock": EventKind.UNSTAKE_REQUESTED in kinds
                                and EventKind.WITHDRAWAL_PROCESSED in kinds,
        "unstake-before-unlock-rejected": "expected StillLocked, got StillLocked"
                                          in descriptions,
        "bound-nft-readback": "bound token of" in descriptions,
        "note-readback": "note of" in descriptions,
        "non-owner-proxy-rejected+response": "expected NotNftOwner, got NotNftOwner"
                                             in descriptions
                                             and EventKind.PROXY_RESPONSE in kinds,
    }
    missing = [name for name, seen in behaviors.items() if not seen]
    assert not missing, f"behaviors not evidenced: {missing}"
    assert len(behaviors) >= 11
    _report("C4 five scenarios exit 0 and cover 11 behaviors")


# -- criterion 5: the documented differences, mechanized ----------------------

def test_c5a_drain_and_sell():
    result = _run_diff("fraud")
    assert result.exit_code == 0
    entry = next(e for e in result.entries if e.claim == "fraud-guard")
    assert "rolled_back:FraudGuard" in entry.nftaa
    assert entry.tba.startswith("committed")
    _report("C5a drain+sell: FraudGuard rollback vs committed")


def test_c5b_creation_atomicity_residue():
    result = _run_diff("creation")
    assert result.exit_code == 0
    assert "creation-atomicity" in result.claims
    # residue probes: nothing vs an accountless token
    probe_a = next(o for o in result.nftaa.outcomes if o.kind == "probe")
    probe_b = next(o for o in result.tba.outcomes if o.kind == "probe")
    assert probe_a.detail == "tokens=0 bindings=0 tba_accounts=0"
    assert probe_b.detail == "tokens=1 bindings=0 tba_accounts=0"
    # and the successful path differs in transaction count (1 vs 2)
    shapes = [e for e in result.entries if e.kind == "mintnftaa"]
    assert any("txs=1" in e.nftaa and "txs=2" in e.tba for e in shapes)
    _report("C5b creation atomicity: zero residue vs accountless NFT")


def test_c5c_binding_visibility():
    result = _run_diff("binding")
    assert result.exit_code == 0
    entry = next(e for e in result.entries if e.claim == "binding-visibility")
    assert "binding=none" in entry.tba
    assert "binding=none" not in entry.nftaa and "binding=" in entry.nftaa
    _report("C5c binding visibility: readable vs silent token")


def test_c5d_self_send():
    result = _run_diff("selflock")
    assert result.exit_code == 0
    entry = next(e for e in result.entries if e.kind == "transfernftaa")
    assert "SelfCustodyHazard" in entry.nftaa
    assert entry.tba.startswith("committed")
    locked_probe = next(o for o in result.tba.outcomes
                        if o.kind == "probe" and "diagnostics=" in o.detail)
    assert "locked nft=" in locked_probe.detail
    _report("C5d self-send: rejected vs locked-and-reported")


def test_c5e_counterfactual_addresses():
    result = _run_diff("counterfactual")
    assert result.exit_code == 0
    probes = [o.detail.removeprefix("tba_address=")
              for o in result.tba.outcomes
              if o.kind == "probe" and o.detail.startswith("tba_address=")]
    assert len(probes) == 2 and probes[0] == probes[1]
    created = next(e for e in result.tba.events if e.kind is EventKind.TBA_CREATED)
    assert created.payload["account"] == probes[0]
    nftaa_probe = next(o for o in result.nftaa.outcomes if o.kind == "probe")
    assert nftaa_probe.code == "NotComparable"
    _report("C5e counterfactual address equal pre/post deployment")


# -- criterion 6: fuzzed property suites --------------------------------------

def test_c6_thousand_random_sequences():
    started = time.monotonic()
    committed = rolled_back = proxy_checks = fraud_rollbacks = locked_steps = 0
    for seed in range(1_000):
        trace = run_sequence(seed, steps=18)
        committed += trace.committed
        rolled_back += trace.rolled_back
        locked_steps += trace.locked_steps
        proxy_checks += replay_owner_gate(trace)
        fraud_rollbacks += sum(
            1 for _, _, receipt in trace.receipts
            if not receipt.committed and receipt.error.code.value == "FraudGuard")
    elapsed = time.monotonic() - started
    # the invariants themselves (rollback purity, conservation, bijection,
    # fraud exclusion, owner-gate replay, lock diagnostic) are asserted inside the driver
    assert committed > 2_000 and rolled_back > 2_000
    assert proxy_checks > 200, "owner gate barely exercised"
    assert fraud_rollbacks > 100, "fraud guard barely exercised"
    assert locked_steps > 100, "self-locks barely exercised"
    assert elapsed < 60.0, f"fuzz took {elapsed:.2f}s"
    _report(f"C6 1000 sequences ({committed} committed, {rolled_back} rolled back, "
            f"{proxy_checks} gate replays, {fraud_rollbacks} fraud rollbacks, "
            f"{locked_steps} steps with a locked token, "
            f"{elapsed:.1f}s)")


# -- criterion 7: determinism over the scenario corpus ------------------------

def test_c7_repository_corpus_is_deterministic():
    native = [path for path in CORPUS if path.parent == SCENARIOS]
    diffs = [path for path in CORPUS if path.parent == SCENARIOS / "diff"]
    assert len(native) >= 5 and len(diffs) >= 5
    for path in native:
        script = parse_scenario(path.read_text())
        first = run_scenario(script, name=path.stem, seed=7).to_text()
        second = run_scenario(script, name=path.stem, seed=7).to_text()
        assert first.encode() == second.encode(), path.name
    for path in diffs:
        script = parse_scenario(path.read_text())
        first = run_differential(script, name=path.stem, seed=7).to_text()
        second = run_differential(script, name=path.stem, seed=7).to_text()
        assert first.encode() == second.encode(), path.name
    _report(f"C7 {len(native) + len(diffs)} corpus scenarios byte-identical "
            "across repeated runs")
