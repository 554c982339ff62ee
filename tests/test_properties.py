"""Cross-cutting invariants: hypothesis-driven unit properties plus a quick
randomized soak. The full-size fuzz runs live in the acceptance suite."""

from hypothesis import given, settings, strategies as st

from nftaa_sim import Ledger, MintNftaa, MintToken, QueueConfig, simulate_drain

from tests.fuzz_engine import run_sequence
from tests.ledger_helpers import must


@given(st.binary(min_size=1, max_size=256))
def test_any_legal_note_round_trips(note):
    ledger = Ledger()
    alice = ledger.create_eoa("alice")
    receipt = must(ledger, MintToken(alice, alice, note))
    token_id = receipt.events[0].payload["token_id"]
    assert ledger.token_note(token_id) == note


@given(st.binary(min_size=0, max_size=300))
def test_creation_note_bounds(note):
    ledger = Ledger()
    alice = ledger.create_eoa("alice")
    receipt = ledger.apply_transaction(MintNftaa(alice, note))
    assert receipt.committed == (1 <= len(note) <= 256)


@given(st.integers(min_value=0, max_value=5_000),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_drain_block_count_matches_ceiling(pending, cap):
    trace = simulate_drain(pending, QueueConfig(per_block_cap=cap))
    assert trace.blocks == -(-pending // cap)
    assert sum(trace.per_block) == pending
    assert all(p <= cap for p in trace.per_block)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_fuzz_sequence_invariants_hold(seed):
    # every invariant assertion lives inside the driver; surviving is passing
    run_sequence(seed, steps=12)


def test_soak_short():
    for seed in range(40):
        trace = run_sequence(seed, steps=20)
        assert trace.committed + trace.rolled_back == len(trace.receipts)
