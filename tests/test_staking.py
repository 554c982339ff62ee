"""Stake lifecycle and the capped, missable withdrawal queue."""

import math
import random
import statistics
import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from nftaa_sim import (
    BLOCKS_PER_DAY,
    ETH,
    MIN_STAKE,
    PER_BLOCK_CAP,
    ErrorCode,
    EventKind,
    Fail,
    Ledger,
    ProxyExecute,
    ProxyPayload,
    QueueConfig,
    StakePosition,
    TransferValue,
    WithdrawalQueue,
    estimate_drain_time,
    simulate_drain,
    simulate_saturated_days,
)
from nftaa_sim.cli import main
from nftaa_sim.staking import DRAW_BATCH, MAX_DRAIN_BLOCKS, binomial_variate, draw_until
from tests.ledger_helpers import advance_block, mint_nftaa, must, queued_amount, slot_missed


@pytest.fixture
def staked_world():
    ledger = Ledger(QueueConfig(unlock_delay=10))
    alice = ledger.create_eoa("alice")
    ledger.faucet(alice, 200 * ETH)
    _, account = mint_nftaa(ledger, alice, b"stake")
    must(ledger, TransferValue(alice, account, 100 * ETH))
    return ledger, alice, account


def _proxy(ledger, caller, account, method, **kwargs):
    return ledger.apply_transaction(ProxyExecute(caller, account, ProxyPayload(method, **kwargs)))


def test_constants_are_consistent():
    assert MIN_STAKE == 32 * 10**18
    assert PER_BLOCK_CAP == 16
    assert BLOCKS_PER_DAY == 7_200
    assert PER_BLOCK_CAP * BLOCKS_PER_DAY == 115_200  # daily ceiling


def test_stake_exact_threshold(staked_world):
    ledger, alice, account = staked_world
    receipt = _proxy(ledger, alice, account, "stake", amount=32 * ETH)
    assert receipt.committed
    assert ledger.stake_balance_of(account) == 32 * ETH
    assert ledger.balance_of(account) == 68 * ETH
    staked = [e for e in receipt.events if e.kind is EventKind.STAKED]
    assert staked[0].payload["unlock_block"] == 10


def test_stake_below_threshold(staked_world):
    ledger, alice, account = staked_world
    receipt = _proxy(ledger, alice, account, "stake", amount=32 * ETH - 1)
    assert receipt.error.code is ErrorCode.BELOW_MIN_STAKE


def test_double_stake_rejected(staked_world):
    ledger, alice, account = staked_world
    _proxy(ledger, alice, account, "stake", amount=32 * ETH)
    receipt = _proxy(ledger, alice, account, "stake", amount=32 * ETH)
    assert receipt.error.code is ErrorCode.ALREADY_STAKING


def test_add_to_stake_keeps_unlock(staked_world):
    ledger, alice, account = staked_world
    _proxy(ledger, alice, account, "stake", amount=32 * ETH)
    unlock_before = ledger.state.stakes[account].unlock_block
    receipt = _proxy(ledger, alice, account, "add_to_stake", amount=ETH)
    assert receipt.committed
    assert ledger.stake_balance_of(account) == 33 * ETH
    assert ledger.state.stakes[account].unlock_block == unlock_before


def test_add_to_stake_requires_position(staked_world):
    ledger, alice, account = staked_world
    receipt = _proxy(ledger, alice, account, "add_to_stake", amount=ETH)
    assert receipt.error.code is ErrorCode.NO_POSITION


def test_add_zero_rejected(staked_world):
    ledger, alice, account = staked_world
    _proxy(ledger, alice, account, "stake", amount=32 * ETH)
    receipt = _proxy(ledger, alice, account, "add_to_stake", amount=0)
    assert receipt.error.code is ErrorCode.ZERO_AMOUNT


def test_stake_then_add_then_read(staked_world):
    # conservation oracle across the account/position boundary
    ledger, alice, account = staked_world
    total_before = ledger.balance_of(account) + ledger.stake_balance_of(account)
    _proxy(ledger, alice, account, "stake", amount=32 * ETH)
    _proxy(ledger, alice, account, "add_to_stake", amount=5 * ETH)
    assert ledger.stake_balance_of(account) == 37 * ETH
    assert ledger.balance_of(account) + ledger.stake_balance_of(account) == total_before


def test_unstake_boundary_inclusive(staked_world):
    ledger, alice, account = staked_world
    _proxy(ledger, alice, account, "stake", amount=32 * ETH)
    ledger.advance_blocks(9)
    receipt = _proxy(ledger, alice, account, "request_unstake")
    assert receipt.error.code is ErrorCode.STILL_LOCKED
    assert receipt.error.detail["remaining_blocks"] == 1
    ledger.advance_blocks(1)  # height == unlock block
    receipt = _proxy(ledger, alice, account, "request_unstake")
    assert receipt.committed
    assert ledger.stake_balance_of(account) == 0
    assert queued_amount(ledger.state.queue) == 32 * ETH


def test_rolled_back_stake_and_add_restore_balance_and_position(staked_world):
    ledger, alice, account = staked_world
    digest = ledger.state_digest()

    def call(method, amount):
        return ProxyExecute(alice, account, ProxyPayload(method, amount=amount))

    receipt = ledger.apply_transaction(call("stake", 32 * ETH), call("add_to_stake", ETH), Fail())
    assert not receipt.committed
    assert ledger.state_digest() == digest
    assert ledger.balance_of(account) == 100 * ETH
    assert ledger.state.stakes == {}
    must(ledger, call("stake", 32 * ETH))
    assert not ledger.apply_transaction(call("add_to_stake", ETH), Fail()).committed
    assert ledger.stake_balance_of(account) == 32 * ETH
    assert ledger.balance_of(account) == 68 * ETH


def test_rolled_back_unstake_restores_position_and_queue(staked_world):
    ledger, alice, account = staked_world
    _proxy(ledger, alice, account, "stake", amount=32 * ETH)
    _proxy(ledger, alice, account, "add_to_stake", amount=ETH)
    ledger.advance_blocks(10)
    position = StakePosition(33 * ETH, ledger.state.stakes[account].unlock_block)
    receipt = ledger.apply_transaction(
        ProxyExecute(alice, account, ProxyPayload("request_unstake")), Fail())
    assert not receipt.committed
    assert ledger.state.stakes == {account: position}
    assert len(ledger.state.queue.pending) == 0


def test_negative_add_to_stake_rolls_back(staked_world):
    ledger, alice, account = staked_world
    _proxy(ledger, alice, account, "stake", amount=32 * ETH)
    receipt = _proxy(ledger, alice, account, "add_to_stake", amount=-1)
    assert receipt.error.code is ErrorCode.NEGATIVE_AMOUNT
    assert ledger.stake_balance_of(account) == 32 * ETH


def test_drained_funds_credit_the_contract_account(staked_world):
    ledger, alice, account = staked_world
    _proxy(ledger, alice, account, "stake", amount=32 * ETH)
    ledger.advance_blocks(10)
    _proxy(ledger, alice, account, "request_unstake")
    alice_before = ledger.balance_of(alice)
    ledger.advance_blocks(1)
    processed = [e for e in ledger.events if e.kind is EventKind.WITHDRAWAL_PROCESSED]
    assert len(processed) == 1
    assert processed[0].payload["owner"] == account.hex()
    assert ledger.balance_of(account) == 100 * ETH
    assert ledger.balance_of(alice) == alice_before  # never the human owner


def test_staker_address_decoupled_from_owner(staked_world):
    ledger, alice, account = staked_world
    bob = ledger.create_eoa("bob")
    _proxy(ledger, alice, account, "stake", amount=32 * ETH)
    assert ledger.staker_address_of(account) == account
    token_id = ledger.bound_nft_of(account)
    from nftaa_sim import TransferToken
    must(ledger, TransferToken(alice, token_id, bob))
    assert ledger.staker_address_of(account) == account  # stake follows the account
    assert ledger.stake_balance_of(account) == 32 * ETH


def test_staker_address_none_without_position(staked_world):
    ledger, _, account = staked_world
    assert ledger.staker_address_of(account) is None
    assert ledger.stake_balance_of(account) == 0


# ---------------------------------------------------------------------------
# Queue model
# ---------------------------------------------------------------------------

def test_queue_processes_16_16_8():
    trace = simulate_drain(40, QueueConfig())
    assert list(trace.per_block) == [16, 16, 8]


def test_queue_800k_drains_in_50k_blocks():
    trace = simulate_drain(800_000, QueueConfig())
    assert trace.blocks == 50_000
    # 50,000 / 7,200 = 6.9444..., reported to three decimals
    assert trace.summary_line() == "drained_in_blocks=50000 days=6.944"


def test_full_day_processes_exactly_115200():
    trace = simulate_drain(115_200, QueueConfig())
    assert trace.blocks == 7_200
    assert sum(trace.per_block) == 115_200
    assert trace.summary_line().endswith("days=1.000")


def test_cap_never_exceeded():
    for pending in (0, 1, 15, 16, 17, 160, 10_007):
        trace = simulate_drain(pending, QueueConfig())
        assert all(processed <= 16 for processed in trace.per_block)
        assert sum(trace.per_block) == pending


def test_drain_matches_ceiling_oracle():
    # oracle: ceil(n / 16) computed directly
    for pending in (1, 16, 17, 100, 999, 10_000):
        trace = simulate_drain(pending, QueueConfig())
        assert trace.blocks == -(-pending // 16)


def test_fifo_order_preserved():
    ledger = Ledger()
    owners = [ledger.create_eoa(f"owner{i}") for i in range(40)]
    for i, owner in enumerate(owners):
        ledger.state.queue.enqueue(owner, i + 1, 0)
    ledger.advance_blocks(1)
    first = [e.payload["amount"] for e in ledger.events
             if e.kind is EventKind.WITHDRAWAL_PROCESSED]
    assert first == list(range(1, 17))
    ledger.advance_blocks(1)
    amounts = [e.payload["amount"] for e in ledger.events
               if e.kind is EventKind.WITHDRAWAL_PROCESSED]
    assert amounts == list(range(1, 33))


def test_missed_slots_delay_processing():
    config = QueueConfig(missed_slot_probability=0.5, rng_seed=7)
    trace = simulate_drain(160, config)
    assert trace.blocks > 10  # some slots missed
    assert sum(trace.per_block) == 160
    assert all(p in (0, 16) for p in trace.per_block)


def test_estimate_examples():
    assert estimate_drain_time(800_000, QueueConfig()).summary_line() == \
        "drained_in_blocks=50000 days=6.944"
    assert estimate_drain_time(0, QueueConfig()).blocks == 0
    estimate = estimate_drain_time(115_200, QueueConfig())
    assert estimate.blocks == 7_200
    assert f"{estimate.days:.3f}" == "1.000"


def test_estimate_at_p0_is_exact_past_float_precision(capsys):
    exact = f"drained_in_blocks={625 * 10**72} days=8680{'5' * 67}.556"  # blocks / 7,200
    estimate = estimate_drain_time(10**76, QueueConfig())
    assert estimate.blocks == 625 * 10**72
    assert estimate.summary_line() == exact
    assert main(["queue", "--pending", str(10**76)]) == 0  # the CLI's closed form
    assert capsys.readouterr().out.endswith(f"\n{exact}\n")
    # from 2**53 blocks on, a tie rounds half to even: 36k + 18 blocks are 5k + 2.5 thousandths
    for blocks, days in ((9007199254741014, "1250999896491.808"),
                         (9007199254741050, "1250999896491.812")):
        assert estimate_drain_time(16 * blocks, QueueConfig()).summary_line() == \
            f"drained_in_blocks={blocks} days={days}"


@pytest.mark.parametrize("field", ["per_block_cap", "unlock_delay"])
def test_config_integers_stay_below_2_256(field):
    assert getattr(QueueConfig(**{field: 2**256 - 1}), field) == 2**256 - 1
    with pytest.raises(ValueError, match=r"below 2\*\*256"):
        QueueConfig(**{field: 2**256})


def test_estimate_stretches_by_miss_probability():
    exact = estimate_drain_time(16_000, QueueConfig())
    stretched = estimate_drain_time(16_000, QueueConfig(missed_slot_probability=0.1))
    assert stretched.days == pytest.approx(exact.days / 0.9)


def test_estimate_matches_simulation_at_p0():
    for pending in (0, 1, 40, 115_200, 33_333, 1_000_000):
        config = QueueConfig()
        assert estimate_drain_time(pending, config).summary_line() == \
            simulate_drain(pending, config).summary_line()


def test_saturated_day_statistics_small():
    config = QueueConfig(missed_slot_probability=0.1, rng_seed=11)
    days = simulate_saturated_days(300, config)
    mean = statistics.fmean(days)
    assert abs(mean - 103_680) / 103_680 < 0.02
    assert all(total <= 115_200 for total in days)


def test_saturated_days_p0_hit_the_ceiling():
    days = simulate_saturated_days(5, QueueConfig())
    assert days == [115_200] * 5


def test_queue_rng_determinism():
    config = QueueConfig(missed_slot_probability=0.3, rng_seed=21)
    one = simulate_drain(500, config, random.Random(21))
    two = simulate_drain(500, config, random.Random(21))
    assert list(one.per_block) == list(two.per_block)


def test_empty_queue_draws_no_randomness():
    queue = WithdrawalQueue()
    rng = random.Random(5)
    state_before = rng.getstate()
    assert queue.process_block(QueueConfig(missed_slot_probability=0.9), rng) == []
    assert rng.getstate() == state_before


def _queued_world(probability: float) -> Ledger:
    ledger = Ledger(QueueConfig(missed_slot_probability=probability, rng_seed=3))
    owners = [ledger.create_eoa(f"owner{i}") for i in range(5)]
    for i in range(100):  # 7 busy blocks at p = 0, then idle
        ledger.state.queue.enqueue(owners[i % 5], i + 1, 0)
    return ledger


# 0.9: 54 blocks to drain; 0.999: about 7,000, so each advance below ends mid-drain
@pytest.mark.parametrize("probability", [0.0, 0.1, 0.25, 0.9, 0.999])
@pytest.mark.parametrize("count", [0, 3, 7, 50, 100])
def test_advance_blocks_matches_one_block_at_a_time(probability, count):
    jumped, stepped = _queued_world(probability), _queued_world(probability)
    assert jumped.advance_blocks(count) == count
    for _ in range(count):
        advance_block(stepped)
    assert jumped.height == stepped.height
    assert jumped.events == stepped.events
    assert jumped.rng.getstate() == stepped.rng.getstate()
    assert jumped.state_digest() == stepped.state_digest()


def _entry_queue_drain(pending_count: int, config: QueueConfig) -> tuple[list[int], tuple]:
    """Reference drain: a queue of real entries, one `random()` draw per block and
    one process_block per hit block.

    Returns the per-block counts and the generator's state after the drain."""
    rng = random.Random(config.rng_seed)
    queue = WithdrawalQueue()
    for _ in range(pending_count):
        queue.enqueue(b"\x00" * 20, 1, 0)
    per_block = []
    while queue.pending:
        missed = slot_missed(rng, config.missed_slot_probability)
        per_block.append(0 if missed else len(queue.process_block(config, rng)))
    return per_block, rng.getstate()


@pytest.mark.parametrize("probability", [0.0, 0.1, 0.25, 0.9])
@pytest.mark.parametrize("pending", [0, 1, 17, 10_007])
def test_count_drain_matches_the_entry_queue(probability, pending):
    """Same counts and same final generator state, so a batch that draws past
    the drain's last block fails here."""
    for cap in (1, 7, 16):
        config = QueueConfig(per_block_cap=cap, missed_slot_probability=probability, rng_seed=19)
        rng = random.Random(config.rng_seed)
        per_block, state = _entry_queue_drain(pending, config)
        assert list(simulate_drain(pending, config, rng).per_block) == per_block
        assert rng.getstate() == state


def test_drain_without_misses_draws_no_randomness():
    rng = random.Random(5)
    state_before = rng.getstate()
    assert list(simulate_drain(10_007, QueueConfig(), rng).per_block) == [16] * 625 + [7]
    assert rng.getstate() == state_before


@pytest.mark.parametrize("pending, probability, seed", [
    (0, 0.1, 1), (1, 0.9, 2), (10_007, 0.0, 3), (10_007, 0.25, 4), (5_000, 0.9, 5),
    (160_000, 0.1, 6)])
def test_untraced_drain_counts_the_blocks_of_the_traced_one(pending, probability, seed):
    """Same block count, summary and final generator state: the same draws."""
    for cap in (1, 16):
        config = QueueConfig(per_block_cap=cap, missed_slot_probability=probability)
        traced_rng, counted_rng = random.Random(seed), random.Random(seed)
        traced = simulate_drain(pending, config, traced_rng)
        counted = simulate_drain(pending, config, counted_rng, trace=False)
        assert counted.blocks == len(traced.per_block)
        assert counted.summary_line() == traced.summary_line()
        assert counted_rng.getstate() == traced_rng.getstate()


def test_untraced_drain_of_a_million_blocks_keeps_no_list():
    """Its per-block list alone would take about 8 MiB."""
    config = QueueConfig(missed_slot_probability=0.1, rng_seed=9)
    tracemalloc.start()
    try:
        trace = simulate_drain(16 * 900_000, config, trace=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.blocks > 10**6
    assert peak < 2**20


def test_traced_drain_keeps_about_one_byte_per_block():
    """About 1.1 million blocks: a list slot per block would take about 9 MiB."""
    config = QueueConfig(missed_slot_probability=0.1, rng_seed=9)
    tracemalloc.start()
    try:
        trace = simulate_drain(16 * 10**6, config)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        blocks = len(trace.per_block)
        current, counting_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocks == trace.blocks == len(trace.hits) > 1_100_000
    assert peak < 3 * 2**20
    assert counting_peak - current < 2**10  # len() builds no list


@pytest.mark.parametrize("probability", [1e-300, 0.1, 0.5, 0.5 + 2**-53, 255 / 256, 1 - 2**-53])
def test_bulk_draws_are_the_draws_of_random(probability):
    """The same bytes and the same final generator state as `random()` one draw at
    a time. The threshold's top byte is 0, 25, 128, 128, 255 and 255; the draws
    with that top byte, about one in 256, are ties decided by their whole words."""
    bulk, single = random.Random(23), random.Random(23)
    count = 4_096
    hits = draw_until(bulk, count, count, probability)  # owes `count` hits: no early end
    draws = [single.random() for _ in range(count)]
    assert hits == bytes(draw >= probability for draw in draws)
    assert bulk.getstate() == single.getstate()
    top = math.ceil(probability * 2**53) >> 45
    assert sum(int(draw * 2**53) >> 45 == top for draw in draws) > 0  # ties were drawn


def test_drain_over_several_draw_batches_matches_random_one_at_a_time():
    pending, rng, reference = 2 * DRAW_BATCH + 5, random.Random(31), random.Random(31)
    hits, left = bytearray(), pending
    while left:
        hit = reference.random() >= 0.5
        hits.append(hit)
        left -= hit
    config = QueueConfig(per_block_cap=1, missed_slot_probability=0.5)
    assert simulate_drain(pending, config, rng).hits == hits
    assert rng.getstate() == reference.getstate()


def _draws_one_block_at_a_time(rng: random.Random, need: int, count: int,
                               probability: float) -> bytes:
    """The reference for `draw_until`: one `slot_missed` draw per block, ending at
    the `need`-th hit or after the batch's blocks, the `need` sure ones and the
    mean wait for one more hit, at most `count`."""
    hits, blocks = bytearray(), min(count, need + math.ceil(1 / (1 - probability)))
    while need and len(hits) < blocks:
        hit = not slot_missed(rng, probability)
        hits.append(hit)
        need -= hit
    return bytes(hits)


@pytest.mark.parametrize("probability", [0.0, 0.5, 0.99, 0.999999])
@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, DRAW_BATCH])
def test_draw_until_is_the_draws_of_random_one_block_at_a_time(probability, count):
    """The same bytes and the same final generator state as the per-block rule. A
    short `count` makes batches that hold exactly `need` hits and then end in
    misses: a batch that is not cut back at its `need`-th hit fails here."""
    for need, seed in product(range(1, 5), range(30)):
        drawn, reference = random.Random(seed), random.Random(seed)
        assert draw_until(drawn, need, count, probability) == \
            _draws_one_block_at_a_time(reference, need, count, probability)
        assert drawn.getstate() == reference.getstate()


@pytest.mark.parametrize("count", [DRAW_BATCH, 3 * DRAW_BATCH + 1, 10**6])
def test_advance_over_several_draw_batches_matches_one_block_at_a_time(count):
    """Three exits at cap 1 and p = 0.9999 take about 30,000 blocks to drain, so the
    advance draws more than one batch of `DRAW_BATCH` blocks."""
    jumped, stepped = (Ledger(QueueConfig(per_block_cap=1, missed_slot_probability=0.9999,
                                          rng_seed=3)) for _ in range(2))
    for ledger in (jumped, stepped):
        owner = ledger.create_eoa("owner")
        for amount in (1, 2, 3):
            ledger.state.queue.enqueue(owner, amount, 0)
    assert jumped.advance_blocks(count) == count
    while stepped.height < count and stepped.state.queue.pending:
        advance_block(stepped)
    stepped.height = count  # an idle block draws nothing and emits nothing
    assert stepped.events[-1].block > DRAW_BATCH or stepped.state.queue.pending  # 2+ batches
    assert jumped.events == stepped.events
    assert jumped.rng.getstate() == stepped.rng.getstate()
    assert jumped.state_digest() == stepped.state_digest()


def test_untraced_drain_has_no_counts_to_read():
    trace = simulate_drain(100, QueueConfig(missed_slot_probability=0.5), trace=False)
    assert len(trace.per_block) == trace.blocks and trace.hits is None
    with pytest.raises(ValueError, match="untraced"):
        list(trace.per_block)
    with pytest.raises(ValueError, match="untraced"):
        list(trace.trace_lines())


def _reference_trace(per_block: list[int]) -> str:
    """The trace rendered one line at a time."""
    lines, remaining = [], sum(per_block)
    for block, processed in enumerate(per_block, start=1):
        remaining -= processed
        lines.append(f"block={block} processed={processed} remaining={remaining}\n")
    return "".join(lines)


def test_trace_renders_in_chunks_like_one_line_at_a_time():
    """A drain with misses over many chunks, and an empty drain. Chunk k holds
    blocks max(1, 1000k) to 1000k + 999."""
    trace = simulate_drain(200_000, QueueConfig(missed_slot_probability=0.1, rng_seed=3))
    assert trace.blocks > 2_000 and 0 in trace.per_block
    chunks = list(trace.trace_lines())
    assert len(chunks) == trace.blocks // 1000 + 1
    for k, chunk in enumerate(chunks):
        blocks = [int(line.split()[0].removeprefix("block=")) for line in chunk.splitlines()]
        assert blocks == list(range(max(1, 1000 * k), min(1000 * k + 1000, trace.blocks + 1)))
    assert "".join(chunks) == _reference_trace(trace.per_block)
    assert list(simulate_drain(0, QueueConfig()).trace_lines()) == []


@settings(max_examples=60, deadline=None)
@given(pending=st.integers(0, 20_000),
       cap=st.sampled_from([1, 2, 7, 16, 999, 1000, 1001, 5000]) | st.integers(1, 3_000),
       probability=st.sampled_from([0.0, 0.1, 0.5, 0.9]) | st.floats(0.0, 0.9),
       seed=st.integers(0, 2**32 - 1))
@example(pending=999, cap=1, probability=0.0, seed=0)  # 999 blocks: chunk 0 only
@example(pending=16_000, cap=16, probability=0.0, seed=0)  # 1,000 blocks
@example(pending=1_001, cap=1, probability=0.0, seed=0)  # 1,001 blocks
@example(pending=16 * 1_999 - 9, cap=16, probability=0.0, seed=0)  # 1,999; the last takes 7
@example(pending=2_000, cap=1, probability=0.0, seed=0)  # 2,000 blocks
@example(pending=1_500_500, cap=1_000, probability=0.1, seed=1)  # cap >= 1000, last takes 500
@example(pending=12_345, cap=5_000, probability=0.0, seed=0)
@example(pending=3_000, cap=7, probability=0.9, seed=5)
@example(pending=0, cap=16, probability=0.1, seed=0)  # the empty drain
def test_trace_matches_the_line_at_a_time_reference(pending, cap, probability, seed):
    config = QueueConfig(per_block_cap=cap, missed_slot_probability=probability)
    trace = simulate_drain(pending, config, random.Random(seed))
    assert "".join(trace.trace_lines()) == _reference_trace(trace.per_block)


def test_trace_of_222_thousand_blocks_renders_in_bounded_memory():
    """The drain is built before tracing starts. A chunk at a time, rendering
    keeps about 350 KiB; the n `remaining` values alone would take over 6 MB."""
    trace = simulate_drain(3_200_000, QueueConfig(missed_slot_probability=0.1, rng_seed=3))
    assert trace.blocks == 222_121
    tracemalloc.start()
    try:
        for _ in trace.trace_lines():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 2**10


def test_drain_longer_than_the_cap_is_refused_before_any_draw():
    rng = random.Random(5)
    state_before = rng.getstate()
    for pending, probability in ((10**12, 0.0), (10**12, 0.999), (16 * MAX_DRAIN_BLOCKS + 1, 0.0)):
        with pytest.raises(ValueError, match="more than 10000000"):
            simulate_drain(pending, QueueConfig(missed_slot_probability=probability), rng)
    assert rng.getstate() == state_before


def test_saturated_day_spread_is_binomial():
    config = QueueConfig(missed_slot_probability=0.1, rng_seed=5)
    days = simulate_saturated_days(10_000, config)
    expected = PER_BLOCK_CAP * math.sqrt(BLOCKS_PER_DAY * 0.1 * 0.9)  # ≈ 407.3
    assert abs(statistics.pstdev(days) - expected) / expected < 0.05
    assert all(total % PER_BLOCK_CAP == 0 for total in days)


def test_binomial_variate_matches_the_exact_pmf():
    n, p, draws = 20, 0.3, 100_000
    rng = random.Random(8)
    seen = Counter(binomial_variate(n, p, rng) for _ in range(draws))
    assert set(seen) <= set(range(n + 1))
    for k in range(n + 1):
        expected = draws * math.comb(n, k) * p**k * (1 - p) ** (n - k)
        # five standard deviations of a count, plus one for the rarest values
        assert abs(seen[k] - expected) <= 5 * math.sqrt(expected) + 1, (k, seen[k], expected)


def test_binomial_variate_edges():
    rng = random.Random(1)
    state = rng.getstate()
    assert binomial_variate(50, 0.0, rng) == 0
    assert rng.getstate() == state  # p = 0 draws nothing
    assert {binomial_variate(0, 0.5, rng) for _ in range(10)} == {0}
    assert {binomial_variate(3, 0.999999, rng) for _ in range(10)} <= {2, 3}
