"""Stake positions and the capped FIFO withdrawal queue.

The queue drains at most `per_block_cap` entries per block. With the default
cap of 16 and 7,200 blocks per simulated day that is a ceiling of 115,200
withdrawals per day; a backlog of 800,000 takes 50,000 blocks, just under
seven days. A slot can also be "missed" (Bernoulli draw from the ledger's
seeded generator), in which case the block processes nothing and the backlog
slips proportionally.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

from .addresses import Address

ETH = 10**18
MIN_STAKE = 32 * ETH  # validator entry threshold
PER_BLOCK_CAP = 16
BLOCKS_PER_DAY = 7_200  # 115,200 withdrawals/day at 16 per block


@dataclass
class QueueConfig:
    per_block_cap: int = PER_BLOCK_CAP
    blocks_per_day: int = BLOCKS_PER_DAY
    missed_slot_probability: float = 0.0
    unlock_delay: int = 100  # blocks between staking and the earliest unstake
    min_stake: int = MIN_STAKE
    rng_seed: int = 0

    def __post_init__(self):
        if self.per_block_cap < 1:
            raise ValueError("per_block_cap must be >= 1")
        if self.blocks_per_day < 1:
            raise ValueError("blocks_per_day must be >= 1")
        if not 0.0 <= self.missed_slot_probability < 1.0:
            raise ValueError("missed_slot_probability must be in [0, 1)")


@dataclass
class StakePosition:
    owner: Address  # the proxy-account address, never the human owner
    amount: int
    unlock_block: int  # fixed at creation; adding funds does not extend it


@dataclass(slots=True)
class QueueEntry:
    owner: Address
    amount: int
    enqueued_at: int


@dataclass
class WithdrawalQueue:
    pending: deque[QueueEntry] = field(default_factory=deque)

    def enqueue(self, owner: Address, amount: int, height: int) -> None:
        self.pending.append(QueueEntry(owner, amount, height))

    def total_amount(self) -> int:
        return sum(entry.amount for entry in self.pending)

    def process_block(self, config: QueueConfig, rng: random.Random) -> list[QueueEntry]:
        """Dequeue up to the per-block cap in FIFO order.

        The missed-slot draw happens only when there is work to do, so empty
        blocks neither consume randomness nor count as missed.
        """
        if not self.pending:
            return []
        if slot_missed(rng, config.missed_slot_probability):
            return []
        processed = []
        for _ in range(min(config.per_block_cap, len(self.pending))):
            processed.append(self.pending.popleft())
        return processed


def slot_missed(rng: random.Random, probability: float) -> bool:
    return probability > 0.0 and rng.random() < probability


# ---------------------------------------------------------------------------
# Closed-form estimate and standalone queue simulations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DrainEstimate:
    blocks: int       # ceil of the expected block count
    days: float       # unrounded expectation / blocks_per_day

    def summary_line(self) -> str:
        return f"drained_in_blocks={self.blocks} days={self.days:.3f}"


def estimate_drain_time(pending_count: int, config: QueueConfig) -> DrainEstimate:
    """Expected drain time: ceil(pending / cap) busy blocks, stretched by 1/(1-p).

    This is the mean of the simulated distribution; at p=0 it is exact.
    """
    busy_blocks = -(-pending_count // config.per_block_cap)  # ceil division
    expected = busy_blocks / (1.0 - config.missed_slot_probability)
    return DrainEstimate(math.ceil(expected), expected / config.blocks_per_day)


@dataclass
class DrainTrace:
    per_block: list[int]  # processed count for each block, in order
    config: QueueConfig

    @property
    def blocks(self) -> int:
        return len(self.per_block)

    @property
    def days(self) -> float:
        return self.blocks / self.config.blocks_per_day

    def summary_line(self) -> str:
        return f"drained_in_blocks={self.blocks} days={self.days:.3f}"

    def trace_lines(self):
        remaining = sum(self.per_block)
        for block, processed in enumerate(self.per_block, start=1):
            remaining -= processed
            yield f"block={block} processed={processed} remaining={remaining}"


def simulate_drain(pending_count: int, config: QueueConfig,
                   rng: random.Random | None = None) -> DrainTrace:
    """Run the real queue to exhaustion with synthetic entries and record the trace."""
    if rng is None:
        rng = random.Random(config.rng_seed)
    queue = WithdrawalQueue()
    queue.pending.extend(QueueEntry(b"\x00" * 20, 1, 0) for _ in range(pending_count))
    per_block = []
    while queue.pending:
        per_block.append(len(queue.process_block(config, rng)))
    return DrainTrace(per_block, config)


def simulate_saturated_days(days: int, config: QueueConfig,
                            rng: random.Random | None = None) -> list[int]:
    """Daily throughput with the queue never running dry (capacity statistics).

    Uses the same missed-slot rule as `process_block`; with probability p the
    long-run mean is cap * blocks_per_day * (1 - p).
    """
    if rng is None:
        rng = random.Random(config.rng_seed)
    cap = config.per_block_cap
    p = config.missed_slot_probability
    totals = []
    for _ in range(days):
        if p > 0.0:
            processed = sum(cap for _ in range(config.blocks_per_day)
                            if not slot_missed(rng, p))
        else:
            processed = cap * config.blocks_per_day
        totals.append(processed)
    return totals
