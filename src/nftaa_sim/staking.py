"""Stake positions and the capped FIFO withdrawal queue.

The queue drains at most `per_block_cap` entries per block. With the default
cap of 16 and 7,200 blocks per simulated day that is a ceiling of 115,200
withdrawals per day; a backlog of 800,000 takes 50,000 blocks, just under
seven days. A slot can also be "missed" (Bernoulli draw from the ledger's
seeded generator), in which case the block processes nothing and the backlog
slips proportionally. `WithdrawalQueue.process_block` is that rule for the
ledger's queue, one block at a time. The standalone drain applies the same
rule one batch at a time: it needs only the count, so it never builds an
entry, and it draws the missed slots of many blocks in one pass, consuming
the generator exactly as the block-at-a-time rule would. A simulated drain is capped at
`MAX_DRAIN_BLOCKS` expected blocks: a traced one keeps a list slot per block.
"""

from __future__ import annotations

import math
import random
from collections import deque
from contextlib import suppress
from itertools import accumulate, islice, repeat, starmap
from operator import ge, sub

from .addresses import Address
from .records import Record

ETH = 10**18
MIN_STAKE = 32 * ETH  # validator entry threshold
PER_BLOCK_CAP = 16
BLOCKS_PER_DAY = 7_200  # 115,200 withdrawals/day at 16 per block
MAX_DRAIN_BLOCKS = 10**7  # longest simulated drain: about 1,389 days at 7,200 blocks a day
WORD = 1 << 256  # every script integer, and every integer of a QueueConfig, is below one word
_TRACE_ROW = "%%03d processed=%d remaining=%%%%d\n"  # formatted by `_trace_rows`


class QueueConfig(Record):
    __slots__ = __match_args__ = ("per_block_cap", "blocks_per_day", "missed_slot_probability",
                                  "unlock_delay", "min_stake", "rng_seed")
    def __init__(self, per_block_cap: int = PER_BLOCK_CAP, blocks_per_day: int = BLOCKS_PER_DAY,
                 missed_slot_probability: float = 0.0,
                 unlock_delay: int = 100,  # blocks between staking and the earliest unstake
                 min_stake: int = MIN_STAKE, rng_seed: int = 0):
        if per_block_cap < 1:
            raise ValueError("per_block_cap must be >= 1")
        if blocks_per_day < 1:
            raise ValueError("blocks_per_day must be >= 1")
        if not 0.0 <= missed_slot_probability < 1.0:
            raise ValueError("missed_slot_probability must be in [0, 1)")
        if unlock_delay < 0:
            raise ValueError("unlock_delay must be >= 0")
        if max(per_block_cap, blocks_per_day, unlock_delay, min_stake) >= WORD:
            raise ValueError("integers must be below 2**256")
        self.per_block_cap, self.blocks_per_day = per_block_cap, blocks_per_day
        # abs: -0.0 passes the range check, and would print as -0.000
        self.missed_slot_probability, self.unlock_delay = abs(missed_slot_probability), unlock_delay
        self.min_stake, self.rng_seed = min_stake, rng_seed


class StakePosition(Record):
    __slots__ = __match_args__ = ("amount", "unlock_block")
    def __init__(self, amount: int, unlock_block: int):
        self.amount = amount
        self.unlock_block = unlock_block  # fixed at creation; adding funds does not extend it


class QueueEntry(Record):
    __slots__ = __match_args__ = ("owner", "amount", "enqueued_at")
    def __init__(self, owner: Address, amount: int, enqueued_at: int):
        self.owner, self.amount, self.enqueued_at = owner, amount, enqueued_at


class WithdrawalQueue(Record):
    __slots__ = __match_args__ = ("pending",)
    def __init__(self):
        self.pending: deque[QueueEntry] = deque()

    def enqueue(self, owner: Address, amount: int, height: int) -> None:
        self.pending.append(QueueEntry(owner, amount, height))

    def process_block(self, config: QueueConfig, rng: random.Random) -> list[QueueEntry]:
        """Dequeue up to `per_block_cap` entries for one block, in FIFO order.

        The missed-slot draw happens only when there is work to do, so empty
        blocks neither consume randomness nor count as missed.
        """
        pending, missed = self.pending, config.missed_slot_probability
        if not pending or (missed > 0.0 and rng.random() < missed):
            return []
        return [pending.popleft() for _ in range(min(config.per_block_cap, len(pending)))]


# ---------------------------------------------------------------------------
# Closed-form estimate and standalone queue simulations
# ---------------------------------------------------------------------------

class DrainEstimate(Record):
    __slots__ = __match_args__ = ("blocks", "days")
    def __init__(self, blocks: int, days: float):
        self.blocks = blocks  # ceil of the expected block count
        self.days = days      # unrounded expectation / blocks_per_day

    def summary_line(self) -> str:
        return f"drained_in_blocks={self.blocks} days={self.days:.3f}"


def estimate_drain_time(pending_count: int, config: QueueConfig) -> DrainEstimate:
    """Expected drain time: ceil(pending / cap) busy blocks, stretched by 1/(1-p).

    This is the mean of the simulated distribution; at p=0 it is exact, in integers.
    """
    busy_blocks = -(-pending_count // config.per_block_cap)  # ceil division
    missed = config.missed_slot_probability
    expected = busy_blocks / (1.0 - missed) if missed else busy_blocks
    return DrainEstimate(math.ceil(expected), expected / config.blocks_per_day)


class DrainTrace(Record):
    __slots__ = __match_args__ = ("per_block", "config")
    def __init__(self, per_block: list[int], config: QueueConfig):
        self.per_block, self.config = per_block, config  # per_block: processed count per block

    @property
    def blocks(self) -> int:
        return len(self.per_block)

    @property
    def days(self) -> float:
        return self.blocks / self.config.blocks_per_day

    summary_line = DrainEstimate.summary_line

    def trace_lines(self):
        """The trace as text, one `block=<h> processed=<n> remaining=<m>` line per block.

        Yields one newline-terminated chunk per thousand block numbers: blocks
        1 to 999, then 1000k to 1000k + 999. Such rows differ only in their
        last three digits, so a table of rows `<ddd> processed=<n> remaining=%d`
        joined with `block=<k>` is the chunk's format string, and only
        `remaining` is converted per line. Every block but the last processes
        `per_block_cap` or 0 entries, as `simulate_drain` records them. An
        empty drain yields nothing.
        """
        per_block, cap = self.per_block, self.config.per_block_cap
        n, size = len(per_block), min(len(per_block) + 1, 1000)
        hits, misses = _trace_rows(cap, size), None
        remaining = accumulate(per_block, sub, initial=sum(per_block))
        next(remaining)  # the backlog before the first block
        for base in range(0, n + 1 if n else 0, 1000):  # row j of a chunk is block base + j
            stop = min(base + 999, n)  # the chunk's last block
            rows, miss = hits[:stop - base + 1], max(base - 1, 0)
            with suppress(ValueError):  # index() raises past the chunk's last miss
                while True:  # per_block[miss] is block miss + 1
                    miss = per_block.index(0, miss, stop)
                    misses = misses or _trace_rows(0, size)
                    rows[miss + 1 - base] = misses[miss + 1 - base]
                    miss += 1
            if stop == n and per_block[-1] != cap:
                rows[-1] = _TRACE_ROW % per_block[-1] % (n - base)
            if not base:  # blocks 1 to 999 are not zero-padded; there is no block 0
                rows = [row.lstrip("0") for row in rows[1:]]
            head = f"block={base // 1000}" if base else "block="
            yield (head + head.join(rows)) % tuple(islice(remaining, len(rows)))


def _trace_rows(processed: int, size: int) -> list[str]:
    """Rows 0 to size - 1 of a trace chunk, each `<ddd> processed=<processed> remaining=%d`."""
    return (_TRACE_ROW % processed * size % tuple(range(size))).splitlines(keepends=True)


def check_drain_size(pending_count: int, config: QueueConfig) -> None:
    """Raise ValueError when draining `pending_count` entries is expected to
    take more than MAX_DRAIN_BLOCKS blocks, too many to simulate one by one."""
    blocks = estimate_drain_time(pending_count, config).blocks
    if blocks > MAX_DRAIN_BLOCKS:
        raise ValueError(f"a simulated drain of {pending_count} entries takes about "
                         f"{blocks} blocks, more than {MAX_DRAIN_BLOCKS}")


class _BlockCount(int):
    """An untraced drain's per-block list: only its len(), which `DrainTrace.blocks` reads."""
    __len__ = int.__index__


def simulate_drain(pending_count: int, config: QueueConfig,
                   rng: random.Random | None = None, trace: bool = True) -> DrainTrace:
    """Drain a backlog of `pending_count` entries and record how many each block took.

    Only the count is kept, and the draws are those of
    `WithdrawalQueue.process_block`, so the trace and the generator's final
    state match a queue of real entries. A drain needs exactly
    `ceil(pending / cap)` blocks that are not missed. While `need` of them are
    owed, the next `need` blocks are drawn as one batch: the drain lasts at
    least that long, so a batch never draws past its last block. At p = 0
    nothing is drawn. Untraced, a batch's draws are only counted, not kept.
    Raises ValueError, before drawing, when `check_drain_size` rejects the
    backlog.
    """
    check_drain_size(pending_count, config)
    if rng is None:
        rng = random.Random(config.rng_seed)
    cap, missed = config.per_block_cap, config.missed_slot_probability
    busy = max(-(-pending_count // cap), 0)  # ceil division; a negative backlog is empty
    need = busy if missed > 0.0 else 0  # at p = 0 every block is a hit
    blocks, per_block = busy, [cap] * (busy - need) if trace else None
    while need:
        draws = starmap(rng.random, repeat((), need))
        if per_block is None:
            hits = sum(map(ge, draws, repeat(missed)))
        else:
            batch = [cap if draw >= missed else 0 for draw in draws]
            per_block += batch
            hits = batch.count(cap)
        blocks += need - hits
        need -= hits
    if per_block is None:
        return DrainTrace(_BlockCount(blocks), config)
    if busy:
        per_block[-1] = pending_count - (busy - 1) * cap
    return DrainTrace(per_block, config)


def simulate_saturated_days(days: int, config: QueueConfig) -> list[int]:
    """Daily throughput with the queue never running dry (capacity statistics).

    Each slot of a day is missed with probability p, independently, as in
    `WithdrawalQueue.process_block`, so a day's missed count is
    Binomial(blocks_per_day, p). It is drawn as one variate per day, not slot
    by slot. The long-run mean is cap * blocks_per_day * (1 - p).
    """
    rng = random.Random(config.rng_seed)
    n, p = config.blocks_per_day, config.missed_slot_probability
    return [config.per_block_cap * (n - binomial_variate(n, p, rng)) for _ in range(days)]


def binomial_variate(n: int, p: float, rng: random.Random) -> int:
    """One Binomial(n, p) variate from one uniform draw, by exact inversion.

    The support is visited in order of decreasing probability: from the mode
    outward, always to the neighbour with the larger term, each term got from
    the last by the ratio of neighbouring pmf terms. The first value whose
    cumulative probability reaches the draw is returned, after a number of
    terms in proportion to sqrt(n p (1 - p)). Needs 0 <= p < 1; p = 0 draws
    nothing.
    """
    if p <= 0.0:
        return 0
    odds = p / (1.0 - p)
    mode = min(int((n + 1) * p), n)
    term = math.exp(math.lgamma(n + 1) - math.lgamma(mode + 1) - math.lgamma(n - mode + 1)
                    + mode * math.log(p) + (n - mode) * math.log1p(-p))
    k = low = high = mode
    down = term * low / ((n - low + 1) * odds)   # pmf(low - 1); 0 past the support
    up = term * (n - high) * odds / (high + 1)   # pmf(high + 1); 0 past the support
    left = rng.random() - term
    while left > 0.0:
        if up >= down:
            if up == 0.0:
                break  # rounding left the draw just above the total
            high = k = high + 1
            left -= up
            up *= (n - high) * odds / (high + 1)
        else:
            low = k = low - 1
            left -= down
            down *= low / ((n - low + 1) * odds)
    return k
