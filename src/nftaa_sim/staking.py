"""Stake positions and the capped FIFO withdrawal queue.

The queue drains at most `per_block_cap` entries per block. With the default
cap of 16 and 7,200 blocks per simulated day that is a ceiling of 115,200
withdrawals per day; a backlog of 800,000 takes 50,000 blocks, just under
seven days. A slot can also be "missed" (Bernoulli draw from the ledger's
seeded generator), in which case the block processes nothing and the backlog
slips proportionally. `draw_until` draws that rule for the ledger's
`advance` and the standalone drain alike: a batch of blocks from one
`getrandbits` call, decided by the word, most by one byte, consuming the
generator exactly as one `random()` call per block would. The ledger's
`WithdrawalQueue.process_block` only dequeues a hit block; the standalone
drain needs only the count, so it never builds an entry. A drain is one byte
per block, 1 if the block processed entries and 0 if its slot was missed,
and its trace is formatted as bytes. A simulated drain is capped at
`MAX_DRAIN_BLOCKS` expected blocks: a traced one keeps a byte per block.
"""

from __future__ import annotations

import math
import random
from collections import deque

from .addresses import Address
from .records import Record

ETH = 10**18
MIN_STAKE = 32 * ETH  # validator entry threshold
PER_BLOCK_CAP = 16
BLOCKS_PER_DAY = 7_200  # 115,200 withdrawals/day at 16 per block
MAX_DRAIN_BLOCKS = 10**7  # longest simulated drain: about 1,389 days at 7,200 blocks a day
DRAW_BATCH = 1 << 14  # missed-slot draws per getrandbits call: 128 KiB of words
WORD = 1 << 256  # every script integer, and every integer of a QueueConfig, is below one word
_TRACE_ROW = b"%03d processed=%d remaining=%d\n"
_HIT_ROW = b"%%03d processed=%d remaining=%%%%d\n"  # formatted by `_hit_rows`


class QueueConfig(Record):
    __slots__ = __match_args__ = ("per_block_cap", "missed_slot_probability", "unlock_delay",
                                  "rng_seed")
    def __init__(self, per_block_cap: int = PER_BLOCK_CAP, missed_slot_probability: float = 0.0,
                 unlock_delay: int = 100,  # blocks between staking and the earliest unstake
                 rng_seed: int = 0):
        if per_block_cap < 1:
            raise ValueError("per_block_cap must be >= 1")
        if not 0.0 <= missed_slot_probability < 1.0:
            raise ValueError("missed_slot_probability must be in [0, 1)")
        if unlock_delay < 0:
            raise ValueError("unlock_delay must be >= 0")
        if max(per_block_cap, unlock_delay) >= WORD:
            raise ValueError("integers must be below 2**256")
        if rng_seed < 0:  # random.Random seeds an int by its absolute value
            raise ValueError("rng_seed must be >= 0")
        self.per_block_cap, self.unlock_delay, self.rng_seed = per_block_cap, unlock_delay, rng_seed
        # abs: -0.0 passes the range check, and would print as -0.000
        self.missed_slot_probability = abs(missed_slot_probability)


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
        """Dequeue up to `per_block_cap` entries for a hit block, in FIFO order. The block's
        missed-slot draw was `draw_until`'s, so `rng` is not read."""
        pending = self.pending
        return [pending.popleft() for _ in range(min(config.per_block_cap, len(pending)))]


# ---------------------------------------------------------------------------
# Closed-form estimate and standalone queue simulations
# ---------------------------------------------------------------------------

class DrainEstimate(Record):
    __slots__ = __match_args__ = ("blocks", "days")
    def __init__(self, blocks: int, days: float):
        self.blocks = blocks  # ceil of the expected block count
        self.days = days      # unrounded expectation / BLOCKS_PER_DAY

    def summary_line(self) -> str:
        if self.blocks < 2**53:  # a float holds the block count exactly
            return f"drained_in_blocks={self.blocks} days={self.days:.3f}"
        # past it, `days` is off in its integer digits: the exact quotient, rounded half to even
        millis, left = divmod(self.blocks * 1000, BLOCKS_PER_DAY)
        if 2 * left > BLOCKS_PER_DAY or 2 * left == BLOCKS_PER_DAY and millis % 2:
            millis += 1
        return f"drained_in_blocks={self.blocks} days={millis // 1000}.{millis % 1000:03d}"


def estimate_drain_time(pending_count: int, config: QueueConfig) -> DrainEstimate:
    """Expected drain time: ceil(pending / cap) busy blocks, stretched by 1/(1-p).

    This is the mean of the simulated distribution; at p=0 it is exact, in integers.
    """
    busy_blocks = -(-pending_count // config.per_block_cap)  # ceil division
    missed = config.missed_slot_probability
    expected = busy_blocks / (1.0 - missed) if missed else busy_blocks
    return DrainEstimate(math.ceil(expected), expected / BLOCKS_PER_DAY)


class DrainTrace(Record):
    """A simulated drain: its block count and, when traced, one byte per block.

    `hits[b - 1]` is 1 if block b processed entries and 0 if its slot was
    missed. A hit block takes `per_block_cap` entries, but the last takes
    what is left of the `backlog`. An untraced drain keeps only the count
    (`hits` is None). `per_block` reads the processed counts from the bytes.
    """
    __slots__ = __match_args__ = ("blocks", "hits", "backlog", "config")
    def __init__(self, blocks: int, hits: bytearray | None, backlog: int, config: QueueConfig):
        self.blocks, self.hits, self.backlog, self.config = blocks, hits, backlog, config

    @property
    def per_block(self) -> BlockCounts:
        return BlockCounts(self)

    @property
    def days(self) -> float:
        return self.blocks / BLOCKS_PER_DAY

    @property
    def last_take(self) -> int:
        """The entries that the last block takes: 1 to `per_block_cap`."""
        return (self.backlog - 1) % self.config.per_block_cap + 1

    summary_line = DrainEstimate.summary_line

    def trace_lines(self):
        """The trace as text, one `block=<h> processed=<n> remaining=<m>` line per block.

        Yields one newline-terminated chunk per thousand block numbers: blocks
        1 to 999, then 1000k to 1000k + 999. Such rows differ only in their
        last three digits, so a table of rows `<ddd> processed=<cap>
        remaining=%d` joined with `block=<k>` is the chunk's format string. It
        is formatted as bytes and decoded once per chunk. The rows of the
        missed blocks, found with `hits.find(0)`, and of the last block are
        written out whole; the other rows' `remaining` values step down by
        `per_block_cap`, one `range` per chunk. An empty drain yields nothing;
        an untraced one raises ValueError, as reading its `per_block` does.
        """
        hits, cap, n = self.hits, self.config.per_block_cap, self.blocks
        if hits is None:
            raise ValueError("an untraced drain keeps no per-block counts")
        table, left = _hit_rows(cap, min(n + 1, 1000)), self.backlog
        for base in range(0, n + 1 if n else 0, 1000):  # row j of a chunk is block base + j
            first, stop = max(base, 1), min(base + 999, n)  # the chunk's first and last block
            rows, missed = table[first - base:stop - base + 1], 0
            block = hits.find(0, first - 1, stop) + 1  # hits[b - 1] is block b; 0: no miss
            while block:  # a missed block comes after block - first - missed hit rows
                remaining = left - cap * (block - first - missed)
                rows[block - first] = _TRACE_ROW % (block - base, 0, remaining)
                missed += 1
                block = hits.find(0, block, stop) + 1
            taken = len(rows) - missed  # the hit rows
            if stop == n:
                rows[-1], taken = _TRACE_ROW % (n - base, self.last_take, 0), taken - 1
            if not base:  # blocks 1 to 999 are not zero-padded; there is no block 0
                rows = [row.lstrip(b"0") for row in rows]
            head = b"block=%d" % (base // 1000) if base else b"block="
            value = left - cap * taken  # the backlog after the chunk's last hit row
            yield ((head + head.join(rows)) % tuple(range(left - cap, value - 1, -cap))).decode()
            left = value


class BlockCounts:
    """A drain's processed count per block, read from its bytes: `per_block_cap`
    for a hit, 0 for a missed slot and `last_take` for the last block. Its len()
    is the block count, for a traced and an untraced drain alike; an untraced
    drain has no counts to read."""
    __slots__ = ("trace",)

    def __init__(self, trace: DrainTrace):
        self.trace = trace

    def __len__(self) -> int:
        return self.trace.blocks

    def __iter__(self):
        trace = self.trace
        if trace.hits is None:
            raise ValueError("an untraced drain keeps no per-block counts")
        if trace.blocks:
            yield from map((0, trace.config.per_block_cap).__getitem__, trace.hits[:-1])
            yield trace.last_take


def _hit_rows(cap: int, size: int) -> list[bytes]:
    """Rows 0 to size - 1 of a trace chunk, each `<ddd> processed=<cap> remaining=%d`."""
    return (_HIT_ROW % cap * size % tuple(range(size))).splitlines(keepends=True)


def check_drain_size(pending_count: int, config: QueueConfig) -> None:
    """Raise ValueError when draining `pending_count` entries is expected to
    take more than MAX_DRAIN_BLOCKS blocks, too many to simulate one by one."""
    blocks = estimate_drain_time(pending_count, config).blocks
    if blocks > MAX_DRAIN_BLOCKS:
        raise ValueError(f"a simulated drain of {pending_count} entries takes about "
                         f"{blocks} blocks, more than {MAX_DRAIN_BLOCKS}")


def draw_until(rng: random.Random, need: int, count: int, probability: float) -> bytearray:
    """The missed-slot draws of a drain that owes `need` hit blocks, one byte a block:
    1 where `rng.random() >= probability`, else 0, up to the `need`-th hit or `count`
    blocks. One `getrandbits` call draws the `need` sure blocks and the mean wait for
    one more hit, ceil(1 / (1 - p)), at most `count`; if the `need`-th hit comes sooner,
    the generator is set back and the kept draws are taken again, so it ends where one
    `random()` call a block would leave it. At p = 0 every block is a hit, undrawn.

    `random()` is ((a >> 5) * 2**26 + (b >> 6)) / 2**53 for the two 32-bit
    words a and b that it takes, so it is at least p exactly when that 53-bit
    numerator is at least T = ceil(p * 2**53). The numerator's top byte is the
    top byte of a: above the top byte t of T the draw is a hit, below it a
    miss, and at t, about one draw in 256, the two whole words decide.
    """
    if probability <= 0.0:
        return bytearray(b"\1") * min(need, count)
    size = min(count, need + math.ceil(1.0 / (1.0 - probability)))
    saved = rng.getstate() if size > need else None  # only a longer batch can end early
    threshold = math.ceil(probability * 2**53)
    t = threshold >> 45
    words = rng.getrandbits(64 * size).to_bytes(8 * size, "little")  # a, b, a, b, ...
    hits = bytearray(words[3::8]).translate(b"\0" * t + b"\2" + b"\1" * (255 - t))
    tie = hits.find(2)
    while tie >= 0:
        pair = int.from_bytes(words[8 * tie:8 * tie + 8], "little")  # b << 32 | a
        hits[tie] = ((pair & 0xFFFF_FFFF) >> 5 << 26 | pair >> 38) >= threshold
        tie = hits.find(2, tie + 1)
    end = size  # the index of the `need`-th hit, if a longer batch reaches it
    for _ in range(hits.count(1) - need + 1 if saved else 0):
        end = hits.rfind(1, 0, end)
    if end < size - 1:
        rng.setstate(saved)
        rng.getrandbits(64 * (end + 1))
        del hits[end + 1:]
    return hits


def simulate_drain(pending_count: int, config: QueueConfig,
                   rng: random.Random | None = None, trace: bool = True) -> DrainTrace:
    """Drain a backlog of `pending_count` entries, one byte per block.

    Only the count is kept. `draw_until` draws each batch of the owed hit blocks, as in
    `Ledger.advance_blocks`, so the trace and final generator state match a queue of
    real entries. A traced drain appends each batch's bytes; an untraced one counts
    them. Raises ValueError, before drawing, when `check_drain_size` rejects the backlog.
    """
    check_drain_size(pending_count, config)
    if rng is None:
        rng = random.Random(config.rng_seed)
    need = max(-(-pending_count // config.per_block_cap), 0)  # a negative backlog is empty
    blocks, hits = 0, bytearray() if trace else None
    while need:
        batch = draw_until(rng, need, DRAW_BATCH, config.missed_slot_probability)
        if hits is not None:
            hits += batch
        blocks += len(batch)
        need -= batch.count(1)
    return DrainTrace(blocks, hits, pending_count, config)


def simulate_saturated_days(days: int, config: QueueConfig) -> list[int]:
    """Daily throughput with the queue never running dry (capacity statistics).

    Each slot of a day is missed with probability p, independently, as in
    `draw_until`, so a day's missed count is Binomial(BLOCKS_PER_DAY, p). It is
    drawn as one variate per day, not slot by slot. The long-run mean is
    cap * BLOCKS_PER_DAY * (1 - p).
    """
    rng = random.Random(config.rng_seed)
    n, p = BLOCKS_PER_DAY, config.missed_slot_probability
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
