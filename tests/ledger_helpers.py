"""Ledger set-up and oracles the tests share, built on the ledger's one entry point.

`must` submits through `Ledger.apply_transaction`, the only way a transaction
is submitted, and raises the receipt's error if the transaction rolled back.
`mint_nftaa` and `create_tba` submit one operation through it and read the new
account off the event it emits. `total_conserved` is the sum the fuzz driver
checks after every transaction, and `queued_amount` its queue term.

`advance_block` is the block-at-a-time reference for `Ledger.advance_blocks`,
which draws its missed slots in batches: one block, with one `random()` draw
from `slot_missed` if the queue has work.
"""

import random

from nftaa_sim import (
    Address,
    CreateTba,
    Event,
    EventKind,
    Ledger,
    MintNftaa,
    TxReceipt,
    WithdrawalQueue,
)
from nftaa_sim.events import SYSTEM_TX_ID, WITHDRAWAL_PROCESSED


def must(ledger: Ledger, *operations) -> TxReceipt:
    """Apply `operations` as one transaction: its receipt, or its error raised if it
    rolled back."""
    receipt = ledger.apply_transaction(*operations)
    if receipt.error is not None:
        raise receipt.error
    return receipt


def mint_nftaa(ledger: Ledger, caller: Address, note: bytes) -> tuple[int, Address]:
    """Mint a proxy account; its token id and account address."""
    receipt = must(ledger, MintNftaa(caller, note))
    created = next(e for e in receipt.events if e.kind is EventKind.NEW_NFTAA)
    return created.fields["token_id"], created.fields["account"]


def create_tba(ledger: Ledger, caller: Address, token_id: int, salt: bytes,
               has_execute: bool = True) -> Address:
    """Deploy a registry account for `token_id`; its address."""
    receipt = must(ledger, CreateTba(caller, token_id, salt, has_execute))
    created = next(e for e in receipt.events if e.kind is EventKind.TBA_CREATED)
    return created.fields["account"]


def total_conserved(ledger: Ledger) -> int:
    """Balances plus stakes plus queued exits: every operation but faucet keeps it."""
    state = ledger.state
    balances = sum(account.balance for account in state.accounts.values())
    staked = sum(position.amount for position in state.stakes.values())
    return balances + staked + queued_amount(state.queue)


def queued_amount(queue: WithdrawalQueue) -> int:
    """The amount of every pending withdrawal."""
    return sum(entry.amount for entry in queue.pending)


def slot_missed(rng: random.Random, probability: float) -> bool:
    """One block's missed-slot draw, one `random()` call; at p = 0 nothing is drawn."""
    return probability > 0.0 and rng.random() < probability


def advance_block(ledger: Ledger) -> int:
    """Advance one block: if the queue has work and the slot is not missed, the
    queue's next entries are credited to their owners, each with a
    `WithdrawalProcessed` event at the new height. The new height."""
    ledger.height += 1
    queue, config = ledger.state.queue, ledger.config
    if queue.pending and not slot_missed(ledger.rng, config.missed_slot_probability):
        for entry in queue.process_block(config, ledger.rng):
            ledger.state.accounts[entry.owner].balance += entry.amount
            ledger.events.append(Event(WITHDRAWAL_PROCESSED, entry.owner,
                                       (entry.owner, entry.amount, entry.enqueued_at),
                                       ledger.height, SYSTEM_TX_ID))
    return ledger.height
