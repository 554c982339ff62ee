"""Ledger set-up and oracles the tests share, built on the ledger's one entry point.

`must` submits through `Ledger.apply_transaction`, the only way a transaction
is submitted, and raises the receipt's error if the transaction rolled back.
`mint_nftaa` and `create_tba` submit one operation through it and read the new
account off the event it emits. `total_conserved` is the sum the fuzz driver
checks after every transaction, and `queued_amount` its queue term.
"""

from nftaa_sim import Address, CreateTba, EventKind, Ledger, MintNftaa, TxReceipt, WithdrawalQueue


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
