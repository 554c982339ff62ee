"""Transaction operations as plain data.

A transaction is an ordered list of these records applied atomically by the
ledger. Each record carries its own caller, and authorization is evaluated
per operation: a transaction has no caller of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .addresses import Address

PROXY_METHODS = frozenset({"stake", "add_to_stake", "request_unstake", "transfer_value", "noop"})


@dataclass(frozen=True)
class ProxyPayload:
    """What an owner asks their bound account to do.

    The method set is closed: the simulator has no bytecode VM, so arbitrary
    calls are represented by symbolic tags.
    """

    method: str
    amount: int = 0
    to: Address | None = None

    def __post_init__(self):
        if self.method not in PROXY_METHODS:
            raise ValueError(f"unknown proxy method {self.method!r}")


@dataclass(frozen=True)
class TransferValue:
    caller: Address
    to: Address
    amount: int


@dataclass(frozen=True)
class MintToken:
    """Plain NFT mint, no account attached (the token-bound-account starting point)."""

    caller: Address
    collection: Address
    to: Address
    note: bytes


@dataclass(frozen=True)
class TransferToken:
    caller: Address
    collection: Address
    token_id: int
    to: Address


@dataclass(frozen=True)
class MintNftaa:
    """Atomically create a proxy account plus its bound NFT."""

    caller: Address
    factory: Address
    note: bytes


@dataclass(frozen=True)
class ProxyExecute:
    caller: Address
    nftaa: Address
    payload: ProxyPayload


@dataclass(frozen=True)
class WithdrawAssets:
    caller: Address
    nftaa: Address
    to: Address
    amount: int


@dataclass(frozen=True)
class UpgradeAccount:
    caller: Address
    nftaa: Address
    new_version: int


@dataclass(frozen=True)
class CreateTba:
    caller: Address
    registry: Address
    collection: Address
    token_id: int
    salt: bytes
    has_execute: bool = True


@dataclass(frozen=True)
class TbaExecute:
    caller: Address
    tba: Address
    payload: ProxyPayload


@dataclass(frozen=True)
class Fail:
    """Always fails; used to exercise rollback paths."""

    message: str = "injected"

