"""Transaction operations as plain data.

A transaction is an ordered list of these records applied atomically by the
ledger. Each record carries its own caller, and authorization is evaluated
per operation: a transaction has no caller of its own. No operation names a
system contract, since the world has one collection, factory and registry.
"""

from __future__ import annotations

from .addresses import Address
from .records import Record

PROXY_METHODS = frozenset({"stake", "add_to_stake", "request_unstake", "transfer_value", "noop"})


class ProxyPayload(Record):
    """What an owner asks their bound account to do.

    The method set is closed: the simulator has no bytecode VM, so arbitrary
    calls are represented by symbolic tags. An unknown method is a ValueError.
    """

    __slots__ = __match_args__ = ("method", "amount", "to")
    def __init__(self, method: str, amount: int = 0, to: Address | None = None):
        if method not in PROXY_METHODS:
            raise ValueError(f"unknown proxy method {method!r}")
        self.method, self.amount, self.to = method, amount, to


class TransferValue(Record):
    __slots__ = __match_args__ = ("caller", "to", "amount")
    def __init__(self, caller: Address, to: Address, amount: int):
        self.caller, self.to, self.amount = caller, to, amount


class MintToken(Record):
    """Plain NFT mint, no account attached (the token-bound-account starting point)."""

    __slots__ = __match_args__ = ("caller", "to", "note")
    def __init__(self, caller: Address, to: Address, note: bytes):
        self.caller, self.to, self.note = caller, to, note


class TransferToken(Record):
    __slots__ = __match_args__ = ("caller", "token_id", "to")
    def __init__(self, caller: Address, token_id: int, to: Address):
        self.caller, self.token_id, self.to = caller, token_id, to


class MintNftaa(Record):
    """Atomically create a proxy account plus its bound NFT."""

    __slots__ = __match_args__ = ("caller", "note")
    def __init__(self, caller: Address, note: bytes):
        self.caller, self.note = caller, note


class ProxyExecute(Record):
    __slots__ = __match_args__ = ("caller", "nftaa", "payload")
    def __init__(self, caller: Address, nftaa: Address, payload: ProxyPayload):
        self.caller, self.nftaa, self.payload = caller, nftaa, payload


class WithdrawAssets(Record):
    __slots__ = __match_args__ = ("caller", "nftaa", "to", "amount")
    def __init__(self, caller: Address, nftaa: Address, to: Address, amount: int):
        self.caller, self.nftaa, self.to, self.amount = caller, nftaa, to, amount


class UpgradeAccount(Record):
    __slots__ = __match_args__ = ("caller", "nftaa", "new_version")
    def __init__(self, caller: Address, nftaa: Address, new_version: int):
        self.caller, self.nftaa, self.new_version = caller, nftaa, new_version


class CreateTba(Record):
    __slots__ = __match_args__ = ("caller", "token_id", "salt", "has_execute")
    def __init__(self, caller: Address, token_id: int, salt: bytes, has_execute: bool = True):
        self.caller, self.token_id, self.salt = caller, token_id, salt
        self.has_execute = has_execute


class TbaExecute(Record):
    __slots__ = __match_args__ = ("caller", "tba", "payload")
    def __init__(self, caller: Address, tba: Address, payload: ProxyPayload):
        self.caller, self.tba, self.payload = caller, tba, payload


class Fail(Record):
    """Always fails; used to exercise rollback paths."""

    __slots__ = __match_args__ = ()
