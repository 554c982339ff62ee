"""Append-only event log records.

Events from rolled-back transactions are buffered per transaction and
discarded, so the log only ever shows committed history.
"""

from __future__ import annotations

from enum import Enum

from .addresses import Address
from .records import Record

SYSTEM_TX_ID = 0  # faucet credits and block-level withdrawal processing


def hexed(value: object) -> object:
    """A value as reports, asserts, payloads and error details show it: `bytes` as
    lowercase hex, `None` as `none`, any other value as it is."""
    return value.hex() if type(value) is bytes else "none" if value is None else value


class EventKind(str, Enum):
    NEW_NFTAA = "NewNFTAA"
    PROXY_RESPONSE = "ProxyResponse"
    TRANSFER = "Transfer"
    STAKED = "Staked"
    STAKE_INCREASED = "StakeIncreased"
    UNSTAKE_REQUESTED = "UnstakeRequested"
    WITHDRAWAL_PROCESSED = "WithdrawalProcessed"
    TBA_CREATED = "TbaCreated"

    def __str__(self) -> str:
        return self.value


class Event(Record):
    """One log entry. `fields` keeps the payload's values as the ledger had them
    (addresses and salts as `bytes`); `render` and `payload` show them as text."""

    __slots__ = __match_args__ = ("kind", "emitter", "fields", "block", "tx_id")
    def __init__(self, kind: EventKind, emitter: Address, fields: dict, block: int, tx_id: int):
        self.kind, self.emitter, self.fields = kind, emitter, fields
        self.block, self.tx_id = block, tx_id

    @property
    def payload(self) -> dict:
        """The fields as the log shows them, built on each read: bytes as hex, None as `none`."""
        return {key: hexed(value) for key, value in self.fields.items()}

    def render(self) -> str:
        parts = [f"block={self.block}", f"tx={self.tx_id}", self.kind.value,
                 f"emitter={self.emitter.hex()}"]
        for key, value in self.fields.items():
            parts.append(f"{key}={hexed(value)}")
        return " ".join(parts)
