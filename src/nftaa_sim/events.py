"""Append-only event log records.

Events from rolled-back transactions are buffered per transaction and
discarded, so the log only ever shows committed history.
"""

from __future__ import annotations

from enum import Enum

from .addresses import Address, to_hex
from .records import Record

SYSTEM_TX_ID = 0  # faucet credits and block-level withdrawal processing


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
    __slots__ = __match_args__ = ("kind", "emitter", "payload", "block", "tx_id")
    def __init__(self, kind: EventKind, emitter: Address, payload: dict, block: int, tx_id: int):
        self.kind, self.emitter, self.payload = kind, emitter, payload
        self.block, self.tx_id = block, tx_id

    def render(self) -> str:
        parts = [f"block={self.block}", f"tx={self.tx_id}", self.kind.value,
                 f"emitter={to_hex(self.emitter)}"]
        for key, value in self.payload.items():
            parts.append(f"{key}={value}")
        return " ".join(parts)
