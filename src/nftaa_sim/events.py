"""Append-only event log records.

Events from rolled-back transactions are buffered per transaction and
discarded, so the log only ever shows committed history. An event stores
its shape (its kind, keys and log-line format, one table for all) and a
tuple of raw values; its text and its mappings are built when read.
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


class Shape(Record):
    """One shape of event: its kind, its keys in log order, and its log line's `%` format,
    built once from them. Every shape is a module constant, compared by identity."""

    __slots__ = __match_args__ = ("kind", "keys", "format")
    def __init__(self, kind: EventKind, *keys: str):
        self.kind, self.keys = kind, keys
        self.format = " ".join(["block=%d tx=%d", kind.value, "emitter=%s",
                                *(f"{key}=%s" for key in keys)])


# The one table of event shapes: each kind has one, a `Transfer` two (value and token).
NEW_NFTAA = Shape(EventKind.NEW_NFTAA, "token_id", "account", "creator")
PROXY_RESPONSE = Shape(EventKind.PROXY_RESPONSE, "nftaa", "method", "success")
VALUE_TRANSFER = Shape(EventKind.TRANSFER, "from", "to", "amount")
TOKEN_TRANSFER = Shape(EventKind.TRANSFER, "from", "to", "token_id")
STAKED = Shape(EventKind.STAKED, "amount", "unlock_block")
STAKE_INCREASED = Shape(EventKind.STAKE_INCREASED, "amount", "total")
UNSTAKE_REQUESTED = Shape(EventKind.UNSTAKE_REQUESTED, "amount", "enqueued_at")
WITHDRAWAL_PROCESSED = Shape(EventKind.WITHDRAWAL_PROCESSED, "owner", "amount", "enqueued_at")
TBA_CREATED = Shape(EventKind.TBA_CREATED, "collection", "token_id", "salt", "account")
SHAPES = (NEW_NFTAA, PROXY_RESPONSE, VALUE_TRANSFER, TOKEN_TRANSFER, STAKED, STAKE_INCREASED,
          UNSTAKE_REQUESTED, WITHDRAWAL_PROCESSED, TBA_CREATED)


class Event(Record):
    """One log entry: its shape and its values in the shape's key order, as the ledger had
    them (addresses and salts as `bytes`). `render` and `payload` show them as text."""

    __slots__ = __match_args__ = ("shape", "emitter", "values", "block", "tx_id")
    def __init__(self, shape: Shape, emitter: Address, values: tuple, block: int, tx_id: int):
        self.shape, self.emitter, self.values = shape, emitter, values
        self.block, self.tx_id = block, tx_id

    @property
    def kind(self) -> EventKind:
        return self.shape.kind

    @property
    def fields(self) -> dict:
        """The values by key, as the ledger had them, built on each read."""
        return dict(zip(self.shape.keys, self.values))

    @property
    def payload(self) -> dict:
        """The values by key as the log shows them, built on each read: bytes as hex, None
        as `none`."""
        return {key: hexed(value) for key, value in zip(self.shape.keys, self.values)}

    def render(self) -> str:
        return self.shape.format % (self.block, self.tx_id, self.emitter.hex(),
                                    *map(hexed, self.values))
