"""Minimal NFT collection: sequential ids, single ownership, per-token note.

Just enough of the usual NFT surface to host account-binding metadata. No
approvals, no burning, no metadata URIs. Ids run from 1 and none is burned,
so the next id is always one past the number of tokens.
"""

from __future__ import annotations

from .addresses import Address
from .errors import ErrorCode, LedgerError
from .records import Record

NOTE_MIN_LEN = 1
NOTE_MAX_LEN = 256  # reject anything larger as "excessively large"


class NftRecord(Record):
    """One token; its id is its key in `NftCollection.tokens`."""

    __slots__ = __match_args__ = ("owner", "note", "bound_account")
    def __init__(self, owner: Address, note: bytes, bound_account: Address | None):
        self.owner, self.note = owner, note
        # Set once at mint when the token fronts a proxy account; immutable afterwards.
        self.bound_account = bound_account


class NftCollection(Record):
    __slots__ = __match_args__ = ("address", "tokens")
    def __init__(self, address: Address):
        self.address = address
        self.tokens: dict[int, NftRecord] = {}

    @property
    def next_id(self) -> int:
        return len(self.tokens) + 1

    def get(self, token_id: int) -> NftRecord:
        record = self.tokens.get(token_id)
        if record is None:
            raise LedgerError(ErrorCode.UNKNOWN_TOKEN, token=token_id)
        return record

    def owner_of(self, token_id: int) -> Address:
        return self.get(token_id).owner


def validate_note(note: bytes) -> None:
    if len(note) < NOTE_MIN_LEN:
        raise LedgerError(ErrorCode.EMPTY_NOTE)
    if len(note) > NOTE_MAX_LEN:
        raise LedgerError(ErrorCode.NOTE_TOO_LARGE, length=len(note), limit=NOTE_MAX_LEN)
