"""Minimal NFT collection: sequential ids, single ownership, per-token note.

Just enough of the usual NFT surface to host account-binding metadata. No
approvals, no burning, no metadata URIs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .addresses import Address
from .errors import ErrorCode, err

NOTE_MIN_LEN = 1
NOTE_MAX_LEN = 256  # reject anything larger as "excessively large"


@dataclass
class NftRecord:
    token_id: int
    owner: Address
    note: bytes
    # Set once at mint when the token fronts a proxy account; immutable afterwards.
    bound_account: Address | None = None


@dataclass
class NftCollection:
    address: Address
    tokens: dict[int, NftRecord] = field(default_factory=dict)
    next_id: int = 1

    def get(self, token_id: int) -> NftRecord:
        record = self.tokens.get(token_id)
        if record is None:
            raise err(ErrorCode.UNKNOWN_TOKEN, token=token_id)
        return record

    def owner_of(self, token_id: int) -> Address:
        return self.get(token_id).owner


def validate_note(note: bytes) -> None:
    if len(note) < NOTE_MIN_LEN:
        raise err(ErrorCode.EMPTY_NOTE)
    if len(note) > NOTE_MAX_LEN:
        raise err(ErrorCode.NOTE_TOO_LARGE, length=len(note), limit=NOTE_MAX_LEN)
