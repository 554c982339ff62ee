"""Token-bound accounts, registry style.

The deliberate contrast with the NFTAA design: a registry maps
(collection, token, salt) to a salted deterministic address, the address is
computable before deployment, one NFT may have any number of accounts, the
creation is a separate transaction from the mint, and the token itself
records nothing about any of it. Each of those properties is a documented
hazard surface this module preserves on purpose.

Computing an address is pure: the registry holds only the deployed records.
Mints and transfers reach existing accounts only, so every account at a
registry address is one of those records.
"""

from __future__ import annotations

import hashlib

from .addresses import Address, deterministic_address
from .errors import ErrorCode, LedgerError
from .records import Record


class TbaRecord(Record):
    """A deployed account of a token in the world's one collection."""

    __slots__ = __match_args__ = ("token_id", "salt", "has_execute")
    def __init__(self, token_id: int, salt: bytes, has_execute: bool):
        self.token_id, self.salt = token_id, salt
        self.has_execute = has_execute  # badly developed account variant when False


class TbaRegistry(Record):
    __slots__ = __match_args__ = ("address", "records")
    def __init__(self, address: Address):
        self.address = address
        self.records: dict[Address, TbaRecord] = {}  # deployed, by address

    def compute_address(self, collection: Address, token_id: int, salt: bytes) -> Address:
        """The account address of this key, deployed or not."""
        return deterministic_address(self.address, _mix(collection, token_id, salt), "TbaAccount")

    def get_deployed(self, address: Address) -> TbaRecord:
        record = self.records.get(address)
        if record is None:
            raise LedgerError(ErrorCode.NOT_DEPLOYED, address=address)
        return record

    def sorted_records(self) -> list[tuple[Address, TbaRecord]]:
        """Deployed (address, record) pairs in (token_id, salt) order."""
        return sorted(self.records.items(), key=lambda item: (item[1].token_id, item[1].salt))


def _mix(collection: Address, token_id: int, salt: bytes) -> bytes:
    """Fold the token identity into one 32-byte salt for the address derivation."""
    return hashlib.sha256(collection + token_id.to_bytes(8, "big") + salt).digest()


# ---------------------------------------------------------------------------
# Diagnostics for the hazards this account style permits
# ---------------------------------------------------------------------------

def detect_locked_nfts(state) -> list[int]:
    """The ids of the minted tokens owned by an account derived from themselves.

    Such a token can never satisfy its own owner gate again: the only party
    that could act is the account, and accounts do not originate calls.
    A token can only be sent to an existing account, so its owner is one of
    its own accounts exactly when the owner is a deployed record of it. So
    the walk is over the deployed records (each made for a minted token),
    not over the tokens; the ids are sorted.
    """
    tokens = state.collection.tokens
    return sorted(record.token_id for address, record in state.registry.records.items()
                  if tokens[record.token_id].owner == address)


def detect_stranded_tbas(state) -> list[tuple[Address, int]]:
    """Deployed accounts without an execute function that are holding funds, in
    (token_id, salt) order: only the records without one are sorted."""
    stranded = []
    for *_, address in sorted((record.token_id, record.salt, address)
                              for address, record in state.registry.records.items()
                              if not record.has_execute):
        account = state.accounts.get(address)
        if account is not None and account.balance > 0:
            stranded.append((address, account.balance))
    return stranded


def diagnostic_lines(state) -> list[str]:
    lines = []
    collection = state.collection
    for token_id in detect_locked_nfts(state):
        owner = collection.tokens[token_id].owner
        lines.append(f"locked nft={collection.address.hex()}:{token_id} owner={owner.hex()}")
    for address, balance in detect_stranded_tbas(state):
        lines.append(f"stranded tba={address.hex()} balance={balance}")
    return lines
