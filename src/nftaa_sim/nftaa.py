"""NFT-as-account records: the proxy account, its factory, and the binding.

An NftaaAccount is a contract account whose only key is an NFT: whoever owns
the bound token controls the account. The binding is bidirectional and fixed
at creation; the token's record carries the account address and the account
record carries the token identity.
"""

from __future__ import annotations

from .addresses import Address
from .records import Record


class NftaaAccount(Record):
    __slots__ = __match_args__ = ("bound_collection", "bound_token_id", "upgrade_version")
    def __init__(self, bound_collection: Address, bound_token_id: int):
        self.bound_collection, self.bound_token_id = bound_collection, bound_token_id
        self.upgrade_version = 1

    @property
    def bound_nft(self) -> tuple[Address, int]:
        return (self.bound_collection, self.bound_token_id)


class FactoryState(Record):
    __slots__ = __match_args__ = ("address", "creation_nonce")
    def __init__(self, address: Address):
        self.address, self.creation_nonce = address, 0
