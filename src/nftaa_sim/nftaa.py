"""NFT-as-account records: the proxy account, its factory, and the binding.

An NftaaAccount is a contract account whose only key is an NFT: whoever owns
the bound token controls the account. The binding is bidirectional and fixed
at creation; the token's record carries the account address and the account
record carries the token identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .addresses import Address


@dataclass
class NftaaAccount:
    bound_collection: Address
    bound_token_id: int
    upgrade_version: int = 1

    @property
    def bound_nft(self) -> tuple[Address, int]:
        return (self.bound_collection, self.bound_token_id)


@dataclass
class FactoryState:
    address: Address
    creation_nonce: int = 0
