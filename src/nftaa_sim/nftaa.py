"""NFT-as-account records: the proxy account and its binding.

An NftaaAccount is a contract account whose only key is an NFT: whoever owns
the bound token controls the account. The binding is bidirectional and fixed
at creation; the token's record carries the account address and the account
record carries the token's id in the world's one collection.
"""

from __future__ import annotations

from .records import Record


class NftaaAccount(Record):
    __slots__ = __match_args__ = ("bound_token_id", "upgrade_version")
    def __init__(self, bound_token_id: int):
        self.bound_token_id, self.upgrade_version = bound_token_id, 1
