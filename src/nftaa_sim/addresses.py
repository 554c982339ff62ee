"""Deterministic 20-byte address derivation.

Three domain-separated schemes cover every account the simulator creates:

* ``eoa:<label>``                      externally owned accounts
* ``create:<creator><nonce>``         nonce-based contract creation (the factory path)
* ``create2:<deployer><salt><code>``  salted deterministic creation, computable
                                      before anything exists at the address

All three are the first 20 bytes of a SHA-256 digest, so any independent
implementation can recompute them.
"""

from __future__ import annotations

import hashlib

Address = bytes  # exactly 20 bytes

ADDRESS_LEN = 20
SALT_LEN = 32
ZERO_ADDRESS: Address = b"\x00" * ADDRESS_LEN


def _first20(preimage: bytes) -> Address:
    return hashlib.sha256(preimage).digest()[:ADDRESS_LEN]


def eoa_address(label: str) -> Address:
    """Address of an externally owned account derived from its label."""
    return _first20(b"eoa:" + label.encode("utf-8"))


def contract_address(creator: Address, nonce: int) -> Address:
    """Nonce-based contract address; nonce is encoded as 8 bytes big-endian."""
    if nonce < 0:
        raise ValueError("nonce must be non-negative")
    return _first20(b"create:" + creator + nonce.to_bytes(8, "big"))


def deterministic_address(deployer: Address, salt: bytes, code_id: str) -> Address:
    """Salted address, computable before deployment (counterfactual).

    `code_id` is the symbolic contract-kind tag, hashed as its ASCII name.
    """
    if len(salt) != SALT_LEN:
        raise ValueError(f"salt must be {SALT_LEN} bytes, got {len(salt)}")
    return _first20(b"create2:" + deployer + salt + code_id.encode("ascii"))


def salt_from_int(value: int) -> bytes:
    """Pack a small integer into the 32-byte salt format used by scenario files."""
    if value < 0:
        raise ValueError("salt must be non-negative")
    return value.to_bytes(SALT_LEN, "big")
