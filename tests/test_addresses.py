"""Address derivation: verified against independent digest recomputation."""

import hashlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from nftaa_sim import (
    contract_address,
    deterministic_address,
    eoa_address,
    salt_from_int,
)


def test_eoa_address_matches_independent_digest():
    # oracle: recompute the digest by hand, no package code involved
    expected = hashlib.sha256(b"eoa:alice").digest()[:20]
    assert eoa_address("alice") == expected
    assert len(eoa_address("alice")) == 20


def test_eoa_address_deterministic_across_processes():
    # standalone hashing script, shares nothing with the package
    script = (
        "import hashlib,sys;"
        "print(hashlib.sha256(b'eoa:' + sys.argv[1].encode()).digest()[:20].hex())"
    )
    out = subprocess.run([sys.executable, "-c", script, "carol"],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == eoa_address("carol").hex()


def test_contract_address_oracle_and_distinctness():
    creator = eoa_address("creator")
    expected = hashlib.sha256(b"create:" + creator + (5).to_bytes(8, "big")).digest()[:20]
    assert contract_address(creator, 5) == expected
    # distinctness checked by direct computation over a small corpus
    seen = {contract_address(creator, nonce) for nonce in range(100)}
    assert len(seen) == 100
    other = eoa_address("other")
    assert contract_address(creator, 5) != contract_address(other, 5)


def test_deterministic_address_oracle():
    deployer = eoa_address("deployer")
    salt = salt_from_int(42)
    expected = hashlib.sha256(b"create2:" + deployer + salt + b"TbaAccount").digest()[:20]
    assert deterministic_address(deployer, salt, "TbaAccount") == expected
    # pure: same inputs, same output
    assert deterministic_address(deployer, salt, "TbaAccount") == \
        deterministic_address(deployer, salt, "TbaAccount")


def test_deterministic_address_cross_process():
    deployer = eoa_address("deployer")
    salt = salt_from_int(7)
    script = (
        "import hashlib,sys;"
        "d=bytes.fromhex(sys.argv[1]);s=bytes.fromhex(sys.argv[2]);"
        "print(hashlib.sha256(b'create2:'+d+s+sys.argv[3].encode()).digest()[:20].hex())"
    )
    out = subprocess.run([sys.executable, "-c", script, deployer.hex(), salt.hex(),
                          "TbaAccount"], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == deterministic_address(deployer, salt, "TbaAccount").hex()


def test_two_salts_two_addresses():
    deployer = eoa_address("deployer")
    assert deterministic_address(deployer, salt_from_int(0), "TbaAccount") != \
        deterministic_address(deployer, salt_from_int(1), "TbaAccount")


def test_salt_length_enforced():
    with pytest.raises(ValueError):
        deterministic_address(eoa_address("d"), b"\x00" * 31, "TbaAccount")


def test_negative_nonce_and_salt_rejected():
    with pytest.raises(ValueError):
        contract_address(eoa_address("c"), -1)
    with pytest.raises(ValueError):
        salt_from_int(-1)


@given(st.text(min_size=1, max_size=40))
def test_eoa_derivation_is_stable(label):
    assert eoa_address(label) == eoa_address(label)


@given(st.lists(st.text(min_size=1, max_size=24), min_size=2, max_size=30,
                unique=True))
def test_distinct_labels_distinct_addresses(labels):
    addresses = [eoa_address(label) for label in labels]
    assert len(set(addresses)) == len(labels)


def test_injectivity_over_large_mixed_corpus():
    # 10^5 derivations across all three schemes; any collision is a hard error
    seen = set()
    creator = eoa_address("bulk-creator")
    for i in range(40_000):
        seen.add(eoa_address(f"bulk{i}"))
        seen.add(contract_address(creator, i))
    for i in range(20_000):
        seen.add(deterministic_address(creator, salt_from_int(i), "TbaAccount"))
    assert len(seen) == 100_000
