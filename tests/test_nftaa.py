"""Proxy-account protocol: atomic creation, owner gating, withdrawal guard,
upgrades, and the binding bijection."""

import pytest

from nftaa_sim import (
    ETH,
    ErrorCode,
    EventKind,
    Fail,
    Ledger,
    MintNftaa,
    MintToken,
    ProxyExecute,
    ProxyPayload,
    TransferToken,
    TransferValue,
    UpgradeAccount,
    WithdrawAssets,
)
from tests.ledger_helpers import mint_nftaa, must


@pytest.fixture
def world():
    ledger = Ledger()
    alice = ledger.create_eoa("alice")
    bob = ledger.create_eoa("bob")
    ledger.faucet(alice, 100 * ETH)
    return ledger, alice, bob


def test_mint_binds_both_directions(world):
    ledger, alice, _ = world
    token_id, account = mint_nftaa(ledger, alice, b"v1")
    assert token_id == 1
    assert ledger.state.collection.owner_of(token_id) == alice
    assert ledger.account_of(token_id) == account
    assert ledger.bound_nft_of(account) == token_id
    created = [e for e in ledger.events if e.kind is EventKind.NEW_NFTAA]
    assert len(created) == 1
    assert created[0].payload["token_id"] == token_id


def test_mint_empty_note_leaves_no_residue(world):
    ledger, alice, _ = world
    digest = ledger.state_digest()
    events = len(ledger.events)
    receipt = ledger.apply_transaction(MintNftaa(alice, b""))
    assert receipt.error.code is ErrorCode.EMPTY_NOTE
    assert ledger.state_digest() == digest
    assert len(ledger.events) == events
    assert ledger.state.nftaas == {}
    assert ledger.state.collection.tokens == {}


def test_mint_oversize_note_leaves_no_residue(world):
    ledger, alice, _ = world
    digest = ledger.state_digest()
    receipt = ledger.apply_transaction(MintNftaa(alice, b"x" * 257))
    assert receipt.error.code is ErrorCode.NOTE_TOO_LARGE
    assert ledger.state_digest() == digest


def test_mint_boundary_note_lengths(world):
    ledger, alice, _ = world
    mint_nftaa(ledger, alice, b"a")        # length 1 allowed
    mint_nftaa(ledger, alice, b"b" * 256)  # length 256 allowed


def test_account_of_plain_token_is_none(world):
    ledger, alice, _ = world
    must(ledger, MintToken(alice, alice, b"plain"))
    assert ledger.account_of(1) is None


def test_account_of_unminted_token(world):
    ledger, _, _ = world
    with pytest.raises(Exception) as caught:
        ledger.account_of(40)
    assert caught.value.code is ErrorCode.UNKNOWN_TOKEN


def test_bound_nft_of_non_nftaa(world):
    ledger, alice, _ = world
    with pytest.raises(Exception) as caught:
        ledger.bound_nft_of(alice)
    assert caught.value.code is ErrorCode.NOT_AN_NFTAA


def test_binding_bijection_over_many_accounts(world):
    # oracle: iterate every account and check the two maps invert each other
    ledger, alice, bob = world
    ledger.faucet(bob, ETH)
    for i in range(6):
        mint_nftaa(ledger, alice if i % 2 else bob, f"acct{i}".encode())
    for address, binding in ledger.state.nftaas.items():
        assert ledger.account_of(binding.bound_token_id) == address
    bound = {token_id: r for token_id, r in ledger.state.collection.tokens.items()
             if r.bound_account is not None}
    assert len(bound) == len(ledger.state.nftaas)
    for token_id, record in bound.items():
        assert ledger.bound_nft_of(record.bound_account) == token_id


def test_proxy_noop_emits_response(world):
    ledger, alice, _ = world
    _, account = mint_nftaa(ledger, alice, b"n")
    receipt = must(ledger, ProxyExecute(alice, account, ProxyPayload("noop")))
    responses = [e for e in receipt.events if e.kind is EventKind.PROXY_RESPONSE]
    assert len(responses) == 1
    assert responses[0].payload == {"nftaa": account.hex(), "method": "noop",
                                    "success": True}


def test_proxy_non_owner_rejected_without_event(world):
    ledger, alice, bob = world
    _, account = mint_nftaa(ledger, alice, b"n")
    receipt = ledger.apply_transaction(ProxyExecute(bob, account, ProxyPayload("noop")))
    assert receipt.error.code is ErrorCode.NOT_NFT_OWNER
    assert all(e.kind is not EventKind.PROXY_RESPONSE for e in ledger.events)


def test_proxy_on_non_nftaa(world):
    ledger, alice, bob = world
    receipt = ledger.apply_transaction(ProxyExecute(alice, bob, ProxyPayload("noop")))
    assert receipt.error.code is ErrorCode.NOT_AN_NFTAA


def test_authorization_follows_nft(world):
    """After every transfer the gate re-evaluates ownership: the oracle
    re-checks owner_of at each step over all two-owner sequences."""
    ledger, alice, bob = world
    token_id, account = mint_nftaa(ledger, alice, b"n")
    for flips in range(5):
        owner = ledger.state.collection.owner_of(token_id)
        outsider = bob if owner == alice else alice
        ok = ledger.apply_transaction(ProxyExecute(owner, account, ProxyPayload("noop")))
        assert ok.committed
        bad = ledger.apply_transaction(ProxyExecute(outsider, account, ProxyPayload("noop")))
        assert bad.error.code is ErrorCode.NOT_NFT_OWNER
        must(ledger, TransferToken(owner, token_id, outsider))


def test_proxy_acts_as_the_account(world):
    # the inner transfer's sender is the bound account, not the human owner
    ledger, alice, bob = world
    _, account = mint_nftaa(ledger, alice, b"n")
    must(ledger, TransferValue(alice, account, 5 * ETH))
    alice_before = ledger.balance_of(alice)
    receipt = must(ledger, ProxyExecute(alice, account,
                                       ProxyPayload("transfer_value", amount=2 * ETH,
                                                    to=bob)))
    transfer = next(e for e in receipt.events if e.kind is EventKind.TRANSFER)
    assert transfer.payload["from"] == account.hex()
    assert ledger.balance_of(bob) == 2 * ETH
    assert ledger.balance_of(alice) == alice_before
    assert ledger.balance_of(account) == 3 * ETH


def test_withdraw_by_owner(world):
    ledger, alice, bob = world
    _, account = mint_nftaa(ledger, alice, b"n")
    must(ledger, TransferValue(alice, account, 5 * ETH))
    must(ledger, WithdrawAssets(alice, account, bob, ETH))
    assert ledger.balance_of(bob) == ETH


def test_withdraw_insufficient(world):
    ledger, alice, _ = world
    _, account = mint_nftaa(ledger, alice, b"n")
    receipt = ledger.apply_transaction(WithdrawAssets(alice, account, alice, 1))
    assert receipt.error.code is ErrorCode.INSUFFICIENT_BALANCE


def test_fraud_guard_both_orders(world):
    """Enumerate both op orders: selling the NFT and draining the account in
    one transaction must roll back either way."""
    ledger, alice, bob = world
    token_id, account = mint_nftaa(ledger, alice, b"n")
    must(ledger, TransferValue(alice, account, 10 * ETH))
    digest = ledger.state_digest()
    orderings = [
        [WithdrawAssets(alice, account, alice, ETH),
         TransferToken(alice, token_id, bob)],
        [TransferToken(alice, token_id, bob),
         WithdrawAssets(bob, account, bob, ETH)],
    ]
    for ops in orderings:
        receipt = ledger.apply_transaction(*ops)
        assert receipt.error.code is ErrorCode.FRAUD_GUARD
        assert ledger.state_digest() == digest
    # separated into two transactions the same intent is legitimate
    must(ledger, WithdrawAssets(alice, account, alice, ETH))
    must(ledger, TransferToken(alice, token_id, bob))
    assert ledger.state.collection.owner_of(token_id) == bob


def test_fraud_guard_covers_proxy_drain(world):
    ledger, alice, bob = world
    token_id, account = mint_nftaa(ledger, alice, b"n")
    must(ledger, TransferValue(alice, account, 10 * ETH))
    receipt = ledger.apply_transaction(
                   ProxyExecute(alice, account, ProxyPayload("transfer_value", amount=ETH,
                                                             to=alice)),
                   TransferToken(alice, token_id, bob))
    assert receipt.error.code is ErrorCode.FRAUD_GUARD


def test_self_custody_hazard_rejected(world):
    ledger, alice, _ = world
    token_id, account = mint_nftaa(ledger, alice, b"n")
    receipt = ledger.apply_transaction(TransferToken(alice, token_id, account))
    assert receipt.error.code is ErrorCode.SELF_CUSTODY_HAZARD
    assert ledger.state.collection.owner_of(token_id) == alice


def test_upgrade_touches_only_the_version(world):
    ledger, alice, _ = world
    _, account = mint_nftaa(ledger, alice, b"n")
    before = ledger.state_digest()
    must(ledger, UpgradeAccount(alice, account, 2))
    assert ledger.state.nftaas[account].upgrade_version == 2
    assert ledger.state_digest() != before
    # undoing the version restores the exact canonical state
    ledger.state.nftaas[account].upgrade_version = 1
    assert ledger.state_digest() == before


def test_upgrade_gating_and_version_skew(world):
    ledger, alice, bob = world
    _, account = mint_nftaa(ledger, alice, b"n")
    receipt = ledger.apply_transaction(UpgradeAccount(bob, account, 2))
    assert receipt.error.code is ErrorCode.NOT_NFT_OWNER
    receipt = ledger.apply_transaction(UpgradeAccount(alice, account, 3))
    assert receipt.error.code is ErrorCode.VERSION_SKEW
    assert ledger.state.nftaas[account].upgrade_version == 1


def test_upgrade_preserves_balance_and_stake(world):
    ledger, alice, _ = world
    _, account = mint_nftaa(ledger, alice, b"n")
    must(ledger, TransferValue(alice, account, 40 * ETH))
    must(ledger, ProxyExecute(alice, account, ProxyPayload("stake", amount=32 * ETH)))
    must(ledger, UpgradeAccount(alice, account, 2))
    assert ledger.balance_of(account) == 8 * ETH
    assert ledger.stake_balance_of(account) == 32 * ETH
    assert ledger.bound_nft_of(account) == 1


def test_creation_atomicity_under_injected_failures(world):
    """With failures injected into creation transactions, the account count
    always equals the bound-token count."""
    ledger, alice, _ = world
    attempts = [
        (b"good", False), (b"", False), (b"ok", True), (b"x" * 300, False),
        (b"fine", False), (b"also fine", True),
    ]
    for note, inject in attempts:
        ops = [MintNftaa(alice, note)]
        if inject:
            ops.append(Fail())
        ledger.apply_transaction(*ops)
        accounts = len(ledger.state.nftaas)
        bound = sum(1 for r in ledger.state.collection.tokens.values()
                    if r.bound_account is not None)
        assert accounts == bound
    assert len(ledger.state.nftaas) == 2  # only the clean mints survived
