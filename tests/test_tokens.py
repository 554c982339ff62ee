"""Token collection semantics: ids, ownership, transfers, notes, bindings."""

import itertools
import random

import pytest

from nftaa_sim import (
    ErrorCode,
    EventKind,
    Ledger,
    MintToken,
    TransferToken,
    ZERO_ADDRESS,
)
from tests.ledger_helpers import mint_nftaa, must


@pytest.fixture
def world():
    ledger = Ledger()
    alice = ledger.create_eoa("alice")
    bob = ledger.create_eoa("bob")
    return ledger, alice, bob


def _mint(ledger, caller, to, note=b"n"):
    receipt = must(ledger, MintToken(caller, to, note))
    event = receipt.events[0]
    assert event.kind is EventKind.TRANSFER
    assert event.payload["from"] == ZERO_ADDRESS.hex()
    return event.payload["token_id"]


def test_first_mint_gets_id_one(world):
    ledger, alice, _ = world
    assert _mint(ledger, alice, alice) == 1


def test_sequential_ids_and_owners(world):
    ledger, alice, bob = world
    assert _mint(ledger, alice, alice) == 1
    assert _mint(ledger, alice, bob) == 2
    assert ledger.state.collection.owner_of(1) == alice
    assert ledger.state.collection.owner_of(2) == bob


def test_owner_of_unminted(world):
    ledger, _, _ = world
    with pytest.raises(Exception) as caught:
        ledger.state.collection.owner_of(99)
    assert caught.value.code is ErrorCode.UNKNOWN_TOKEN


def test_transfer_changes_owner(world):
    ledger, alice, bob = world
    token = _mint(ledger, alice, alice)
    must(ledger, TransferToken(alice, token, bob))
    assert ledger.state.collection.owner_of(token) == bob


def test_transfer_to_self_emits_event(world):
    ledger, alice, _ = world
    token = _mint(ledger, alice, alice)
    receipt = must(ledger, TransferToken(alice, token, alice))
    assert ledger.state.collection.owner_of(token) == alice
    assert len(receipt.events) == 1


def test_non_owner_transfer_rejected(world):
    ledger, alice, bob = world
    token = _mint(ledger, alice, alice)
    digest = ledger.state_digest()
    receipt = ledger.apply_transaction(TransferToken(bob, token, bob))
    assert receipt.error.code is ErrorCode.NOT_OWNER
    assert ledger.state_digest() == digest


def test_transfer_chain(world):
    ledger, alice, bob = world
    carol = ledger.create_eoa("carol")
    token = _mint(ledger, alice, alice)
    must(ledger, TransferToken(alice, token, bob))
    must(ledger, TransferToken(bob, token, carol))
    assert ledger.state.collection.owner_of(token) == carol


def test_note_round_trip(world):
    ledger, alice, _ = world
    token = _mint(ledger, alice, alice, note=b"hello")
    assert ledger.token_note(token) == b"hello"


def test_note_256_bytes_intact(world):
    ledger, alice, _ = world
    note = bytes(range(256))
    token = _mint(ledger, alice, alice, note=note)
    returned = ledger.token_note(token)
    assert returned == note
    assert len(returned) == 256


def test_note_of_unminted(world):
    ledger, _, _ = world
    with pytest.raises(Exception) as caught:
        ledger.token_note(7)
    assert caught.value.code is ErrorCode.UNKNOWN_TOKEN


def test_bound_account_survives_every_transfer_order(world):
    """Exhaustive small scenario: the binding set at mint never changes no
    matter which sequence of transfers runs afterwards.
    """
    ledger, alice, bob = world
    carol = ledger.create_eoa("carol")
    actors = [alice, bob, carol]
    token, target = mint_nftaa(ledger, alice, b"n")
    for recipients in itertools.product(actors, repeat=3):
        for to in recipients:
            owner = ledger.state.collection.owner_of(token)
            must(ledger, TransferToken(owner, token, to))
            assert ledger.account_of(token) == target


def test_plain_mint_cannot_bind_an_account(world):
    # only MintNftaa binds; a binding argument here could name another
    # token's account and break the account-token bijection
    ledger, alice, _ = world
    account = mint_nftaa(ledger, alice, b"n")[1]
    with pytest.raises(TypeError):
        MintToken(alice, alice, b"f", bound_account=account)


def test_mint_to_unknown_account(world):
    ledger, alice, _ = world
    from nftaa_sim import eoa_address
    receipt = ledger.apply_transaction(MintToken(alice, eoa_address("ghost"), b"n"))
    assert receipt.error.code is ErrorCode.UNKNOWN_ACCOUNT


def test_only_owner_called_transfers_commit(world):
    """Fuzz transfer authorization: every committed transfer was owner-called."""
    ledger, alice, bob = world
    carol = ledger.create_eoa("carol")
    actors = [alice, bob, carol]
    tokens = [_mint(ledger, alice, random.Random(1).choice(actors)) for _ in range(3)]
    rng = random.Random(99)
    for _ in range(200):
        caller, to = rng.choice(actors), rng.choice(actors)
        token = rng.choice(tokens)
        owner_before = ledger.state.collection.owner_of(token)
        receipt = ledger.apply_transaction(TransferToken(caller, token, to))
        if receipt.committed:
            assert caller == owner_before
            assert ledger.state.collection.owner_of(token) == to
        else:
            assert caller != owner_before
            assert ledger.state.collection.owner_of(token) == owner_before
