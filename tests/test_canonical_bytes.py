"""The canonical state bytes, byte for byte as the section-by-section encoder wrote them.

`Ledger.canonical_state_bytes` joins each row from its fields and appends it
to one buffer, with the 4-byte length prefix of a 20-byte address a constant.
The reference here is the encoder it replaced, which passed every field through
a helper that wrote its length and then its bytes. Every digest in every
transcript and pin rests on these bytes.
"""

import pytest

from nftaa_sim import (
    ETH,
    Ledger,
    MintToken,
    ProxyExecute,
    ProxyPayload,
    QueueConfig,
    UpgradeAccount,
    parse_scenario,
    run_scenario,
    salt_from_int,
)
from tests.corpus import SCRIPTS
from tests.ledger_helpers import create_tba, mint_nftaa, must


def _uint(value: int) -> bytes:
    if value < 0:
        raise ValueError("unsigned field")
    return value.to_bytes((value.bit_length() + 7) // 8, "big") if value else b""


def _section(out: bytearray, name: bytes) -> None:
    out += len(name).to_bytes(4, "big") + name


def _fields(out: bytearray, *values: bytes) -> None:
    for value in values:
        out += len(value).to_bytes(4, "big") + value


def reference_bytes(ledger: Ledger) -> bytes:
    out = bytearray()
    state = ledger.state
    _section(out, b"accounts")
    for address in sorted(state.accounts):
        account = state.accounts[address]
        code = b"" if account.code_id is None else account.code_id.value.encode()
        _fields(out, address, code, _uint(account.balance))
    _section(out, b"nfts")
    collection = state.collection
    for token_id in sorted(collection.tokens):
        record = collection.tokens[token_id]
        bound = record.bound_account or b""
        _fields(out, collection.address, _uint(token_id), record.owner, record.note, bound)
    _section(out, b"stakes")
    for owner in sorted(state.stakes):
        position = state.stakes[owner]
        _fields(out, owner, _uint(position.amount), _uint(position.unlock_block))
    _section(out, b"queue")
    for entry in state.queue.pending:
        _fields(out, entry.owner, _uint(entry.amount), _uint(entry.enqueued_at))
    _section(out, b"bindings")
    for address in sorted(state.nftaas):
        binding = state.nftaas[address]
        _fields(out, address, collection.address,
                _uint(binding.bound_token_id), _uint(binding.upgrade_version))
    _section(out, b"tbas")
    for address, record in state.registry.sorted_records():
        _fields(out, collection.address, _uint(record.token_id), record.salt,
                address, _uint(int(record.has_execute)))
    _section(out, b"factory")
    _fields(out, state.factory, collection.address, _uint(len(state.nftaas)))
    _section(out, b"height")
    _fields(out, _uint(ledger.height))
    return bytes(out)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_corpus_end_states_encode_as_the_reference(path):
    script = parse_scenario(path.read_text())
    for lane in ("native", "nftaa", "tba"):
        ledger = run_scenario(script, lane=lane).ledger
        assert ledger.canonical_state_bytes() == reference_bytes(ledger), lane


def test_a_world_with_every_section_filled_encodes_as_the_reference():
    ledger = Ledger(QueueConfig(unlock_delay=0))
    alice, bob = ledger.create_eoa("alice"), ledger.create_eoa("bob")
    accounts = []
    for n in range(3):
        token_id, account = mint_nftaa(ledger, alice, b"note%d" % n)
        ledger.faucet(account, 40 * ETH + n)
        must(ledger, ProxyExecute(alice, account, ProxyPayload("stake", amount=32 * ETH)))
        accounts.append((token_id, account))
    must(ledger, UpgradeAccount(alice, accounts[0][1], 2))
    plain = must(ledger, MintToken(bob, bob, b"")).events[0].fields["token_id"]
    ledger.advance_blocks(70_000)
    must(ledger, ProxyExecute(alice, accounts[1][1], ProxyPayload("request_unstake")))
    create_tba(ledger, bob, plain, salt_from_int(7), has_execute=False)
    create_tba(ledger, alice, accounts[2][0], salt_from_int(1))

    state = ledger.state
    assert state.stakes and state.queue.pending and state.nftaas and ledger.height
    assert {record.has_execute for record in state.registry.records.values()} == {False, True}
    assert any(account.balance == 0 for account in state.accounts.values())
    assert ledger.canonical_state_bytes() == reference_bytes(ledger)
