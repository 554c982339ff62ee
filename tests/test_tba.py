"""Token-bound accounts: counterfactual addresses, many accounts per token,
silent tokens, missing guards, and the lock diagnostics."""

import copy
import random

import pytest

from nftaa_sim import (
    CreateTba,
    ETH,
    ErrorCode,
    EventKind,
    Fail,
    Ledger,
    MintToken,
    ProxyPayload,
    ScenarioRunner,
    TbaExecute,
    TransferToken,
    detect_locked_nfts,
    detect_stranded_tbas,
    parse_scenario,
    salt_from_int,
)
from nftaa_sim.tba import diagnostic_lines
from tests.ledger_helpers import create_tba, mint_nftaa, must
from tests.perfbench_modules import load


@pytest.fixture
def world():
    ledger = Ledger()
    alice = ledger.create_eoa("alice")
    bob = ledger.create_eoa("bob")
    receipt = must(ledger, MintToken(alice, alice, b"plain"))
    token_id = receipt.events[0].payload["token_id"]
    return ledger, alice, bob, token_id


def test_compute_then_create_lands_at_the_address(world):
    ledger, alice, _, token_id = world
    salt = salt_from_int(3)
    computed = ledger.compute_tba_address(token_id, salt)
    deployed = create_tba(ledger, alice, token_id, salt)
    assert computed == deployed
    # still identical after deployment
    assert ledger.compute_tba_address(token_id, salt) == deployed


def test_compute_is_pure_over_random_inputs(world):
    ledger, _, _, _ = world
    rng = random.Random(0)
    for _ in range(10_000):
        token_id = rng.randint(1, 10**6)
        salt = salt_from_int(rng.randint(0, 2**63))
        first = ledger.compute_tba_address(token_id, salt)
        second = ledger.compute_tba_address(token_id, salt)
        assert first == second


def test_compute_for_unminted_token_is_allowed(world):
    ledger, _, _, _ = world
    address = ledger.compute_tba_address(999, salt_from_int(0))
    assert len(address) == 20  # this IS the documented hazard surface


def test_two_salts_two_live_accounts(world):
    ledger, alice, _, token_id = world
    first = create_tba(ledger, alice, token_id, salt_from_int(0))
    second = create_tba(ledger, alice, token_id, salt_from_int(1))
    assert first != second
    assert ledger.state.accounts[first].code_id.value == "TbaAccount"
    assert ledger.state.accounts[second].code_id.value == "TbaAccount"


def test_create_leaves_the_token_silent(world):
    ledger, alice, _, token_id = world
    create_tba(ledger, alice, token_id, salt_from_int(0))
    assert ledger.account_of(token_id) is None


def test_create_twice_same_salt(world):
    ledger, alice, _, token_id = world
    create_tba(ledger, alice, token_id, salt_from_int(0))
    receipt = ledger.apply_transaction(CreateTba(alice, token_id, salt_from_int(0)))
    assert receipt.error.code is ErrorCode.ALREADY_DEPLOYED


def test_rolled_back_create_leaves_no_record(world):
    ledger, alice, _, token_id = world
    ledger.compute_tba_address(token_id, salt_from_int(0))
    before = copy.deepcopy(ledger.state)
    for salt in (salt_from_int(0), salt_from_int(5)):  # a key probed before, and a new one
        receipt = ledger.apply_transaction(CreateTba(alice, token_id, salt), Fail())
        assert not receipt.committed
        assert ledger.state == before
    assert ledger.state.registry.records == {}


def test_create_for_unminted_token(world):
    ledger, alice, _, _ = world
    receipt = ledger.apply_transaction(CreateTba(alice, 42, salt_from_int(0)))
    assert receipt.error.code is ErrorCode.UNKNOWN_TOKEN


def test_execute_gated_by_token_owner(world):
    ledger, alice, bob, token_id = world
    tba = create_tba(ledger, alice, token_id, salt_from_int(0))
    assert must(ledger, TbaExecute(alice, tba, ProxyPayload("noop"))).committed
    receipt = ledger.apply_transaction(TbaExecute(bob, tba, ProxyPayload("noop")))
    assert receipt.error.code is ErrorCode.NOT_NFT_OWNER
    receipt = ledger.apply_transaction(TbaExecute(alice, bob, ProxyPayload("noop")))
    assert receipt.error.code is ErrorCode.NOT_DEPLOYED


def test_drain_and_sell_commits_here(world):
    """The missing fraud guard, demonstrated: one transaction empties the
    account and hands the token to the buyer."""
    ledger, alice, bob, token_id = world
    tba = create_tba(ledger, alice, token_id, salt_from_int(0))
    ledger.faucet(tba, 10 * ETH)
    receipt = ledger.apply_transaction(
                   TbaExecute(alice, tba, ProxyPayload("transfer_value", amount=10 * ETH,
                                                       to=alice)),
                   TransferToken(alice, token_id, bob))
    assert receipt.committed
    assert ledger.state.collection.owner_of(token_id) == bob
    assert ledger.balance_of(tba) == 0  # buyer got an empty account


def test_self_send_locks_and_is_detected(world):
    ledger, alice, _, token_id = world
    tba = create_tba(ledger, alice, token_id, salt_from_int(0))
    assert detect_locked_nfts(ledger.state) == []
    must(ledger, TransferToken(alice, token_id, tba))
    locked = detect_locked_nfts(ledger.state)
    assert locked == [token_id]
    # exhaustive: no existing account can pass the owner gate anymore
    for caller in list(ledger.state.accounts):
        receipt = ledger.apply_transaction(TbaExecute(caller, tba, ProxyPayload("noop")))
        assert not receipt.committed


def test_transfer_to_another_tokens_tba_is_not_a_self_lock(world):
    ledger, alice, _, token_id = world
    receipt = must(ledger, MintToken(alice, alice, b"other"))
    other_token = receipt.events[0].payload["token_id"]
    other_tba = create_tba(ledger, alice, other_token, salt_from_int(0))
    must(ledger, TransferToken(alice, token_id, other_tba))
    assert detect_locked_nfts(ledger.state) == []
    # the ownership chain still roots at a live owner: alice owns other_token,
    # which gates other_tba, which owns token_id


def test_computing_an_address_writes_nothing(world):
    # an address is a pure function of its key; transfers can only reach
    # existing accounts, so an undeployed address is never a token's owner
    ledger, alice, _, token_id = world
    create_tba(ledger, alice, token_id, salt_from_int(0))
    before, digest = copy.deepcopy(ledger.state), ledger.state_digest()
    for salt in (salt_from_int(9), salt_from_int(9), salt_from_int(0)):  # new, repeated, deployed
        ledger.compute_tba_address(token_id, salt)
    assert ledger.state == before
    assert ledger.state_digest() == digest
    receipt = ledger.apply_transaction(
        TransferToken(alice, token_id, ledger.compute_tba_address(token_id, salt_from_int(9))))
    assert receipt.error.code is ErrorCode.UNKNOWN_ACCOUNT
    assert detect_locked_nfts(ledger.state) == []


def _locked_by_token_scan(state):
    """The lock diagnostic as first written: every token, in id order, looked
    up in the registry by its owner."""
    locked = []
    collection = state.collection
    for token_id in sorted(collection.tokens):
        owner = state.registry.records.get(collection.tokens[token_id].owner)
        if owner is not None and owner.token_id == token_id:
            locked.append(token_id)
    return locked


class _LockCheckingRunner(ScenarioRunner):
    """Compares the lock diagnostic with the token scan after every step."""

    most_locked = 0

    def _run_step(self, step, group):
        outcome = super()._run_step(step, group)
        expected = _locked_by_token_scan(self.ledger.state)
        assert detect_locked_nfts(self.ledger.state) == expected, outcome.render()
        self.most_locked = max(self.most_locked, len(expected))
        return outcome


def test_lock_diagnostic_walks_the_registry_like_the_token_scan(world):
    """Same tokens in the same order: two tokens whose accounts were deployed
    in the other order, and every lane of generated `fraud_diff` scripts,
    whose self-sends lock several tokens at once."""
    ledger, alice, _, first = world
    second = must(ledger, MintToken(alice, alice, b"two")).events[0].payload["token_id"]
    accounts = {token_id: create_tba(ledger, alice, token_id, salt_from_int(0))
                for token_id in (second, first)}
    for token_id, account in accounts.items():
        must(ledger, TransferToken(alice, token_id, account))
    assert detect_locked_nfts(ledger.state) == _locked_by_token_scan(ledger.state) \
        == [first, second]
    most_locked = 0
    for seed in (11, 12):
        script = parse_scenario(load("gen").fraud_diff(seed).text)
        for lane in ("native", "nftaa", "tba"):
            runner = _LockCheckingRunner(script, lane=lane)
            runner.run()
            most_locked = max(most_locked, runner.most_locked)
    assert most_locked >= 5


def test_stranded_funds_in_no_execute_account(world):
    ledger, alice, _, token_id = world
    tba = create_tba(ledger, alice, token_id, salt_from_int(0), has_execute=False)
    receipt = ledger.apply_transaction(TbaExecute(alice, tba, ProxyPayload("noop")))
    assert receipt.error.code is ErrorCode.NO_EXECUTE
    assert detect_stranded_tbas(ledger.state) == []
    ledger.faucet(tba, 3 * ETH)
    assert detect_stranded_tbas(ledger.state) == [(tba, 3 * ETH)]
    lines = diagnostic_lines(ledger.state)
    assert lines == [f"stranded tba={tba.hex()} balance={3 * ETH}"]


def _stranded_by_sorted_walk(state):
    """The stranded-account diagnostic as first written: every deployed record, sorted,
    then those without an execute function."""
    stranded = []
    for address, record in state.registry.sorted_records():
        if not record.has_execute:
            account = state.accounts.get(address)
            if account is not None and account.balance > 0:
                stranded.append((address, account.balance))
    return stranded


def test_stranded_accounts_come_in_key_order_whatever_the_deployment_order(world):
    ledger, alice, _, first = world
    second = must(ledger, MintToken(alice, alice, b"two")).events[0].payload["token_id"]
    # deployed against (collection, token_id, salt) order, with one funded account that
    # has an execute function and one unfunded account that has none in between
    keys = [(second, 0, False), (first, 7, False), (first, 9, True), (first, 3, False),
            (second, 1, False)]
    for funded, (token_id, salt, has_execute) in enumerate(keys):
        account = create_tba(ledger, alice, token_id, salt_from_int(salt), has_execute)
        if funded != 4:
            ledger.faucet(account, (funded + 1) * ETH)
    stranded = detect_stranded_tbas(ledger.state)
    assert stranded == _stranded_by_sorted_walk(ledger.state)
    assert [balance // ETH for _, balance in stranded] == [4, 2, 1]


def test_tba_event_shape(world):
    ledger, alice, _, token_id = world
    receipt = must(ledger, CreateTba(alice, token_id, salt_from_int(5)))
    event = receipt.events[0]
    assert event.kind is EventKind.TBA_CREATED
    assert event.payload["token_id"] == token_id
    assert event.payload["salt"] == salt_from_int(5).hex()


def test_tba_staking_credits_the_tba(world):
    # exits through the queue land at the account address, same as the proxy style
    ledger, alice, _, token_id = world
    tba = create_tba(ledger, alice, token_id, salt_from_int(0))
    ledger.faucet(tba, 40 * ETH)
    must(ledger, TbaExecute(alice, tba, ProxyPayload("stake", amount=32 * ETH)))
    assert ledger.staker_address_of(tba) == tba
    ledger.advance_blocks(ledger.config.unlock_delay)
    must(ledger, TbaExecute(alice, tba, ProxyPayload("request_unstake")))
    ledger.advance_blocks(1)
    assert ledger.balance_of(tba) == 40 * ETH


def test_nftaa_token_can_also_get_a_tba(world):
    """Composing the two styles is legal; only basic behavior is pinned."""
    ledger, alice, _, _ = world
    ledger.faucet(alice, ETH)
    token_id, account = mint_nftaa(ledger, alice, b"composed")
    tba = create_tba(ledger, alice, token_id, salt_from_int(0))
    assert tba != account
    assert ledger.account_of(token_id) == account  # binding still reports the factory account
    assert must(ledger, TbaExecute(alice, tba, ProxyPayload("noop"))).committed
