"""Ledger core: account creation, transfers, atomic transactions, blocks."""

import copy
import random
import re

import pytest

from nftaa_sim import (
    CreateTba,
    ETH,
    ErrorCode,
    Fail,
    Ledger,
    LedgerError,
    MintNftaa,
    MintToken,
    ProxyExecute,
    ProxyPayload,
    QueueConfig,
    TbaExecute,
    TransferToken,
    TransferValue,
    UpgradeAccount,
    WithdrawAssets,
    eoa_address,
    ops,
    salt_from_int,
)
from nftaa_sim.ledger import _OPERATIONS
from tests.ledger_helpers import create_tba, mint_nftaa, must


@pytest.fixture
def ledger():
    return Ledger()


def test_create_eoa_duplicate_label(ledger):
    first = ledger.create_eoa("alice")
    assert ledger.balance_of(first) == 0
    with pytest.raises(LedgerError) as caught:
        ledger.create_eoa("alice")
    assert caught.value.code is ErrorCode.DUPLICATE_LABEL


def test_create_eoa_rejects_the_system_label(ledger):
    with pytest.raises(LedgerError) as caught:
        ledger.create_eoa("__system__")
    assert caught.value.code is ErrorCode.DUPLICATE_LABEL


def test_create_eoa_rejects_the_empty_label(ledger):
    with pytest.raises(ValueError):
        ledger.create_eoa("")


def test_create_eoa_distinct_labels(ledger):
    assert ledger.create_eoa("alice") != ledger.create_eoa("bob")


def test_create_eoa_deterministic_across_ledgers():
    one = Ledger().create_eoa("alice")
    two = Ledger().create_eoa("alice")
    assert one == two == eoa_address("alice")


def test_faucet_zero_is_noop_except_event(ledger):
    alice = ledger.create_eoa("alice")
    digest = ledger.state_digest()
    events = len(ledger.events)
    ledger.faucet(alice, 0)
    assert ledger.state_digest() == digest
    assert len(ledger.events) == events + 1


def test_faucet_validator_threshold(ledger):
    alice = ledger.create_eoa("alice")
    ledger.faucet(alice, 32 * ETH)
    assert ledger.balance_of(alice) == 32 * 10**18


def test_faucet_unknown_account(ledger):
    with pytest.raises(LedgerError) as caught:
        ledger.faucet(eoa_address("ghost"), 1)
    assert caught.value.code is ErrorCode.UNKNOWN_ACCOUNT


def test_transfer_full_balance(ledger):
    alice, bob = ledger.create_eoa("alice"), ledger.create_eoa("bob")
    ledger.faucet(alice, 10)
    must(ledger, TransferValue(alice, bob, 10))
    assert ledger.balance_of(alice) == 0
    assert ledger.balance_of(bob) == 10


def test_transfer_insufficient_balance(ledger):
    alice, bob = ledger.create_eoa("alice"), ledger.create_eoa("bob")
    ledger.faucet(alice, 5)
    digest = ledger.state_digest()
    receipt = ledger.apply_transaction(TransferValue(alice, bob, 6))
    assert not receipt.committed
    assert receipt.error.code is ErrorCode.INSUFFICIENT_BALANCE
    assert ledger.state_digest() == digest


def test_transfer_cycle_conserves(ledger):
    actors = [ledger.create_eoa(n) for n in ("a", "b", "c")]
    ledger.faucet(actors[0], 50)
    # conservation oracle: sum balances before and after the cycle
    before = sum(ledger.balance_of(x) for x in actors)
    must(ledger, TransferValue(actors[0], actors[1], 7))
    must(ledger, TransferValue(actors[1], actors[2], 7))
    must(ledger, TransferValue(actors[2], actors[0], 7))
    assert sum(ledger.balance_of(x) for x in actors) == before
    assert [ledger.balance_of(x) for x in actors] == [50, 0, 0]


def test_transaction_rollback_restores_digest(ledger):
    alice, bob = ledger.create_eoa("alice"), ledger.create_eoa("bob")
    ledger.faucet(alice, 10)
    digest = ledger.state_digest()
    receipt = ledger.apply_transaction(TransferValue(alice, bob, 4),
                                       TransferValue(alice, bob, 100))
    assert not receipt.committed
    assert receipt.error.code is ErrorCode.INSUFFICIENT_BALANCE
    assert receipt.events == ()
    assert ledger.state_digest() == digest


def test_empty_transaction_commits(ledger):
    receipt = ledger.apply_transaction()
    assert receipt.committed
    assert receipt.events == ()


def test_unknown_caller_fails_the_call_itself(ledger):
    bob = ledger.create_eoa("bob")
    digest = ledger.state_digest()
    receipt = ledger.apply_transaction(TransferValue(eoa_address("ghost"), bob, 0))
    assert receipt.error.code is ErrorCode.UNKNOWN_ACCOUNT
    assert ledger.state_digest() == digest


def test_rolled_back_events_never_reach_the_log(ledger):
    alice = ledger.create_eoa("alice")
    ledger.faucet(alice, 10)
    log_before = len(ledger.events)
    ledger.apply_transaction(TransferValue(alice, alice, 1), Fail())
    assert len(ledger.events) == log_before


def test_transaction_without_a_caller_runs(ledger):
    receipt = ledger.apply_transaction(Fail())
    assert not receipt.committed
    assert receipt.error.code is ErrorCode.INJECTED_FAILURE


@pytest.mark.parametrize("kind", [
    "TransferValue", "MintToken", "TransferToken", "MintNftaa", "ProxyExecute",
    "WithdrawAssets", "UpgradeAccount", "CreateTba", "TbaExecute",
])
def test_contract_caller_rejected(ledger, kind):
    alice = ledger.create_eoa("alice")
    token_id, nftaa = mint_nftaa(ledger, alice, b"n")
    tba = create_tba(ledger, alice, token_id, salt_from_int(0))
    # each operation issued by the proxy account, with arguments an owner could use
    op = {
        "TransferValue": TransferValue(nftaa, tba, 0),
        "MintToken": MintToken(nftaa, nftaa, b"n"),
        "TransferToken": TransferToken(nftaa, token_id, tba),
        "MintNftaa": MintNftaa(nftaa, b"n"),
        "ProxyExecute": ProxyExecute(nftaa, nftaa, ProxyPayload("noop")),
        "WithdrawAssets": WithdrawAssets(nftaa, nftaa, tba, 0),
        "UpgradeAccount": UpgradeAccount(nftaa, nftaa, 1),
        "CreateTba": CreateTba(nftaa, token_id, salt_from_int(1)),
        "TbaExecute": TbaExecute(nftaa, tba, ProxyPayload("noop")),
    }[kind]
    digest = ledger.state_digest()
    receipt = ledger.apply_transaction(op)
    assert receipt.error.code is ErrorCode.CALLER_NOT_EOA
    assert ledger.state_digest() == digest


def test_random_transactions_match_replay_oracle():
    """Replay only the committed transactions on a fresh ledger: the final
    states must be identical. Exercises 100 transactions with failures mixed in.
    """
    rng = random.Random(1234)
    ledger = Ledger()
    actors = [ledger.create_eoa(f"actor{i}") for i in range(4)]
    fund_log = []
    for actor in actors:
        ledger.faucet(actor, 100)
        fund_log.append((actor, 100))
    committed_ops = []
    for _ in range(100):
        sender, receiver = rng.choice(actors), rng.choice(actors)
        ops = [TransferValue(sender, receiver, rng.randint(0, 60))]
        if rng.random() < 0.3:
            ops.append(TransferValue(sender, receiver, rng.randint(100, 500)))  # will fail
        receipt = ledger.apply_transaction(*ops)
        if receipt.committed:
            committed_ops.append(ops)

    replay = Ledger()
    for i in range(4):
        replay.create_eoa(f"actor{i}")
    for actor, amount in fund_log:
        replay.faucet(actor, amount)
    for ops in committed_ops:
        replay_receipt = replay.apply_transaction(*ops)
        assert replay_receipt.committed
    assert replay.state_digest() == ledger.state_digest()


def test_advance_block_heights():
    ledger = Ledger()
    assert ledger.advance_blocks(1) == 1
    assert ledger.height == 1


def test_one_simulated_day_is_7200_blocks():
    # 115,200 withdrawals per day at 16 per block forces this block count
    assert 115_200 // 16 == 7_200
    ledger = Ledger()
    ledger.advance_blocks(7_200)
    assert ledger.height == 7_200


def test_advance_with_empty_queue_emits_nothing():
    ledger = Ledger(QueueConfig(missed_slot_probability=0.5, rng_seed=9))
    ledger.advance_blocks(10)
    assert ledger.events == []


def test_digest_is_64_lowercase_hex(ledger):
    digest = ledger.state_digest()
    assert len(digest) == 64
    assert digest == digest.lower()
    int(digest, 16)


def test_negative_amount_rejected(ledger):
    alice = ledger.create_eoa("alice")
    with pytest.raises(ValueError):
        ledger.faucet(alice, -1)


def test_negative_amount_in_a_transaction_rolls_back(ledger):
    alice, bob = ledger.create_eoa("alice"), ledger.create_eoa("bob")
    ledger.faucet(alice, 10)
    digest = ledger.state_digest()
    receipt = ledger.apply_transaction(TransferValue(alice, bob, 5), TransferValue(alice, bob, -1))
    assert receipt.error.code is ErrorCode.NEGATIVE_AMOUNT
    assert ledger.state_digest() == digest


def test_unexpected_exception_rolls_back_then_propagates(ledger, monkeypatch):
    alice = ledger.create_eoa("alice")
    bob = ledger.create_eoa("bob")
    ledger.faucet(alice, 10)
    digest = ledger.state_digest()
    execute, calls = Ledger._execute, []

    def second_operation_is_a_defect(self, op, ctx):
        calls.append(op)
        if len(calls) == 2:
            raise RuntimeError("defect")
        execute(self, op, ctx)

    monkeypatch.setattr(Ledger, "_execute", second_operation_is_a_defect)
    with pytest.raises(RuntimeError):
        ledger.apply_transaction(TransferValue(alice, bob, 5), TransferValue(alice, bob, 1))
    assert ledger.state_digest() == digest
    assert ledger.balance_of(bob) == 0


def test_each_operation_class_has_one_table_entry(ledger):
    operations = {cls for cls in vars(ops).values()
                  if isinstance(cls, type) and cls.__module__ == ops.__name__} - {ProxyPayload}
    assert set(_OPERATIONS) == operations
    # each entry is its own Ledger method, so no class runs another's rule
    assert all(getattr(Ledger, run.__name__) is run for run in _OPERATIONS.values())
    assert len(set(_OPERATIONS.values())) == len(_OPERATIONS)
    alice = ledger.create_eoa("alice")
    digest = ledger.state_digest()
    with pytest.raises(TypeError):  # a defect, not a protocol failure: it is raised
        ledger.apply_transaction(MintToken(alice, alice, b"x"), object())
    assert ledger.state_digest() == digest


def test_rolled_back_grouped_mint_restores_the_id_counters(ledger):
    def counters():
        return ledger.state.collection.next_id, ledger.compute_nftaa_address()

    alice = ledger.create_eoa("alice")
    must(ledger, MintNftaa(alice, b"kept"))
    next_id, nonce = counters()
    receipt = ledger.apply_transaction(MintNftaa(alice, b"doomed"), Fail())
    assert not receipt.committed
    assert counters() == (next_id, nonce)
    assert mint_nftaa(ledger, alice, b"next")[0] == next_id


def test_rolled_back_upgrade_restores_the_version(ledger):
    alice = ledger.create_eoa("alice")
    _, account = mint_nftaa(ledger, alice, b"n")
    receipt = ledger.apply_transaction(UpgradeAccount(alice, account, 2), Fail())
    assert not receipt.committed
    assert ledger.state.nftaas[account].upgrade_version == 1


def test_transactions_never_copy_the_world(ledger, monkeypatch):
    def no_copies(*_args, **_kwargs):
        raise AssertionError("a transaction copied the world")

    alice, bob = ledger.create_eoa("alice"), ledger.create_eoa("bob")
    ledger.faucet(alice, 10)
    state = ledger.state
    monkeypatch.setattr(copy, "deepcopy", no_copies)
    assert ledger.apply_transaction(TransferValue(alice, bob, 4)).committed
    assert not ledger.apply_transaction(TransferValue(alice, bob, 1), Fail()).committed
    assert ledger.state is state
    assert (ledger.balance_of(alice), ledger.balance_of(bob)) == (6, 4)


def test_rolled_back_receipt_holds_no_frame(ledger):
    alice, bob = ledger.create_eoa("alice"), ledger.create_eoa("bob")
    ledger.faucet(alice, 5)
    receipt = ledger.apply_transaction(TransferValue(alice, bob, 1), TransferValue(alice, bob, 6))
    assert receipt.error.__traceback__ is None
    assert receipt.error.code is ErrorCode.INSUFFICIENT_BALANCE
    with pytest.raises(LedgerError) as caught:
        must(ledger, TransferValue(alice, bob, 1), TransferValue(alice, bob, 6))
    assert caught.value.code is ErrorCode.INSUFFICIENT_BALANCE
    assert caught.value.detail == {"have": 4, "need": 6}
    assert str(caught.value) == "InsufficientBalance (have=4, need=6)"
    assert ledger.balance_of(alice) == 5


# the text each constructor form gave when it was formatted on construction
@pytest.mark.parametrize("code,message,detail,text", [
    (ErrorCode.ALREADY_STAKING, "", {}, "AlreadyStaking"),
    (ErrorCode.NOT_NFT_OWNER, "caller is not the owner of the NFT", {},
     "NotNftOwner: caller is not the owner of the NFT"),
    (ErrorCode.INSUFFICIENT_BALANCE, "", {"have": 4, "need": 6},
     "InsufficientBalance (have=4, need=6)"),
    (ErrorCode.FRAUD_GUARD, "bound NFT already transferred", {"token": 3, "account": "0xab"},
     "FraudGuard: bound NFT already transferred (token=3, account=0xab)"),
    (ErrorCode.UNKNOWN_ACCOUNT, "", {"address": b"\xab" * 20},
     "UnknownAccount (address=" + "ab" * 20 + ")"),
])
def test_error_text_is_built_when_read(code, message, detail, text):
    error = LedgerError(code, message, **detail) if message else LedgerError(code, **detail)
    assert error.code is code and error.detail == detail
    assert str(error) == text
    with pytest.raises(LedgerError, match=f"^{re.escape(text)}$"):
        raise error


# Each case breaks two or more checks at once; the code is the first check's,
# in the order the ledger has always made them.
@pytest.mark.parametrize("staked,method,amount,code", [
    (False, "stake", -1, ErrorCode.BELOW_MIN_STAKE),
    (False, "stake", 20 * ETH, ErrorCode.INSUFFICIENT_BALANCE),
    (True, "stake", 1 * ETH, ErrorCode.BELOW_MIN_STAKE),
    (True, "stake", 20 * ETH, ErrorCode.INSUFFICIENT_BALANCE),
    (True, "add_to_stake", -1, ErrorCode.NEGATIVE_AMOUNT),
    (True, "add_to_stake", 0, ErrorCode.ZERO_AMOUNT),
    (False, "add_to_stake", 0, ErrorCode.NO_POSITION),
    (False, "transfer_value", -1, ErrorCode.NEGATIVE_AMOUNT),
])
@pytest.mark.parametrize("style", ["nftaa", "tba"])
def test_debit_sites_keep_their_check_order(ledger, style, staked, method, amount, code):
    alice = ledger.create_eoa("alice")
    token, account = mint_nftaa(ledger, alice, b"n")
    execute = ProxyExecute
    if style == "tba":
        account, execute = create_tba(ledger, alice, token, salt_from_int(0)), TbaExecute
    ledger.faucet(account, 42 * ETH if staked else 10 * ETH)
    if staked:
        must(ledger, execute(alice, account, ProxyPayload("stake", amount=32 * ETH)))
    assert ledger.balance_of(account) == 10 * ETH
    digest = ledger.state_digest()
    to = eoa_address("ghost")  # unknown: a later check the transfer must not reach
    receipt = ledger.apply_transaction(execute(alice, account,
                                               ProxyPayload(method, amount=amount, to=to)))
    assert receipt.error.code is code
    assert ledger.state_digest() == digest
