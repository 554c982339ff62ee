"""Record equality: complete for the world state, and exact about kinds.

The fuzz driver and the rollback tests compare `Ledger.state` with a deepcopy
taken before a transaction. That check is only as strong as the `==` of every
record the state holds, so each field of each such record must take part in
it: a copy of the state that differs in one field alone must compare unequal.
A record's repr, and the text of an error code and an event kind, are pinned too.
"""

import copy
from collections import deque

import pytest

from nftaa_sim import (ETH, ErrorCode, EventKind, Ledger, ProxyExecute, ProxyPayload,
                       QueueConfig, TbaExecute, TransferValue)
from nftaa_sim.records import Record
from nftaa_sim.scenario import Step
from tests.ledger_helpers import create_tba, mint_nftaa, must


def _world():
    """A state that holds at least one record of every kind it can hold."""
    ledger = Ledger(QueueConfig(unlock_delay=0))
    alice = ledger.create_eoa("alice")
    ledger.faucet(alice, 100 * ETH)
    accounts = []
    for note in (b"staked", b"exiting"):
        token_id, account = mint_nftaa(ledger, alice, note)
        must(ledger, TransferValue(alice, account, 40 * ETH))
        must(ledger, ProxyExecute(alice, account, ProxyPayload("stake", amount=32 * ETH)))
        accounts.append(account)
    must(ledger, ProxyExecute(alice, accounts[1], ProxyPayload("request_unstake")))
    create_tba(ledger, alice, token_id, b"\x00" * 32)
    return ledger.state


# record kind -> the first record of that kind in a state, found the same way in a copy
KINDS = {
    "WorldState": lambda state: state,
    "Account": lambda state: next(iter(state.accounts.values())),
    "NftCollection": lambda state: state.collection,
    "NftRecord": lambda state: next(iter(state.collection.tokens.values())),
    "NftaaAccount": lambda state: next(iter(state.nftaas.values())),
    "StakePosition": lambda state: next(iter(state.stakes.values())),
    "WithdrawalQueue": lambda state: state.queue,
    "QueueEntry": lambda state: state.queue.pending[0],
    "TbaRegistry": lambda state: state.registry,
    "TbaRecord": lambda state: next(iter(state.registry.records.values())),
}


def _reachable(value, found: set[str]) -> set[str]:
    """Names of the record kinds held by `value`, through fields, dicts and queues."""
    if isinstance(value, Record):
        found.add(type(value).__name__)
        for name in type(value).__slots__:
            _reachable(getattr(value, name), found)
    elif isinstance(value, dict):
        for item in value.values():
            _reachable(item, found)
    elif isinstance(value, deque):
        for item in value:
            _reachable(item, found)
    return found


def test_every_record_kind_of_the_state_is_covered():
    assert _reachable(_world(), set()) == set(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_each_field_takes_part_in_state_equality(kind):
    state = _world()
    record = KINDS[kind](state)
    assert type(record).__name__ == kind
    assert copy.deepcopy(state) == state
    for name in type(record).__slots__:
        changed = copy.deepcopy(state)
        setattr(KINDS[kind](changed), name, object())  # equal to nothing but itself
        assert changed != state, f"{kind}.{name} is left out of =="
        assert KINDS[kind](changed) != record, f"{kind}.{name} is left out of =="


def test_unknown_proxy_method_is_refused_when_built():
    with pytest.raises(ValueError, match="unknown proxy method 'bogus'"):
        ProxyPayload("bogus")


def test_operation_kinds_with_equal_fields_differ():
    caller, account = b"\x01" * 20, b"\x02" * 20
    payload = ProxyPayload("noop")
    assert ProxyExecute(caller, account, payload) == ProxyExecute(caller, account, payload)
    assert ProxyExecute(caller, account, payload) != TbaExecute(caller, account, payload)


def test_codes_and_kinds_show_their_value_and_a_record_its_fields():
    # reports write each as the bare value, whichever Python's default a str enum has
    for member, value in ((ErrorCode.FRAUD_GUARD, "FraudGuard"), (EventKind.TRANSFER, "Transfer")):
        assert (str(member), format(member)) == (value, value)
    assert repr(Step("actor", ("a",), 1)) == "Step(kind='actor', args=('a',), line=1)"
