"""The ledger keeps values, not text.

An event keeps its addresses and salts as `bytes`, and so does the detail of
a `LedgerError` the ledger raises; both write them as hex only when they are
rendered, by `events.hexed`, which also writes `None` as `none`. The event
log is the ledger path's main memory cost, so it is held to a bound per event.
"""

import tracemalloc

from nftaa_sim import ETH, Ledger, LedgerError, ProxyExecute, ProxyPayload, QueueConfig
from nftaa_sim.events import hexed
from tests.corpus import event_logs
from tests.ledger_helpers import mint_nftaa, must

EVENT_KEYS = {"from", "to", "owner", "account", "creator", "nftaa", "collection", "salt"}
ERROR_KEYS = {"address", "account"}


def test_events_and_errors_keep_addresses_and_salts_as_bytes(monkeypatch):
    details = []
    init = LedgerError.__init__

    def recording_init(self, code, message="", **detail):
        init(self, code, message, **detail)
        details.append(detail)

    monkeypatch.setattr(LedgerError, "__init__", recording_init)
    event_keys, error_keys = set(), set()
    for log in event_logs():
        for event in log:
            assert type(event.emitter) is bytes, event
            for key, value in event.fields.items():
                if key in EVENT_KEYS:
                    assert type(value) is bytes, (event.kind, key, value)
                    event_keys.add(key)
    for detail in details:
        for key, value in detail.items():
            if key in ERROR_KEYS:
                assert type(value) is bytes, (key, value)
                error_keys.add(key)
    assert event_keys == EVENT_KEYS  # every kind of address and the salt were seen
    assert error_keys == ERROR_KEYS


def test_hexed_writes_bytes_as_hex_and_none_as_none():
    assert hexed(b"\x01\xab") == "01ab"
    assert hexed(None) == "none"
    assert hexed(7) == 7 and hexed("7") == "7"


def test_event_log_holds_at_most_160_bytes_an_event():
    """2,000 stakers each mint, are funded, stake, unstake and are paid out:
    eight events each. What clearing the log frees is what the log held."""
    stakers = 2_000
    tracemalloc.start()
    try:
        ledger = Ledger(QueueConfig(unlock_delay=0))
        for n in range(stakers):
            owner = ledger.create_eoa(f"staker{n}")
            _, account = mint_nftaa(ledger, owner, b"stake")
            ledger.faucet(account, 32 * ETH)
            must(ledger, ProxyExecute(owner, account, ProxyPayload("stake", amount=32 * ETH)))
            must(ledger, ProxyExecute(owner, account, ProxyPayload("request_unstake")))
        ledger.advance_blocks(10**6)
        events = len(ledger.events)
        held = tracemalloc.get_traced_memory()[0]
        ledger.events.clear()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert events == 8 * stakers and not ledger.state.queue.pending
    assert freed > 56 * events  # the Event objects themselves were freed
    assert freed <= 160 * events, f"{freed / events:.0f} B per event"
