"""Random operation sequences with invariant checks after every transaction.

The generator drives the ledger through the full protocol surface (creation,
transfers, proxy calls, withdrawals, grouped transactions, token-bound
accounts, block advancement) with deliberately invalid calls mixed in, and
verifies after each transaction that:

* a rolled-back transaction left the state digest untouched, and the whole
  state equal to a copy taken before it ran (the collection's next token
  id included, which the digest omits),
* conservation holds (balances + stakes + queue == faucet total),
* the account<->token binding maps are mutual inverses,
* no committed transaction both moved a bound NFT and drained its account.

After every step, the lock diagnostic is also compared with a brute-force
search over the registry salts the generator uses. Tokens are sent to their
own derived addresses, deployed or not, so some sequences lock a token.

The event-log replay checks (owner-gate soundness) run at the end of each
sequence from the recorded receipts alone.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field

from nftaa_sim import (
    CreateTba,
    EventKind,
    Fail,
    Ledger,
    MintNftaa,
    ProxyExecute,
    ProxyPayload,
    QueueConfig,
    TbaExecute,
    TransferToken,
    TransferValue,
    TxReceipt,
    UpgradeAccount,
    WithdrawAssets,
    ETH,
    detect_locked_nfts,
    salt_from_int,
)
from tests.ledger_helpers import total_conserved

NOTE_CHOICES = [b"n", b"note", b"x" * 256, b"", b"y" * 257]
SALTS = [salt_from_int(i) for i in range(3)]  # every registry salt the generator uses


@dataclass
class FuzzTrace:
    receipts: list[tuple[bytes, tuple, TxReceipt]] = field(default_factory=list)
    faucet_total: int = 0
    committed: int = 0
    rolled_back: int = 0
    locked_steps: int = 0  # steps after which at least one token was locked


def check_binding_bijection(ledger: Ledger) -> None:
    forward = {}
    for address, binding in ledger.state.nftaas.items():
        record = ledger.state.collection.tokens.get(binding.bound_token_id)
        assert record is not None, "binding points at an unminted token"
        assert record.bound_account == address, "token does not point back"
        assert binding.bound_token_id not in forward.values(), "two accounts share a token"
        forward[address] = binding.bound_token_id
    bound_tokens = [token_id for token_id, r in ledger.state.collection.tokens.items()
                    if r.bound_account is not None]
    assert len(bound_tokens) == len(forward), "account and token counts diverge"


def check_lock_diagnostic(ledger: Ledger) -> list:
    """`detect_locked_nfts` equals the tokens owned by one of their own addresses."""
    collection = ledger.state.collection
    expected = []
    for token_id in sorted(collection.tokens):
        derived = {ledger.compute_tba_address(token_id, salt) for salt in SALTS}
        if collection.tokens[token_id].owner in derived:
            expected.append(token_id)
    locked = detect_locked_nfts(ledger.state)
    assert locked == expected, f"lock diagnostic {locked} != brute force {expected}"
    return locked


def check_fraud_exclusion(receipt: TxReceipt, ledger: Ledger) -> None:
    if not receipt.committed:
        return
    moved_bound_accounts = set()
    drained = set()
    for event in receipt.events:
        if event.kind is not EventKind.TRANSFER:
            continue
        if "token_id" in event.payload:
            record = ledger.state.collection.tokens[event.payload["token_id"]]
            if record.bound_account is not None and event.payload["from"] != "00" * 20:
                moved_bound_accounts.add(record.bound_account.hex())
        elif "amount" in event.payload:
            drained.add(event.payload["from"])
    overlap = moved_bound_accounts & drained
    assert not overlap, f"tx {receipt.tx_id} moved a bound NFT and drained {overlap}"


def replay_owner_gate(trace: FuzzTrace) -> int:
    """Re-derive ownership from the event log and check every proxy response.

    Returns the number of proxy responses checked so callers can assert the
    fuzz actually exercised the gate.
    """
    owners: dict[int, str] = {}
    account_token: dict[str, int] = {}
    checked = 0
    for caller, _ops, receipt in trace.receipts:
        if not receipt.committed:
            continue
        for event in receipt.events:
            if event.kind is EventKind.NEW_NFTAA:
                account_token[event.payload["account"]] = event.payload["token_id"]
            if event.kind is EventKind.TRANSFER and "token_id" in event.payload:
                owners[event.payload["token_id"]] = event.payload["to"]
            if event.kind is EventKind.PROXY_RESPONSE:
                token_id = account_token[event.payload["nftaa"]]
                assert owners[token_id] == caller.hex(), \
                    f"proxy response in tx {receipt.tx_id} from non-owner"
                checked += 1
    return checked


class FuzzDriver:
    def __init__(self, seed: int, ledger: Ledger | None = None):
        self.rng = random.Random(seed)
        self.ledger = ledger or Ledger(QueueConfig(unlock_delay=3, rng_seed=seed))
        self.trace = FuzzTrace()
        self.actors = [self.ledger.create_eoa(f"actor{seed}-{i}")
                       for i in range(self.rng.randint(2, 4))]
        for actor in self.actors:
            self._faucet(actor, 100 * ETH)

    # -- state sampling ------------------------------------------------

    def _faucet(self, to, amount):
        self.ledger.faucet(to, amount)
        self.trace.faucet_total += amount

    def actor(self):
        return self.rng.choice(self.actors)

    def nftaas(self):
        return sorted(self.ledger.state.nftaas)

    def tokens(self):
        return sorted(self.ledger.state.collection.tokens)

    def tbas(self):
        return sorted(self.ledger.state.registry.records)

    def any_address(self):
        pool = self.actors + self.nftaas() + self.tbas()
        return self.rng.choice(pool)

    def amount(self):
        return self.rng.choice([0, 1, 10, ETH, 32 * ETH, 33 * ETH, 100 * ETH])

    # -- operation generators -------------------------------------------

    def _gen_mint(self):
        note = self.rng.choice(NOTE_CHOICES)
        return [MintNftaa(self.actor(), note)]

    def _gen_transfer_value(self):
        return [TransferValue(self.actor(), self.any_address(), self.amount())]

    def _gen_transfer_token(self):
        tokens = self.tokens()
        if not tokens:
            return None
        token = self.rng.choice(tokens)
        to = self.any_address()
        return [TransferToken(self.actor(), token, to)]

    def _gen_proxy(self):
        accounts = self.nftaas()
        if not accounts:
            return None
        nftaa = self.rng.choice(accounts)
        method = self.rng.choice(["noop", "stake", "add_to_stake",
                                  "request_unstake", "transfer_value"])
        kwargs = {}
        if method in ("stake", "add_to_stake"):
            kwargs = {"amount": self.amount()}
        elif method == "transfer_value":
            kwargs = {"amount": self.amount(), "to": self.any_address()}
        return [ProxyExecute(self.actor(), nftaa, ProxyPayload(method, **kwargs))]

    def _gen_withdraw(self):
        accounts = self.nftaas()
        if not accounts:
            return None
        return [WithdrawAssets(self.actor(), self.rng.choice(accounts),
                               self.any_address(), self.amount())]

    def _gen_upgrade(self):
        accounts = self.nftaas()
        if not accounts:
            return None
        nftaa = self.rng.choice(accounts)
        current = self.ledger.state.nftaas[nftaa].upgrade_version
        requested = current + self.rng.choice([1, 1, 2])
        return [UpgradeAccount(self.actor(), nftaa, requested)]

    def _gen_create_tba(self):
        tokens = self.tokens()
        if not tokens:
            return None
        return [CreateTba(self.actor(), self.rng.choice(tokens), self.rng.choice(SALTS),
                          has_execute=self.rng.random() > 0.2)]

    def _gen_self_lock(self):
        """The token's owner sends it to one of its own derived addresses, deployed or
        not (a self-lock), or now and then to any deployed account (mostly no lock)."""
        tokens = self.tokens()
        if not tokens:
            return None
        token = self.rng.choice(tokens)
        owner = self.ledger.state.collection.owner_of(token)
        caller = owner if owner in self.actors else self.actor()
        to = self.ledger.compute_tba_address(token, self.rng.choice(SALTS))
        if self.tbas() and self.rng.random() < 0.25:
            to = self.rng.choice(self.tbas())
        return [TransferToken(caller, token, to)]

    def _gen_tba_execute(self):
        tbas = self.tbas()
        if not tbas:
            return None
        method = self.rng.choice(["noop", "transfer_value", "stake"])
        kwargs = {}
        if method == "transfer_value":
            kwargs = {"amount": self.amount(), "to": self.any_address()}
        elif method == "stake":
            kwargs = {"amount": self.amount()}
        return [TbaExecute(self.actor(), self.rng.choice(tbas),
                           ProxyPayload(method, **kwargs))]

    def _gen_drain_and_sell(self):
        accounts = self.nftaas()
        if not accounts:
            return None
        nftaa = self.rng.choice(accounts)
        binding = self.ledger.state.nftaas[nftaa]
        owner = self.ledger.state.collection.owner_of(binding.bound_token_id)
        caller = owner if owner in self.actors else self.actor()
        buyer = self.actor()
        ops = [WithdrawAssets(caller, nftaa, caller,
                              self.ledger.balance_of(nftaa)),
               TransferToken(caller, binding.bound_token_id, buyer)]
        if self.rng.random() < 0.5:
            ops.reverse()
        return ops

    def _gen_grouped_mint_failure(self):
        return [MintNftaa(self.actor(), b"doomed"), Fail()]

    def _gen_stake_flow(self):
        """Owner-driven staking call so the lifecycle actually progresses."""
        accounts = self.nftaas()
        if not accounts:
            return None
        nftaa = self.rng.choice(accounts)
        binding = self.ledger.state.nftaas[nftaa]
        owner = self.ledger.state.collection.owner_of(binding.bound_token_id)
        if owner not in self.actors:
            return None
        if self.ledger.stake_balance_of(nftaa) == 0:
            self._faucet(nftaa, 33 * ETH)
            return [ProxyExecute(owner, nftaa, ProxyPayload("stake", amount=32 * ETH))]
        method = self.rng.choice(["add_to_stake", "request_unstake", "stake"])
        kwargs = {"amount": self.rng.choice([0, 1, ETH, 32 * ETH])} \
            if method != "request_unstake" else {}
        return [ProxyExecute(owner, nftaa, ProxyPayload(method, **kwargs))]

    # -- main loop -------------------------------------------------------

    def step(self) -> None:
        self._step()
        if check_lock_diagnostic(self.ledger):
            self.trace.locked_steps += 1

    def _step(self) -> None:
        roll = self.rng.random()
        if roll < 0.08:
            self._faucet(self.rng.choice(self.actors + self.nftaas() or self.actors),
                         self.rng.choice([ETH, 40 * ETH]))
            return
        if roll < 0.14:
            self.ledger.advance_blocks(self.rng.randint(1, 4))
            return
        generators = [self._gen_mint, self._gen_transfer_value, self._gen_transfer_token,
                      self._gen_proxy, self._gen_proxy, self._gen_withdraw,
                      self._gen_upgrade, self._gen_create_tba, self._gen_tba_execute,
                      self._gen_drain_and_sell, self._gen_grouped_mint_failure,
                      self._gen_stake_flow, self._gen_stake_flow, self._gen_self_lock]
        ops = self.rng.choice(generators)()
        if ops is None:
            return
        caller = next((op.caller for op in ops if hasattr(op, "caller")), self.actors[0])
        before = self.ledger.state_digest()
        snapshot = copy.deepcopy(self.ledger.state)
        receipt = self.ledger.apply_transaction(*ops)
        self.trace.receipts.append((caller, tuple(ops), receipt))
        if receipt.committed:
            self.trace.committed += 1
        else:
            self.trace.rolled_back += 1
            code = receipt.error.code.value
            assert self.ledger.state_digest() == before, \
                f"rollback of tx {receipt.tx_id} ({code}) mutated state"
            assert self.ledger.state == snapshot, \
                f"rollback of tx {receipt.tx_id} ({code}) left state the digest omits"
        assert total_conserved(self.ledger) == self.trace.faucet_total, \
            f"conservation broken after tx {receipt.tx_id}"
        check_binding_bijection(self.ledger)
        check_fraud_exclusion(receipt, self.ledger)

    def run(self, steps: int) -> FuzzTrace:
        for _ in range(steps):
            self.step()
        replay_owner_gate(self.trace)
        return self.trace


def run_sequence(seed: int, steps: int = 20) -> FuzzTrace:
    return FuzzDriver(seed).run(steps)
