"""World state and the atomic transaction interpreter.

A Ledger is a self-contained, single-threaded world: accounts, one NFT
collection, one proxy-account factory, one token-bound-account registry, the
stake book, the withdrawal queue, an append-only event log, and a block
counter. Every write a transaction makes first records how to undo itself in
the transaction's journal, in the manner of go-ethereum's state journal. If
any operation fails, the journal is replayed in reverse, so a failed
transaction leaves the world as it was before it ran, at a cost in
proportion to what it wrote rather than to the size of the world.

The two authorization rules each live in one place: `_execute` refuses any
operation whose caller is a contract account, and `_owned_nftaa` is the
owner gate every proxy-account operation passes.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from enum import Enum

from .addresses import ADDRESS_LEN, ZERO_ADDRESS, Address, contract_address, eoa_address
from .errors import ErrorCode, LedgerError
from .events import (NEW_NFTAA, PROXY_RESPONSE, STAKE_INCREASED, STAKED, SYSTEM_TX_ID, TBA_CREATED,
                     TOKEN_TRANSFER, UNSTAKE_REQUESTED, VALUE_TRANSFER, WITHDRAWAL_PROCESSED,
                     Event, Shape)
from .nftaa import NftaaAccount
from .ops import (
    CreateTba,
    Fail,
    MintNftaa,
    MintToken,
    ProxyExecute,
    ProxyPayload,
    TbaExecute,
    TransferToken,
    TransferValue,
    UpgradeAccount,
    WithdrawAssets,
)
from .records import Record
from .staking import (DRAW_BATCH, MIN_STAKE, QueueConfig, StakePosition, WithdrawalQueue,
                      draw_until)
from .tba import TbaRecord, TbaRegistry
from .tokens import NftCollection, NftRecord, validate_note

SYSTEM_ADDRESS = eoa_address("__system__")  # an actor of that label is a DuplicateLabel


class CodeId(str, Enum):
    NFT_COLLECTION = "NftCollection"
    NFTAA_ACCOUNT = "NftaaAccount"
    NFTAA_FACTORY = "NftaaFactory"
    TBA_REGISTRY = "TbaRegistry"
    TBA_ACCOUNT = "TbaAccount"


class Account(Record):
    __slots__ = __match_args__ = ("code_id", "balance")
    def __init__(self, code_id: CodeId | None):
        self.code_id, self.balance = code_id, 0  # code None marks an externally owned account


class TxReceipt(Record):
    __slots__ = __match_args__ = ("tx_id", "error", "events")
    def __init__(self, tx_id: int, error: LedgerError | None, events: tuple[Event, ...]):
        self.tx_id, self.error, self.events = tx_id, error, events  # error None: committed

    @property
    def committed(self) -> bool:
        return self.error is None


class WorldState(Record):
    __slots__ = __match_args__ = ("collection", "factory", "registry", "accounts", "nftaas",
                                  "stakes", "queue")
    def __init__(self, collection: NftCollection, factory: Address, registry: TbaRegistry):
        self.collection, self.factory, self.registry = collection, factory, registry
        self.accounts: dict[Address, Account] = {}
        self.nftaas: dict[Address, NftaaAccount] = {}
        # keyed by the contract account that staked, never by its human owner
        self.stakes: dict[Address, StakePosition] = {}
        self.queue = WithdrawalQueue()


class _TxContext:
    __slots__ = ("tx_id", "events", "sold", "value_out", "journal")
    def __init__(self, tx_id: int):
        self.tx_id = tx_id
        self.events: list[Event] = []
        # the fraud guard's two sets: the proxy accounts whose bound NFT this
        # transaction transferred, and every account it moved value out of
        self.sold: set[Address] = set()
        self.value_out: set[Address] = set()
        # one (undo function, *arguments) entry per write, replayed in reverse on rollback
        self.journal: list[tuple] = []

    def write(self, obj, name: str, value) -> None:
        """Write one attribute, recording its old value first."""
        self.journal.append((setattr, obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def insert(self, table: dict, key, value) -> None:
        """Add a key that `table` does not hold yet, recording its removal."""
        self.journal.append((dict.pop, table, key))
        table[key] = value

    def rollback(self) -> None:
        for fn, *args in reversed(self.journal):
            fn(*args)


class Ledger:
    """Deterministic account-model world with atomic transactions."""

    def __init__(self, config: QueueConfig | None = None):
        self.config = config or QueueConfig()
        self.rng = random.Random(self.config.rng_seed)
        self.height = 0
        self.events: list[Event] = []
        self.next_tx_id = 1
        collection, factory, registry = (contract_address(SYSTEM_ADDRESS, n) for n in range(3))
        self.state = WorldState(NftCollection(collection), factory, TbaRegistry(registry))
        self._create_account(SYSTEM_ADDRESS, None)
        self._create_account(collection, CodeId.NFT_COLLECTION)
        self._create_account(factory, CodeId.NFTAA_FACTORY)
        self._create_account(registry, CodeId.TBA_REGISTRY)

    # ------------------------------------------------------------------
    # Accounts and direct (non-transactional) plumbing
    # ------------------------------------------------------------------

    def _create_account(self, address: Address, code_id: CodeId | None) -> None:
        if address in self.state.accounts:
            # Two distinct derivations landing on one address is a corpus-level
            # impossibility, not a recoverable protocol error.
            raise RuntimeError(f"address collision at {address.hex()}")
        self.state.accounts[address] = Account(code_id)

    def _account(self, address: Address) -> Account:
        account = self.state.accounts.get(address)
        if account is None:
            raise LedgerError(ErrorCode.UNKNOWN_ACCOUNT, address=address)
        return account

    def create_eoa(self, label: str) -> Address:
        if not label:
            raise ValueError("label must be non-empty")
        address = eoa_address(label)
        if address in self.state.accounts:  # only this label derives this address
            raise LedgerError(ErrorCode.DUPLICATE_LABEL, label=label)
        self._create_account(address, None)
        return address

    def faucet(self, to: Address, amount: int) -> None:
        """Test funding; the only operation exempt from conservation."""
        account = self._account(to)
        if amount < 0:
            raise ValueError("amounts are unsigned")
        account.balance += amount
        self.events.append(Event(VALUE_TRANSFER, ZERO_ADDRESS, (ZERO_ADDRESS, to, amount),
                                 self.height, SYSTEM_TX_ID))

    def advance_blocks(self, count: int) -> int:
        """Advance `count` blocks. While the queue has work, `draw_until` draws them a batch
        at a time, and entries are dequeued at the hit blocks; idle blocks are jumped."""
        remaining, config, queue = max(count, 0), self.config, self.state.queue
        while remaining and queue.pending:
            need = -(-len(queue.pending) // config.per_block_cap)  # ceil division
            hits = draw_until(self.rng, need, min(remaining, DRAW_BATCH),
                              config.missed_slot_probability)
            start, remaining, block = self.height, remaining - len(hits), -1
            while (block := hits.find(1, block + 1)) >= 0:
                self.height = start + block + 1
                for entry in queue.process_block(config, self.rng):
                    self._account(entry.owner).balance += entry.amount
                    self.events.append(Event(WITHDRAWAL_PROCESSED, entry.owner,
                                             (entry.owner, entry.amount, entry.enqueued_at),
                                             self.height, SYSTEM_TX_ID))
            self.height = start + len(hits)
        self.height += remaining
        return self.height

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def apply_transaction(self, *operations) -> TxReceipt:
        """Apply `operations` as one atomic transaction; each names its own caller."""
        tx_id = self.next_tx_id
        self.next_tx_id += 1
        ctx = _TxContext(tx_id)
        try:
            for op in operations:
                self._execute(op, ctx)
        except LedgerError as failure:
            ctx.rollback()
            return TxReceipt(tx_id, failure.with_traceback(None), ())  # holds no frame
        except BaseException:
            ctx.rollback()  # a defect, not a protocol failure: undo, then surface it
            raise
        self.events.extend(ctx.events)
        return TxReceipt(tx_id, None, tuple(ctx.events))

    # ------------------------------------------------------------------
    # Operation interpreter
    # ------------------------------------------------------------------

    def _execute(self, op, ctx: _TxContext) -> None:
        # Contract accounts never originate operations themselves; they act
        # only through their execute paths. This is what makes a token locked
        # inside its own account permanently unreachable. Fail is the only
        # operation without a caller.
        if hasattr(op, "caller") and self._account(op.caller).code_id is not None:
            raise LedgerError(ErrorCode.CALLER_NOT_EOA, address=op.caller)
        run = _OPERATIONS.get(type(op))
        if run is None:
            raise TypeError(f"unknown operation {op!r}")
        run(self, op, ctx)

    def _op_transfer_value(self, op: TransferValue, ctx: _TxContext) -> None:
        self._move_value(op.caller, op.to, op.amount, ctx)

    def _op_fail(self, op: Fail, ctx: _TxContext) -> None:
        raise LedgerError(ErrorCode.INJECTED_FAILURE)

    def _move_value(self, frm: Address, to: Address, amount: int, ctx: _TxContext) -> None:
        amount = _unsigned(amount)
        source = self._account(frm)
        dest = self._account(to)
        if frm in ctx.sold:
            raise LedgerError(ErrorCode.FRAUD_GUARD,
                              "bound NFT already transferred in this transaction")
        _debit(source, amount, ctx)
        ctx.write(dest, "balance", dest.balance + amount)
        ctx.value_out.add(frm)
        ctx.events.append(self._event(VALUE_TRANSFER, frm, ctx, (frm, to, amount)))

    def _op_mint_token(self, op: MintToken, ctx: _TxContext) -> None:
        self._account(op.to)
        self._mint(op.to, op.note, None, ctx)

    def _op_transfer_token(self, op: TransferToken, ctx: _TxContext) -> None:
        collection = self.state.collection
        record = collection.get(op.token_id)
        if record.owner != op.caller:
            raise LedgerError(ErrorCode.NOT_OWNER, token=op.token_id)
        self._account(op.to)
        if record.bound_account is not None:
            if op.to == record.bound_account:
                # Sending the key into the lock: the owner gate could never
                # pass again, so reject instead of bricking the account.
                raise LedgerError(ErrorCode.SELF_CUSTODY_HAZARD, token=op.token_id)
            if record.bound_account in ctx.value_out:
                raise LedgerError(ErrorCode.FRAUD_GUARD,
                                  "account was drained in this transaction")
            ctx.sold.add(record.bound_account)
        previous = record.owner
        ctx.write(record, "owner", op.to)
        ctx.events.append(self._event(TOKEN_TRANSFER, collection.address, ctx,
                                      (previous, op.to, op.token_id)))

    def _op_mint_nftaa(self, op: MintNftaa, ctx: _TxContext) -> None:
        validate_note(op.note)
        # Account first, then its token, inside the same atomic transaction.
        account = self.compute_nftaa_address()
        self._new_account(account, CodeId.NFTAA_ACCOUNT, ctx)
        token_id = self._mint(op.caller, op.note, account, ctx)
        ctx.insert(self.state.nftaas, account, NftaaAccount(token_id))
        ctx.events.append(self._event(NEW_NFTAA, self.state.factory, ctx,
                                      (token_id, account, op.caller)))

    def _nftaa(self, address: Address) -> NftaaAccount:
        binding = self.state.nftaas.get(address)
        if binding is None:
            raise LedgerError(ErrorCode.NOT_AN_NFTAA, address=address)
        return binding

    def _require_nft_owner(self, caller: Address, token_id: int) -> None:
        if self.state.collection.owner_of(token_id) != caller:
            raise LedgerError(ErrorCode.NOT_NFT_OWNER, "caller is not the owner of the NFT")

    def _owned_nftaa(self, caller: Address, address: Address) -> NftaaAccount:
        """The binding of proxy account `address`, once `caller` owns its bound NFT."""
        binding = self._nftaa(address)
        self._require_nft_owner(caller, binding.bound_token_id)
        return binding

    def _op_proxy_execute(self, op: ProxyExecute, ctx: _TxContext) -> None:
        self._owned_nftaa(op.caller, op.nftaa)
        self._run_payload(op.nftaa, op.payload, ctx)
        ctx.events.append(self._event(PROXY_RESPONSE, op.nftaa, ctx,
                                      (op.nftaa, op.payload.method, True)))

    def _op_withdraw_assets(self, op: WithdrawAssets, ctx: _TxContext) -> None:
        self._owned_nftaa(op.caller, op.nftaa)
        self._move_value(op.nftaa, op.to, op.amount, ctx)

    def _op_upgrade_account(self, op: UpgradeAccount, ctx: _TxContext) -> None:
        binding = self._owned_nftaa(op.caller, op.nftaa)
        if op.new_version != binding.upgrade_version + 1:
            raise LedgerError(ErrorCode.VERSION_SKEW,
                              current=binding.upgrade_version, requested=op.new_version)
        ctx.write(binding, "upgrade_version", op.new_version)

    def _op_create_tba(self, op: CreateTba, ctx: _TxContext) -> None:
        registry, collection = self.state.registry, self.state.collection
        collection.get(op.token_id)  # token must exist; it stays untouched
        address = self.compute_tba_address(op.token_id, op.salt)
        if address in registry.records:
            raise LedgerError(ErrorCode.ALREADY_DEPLOYED, account=address)
        self._new_account(address, CodeId.TBA_ACCOUNT, ctx)
        ctx.insert(registry.records, address, TbaRecord(op.token_id, op.salt, op.has_execute))
        ctx.events.append(self._event(TBA_CREATED, registry.address, ctx,
                                      (collection.address, op.token_id, op.salt, address)))

    def _op_tba_execute(self, op: TbaExecute, ctx: _TxContext) -> None:
        record = self.state.registry.get_deployed(op.tba)
        if not record.has_execute:
            raise LedgerError(ErrorCode.NO_EXECUTE, account=op.tba)
        self._require_nft_owner(op.caller, record.token_id)
        # No fraud guard and no self-custody guard on this path; reproducing
        # those hazards is the module's purpose.
        self._run_payload(op.tba, op.payload, ctx)

    # ------------------------------------------------------------------
    # Methods executed by a bound account on behalf of its owner
    # ------------------------------------------------------------------

    def _run_payload(self, acting: Address, payload: ProxyPayload, ctx: _TxContext) -> None:
        match payload.method:
            case "noop":
                pass
            case "transfer_value":
                self._move_value(acting, payload.to, payload.amount, ctx)
            case "stake":
                self._stake(acting, payload.amount, ctx)
            case "add_to_stake":
                self._add_to_stake(acting, payload.amount, ctx)
            case "request_unstake":
                self._request_unstake(acting, ctx)

    def _stake(self, acting: Address, amount: int, ctx: _TxContext) -> None:
        _debit(self._account(acting), amount, ctx)  # a later failure undoes the debit
        if amount < MIN_STAKE:
            raise LedgerError(ErrorCode.BELOW_MIN_STAKE, amount=amount, minimum=MIN_STAKE)
        if acting in self.state.stakes:
            raise LedgerError(ErrorCode.ALREADY_STAKING)
        unlock = self.height + self.config.unlock_delay
        ctx.insert(self.state.stakes, acting, StakePosition(amount, unlock))
        ctx.events.append(self._event(STAKED, acting, ctx, (amount, unlock)))

    def _add_to_stake(self, acting: Address, amount: int, ctx: _TxContext) -> None:
        position = self.state.stakes.get(acting)
        if position is None:
            raise LedgerError(ErrorCode.NO_POSITION)
        _debit(self._account(acting), amount, ctx)
        if amount == 0:
            raise LedgerError(ErrorCode.ZERO_AMOUNT)
        ctx.write(position, "amount", position.amount + _unsigned(amount))
        ctx.events.append(self._event(STAKE_INCREASED, acting, ctx, (amount, position.amount)))

    def _request_unstake(self, acting: Address, ctx: _TxContext) -> None:
        position = self.state.stakes.get(acting)
        if position is None:
            raise LedgerError(ErrorCode.NO_POSITION)
        if self.height < position.unlock_block:
            raise LedgerError(ErrorCode.STILL_LOCKED,
                              remaining_blocks=position.unlock_block - self.height)
        # The full amount goes to the queue, credited later to the contract
        # account itself, never to the human owner's address.
        queue = self.state.queue
        queue.enqueue(acting, position.amount, self.height)
        ctx.journal.append((deque.pop, queue.pending))
        del self.state.stakes[acting]
        ctx.journal.append((dict.__setitem__, self.state.stakes, acting, position))
        ctx.events.append(self._event(UNSTAKE_REQUESTED, acting, ctx,
                                      (position.amount, self.height)))

    # Journaled writes shared by several operations; each runs inside a
    # transaction.

    def _new_account(self, address: Address, code_id: CodeId, ctx: _TxContext) -> None:
        self._create_account(address, code_id)
        ctx.journal.append((dict.pop, self.state.accounts, address))

    def _mint(self, to: Address, note: bytes, bound_account: Address | None,
              ctx: _TxContext) -> int:
        """Mint the world's next token to `to`, returning its id."""
        collection = self.state.collection
        token_id = collection.next_id
        ctx.insert(collection.tokens, token_id, NftRecord(to, note, bound_account))
        ctx.events.append(self._event(TOKEN_TRANSFER, collection.address, ctx,
                                      (ZERO_ADDRESS, to, token_id)))
        return token_id

    def _event(self, shape: Shape, emitter: Address, ctx: _TxContext, values: tuple) -> Event:
        return Event(shape, emitter, values, self.height, ctx.tx_id)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def token_note(self, token_id: int) -> bytes:
        return self.state.collection.get(token_id).note

    def account_of(self, token_id: int) -> Address | None:
        """The bound-account address readable straight off the token, if any."""
        return self.state.collection.get(token_id).bound_account

    def bound_nft_of(self, nftaa: Address) -> int:
        """The id of the token bound to proxy account `nftaa`."""
        return self._nftaa(nftaa).bound_token_id

    def balance_of(self, address: Address) -> int:
        return self._account(address).balance

    def stake_balance_of(self, account: Address) -> int:
        position = self.state.stakes.get(account)
        return 0 if position is None else position.amount

    def staker_address_of(self, account: Address) -> Address | None:
        return account if account in self.state.stakes else None

    def compute_tba_address(self, token_id: int, salt: bytes) -> Address:
        return self.state.registry.compute_address(self.state.collection.address,
                                                   token_id, salt)

    def compute_nftaa_address(self, ahead: int = 0) -> Address:
        """The proxy account the factory creates `ahead` mints from now."""
        return contract_address(self.state.factory, len(self.state.nftaas) + ahead)

    # ------------------------------------------------------------------
    # Canonical digest
    # ------------------------------------------------------------------

    def state_digest(self) -> str:
        """SHA-256 over the canonical serialization, as 64 lowercase hex chars."""
        return hashlib.sha256(self.canonical_state_bytes()).hexdigest()

    def canonical_state_bytes(self) -> bytes:
        """Eight named sections of length-prefixed fields (4-byte big-endian lengths). Each
        row is joined from its fields and appended to one buffer: one join of every field
        would hold an 80-byte buffer view per field while it ran."""
        state, collection, join = self.state, self.state.collection, b"".join
        collection_field = _ADDRESS + collection.address  # the world's one collection
        out = bytearray(_field(b"accounts"))
        accounts = state.accounts
        for address in sorted(accounts):
            account = accounts[address]
            out += join((_ADDRESS, address, _CODE_FIELDS[account.code_id],
                         _uint(account.balance)))
        out += _field(b"nfts")
        tokens = collection.tokens
        for token_id in sorted(tokens):
            record = tokens[token_id]
            out += join((collection_field, _uint(token_id), _ADDRESS, record.owner,
                         _field(record.note), _field(record.bound_account or b"")))
        out += _field(b"stakes")
        stakes = state.stakes
        for owner in sorted(stakes):
            position = stakes[owner]
            out += join((_ADDRESS, owner, _uint(position.amount), _uint(position.unlock_block)))
        out += _field(b"queue")
        for entry in state.queue.pending:
            out += join((_ADDRESS, entry.owner, _uint(entry.amount), _uint(entry.enqueued_at)))
        out += _field(b"bindings")
        nftaas = state.nftaas
        for address in sorted(nftaas):
            binding = nftaas[address]
            out += join((_ADDRESS, address, collection_field, _uint(binding.bound_token_id),
                         _uint(binding.upgrade_version)))
        out += _field(b"tbas")
        for address, record in state.registry.sorted_records():
            out += join((collection_field, _uint(record.token_id), _field(record.salt), _ADDRESS,
                         address, _uint(int(record.has_execute))))
        out += join((_field(b"factory"), _ADDRESS, state.factory, collection_field,
                     _uint(len(nftaas)), _field(b"height"), _uint(self.height)))
        return bytes(out)


# operation class -> the Ledger method that runs it, once `_execute` has checked its caller
_OPERATIONS = {TransferValue: Ledger._op_transfer_value, MintToken: Ledger._op_mint_token,
               TransferToken: Ledger._op_transfer_token, MintNftaa: Ledger._op_mint_nftaa,
               ProxyExecute: Ledger._op_proxy_execute, WithdrawAssets: Ledger._op_withdraw_assets,
               UpgradeAccount: Ledger._op_upgrade_account, CreateTba: Ledger._op_create_tba,
               TbaExecute: Ledger._op_tba_execute, Fail: Ledger._op_fail}


def _debit(account: Account, amount: int, ctx: _TxContext) -> None:
    """Take `amount` from `account`; the one balance check of every value-moving path."""
    if account.balance < amount:
        raise LedgerError(ErrorCode.INSUFFICIENT_BALANCE, have=account.balance, need=amount)
    ctx.write(account, "balance", account.balance - amount)


def _unsigned(amount: int) -> int:
    if amount < 0:
        raise LedgerError(ErrorCode.NEGATIVE_AMOUNT, amount=amount)
    return amount


def _field(value: bytes) -> bytes:
    """`value` with its 4-byte big-endian length in front."""
    return len(value).to_bytes(4, "big") + value


def _uint(value: int) -> bytes:
    """An unsigned integer's field: its minimal big-endian bytes, none for 0."""
    if value < 0:
        raise ValueError("unsigned field")
    if not value:
        return _EMPTY
    size = (value.bit_length() + 7) // 8
    return size.to_bytes(4, "big") + value.to_bytes(size, "big")


_EMPTY = _field(b"")
_ADDRESS = ADDRESS_LEN.to_bytes(4, "big")  # the length prefix of every address field
_CODE_FIELDS = {None: _EMPTY, **{code: _field(code.value.encode()) for code in CodeId}}
