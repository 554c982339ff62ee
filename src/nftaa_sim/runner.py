"""Scenario execution and differential comparison.

A script runs against a fresh ledger in one of three lanes:

* ``native`` - every step executes exactly as written (the `run` command).
* ``nftaa``  - differential lane A: steps that only exist for token-bound
  accounts (createtba, tbacall, probe tba_address) report NotComparable.
* ``tba``    - differential lane B: the proxy-account vocabulary is
  reinterpreted registry-style. ``mintnftaa`` becomes two separate
  transactions (mint, then account creation), ``transfernftaa`` moves the
  plain token, staking and withdrawal go through the account's execute call,
  and ``upgrade`` has no analog.

``begin``/``commit`` groups are one atomic transaction in the native and
nftaa lanes. The tba lane cannot express that: grouped steps run as a
sequence of dependent transactions, the first failure aborts the remainder,
and an ``interrupt`` right after ``mintnftaa`` lands in the seam between the
mint and the account creation. That asymmetry is what the differential
runner exists to expose.

Reports are plain text and byte-identical across runs with the same script
and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .addresses import Address, contract_address, salt_from_int, to_hex
from .errors import ErrorCode, LedgerError
from .events import Event, EventKind
from .ledger import CodeId, Ledger, TxReceipt
from .ops import (
    CreateTba,
    Fail,
    MintNftaa,
    MintToken,
    ProxyExecute,
    ProxyPayload,
    TbaExecute,
    Transaction,
    TransferToken,
    UpgradeAccount,
    WithdrawAssets,
)
from .scenario import CONFIG, EXECUTABLE, PROXY_FORMS, ScenarioScript, Step, parse_amount
from .staking import QueueConfig, estimate_drain_time, simulate_drain
from .tba import diagnostic_lines

# outcome statuses
OK = "ok"
COMMITTED = "committed"
ROLLED_BACK = "rolled_back"
PARTIAL = "partial"
GROUPED = "grouped"
SKIPPED = "skipped"
NOT_COMPARABLE = "not_comparable"

_FAILING = {ROLLED_BACK, PARTIAL, NOT_COMPARABLE}

# staking steps: sugar for a proxy call of this method
_STAKING_METHOD = {"stake": "stake", "addstake": "add_to_stake", "unstake": "request_unstake"}


@dataclass
class StepOutcome:
    index: int
    line: int
    kind: str
    status: str
    detail: str = ""
    code: str | None = None
    tx_count: int = 0
    group_kinds: tuple[str, ...] = ()

    def render(self) -> str:
        text = f"step index={self.index} line={self.line} kind={self.kind} status={self.status}"
        if self.code:
            text += f" code={self.code}"
        if self.tx_count:
            text += f" txs={self.tx_count}"
        if self.detail:
            text += f" {self.detail}"
        return text

    def signature(self) -> str:
        """Lane-comparable receipt: status, error code, and transaction shape.

        Probe observations are part of the signature (the readback is the
        behavior under comparison); other detail text is not, since addresses
        legitimately differ between account styles.
        """
        parts = [self.status]
        if self.code:
            parts.append(self.code)
        if self.tx_count:
            parts.append(f"txs={self.tx_count}")
        if self.kind == "probe" and self.detail:
            parts.append(self.detail)
        return ":".join(parts)


@dataclass
class Verdict:
    line: int
    description: str
    passed: bool

    def render(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"verdict line={self.line} status={flag} {self.description}"


@dataclass
class RunReport:
    name: str
    lane: str
    seed: int
    outcomes: list[StepOutcome] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    final_digest: str = ""

    @property
    def exit_code(self) -> int:
        return 0 if all(v.passed for v in self.verdicts) else 1

    def to_text(self) -> str:
        lines = [f"scenario={self.name} lane={self.lane} seed={self.seed}"]
        lines += [outcome.render() for outcome in self.outcomes]
        lines += [verdict.render() for verdict in self.verdicts]
        lines += [f"event {event.render()}" for event in self.events]
        passed = sum(v.passed for v in self.verdicts)
        lines.append(f"final_digest={self.final_digest}")
        lines.append(f"verdicts_passed={passed} verdicts_failed={len(self.verdicts) - passed}")
        lines.append(f"exit={self.exit_code}")
        return "\n".join(lines) + "\n"


def build_config(script: ScenarioScript, seed: int | None = None) -> QueueConfig:
    kwargs = {CONFIG[key][0]: CONFIG[key][1](value) for key, value in script.config}
    if seed is not None:
        kwargs["rng_seed"] = seed
    return QueueConfig(**kwargs)


class ScenarioRunner:
    def __init__(self, script: ScenarioScript, name: str = "scenario",
                 lane: str = "native", seed: int | None = None):
        self.script = script
        self.lane = lane
        self.config = build_config(script, seed)
        self.ledger = Ledger(self.config)
        self.report = RunReport(name, lane, self.config.rng_seed)
        # label -> ("actor"|"account", address) or ("token", token_id);
        # account labels additionally map to their token in `account_tokens`.
        self.values: dict[str, tuple[str, object]] = {}
        self.account_tokens: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Label resolution
    # ------------------------------------------------------------------

    def address_of(self, label: str) -> Address:
        tag, value = self._value(label)
        if tag == "token":
            raise LedgerError(ErrorCode.UNKNOWN_ACCOUNT, f"label {label!r} names a token")
        return value

    def token_of(self, label: str) -> int:
        tag, value = self._value(label)
        if tag == "token":
            return value
        token_id = self.account_tokens.get(label)
        if token_id is None:
            raise LedgerError(ErrorCode.UNKNOWN_TOKEN, f"label {label!r} has no token")
        return token_id

    def _value(self, label: str) -> tuple[str, object]:
        bound = self.values.get(label)
        if bound is None:
            # declared at parse time but its creating step never committed
            raise LedgerError(ErrorCode.UNKNOWN_ACCOUNT, f"label {label!r} is unbound")
        return bound

    def bind_actor(self, label: str, address: Address) -> None:
        self.values[label] = ("actor", address)

    def bind_account(self, label: str, address: Address, token_id: int) -> None:
        self.values[label] = ("account", address)
        self.account_tokens[label] = token_id

    def bind_token(self, label: str, token_id: int) -> None:
        self.values[label] = ("token", token_id)

    def unbind(self, label: str) -> None:
        self.values.pop(label, None)
        self.account_tokens.pop(label, None)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> RunReport:
        steps = self.script.steps
        index = 0
        while index < len(steps):
            step = steps[index]
            if step.kind == "begin":
                group, index = self._collect_group(steps, index)
                outcome = self._run_group(group, steps[index - 1])
                executable = True
            else:
                outcome = self._run_step(step)
                index += 1
                executable = step.kind in EXECUTABLE
            self.report.outcomes.append(outcome)
            if executable:
                self._check_expectations(outcome, steps, index)
        self.report.events = list(self.ledger.events)
        self.report.final_digest = self.ledger.state_digest()
        return self.report

    def _collect_group(self, steps, index) -> tuple[list[Step], int]:
        group = []
        index += 1  # past begin
        while steps[index].kind != "commit":
            group.append(steps[index])
            index += 1
        return group, index + 1  # past commit

    def _expectation_for(self, steps, next_index) -> tuple[str | None, int | None]:
        """The expectation applicable in this lane, if the step carries one."""
        wanted = "expect_tba" if self.lane == "tba" else "expect_error"
        for peek in steps[next_index:next_index + 2]:
            if peek.kind == wanted:
                return peek.args[0], peek.line
            if peek.kind not in ("expect_error", "expect_tba"):
                break
        return None, None

    def _check_expectations(self, outcome: StepOutcome, steps, next_index) -> None:
        expected, line = self._expectation_for(steps, next_index)
        if expected is None:
            if outcome.status in _FAILING:
                self.report.verdicts.append(Verdict(
                    outcome.line, f"unexpected failure {outcome.code or outcome.status}",
                    False))
            return
        if expected == "ok":
            passed = outcome.status in (OK, COMMITTED)
            got = outcome.status
        elif expected == "partial":
            passed = outcome.status == PARTIAL
            got = outcome.status
        else:
            passed = outcome.status in _FAILING and outcome.code == expected
            got = outcome.code or outcome.status
        self.report.verdicts.append(Verdict(
            line, f"expected {expected}, got {got}", passed))

    # ------------------------------------------------------------------
    # Step execution
    # ------------------------------------------------------------------

    def _run_step(self, step: Step) -> StepOutcome:
        index = len(self.report.outcomes) + 1
        outcome = StepOutcome(index, step.line, step.kind, OK)
        try:
            self._dispatch(step, outcome)
        except LedgerError as failure:
            outcome.status = NOT_COMPARABLE \
                if failure.code is ErrorCode.NOT_COMPARABLE else ROLLED_BACK
            outcome.code = failure.code.value
        return outcome

    def _dispatch(self, step: Step, outcome: StepOutcome) -> None:
        kind, args = step.kind, step.args
        if kind == "actor":
            address = self.ledger.create_eoa(args[0])
            self.bind_actor(args[0], address)
            outcome.detail = f"address={to_hex(address)}"
        elif kind == "faucet":
            self.ledger.faucet(self.address_of(args[0]), parse_amount(args[1]))
        elif kind == "advance":
            height = self.ledger.advance_blocks(int(args[0]))
            outcome.detail = f"height={height}"
        elif kind in ("expect_error", "expect_tba"):
            outcome.status = SKIPPED  # consumed by _check_expectations
        elif kind == "queue_report":
            outcome.detail = self._queue_report(int(args[0]), args[1])
        elif kind == "probe":
            outcome.detail = self._probe(args)
        elif kind.startswith("assert_"):
            self._assert(step)
        else:
            self._run_transactional([step], outcome)

    def _run_transactional(self, group: list[Step], outcome: StepOutcome) -> None:
        if self.lane == "tba":
            self._run_tba_sequence(group, outcome)
            return
        provisional: list[str] = []
        try:
            operations = []
            mints_ahead = tokens_ahead = 0
            for step in group:
                built = self._build_op(step, mints_ahead, tokens_ahead, provisional)
                if built is None:  # no analog in this lane
                    outcome.status = NOT_COMPARABLE
                    outcome.code = ErrorCode.NOT_COMPARABLE.value
                    return
                operations.append(built)
                if isinstance(built, MintNftaa):
                    mints_ahead += 1
                    tokens_ahead += 1
                elif isinstance(built, MintToken):
                    tokens_ahead += 1
            caller = next((op.caller for op in operations if hasattr(op, "caller")),
                          None) or self._any_caller()
            receipt = self.ledger.apply_transaction(Transaction(caller, tuple(operations)))
        except LedgerError:
            for label in provisional:
                self.unbind(label)
            raise
        outcome.tx_count = 1
        if receipt.committed:
            outcome.status = COMMITTED
            outcome.detail = _creation_detail(receipt)
        else:
            outcome.status = ROLLED_BACK
            outcome.code = receipt.error.code.value
            for label in provisional:
                self.unbind(label)

    def _build_op(self, step: Step, mints_ahead: int, tokens_ahead: int,
                  provisional: list[str]):
        """Build the ledger operation for one script step, or None if the
        step has no analog in this lane.

        Labels created by the step are bound up front from the deterministic
        address/id sequence so later steps in the same transaction can refer
        to them; the caller unbinds them if the transaction rolls back.
        """
        kind, args = step.kind, step.args
        state = self.ledger.state
        if kind == "mintnftaa":
            creator = self.address_of(args[0])
            account = contract_address(state.factory.address,
                                       state.factory.creation_nonce + mints_ahead)
            token_id = state.collection.next_id + tokens_ahead
            self.bind_account(args[1], account, token_id)
            provisional.append(args[1])
            return MintNftaa(creator, state.factory.address, args[2].encode())
        if kind == "minttoken":
            actor = self.address_of(args[0])
            token_id = state.collection.next_id + tokens_ahead
            self.bind_token(args[1], token_id)
            provisional.append(args[1])
            return MintToken(actor, state.collection.address, actor, args[2].encode())
        if kind in ("transfernftaa", "transfertoken"):
            return TransferToken(self.address_of(args[0]), state.collection.address,
                                 self.token_of(args[1]), self.address_of(args[2]))
        if kind == "tbacall" and self.lane == "nftaa":
            return None
        if kind in ("proxy", "tbacall"):
            return self._execute_call(*args)
        if kind in _STAKING_METHOD:
            return self._execute_call(args[0], args[1], _STAKING_METHOD[kind], *args[2:])
        if kind == "withdraw":
            actor, account = self.address_of(args[0]), self.address_of(args[1])
            to, amount = self.address_of(args[2]), parse_amount(args[3])
            if self.lane == "tba" or self._is_tba(account):
                return TbaExecute(actor, account,
                                  ProxyPayload("transfer_value", amount=amount, to=to))
            return WithdrawAssets(actor, account, to, amount)
        if kind == "upgrade":
            return UpgradeAccount(self.address_of(args[0]), self.address_of(args[1]),
                                  int(args[2]))
        if kind == "createtba":
            if self.lane == "nftaa":
                return None
            actor = self.address_of(args[0])
            token_id = self.token_of(args[1])
            salt = salt_from_int(int(args[2]))
            address = self.ledger.compute_tba_address(token_id, salt)
            self.bind_account(args[3], address, token_id)
            provisional.append(args[3])
            return CreateTba(actor, state.registry.address, state.collection.address,
                             token_id, salt, has_execute="noexec" not in args[4:])
        if kind in ("fail", "interrupt"):
            return Fail("interrupted" if kind == "interrupt" else "injected")
        raise AssertionError(f"unhandled step kind {kind}")

    def _execute_call(self, actor: str, account: str, method: str, *rest: str):
        """proxy/tbacall and the staking sugar, dispatched on the account type.

        The method's roles give the payload: an amount, or a recipient label.
        """
        caller, target = self.address_of(actor), self.address_of(account)
        fields: dict[str, object] = {}
        for role, value in zip(PROXY_FORMS[method].roles, rest):
            if role.test == "amount":
                fields["amount"] = parse_amount(value)
            else:
                fields["to"] = self.address_of(value)
        execute = TbaExecute if self.lane == "tba" or self._is_tba(target) else ProxyExecute
        return execute(caller, target, ProxyPayload(method, **fields))

    def _is_tba(self, address: Address) -> bool:
        account = self.ledger.state.accounts.get(address)
        return account is not None and account.code_id is CodeId.TBA_ACCOUNT

    def _any_caller(self) -> Address:
        return next(iter(self.ledger.state.accounts))

    # ------------------------------------------------------------------
    # Group handling (atomic in native/nftaa, sequential in tba lane)
    # ------------------------------------------------------------------

    def _run_group(self, group: list[Step], commit_step: Step) -> StepOutcome:
        index = len(self.report.outcomes) + 1
        for offset, inner in enumerate(group):
            self.report.outcomes.append(
                StepOutcome(index + offset, inner.line, inner.kind, GROUPED))
        outcome = StepOutcome(index + len(group), commit_step.line, "commit", OK,
                              group_kinds=tuple(s.kind for s in group))
        try:
            self._run_transactional(group, outcome)
        except LedgerError as failure:
            outcome.status = ROLLED_BACK
            outcome.code = failure.code.value
        return outcome

    # ------------------------------------------------------------------
    # Token-bound lane: scripts reinterpreted registry-style
    # ------------------------------------------------------------------

    def _run_tba_sequence(self, group: list[Step], outcome: StepOutcome) -> None:
        """Run each step as its own transaction; stop at the first failure."""
        statuses: list[str] = []
        first_code: str | None = None
        aborted = False
        position = 0
        while position < len(group):
            step = group[position]
            interrupt_next = (position + 1 < len(group)
                              and group[position + 1].kind == "interrupt")
            if aborted:
                statuses.append(f"{step.kind}={SKIPPED}")
                position += 1
                continue
            results = self._tba_step(step, interrupt_next)
            consumed_interrupt = False
            for name, status, code in results:
                statuses.append(f"{name}={status if code is None else code}")
                if code is not None:
                    aborted = True
                    if first_code is None:
                        first_code = code
                if name == "interrupt":
                    consumed_interrupt = True
            position += 2 if consumed_interrupt else 1
        committed = sum(1 for s in statuses if s.endswith(f"={COMMITTED}"))
        outcome.tx_count = sum(1 for s in statuses if not s.endswith(f"={SKIPPED}"))
        outcome.detail = "seq=" + ",".join(statuses) if statuses else ""
        if first_code is None:
            outcome.status = COMMITTED
        elif committed == 0 and len(statuses) == 1 \
                and first_code == ErrorCode.NOT_COMPARABLE.value:
            outcome.status = NOT_COMPARABLE
            outcome.code = first_code
            outcome.tx_count = 0
        elif committed == 0:
            outcome.status = ROLLED_BACK
            outcome.code = first_code
        else:
            outcome.status = PARTIAL
            outcome.code = first_code

    def _tba_step(self, step: Step, interrupt_next: bool) -> list[tuple[str, str, str | None]]:
        """One script step as a list of (name, status, error-code) transactions."""
        kind, args = step.kind, step.args
        ledger = self.ledger
        state = ledger.state
        if kind == "mintnftaa":
            creator = self.address_of(args[0])
            token_id = state.collection.next_id
            mint = ledger.submit(MintToken(creator, state.collection.address,
                                           creator, args[2].encode()))
            if not mint.committed:
                return [("mint", ROLLED_BACK, mint.error.code.value)]
            results = [("mint", COMMITTED, None)]
            if interrupt_next:
                # The failure lands in the seam between the two transactions
                # that an atomic creation would have fused into one.
                results.append(("interrupt", ROLLED_BACK,
                                ErrorCode.INJECTED_FAILURE.value))
                results.append(("account", SKIPPED, None))
                return results
            salt = salt_from_int(0)
            address = ledger.compute_tba_address(token_id, salt)
            create = ledger.submit(CreateTba(creator, state.registry.address,
                                             state.collection.address, token_id, salt))
            if not create.committed:
                return results + [("account", ROLLED_BACK, create.error.code.value)]
            self.bind_account(args[1], address, token_id)
            return results + [("account", COMMITTED, None)]
        if kind == "upgrade":
            return [("upgrade", NOT_COMPARABLE, ErrorCode.NOT_COMPARABLE.value)]
        provisional: list[str] = []
        try:
            operation = self._build_op(step, 0, 0, provisional)
        except LedgerError as failure:
            return [(kind, ROLLED_BACK, failure.code.value)]
        caller = getattr(operation, "caller", None) or self._any_caller()
        receipt = ledger.submit(operation, caller=caller)
        if receipt.committed:
            return [(kind, COMMITTED, None)]
        for label in provisional:
            self.unbind(label)
        return [(kind, ROLLED_BACK, receipt.error.code.value)]

    # ------------------------------------------------------------------
    # Probes, asserts, queue report
    # ------------------------------------------------------------------

    def _probe(self, args: tuple[str, ...]) -> str:
        what = args[0]
        if what == "binding":
            token_id = self.token_of(args[1])
            bound = self.ledger.account_of(token_id)
            return f"binding={'none' if bound is None else to_hex(bound)}"
        if what == "tba_address":
            if self.lane == "nftaa":
                raise LedgerError(ErrorCode.NOT_COMPARABLE,
                                  "no pre-deployment address exists for factory accounts")
            address = self.ledger.compute_tba_address(self.token_of(args[1]),
                                                      salt_from_int(int(args[2])))
            return f"tba_address={to_hex(address)}"
        if what == "locked":
            lines = diagnostic_lines(self.ledger.state)
            return "diagnostics=" + (" | ".join(lines) if lines else "none")
        if what == "counts":
            state = self.ledger.state
            return (f"tokens={len(state.collection.tokens)} "
                    f"bindings={len(state.nftaas)} "
                    f"tba_accounts={len(state.registry.records)}")
        raise AssertionError(f"unknown probe {what}")

    def _assert(self, step: Step) -> None:
        kind, args = step.kind, step.args
        try:
            passed, description = self._evaluate_assert(kind, args)
        except LedgerError as failure:
            passed, description = False, f"{kind} raised {failure.code.value}"
        self.report.verdicts.append(Verdict(step.line, description, passed))

    def _evaluate_assert(self, kind: str, args: tuple[str, ...]) -> tuple[bool, str]:
        ledger = self.ledger
        if kind == "assert_digest":
            actual = ledger.state_digest()
            return actual == args[0], f"digest expected {args[0][:12]}.. got {actual[:12]}.."
        if kind == "assert_event":
            return self._match_event(args)
        if kind == "assert_note":
            actual = ledger.token_note(self.token_of(args[0]))
            return actual == args[1].encode(), f"note of {args[0]} is {actual!r}"
        if kind == "assert_bound":
            _, token_id = ledger.bound_nft_of(self.address_of(args[0]))
            return token_id == int(args[1]), f"bound token of {args[0]} is {token_id}"
        if kind == "assert_account":
            bound = ledger.account_of(self.token_of(args[0]))
            rendered = "none" if bound is None else to_hex(bound)
            if args[1] == "none":
                return bound is None, f"account of {args[0]} is {rendered}"
            return bound == self.address_of(args[1]), f"account of {args[0]} is {rendered}"
        if kind == "assert_balance":
            actual = ledger.balance_of(self.address_of(args[0]))
            return actual == parse_amount(args[1]), f"balance of {args[0]} is {actual}"
        if kind == "assert_stake":
            actual = ledger.stake_balance_of(self.address_of(args[0]))
            return actual == parse_amount(args[1]), f"stake of {args[0]} is {actual}"
        if kind == "assert_staker":
            actual = ledger.staker_address_of(self.address_of(args[0]))
            rendered = "none" if actual is None else to_hex(actual)
            if args[1] == "none":
                return actual is None, f"staker of {args[0]} is {rendered}"
            return actual == self.address_of(args[1]), f"staker of {args[0]} is {rendered}"
        raise AssertionError(f"unhandled assert {kind}")

    def _match_event(self, args: tuple[str, ...]) -> tuple[bool, str]:
        wanted_kind = args[0]
        criteria = {}
        for pair in args[1:]:
            key, value = pair.split("=", 1)
            if value.startswith("@"):
                value = to_hex(self.address_of(value[1:]))
            criteria[key] = value
        for event in self.ledger.events:
            if event.kind.value != wanted_kind:
                continue
            if all(str(event.payload.get(k)) == v for k, v in criteria.items()):
                return True, f"event {wanted_kind} present"
        return False, f"event {wanted_kind} matching {criteria} not found"

    def _queue_report(self, pending: int, mode: str) -> str:
        if mode == "closed":
            return estimate_drain_time(pending, self.config).summary_line()
        return simulate_drain(pending, self.config).summary_line()


def _creation_detail(receipt: TxReceipt) -> str:
    parts = []
    for event in receipt.events:
        if event.kind is EventKind.NEW_NFTAA:
            parts.append(f"token_id={event.payload['token_id']} "
                         f"account={event.payload['account']}")
        elif event.kind is EventKind.TBA_CREATED:
            parts.append(f"tba={event.payload['account']}")
    return " ".join(parts)


def run_scenario(script: ScenarioScript, name: str = "scenario",
                 lane: str = "native", seed: int | None = None) -> RunReport:
    return ScenarioRunner(script, name, lane, seed).run()


# ---------------------------------------------------------------------------
# Differential execution
# ---------------------------------------------------------------------------

@dataclass
class DiffEntry:
    index: int
    line: int
    kind: str
    nftaa: str
    tba: str
    claim: str

    def render(self) -> str:
        return (f"step index={self.index} line={self.line} kind={self.kind} "
                f"nftaa={self.nftaa} tba={self.tba} claim={self.claim}")


@dataclass
class DiffResult:
    name: str
    nftaa: RunReport
    tba: RunReport
    entries: list[DiffEntry]

    @property
    def exit_code(self) -> int:
        return 0 if self.nftaa.exit_code == 0 and self.tba.exit_code == 0 else 1

    @property
    def claims(self) -> list[str]:
        seen: list[str] = []
        for entry in self.entries:
            if entry.claim not in seen:
                seen.append(entry.claim)
        return seen

    def to_text(self) -> str:
        lines = [f"diff scenario={self.name} seed={self.nftaa.seed}"]
        lines += [entry.render() for entry in self.entries]
        lines.append(f"differences={len(self.entries)}")
        lines.append(f"claims={','.join(self.claims) if self.claims else 'none'}")
        lines.append(f"nftaa_exit={self.nftaa.exit_code} tba_exit={self.tba.exit_code}")
        lines.append(f"exit={self.exit_code}")
        return "\n".join(lines) + "\n"


def classify_difference(outcome_a: StepOutcome, outcome_b: StepOutcome) -> str:
    """Name the documented design difference a diverging step evidences."""
    codes = {outcome_a.code, outcome_b.code}
    if ErrorCode.FRAUD_GUARD.value in codes:
        return "fraud-guard"
    if ErrorCode.SELF_CUSTODY_HAZARD.value in codes:
        return "self-lock"
    kind = outcome_a.kind
    if kind in ("proxy", "tbacall") and ErrorCode.NOT_NFT_OWNER.value in codes:
        # the gate diverged: one style let the token wander where no caller
        # can ever satisfy it again
        return "self-lock"
    if kind == "mintnftaa" or "mintnftaa" in outcome_a.group_kinds:
        return "creation-atomicity"
    if kind == "probe":
        detail = outcome_a.detail + " " + outcome_b.detail
        if "binding=" in detail:
            return "binding-visibility"
        if "diagnostics=" in detail:
            return "self-lock"
        if "tokens=" in detail:
            return "creation-atomicity"
        return "counterfactual-address"
    if kind in ("createtba", "tbacall"):
        return "counterfactual-address"
    if kind == "upgrade":
        return "upgradeability"
    return "behavioral-difference"


def run_differential(script: ScenarioScript, name: str = "scenario",
                     seed: int | None = None) -> DiffResult:
    lane_a = run_scenario(script, name, lane="nftaa", seed=seed)
    lane_b = run_scenario(script, name, lane="tba", seed=seed)
    entries = []
    for outcome_a, outcome_b in zip(lane_a.outcomes, lane_b.outcomes):
        if outcome_a.signature() == outcome_b.signature():
            continue
        entries.append(DiffEntry(outcome_a.index, outcome_a.line, outcome_a.kind,
                                 outcome_a.signature(), outcome_b.signature(),
                                 classify_difference(outcome_a, outcome_b)))
    return DiffResult(name, lane_a, lane_b, entries)
