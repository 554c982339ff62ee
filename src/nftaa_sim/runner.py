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

One translation serves all three lanes: it turns a step into the named
ledger operations of the lane (``mint`` and ``account`` for ``mintnftaa`` in
the tba lane), or raises NotComparable for a kind with no analog there.
Labels a step creates are bound before its transaction is submitted, so later
steps of a group can name them, and unbound if that transaction does not
commit.

``begin``/``commit`` groups are one atomic transaction in the native and
nftaa lanes. The tba lane cannot express that: it submits the operations one
at a time, the first failure skips the remainder, and an ``interrupt`` right
after a split step lands in the seam between its parts (the mint and the
account creation). That asymmetry is what the differential runner exists to
expose.

Reports are plain text and byte-identical across runs with the same script
and seed.
"""

from __future__ import annotations

from .addresses import Address, contract_address, salt_from_int, to_hex
from .errors import ErrorCode, LedgerError
from .events import Event, EventKind
from .ledger import Ledger, TxReceipt
from .ops import (
    CreateTba,
    Fail,
    MintNftaa,
    MintToken,
    ProxyExecute,
    ProxyPayload,
    TbaExecute,
    TransferToken,
    UpgradeAccount,
    WithdrawAssets,
)
from .records import Record
from .scenario import EXECUTABLE, PROXY_FORMS, ScenarioScript, Step, parse_amount, queue_config
from .staking import estimate_drain_time, simulate_drain
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

# step kinds with no analog in a lane's account style
_NO_ANALOG = {"native": frozenset(), "nftaa": frozenset({"tbacall", "createtba"}),
              "tba": frozenset({"upgrade"})}

# staking steps: sugar for a proxy call of this method
_STAKING_METHOD = {"stake": "stake", "addstake": "add_to_stake", "unstake": "request_unstake"}


class StepOutcome(Record):
    __slots__ = __match_args__ = ("index", "line", "kind", "status", "detail", "code",
                                  "tx_count", "group_kinds")
    def __init__(self, index: int, line: int, kind: str, status: str):
        self.index, self.line, self.kind, self.status = index, line, kind, status
        self.detail, self.code, self.tx_count, self.group_kinds = "", None, 0, ()

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


class Verdict(Record):
    __slots__ = __match_args__ = ("line", "description", "passed")
    def __init__(self, line: int, description: str, passed: bool):
        self.line, self.description, self.passed = line, description, passed

    def render(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"verdict line={self.line} status={flag} {self.description}"


class RunReport(Record):
    __slots__ = __match_args__ = ("name", "lane", "seed", "outcomes", "verdicts", "events",
                                  "final_digest")
    def __init__(self, name: str, lane: str, seed: int):
        self.name, self.lane, self.seed, self.final_digest = name, lane, seed, ""
        self.outcomes: list[StepOutcome] = []
        self.verdicts: list[Verdict] = []
        self.events: list[Event] = []

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


class ScenarioRunner:
    def __init__(self, script: ScenarioScript, name: str = "scenario",
                 lane: str = "native", seed: int | None = None):
        self.script = script
        self.lane = lane
        self.config = queue_config(script.config, seed)
        self.ledger = Ledger(self.config)
        self.report = RunReport(name, lane, self.config.rng_seed)
        # label -> (style, address, token_id); style is "actor", "token", "account" or
        # "tba" (a registry-style account); a token has no address, an actor no token
        self.labels: dict[str, tuple[str, Address | None, int | None]] = {}

    # ------------------------------------------------------------------
    # Label resolution
    # ------------------------------------------------------------------

    def address_of(self, label: str) -> Address:
        address = self._bound(label)[1]
        if address is None:
            raise LedgerError(ErrorCode.UNKNOWN_ACCOUNT, f"label {label!r} names a token")
        return address

    def token_of(self, label: str) -> int:
        token_id = self._bound(label)[2]
        if token_id is None:
            raise LedgerError(ErrorCode.UNKNOWN_TOKEN, f"label {label!r} has no token")
        return token_id

    def _bound(self, label: str) -> tuple[str, Address | None, int | None]:
        bound = self.labels.get(label)
        if bound is None:
            # declared at parse time but its creating step never committed
            raise LedgerError(ErrorCode.UNKNOWN_ACCOUNT, f"label {label!r} is unbound")
        return bound

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> RunReport:
        steps = self.script.steps
        index = 0
        while index < len(steps):
            step, group = steps[index], steps[index:index + 1]
            index += 1
            if step.kind == "begin":  # the group runs, and reports, at its commit
                end = next(i for i in range(index, len(steps)) if steps[i].kind == "commit")
                group, step = steps[index:end], steps[end]
                for inner in group:
                    self.report.outcomes.append(StepOutcome(
                        len(self.report.outcomes) + 1, inner.line, inner.kind, GROUPED))
                index = end + 1
            outcome = self._run_step(step, group)
            self.report.outcomes.append(outcome)
            if step.kind in EXECUTABLE:
                self._check_expectations(outcome, steps, index)
        self.report.events = list(self.ledger.events)
        self.report.final_digest = self.ledger.state_digest()
        return self.report

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

    def _run_step(self, step: Step, group: tuple[Step, ...]) -> StepOutcome:
        """Run one step; a commit runs the steps of its group, a tx step itself."""
        kind, args = step.kind, step.args
        outcome = StepOutcome(len(self.report.outcomes) + 1, step.line, kind, OK)
        if kind == "commit":
            outcome.group_kinds = tuple(inner.kind for inner in group)
        try:
            if kind == "actor":
                address = self.ledger.create_eoa(args[0])
                self.labels[args[0]] = ("actor", address, None)
                outcome.detail = f"address={to_hex(address)}"
            elif kind == "faucet":
                self.ledger.faucet(self.address_of(args[0]), parse_amount(args[1]))
            elif kind == "advance":
                outcome.detail = f"height={self.ledger.advance_blocks(int(args[0]))}"
            elif kind in ("expect_error", "expect_tba"):
                outcome.status = SKIPPED  # consumed by _check_expectations
            elif kind == "queue_report":
                outcome.detail = self._queue_report(int(args[0]), args[1])
            elif kind == "probe":
                outcome.detail = self._probe(args)
            elif kind.startswith("assert_"):
                self._assert(step)
            else:
                self._run_transaction(group, outcome)
        except LedgerError as failure:
            _failed(outcome, failure.code)
        return outcome

    # ------------------------------------------------------------------
    # Transactions: one translation, atomic or sequential submission
    # ------------------------------------------------------------------

    def _run_transaction(self, group: tuple[Step, ...], outcome: StepOutcome) -> None:
        """Translate a step or a begin/commit group and submit it in this lane.

        The atomic lanes submit the group's operations as one transaction and
        raise its failure; the tba lane reports each part in a `seq=` detail.
        Labels bound ahead of a transaction that did not commit are unbound
        here, whichever way it failed.
        """
        pending: list[str] = []  # bound ahead of a transaction not yet committed
        try:
            if self.lane == "tba":
                self._run_sequence(group, outcome, pending)
                return
            operations: list = []
            for step in group:
                operations += [op for _, op in self._translate(step, operations, pending)]
            outcome.tx_count = 1
            receipt = self.ledger.must(*operations)
            pending.clear()
            outcome.status = COMMITTED
            outcome.detail = _creation_detail(receipt)
        finally:
            for label in pending:
                self.labels.pop(label, None)

    def _run_sequence(self, group: tuple[Step, ...], outcome: StepOutcome,
                      pending: list[str]) -> None:
        """Submit each operation as its own transaction; skip the rest after a failure.

        An interrupt right after a split step lands in the seam between the
        parts that an atomic lane would have fused into one transaction: it
        is reported there, as failed, and not submitted.
        """
        seq: list[str] = []
        committed = 0
        failure: ErrorCode | None = None  # not the error: its traceback holds this frame
        rest = list(group)
        while rest:
            step = rest.pop(0)
            if failure is not None:
                seq.append(f"{step.kind}={SKIPPED}")
                continue
            name, parts, done = step.kind, [], 0
            try:
                parts = self._translate(step, [], pending)
                for name, op in parts:
                    outcome.tx_count += 1  # submitted, or interrupted in the seam
                    if done and rest and rest[0].kind == "interrupt":
                        name = rest.pop(0).kind
                        raise LedgerError(ErrorCode.INJECTED_FAILURE, "interrupted")
                    done += 1
                    self.ledger.must(op)
                    seq.append(f"{name}={COMMITTED}")
                    committed += 1
                pending.clear()
            except LedgerError as error:
                failure = error.code
                seq.append(f"{name}={failure.value}")
                seq += [f"{later}={SKIPPED}" for later, _ in parts[done:]]
        outcome.detail = "seq=" + ",".join(seq)
        if failure is None:
            outcome.status = COMMITTED
        else:
            _failed(outcome, failure)
            if committed or len(seq) > 1:
                outcome.status = PARTIAL if committed else ROLLED_BACK

    def _translate(self, step: Step, ahead: list, pending: list[str]) -> list[tuple[str, object]]:
        """The named ledger operations of one step in this lane.

        `ahead` holds the operations translated before this step for the same
        transaction. Labels the step creates are bound before it is submitted,
        from the deterministic address and id sequences, so that later steps
        in the transaction can name them; they are appended to `pending`.
        """
        kind, args = step.kind, step.args
        if kind in _NO_ANALOG[self.lane]:
            raise LedgerError(ErrorCode.NOT_COMPARABLE, f"{kind} has no {self.lane} analog")
        state = self.ledger.state
        collection = state.collection.address
        if kind in ("mintnftaa", "minttoken"):
            actor, note = self.address_of(args[0]), args[2].encode()
            minted = sum(isinstance(op, (MintNftaa, MintToken)) for op in ahead)
            token_id = state.collection.next_id + minted
            pending.append(args[1])
            if kind == "minttoken":
                self.labels[args[1]] = ("token", None, token_id)
                return [(kind, MintToken(actor, collection, actor, note))]
            if self.lane != "tba":
                factory = state.factory
                nonce = factory.creation_nonce + sum(isinstance(op, MintNftaa) for op in ahead)
                self.labels[args[1]] = ("account", contract_address(factory.address, nonce),
                                        token_id)
                return [(kind, MintNftaa(actor, factory.address, note))]
            # registry style: a plain mint, then the account as a second transaction
            salt = salt_from_int(0)
            self.labels[args[1]] = ("tba", self.ledger.compute_tba_address(token_id, salt),
                                    token_id)
            return [("mint", MintToken(actor, collection, actor, note)),
                    ("account", CreateTba(actor, state.registry.address, collection,
                                          token_id, salt))]
        if kind in ("transfernftaa", "transfertoken"):
            op = TransferToken(self.address_of(args[0]), collection, self.token_of(args[1]),
                               self.address_of(args[2]))
        elif kind in ("proxy", "tbacall"):
            op = self._execute_call(*args)
        elif kind in _STAKING_METHOD:
            op = self._execute_call(args[0], args[1], _STAKING_METHOD[kind], *args[2:])
        elif kind == "withdraw":
            op = self._execute_call(args[0], args[1], "transfer_value", *args[2:])
            if isinstance(op, ProxyExecute):  # a proxy account has its own withdraw operation
                op = WithdrawAssets(op.caller, op.nftaa, op.payload.to, op.payload.amount)
        elif kind == "upgrade":
            op = UpgradeAccount(self.address_of(args[0]), self.address_of(args[1]), int(args[2]))
        elif kind == "createtba":
            actor, token_id = self.address_of(args[0]), self.token_of(args[1])
            salt = salt_from_int(int(args[2]))
            self.labels[args[3]] = ("tba", self.ledger.compute_tba_address(token_id, salt),
                                    token_id)
            pending.append(args[3])
            op = CreateTba(actor, state.registry.address, collection, token_id, salt,
                           has_execute="noexec" not in args[4:])
        elif kind in ("fail", "interrupt"):
            op = Fail("interrupted" if kind == "interrupt" else "injected")
        else:
            raise AssertionError(f"unhandled step kind {kind}")
        return [(kind, op)]

    def _execute_call(self, actor: str, account: str, method: str, *rest: str):
        """proxy/tbacall and the staking sugar, dispatched on the account's style.

        The method's roles give the payload: an amount, or a recipient label.
        """
        caller, target = self.address_of(actor), self.address_of(account)
        fields: dict[str, object] = {}
        for role, value in zip(PROXY_FORMS[method].roles, rest):
            if role == "amount":
                fields["amount"] = parse_amount(value)
            else:
                fields["to"] = self.address_of(value)
        execute = TbaExecute if self._is_tba(account) else ProxyExecute
        return execute(caller, target, ProxyPayload(method, **fields))

    def _is_tba(self, label: str) -> bool:
        """Whether the step that bound `label` made a registry-style account."""
        return self._bound(label)[0] == "tba"

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
            payload = event.payload
            if all(k in payload and str(payload[k]) == v for k, v in criteria.items()):
                return True, f"event {wanted_kind} present"
        return False, f"event {wanted_kind} matching {criteria} not found"

    def _queue_report(self, pending: int, mode: str) -> str:
        if mode == "closed":
            return estimate_drain_time(pending, self.config).summary_line()
        return simulate_drain(pending, self.config, trace=False).summary_line()


def _failed(outcome: StepOutcome, code: ErrorCode) -> None:
    """A step that raised: not comparable if it has no analog in the lane, else rolled back."""
    outcome.status = NOT_COMPARABLE if code is ErrorCode.NOT_COMPARABLE else ROLLED_BACK
    outcome.code = code.value


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

class DiffEntry(Record):
    __slots__ = __match_args__ = ("index", "line", "kind", "nftaa", "tba", "claim")
    def __init__(self, index: int, line: int, kind: str, nftaa: str, tba: str, claim: str):
        self.index, self.line, self.kind = index, line, kind
        self.nftaa, self.tba, self.claim = nftaa, tba, claim

    def render(self) -> str:
        return (f"step index={self.index} line={self.line} kind={self.kind} "
                f"nftaa={self.nftaa} tba={self.tba} claim={self.claim}")


class DiffResult(Record):
    __slots__ = __match_args__ = ("name", "nftaa", "tba", "entries")
    def __init__(self, name: str, nftaa: RunReport, tba: RunReport, entries: list[DiffEntry]):
        self.name, self.nftaa, self.tba, self.entries = name, nftaa, tba, entries

    @property
    def exit_code(self) -> int:
        return 0 if self.nftaa.exit_code == 0 and self.tba.exit_code == 0 else 1

    @property
    def claims(self) -> list[str]:
        claims: list[str] = []
        for entry in self.entries:
            if entry.claim not in claims:
                claims.append(entry.claim)
        return claims

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
        signature_a, signature_b = outcome_a.signature(), outcome_b.signature()
        if signature_a != signature_b:
            entries.append(DiffEntry(outcome_a.index, outcome_a.line, outcome_a.kind,
                                     signature_a, signature_b,
                                     classify_difference(outcome_a, outcome_b)))
    return DiffResult(name, lane_a, lane_b, entries)
