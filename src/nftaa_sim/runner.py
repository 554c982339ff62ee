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

Every lane runs the script's plan (``build_plan``) a unit at a time
(``_run_unit``), and ``LANES`` holds what differs between lanes. Each step kind
and ``probe`` form runs the ScenarioRunner method named after it (``_actor``),
but the transaction kinds and ``commit`` run ``_run_transaction`` on the unit's
group (``_HANDLERS``), through one translation into the lane's named ledger
operations (``mint`` and ``account`` for ``mintnftaa`` in the tba lane). A kind
or form with no analog in the lane is NotComparable before any of its labels is
resolved. Labels a step creates are bound before its transaction is submitted,
so later steps of a group can name them, and unbound if it does not commit.

``begin``/``commit`` groups are one atomic transaction in the native and
nftaa lanes. The tba lane cannot express that: it submits the operations one
at a time, the first failure skips the remainder, and an ``interrupt`` right
after a split step lands in the seam between its parts (the mint and the
account creation), where it fails the sequence without raising. That
asymmetry is what ``diff`` exposes: it runs every unit in the nftaa lane, then
in the tba lane, and compares each unit's two outcomes. Reports are plain text
and byte-identical across runs with the same script and seed.
"""

from __future__ import annotations

from .addresses import Address, salt_from_int
from .errors import ErrorCode, LedgerError
from .events import NEW_NFTAA, SHAPES, TBA_CREATED, Event, hexed
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
from .scenario import (EXECUTE_METHOD, PROBE_FORMS, PROXY_FORMS, STEP_KINDS, ScenarioScript, Step,
                       build_plan, queue_config)
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

# lane -> (the step kinds and probe forms it has no analog for, whether it is registry-
# style: a group's steps go one by one, `mintnftaa` is two transactions, `expect_tba` counts)
LANES = {"native": (frozenset(), False),
         "nftaa": (frozenset({"tbacall", "createtba", "tba_address"}), False),
         "tba": (frozenset({"upgrade"}), True)}


class StepOutcome(Record):
    __slots__ = __match_args__ = ("index", "line", "kind", "status", "detail", "code",
                                  "tx_count")
    def __init__(self, index: int, line: int, kind: str, status: str):
        self.index, self.line, self.kind, self.status = index, line, kind, status
        self.detail, self.code, self.tx_count = "", None, 0

    def render(self) -> str:
        text = f"step index={self.index} line={self.line} kind={self.kind} status={self.status}"
        if self.code:
            text += f" code={self.code}"
        if self.tx_count:
            text += f" txs={self.tx_count}"
        if self.detail:
            text += f" {self.detail}"
        return text

    def receipt(self) -> tuple:
        """What the lanes compare: status, error code, transaction count, and a probe's
        readback (the behavior under comparison); no other detail text, since addresses
        legitimately differ between account styles."""
        return self.status, self.code, self.tx_count, self.detail if self.kind == "probe" else ""

    def signature(self) -> str:
        """The receipt as a diff shows it: its fields that are set, joined by `:`."""
        status, code, txs, readback = self.receipt()
        return ":".join(filter(None, (status, code, txs and f"txs={txs}", readback)))


class Verdict(Record):
    __slots__ = __match_args__ = ("line", "description", "passed")
    def __init__(self, line: int, description: str, passed: bool):
        self.line, self.description, self.passed = line, description, passed

    def render(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"verdict line={self.line} status={flag} {self.description}"


class RunReport(Record):
    __slots__ = __match_args__ = ("name", "lane", "seed", "outcomes", "verdicts", "events",
                                  "ledger")
    def __init__(self, name: str, lane: str, seed: int, ledger: Ledger):
        self.name, self.lane, self.seed, self.ledger = name, lane, seed, ledger
        self.outcomes: list[StepOutcome] = []
        self.verdicts: list[Verdict] = []
        self.events: list[Event] = ledger.events  # the ledger's own log, not a copy

    @property
    def final_digest(self) -> str:
        """The lane's state digest, hashed when read: a plain `diff` never prints it."""
        return self.ledger.state_digest()

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
        lines += [f"exit={self.exit_code}", ""]  # the empty last line ends the text with "\n"
        return "\n".join(lines)


class ScenarioRunner:
    def __init__(self, script: ScenarioScript, name: str = "scenario",
                 lane: str = "native", seed: int | None = None):
        if lane not in LANES:
            raise ValueError(f"unknown lane {lane!r}: expected {', '.join(LANES)}")
        self.script, self.lane = script, lane
        self.no_analog, self.registry = LANES[lane]
        self.config = queue_config(script.config, seed)
        self.ledger = Ledger(self.config)
        self.report = RunReport(name, lane, self.config.rng_seed, self.ledger)
        # label -> (address, token_id, registry-style); a token has no address and an
        # actor no token, and the parser gives each role only labels of a kind that has it
        self.labels: dict[str, tuple[Address | None, int | None, bool]] = {}

    def address_of(self, label: str) -> Address:
        return self._bound(label)[0]

    def token_of(self, label: str) -> int:
        return self._bound(label)[1]

    def _bound(self, label: str) -> tuple[Address | None, int | None, bool]:
        bound = self.labels.get(label)
        if bound is None:
            # declared at parse time but its creating step never committed
            raise LedgerError(ErrorCode.UNKNOWN_ACCOUNT, f"label {label!r} is unbound")
        return bound

    def run(self) -> RunReport:
        """Run the plan of this script's steps, a unit at a time."""
        for step, group, expect_error, expect_tba in build_plan(self.script.steps):
            self._run_unit(step, group, expect_error, expect_tba)
        return self.report

    def _run_unit(self, step: Step, group: tuple[Step, ...], expect_error: Step | None,
                  expect_tba: Step | None) -> StepOutcome:
        """Run a plan unit through its step's handler and record what it returns: an assert's
        verdict, (passed, description), or any other step's outcome detail. A failure it raises
        fails the assert's verdict, or else the step. A commit's group reports `grouped`."""
        outcomes, kind = self.report.outcomes, step.kind
        if kind == "commit":
            for inner in group:
                outcomes.append(StepOutcome(len(outcomes) + 1, inner.line, inner.kind, GROUPED))
        outcome = StepOutcome(len(outcomes) + 1, step.line, kind, OK)
        outcomes.append(outcome)
        try:
            result = _HANDLERS[kind](self, group if kind in _TRANSACTIONS else step.args, outcome)
        except LedgerError as failure:
            result = (False, f"{kind} raised {failure.code.value}") if kind in _ASSERTS else None
            if result is None:
                _failed(outcome, failure.code)
        if kind in _ASSERTS:
            self.report.verdicts.append(Verdict(step.line, result[1], result[0]))
        elif result:
            outcome.detail = result
        self._check_expectation(outcome, expect_tba if self.registry else expect_error)
        return outcome

    def _check_expectation(self, outcome: StepOutcome, expectation: Step | None) -> None:
        if expectation is None:
            if outcome.status in _FAILING:
                self.report.verdicts.append(Verdict(
                    outcome.line, f"unexpected failure {outcome.code or outcome.status}",
                    False))
            return
        expected, line, got = expectation.args[0], expectation.line, outcome.status
        if expected == "ok":
            passed = got in (OK, COMMITTED)
        elif expected == "partial":
            passed = got == PARTIAL
        else:
            passed = got in _FAILING and outcome.code == expected
            got = outcome.code or got
        self.report.verdicts.append(Verdict(
            line, f"expected {expected}, got {got}", passed))

    # ------------------------------------------------------------------
    # Step execution: one handler per step kind and probe form (_HANDLERS)
    # ------------------------------------------------------------------

    def _comparable(self, key: str) -> None:
        """The no-analog rule: a step kind or probe form this lane cannot express."""
        if key in self.no_analog:
            raise LedgerError(ErrorCode.NOT_COMPARABLE, f"{key} has no {self.lane} analog")

    def _actor(self, args, outcome) -> str:
        address = self.ledger.create_eoa(args[0])
        self.labels[args[0]] = (address, None, False)
        return f"address={address.hex()}"

    def _faucet(self, args, outcome) -> None:
        self.ledger.faucet(self.address_of(args[0]), args[1])

    def _advance(self, args, outcome) -> str:
        return f"height={self.ledger.advance_blocks(args[0])}"

    def _expect_error(self, args, outcome) -> None:
        outcome.status = SKIPPED  # consumed by _check_expectation
    _expect_tba = _expect_error

    def _queue_report(self, args, outcome) -> str:
        if args[1] == "closed":
            return estimate_drain_time(args[0], self.config).summary_line()
        return simulate_drain(args[0], self.config, trace=False).summary_line()

    # ------------------------------------------------------------------
    # Transactions: one translation, atomic or sequential submission
    # ------------------------------------------------------------------

    def _run_transaction(self, group: tuple[Step, ...], outcome: StepOutcome) -> None:
        """Translate a plan unit's group, a lone step or a begin/commit group, and submit it.

        The atomic lanes submit the group's operations as one transaction and
        read its receipt: a rollback fails the step with the receipt's error
        code; the tba lane reports each part in a `seq=` detail, and an
        interrupt in its seam as a failure, without raising. Only a failure
        before submission (no analog, an unbound label) raises. Labels bound
        ahead of a transaction that did not commit are unbound here, whichever
        way it failed.
        """
        pending: list[str] = []  # bound ahead of a transaction not yet committed
        try:
            if self.registry:
                self._run_sequence(group, outcome, pending)
                return
            operations = []
            minted = [0, 0]  # tokens and proxy accounts minted by the group's steps so far
            for step in group:
                for _, op in self._translate(step, pending, minted):
                    operations.append(op)
            outcome.tx_count = 1
            receipt = self.ledger.apply_transaction(*operations)
            if receipt.error is not None:
                _failed(outcome, receipt.error.code)
                return
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
        for at, step in enumerate(group):
            name, parts, done = step.kind, [], 0
            try:
                parts = self._translate(step, pending, [0, 0])  # the ledger counted earlier mints
                for name, op in parts:
                    outcome.tx_count += 1  # submitted, or interrupted in the seam
                    if done and at + 1 < len(group) and group[at + 1].kind == "interrupt":
                        name, failure, at = "interrupt", ErrorCode.INJECTED_FAILURE, at + 1
                        break
                    done += 1
                    error = self.ledger.apply_transaction(op).error  # holds no traceback
                    if error is not None:
                        failure = error.code
                        break
                    seq.append(f"{name}={COMMITTED}")
                    committed += 1
            except LedgerError as raised:
                failure = raised.code
            if failure is not None:
                seq.append(f"{name}={failure.value}")
                seq += [f"{later}={SKIPPED}" for later, _ in parts[done:]]
                seq += [f"{later.kind}={SKIPPED}" for later in group[at + 1:]]
                break
            pending.clear()
        outcome.detail = "seq=" + ",".join(seq)
        if failure is None:
            outcome.status = COMMITTED
        else:
            _failed(outcome, failure)
            if committed or len(seq) > 1:
                outcome.status = PARTIAL if committed else ROLLED_BACK

    def _translate(self, step: Step, pending: list[str],
                   minted: list[int]) -> list[tuple[str, object]]:
        """The named ledger operations of one step in this lane.

        `minted` is [tokens, proxy accounts] that earlier steps of the same
        transaction mint; the step adds its own mints. Labels the step creates are
        bound before it is submitted, from the deterministic address and id
        sequences, so that later steps in the transaction can name them; they are
        appended to `pending`.
        """
        kind, args = step.kind, step.args
        self._comparable(kind)  # before any label is resolved
        if kind in ("mintnftaa", "minttoken"):
            actor, note = self.address_of(args[0]), args[2].encode()
            token_id = self.ledger.state.collection.next_id + minted[0]
            minted[0] += 1
            pending.append(args[1])
            if kind == "minttoken":
                self.labels[args[1]] = (None, token_id, False)
                return [(kind, MintToken(actor, actor, note))]
            if not self.registry:
                account = self.ledger.compute_nftaa_address(minted[1])
                minted[1] += 1
                self.labels[args[1]] = (account, token_id, False)
                return [(kind, MintNftaa(actor, note))]
            # registry style: a plain mint, then the account as a second transaction
            salt = salt_from_int(0)
            self.labels[args[1]] = (self.ledger.compute_tba_address(token_id, salt), token_id,
                                    True)
            return [("mint", MintToken(actor, actor, note)),
                    ("account", CreateTba(actor, token_id, salt))]
        if kind in ("transfernftaa", "transfertoken"):
            op = TransferToken(self.address_of(args[0]), self.token_of(args[1]),
                               self.address_of(args[2]))
        elif kind in EXECUTE_METHOD:  # an execute call: the method's roles give the payload
            method = EXECUTE_METHOD[kind] or args[2]
            caller, (target, _, registry) = self.address_of(args[0]), self._bound(args[1])
            arity = len(PROXY_FORMS[method].roles)  # (), (amount) or (to, amount): the last args
            amount = args[-1] if arity else 0
            to = self.address_of(args[-2]) if arity == 2 else None
            # the style the step that bound the account gave it, not the ledger's
            if registry:
                op = TbaExecute(caller, target, ProxyPayload(method, amount, to))
            elif kind == "withdraw":  # a proxy account has its own withdraw operation
                op = WithdrawAssets(caller, target, to, amount)
            else:
                op = ProxyExecute(caller, target, ProxyPayload(method, amount, to))
        elif kind == "upgrade":
            op = UpgradeAccount(self.address_of(args[0]), self.address_of(args[1]), args[2])
        elif kind == "createtba":
            actor, token_id = self.address_of(args[0]), self.token_of(args[1])
            salt = salt_from_int(args[2])
            self.labels[args[3]] = (self.ledger.compute_tba_address(token_id, salt), token_id,
                                    True)
            pending.append(args[3])
            op = CreateTba(actor, token_id, salt, has_execute="noexec" not in args[4:])
        else:  # fail, interrupt
            op = Fail()
        return [(kind, op)]

    def _probe(self, args, outcome) -> str:
        self._comparable(args[0])
        return _HANDLERS[args[0]](self, args[1:], outcome)

    def _binding(self, args, outcome) -> str:
        return f"binding={hexed(self.ledger.account_of(self.token_of(args[0])))}"

    def _tba_address(self, args, outcome) -> str:
        token_id, salt = self.token_of(args[0]), salt_from_int(args[1])
        return f"tba_address={self.ledger.compute_tba_address(token_id, salt).hex()}"

    def _locked(self, args, outcome) -> str:
        lines = diagnostic_lines(self.ledger.state)
        return "diagnostics=" + (" | ".join(lines) if lines else "none")

    def _counts(self, args, outcome) -> str:
        state = self.ledger.state
        return (f"tokens={len(state.collection.tokens)} bindings={len(state.nftaas)} "
                f"tba_accounts={len(state.registry.records)}")

    def _maybe_address(self, label: str) -> Address | None:
        """An `@account|none` argument: the bare word `none` names no address."""
        return None if label == "none" else self.address_of(label)

    def _assert_digest(self, args, outcome) -> tuple[bool, str]:
        actual = self.ledger.state_digest()
        return actual == args[0], f"digest expected {args[0][:12]}.. got {actual[:12]}.."

    def _assert_event(self, args, outcome) -> tuple[bool, str]:
        # a list, not a dict: one event must match every pair, a repeated key too
        criteria = [(key, self.address_of(value[1:]).hex() if value.startswith("@") else value)
                    for key, value in (pair.split("=", 1) for pair in args[1:])]
        # each shape of the kind (a str enum: equal to its value) that has every key, with
        # the position of each criterion's value; the events are read through no mapping
        wanted = [(shape, [(shape.keys.index(k), v) for k, v in criteria]) for shape in SHAPES
                  if shape.kind == args[0] and all(k in shape.keys for k, _ in criteria)]
        for event in self.ledger.events:
            for shape, checks in wanted:
                if event.shape is shape and all(
                        str(hexed(event.values[i])) == v for i, v in checks):
                    return True, f"event {args[0]} present"
        shown = ", ".join(f"{k!r}: {v!r}" for k, v in criteria)  # a dict's repr, keys repeated
        return False, f"event {args[0]} matching {{{shown}}} not found"

    def _assert_note(self, args, outcome) -> tuple[bool, str]:
        actual = self.ledger.token_note(self.token_of(args[0]))
        return actual == args[1].encode(), f"note of {args[0]} is {actual!r}"

    def _assert_bound(self, args, outcome) -> tuple[bool, str]:
        actual = self.ledger.bound_nft_of(self.address_of(args[0]))
        return actual == args[1], f"bound token of {args[0]} is {actual}"

    def _assert_account(self, args, outcome) -> tuple[bool, str]:
        actual = self.ledger.account_of(self.token_of(args[0]))
        return actual == self._maybe_address(args[1]), f"account of {args[0]} is {hexed(actual)}"

    def _assert_balance(self, args, outcome) -> tuple[bool, str]:
        actual = self.ledger.balance_of(self.address_of(args[0]))
        return actual == args[1], f"balance of {args[0]} is {actual}"

    def _assert_stake(self, args, outcome) -> tuple[bool, str]:
        actual = self.ledger.stake_balance_of(self.address_of(args[0]))
        return actual == args[1], f"stake of {args[0]} is {actual}"

    def _assert_staker(self, args, outcome) -> tuple[bool, str]:
        actual = self.ledger.staker_address_of(self.address_of(args[0]))
        return actual == self._maybe_address(args[1]), f"staker of {args[0]} is {hexed(actual)}"


_ASSERTS = frozenset(kind for kind, form in STEP_KINDS.items() if form.group == "assert")
# the kinds whose handler, `_run_transaction`, runs their unit's group: a `tx` kind and `commit`
_TRANSACTIONS = frozenset(k for k, f in STEP_KINDS.items() if f.group == "tx" or k == "commit")

# step kind, or probe form -> handler(runner, args or group, outcome): the method `_<kind>`, so
# a missing one fails the import (a `set` is config, a `begin` runs at its commit), but a
# transaction's `_run_transaction`. Traced functions that handlers call are looked up per call.
_HANDLERS = {kind: ScenarioRunner._run_transaction if kind in _TRANSACTIONS
             else getattr(ScenarioRunner, f"_{kind}")
             for kind, form in [*STEP_KINDS.items(), *PROBE_FORMS.items()]
             if kind not in ("set", "begin")}


def _failed(outcome: StepOutcome, code: ErrorCode) -> None:
    """A step that failed: not comparable if it has no analog in the lane, else rolled back."""
    outcome.status = NOT_COMPARABLE if code is ErrorCode.NOT_COMPARABLE else ROLLED_BACK
    outcome.code = code.value


def _creation_detail(receipt: TxReceipt) -> str:
    parts = []
    for event in receipt.events:
        if event.shape is NEW_NFTAA:
            token_id, account, _ = event.values
            parts.append(f"token_id={token_id} account={account.hex()}")
        elif event.shape is TBA_CREATED:
            parts.append(f"tba={event.values[3].hex()}")
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
        return list(dict.fromkeys(entry.claim for entry in self.entries))  # first-seen order

    def to_text(self) -> str:
        lines = [f"diff scenario={self.name} seed={self.nftaa.seed}"]
        lines += [entry.render() for entry in self.entries]
        lines.append(f"differences={len(self.entries)}")
        claims = self.claims
        lines.append(f"claims={','.join(claims) if claims else 'none'}")
        lines.append(f"nftaa_exit={self.nftaa.exit_code} tba_exit={self.tba.exit_code}")
        lines += [f"exit={self.exit_code}", ""]  # the empty last line ends the text with "\n"
        return "\n".join(lines)


# error code, step kind or probe form -> the design difference a diverging step that
# shows it evidences; the first key in this order that the step shows names it
_CLAIMS = {
    "FraudGuard": "fraud-guard", "SelfCustodyHazard": "self-lock",
    # shown by an execute call only: the owner gate diverged, because one style let
    # the token wander where no caller can ever satisfy it again
    "NotNftOwner": "self-lock",
    "mintnftaa": "creation-atomicity",  # shown by a group that holds one, too
    "binding": "binding-visibility", "locked": "self-lock", "counts": "creation-atomicity",
    "tba_address": "counterfactual-address", "createtba": "counterfactual-address",
    "tbacall": "counterfactual-address", "upgrade": "upgradeability",
}


def classify_difference(outcome_a: StepOutcome, outcome_b: StepOutcome,
                        group: tuple[Step, ...]) -> str:
    """Name the documented design difference a diverging unit's step evidences (`_CLAIMS`)."""
    kind = outcome_a.kind
    shown = {outcome_a.code, outcome_b.code, kind}
    if kind not in ("proxy", "tbacall"):
        shown.discard(ErrorCode.NOT_NFT_OWNER.value)
    if kind == "probe":
        shown.add(group[0].args[0])  # its form
    elif any(step.kind == "mintnftaa" for step in group):  # a lone step is its group
        shown.add("mintnftaa")
    return next((claim for key, claim in _CLAIMS.items() if key in shown),
                "behavioral-difference")


def run_differential(script: ScenarioScript, name: str = "scenario",
                     seed: int | None = None) -> DiffResult:
    """Run every unit of one plan in the nftaa lane, then in the tba lane, and compare each
    unit's two outcomes: a group's steps report `grouped` alike in both, so only its commit."""
    plan = build_plan(script.steps)
    runners = [ScenarioRunner(script, name, lane, seed) for lane in ("nftaa", "tba")]
    outcomes_a, outcomes_b = ([runner._run_unit(step, group, error, tba)
                               for step, group, error, tba in plan] for runner in runners)
    entries = []
    for (_, group, _, _), outcome_a, outcome_b in zip(plan, outcomes_a, outcomes_b):
        if outcome_a.receipt() != outcome_b.receipt():  # only a difference is rendered
            entries.append(DiffEntry(outcome_a.index, outcome_a.line, outcome_a.kind,
                                     outcome_a.signature(), outcome_b.signature(),
                                     classify_difference(outcome_a, outcome_b, group)))
    return DiffResult(name, runners[0].report, runners[1].report, entries)
