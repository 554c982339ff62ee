"""Scenario script parsing.

Scripts are plain text, one step per line, `#` starts a comment. Amounts are
integers in the smallest denomination; `<n>eth` is sugar for n * 10^18.
`begin`/`commit` make the steps between them one atomic transaction, and
`expect_error CODE` qualifies the step it immediately follows. The parser checks
both rules, and `build_plan` reads a script's structure, by one function each.

STEP_KINDS is the vocabulary: a row gives one or more step kinds their group
and the roles of their arguments, each decoded once into the check that the
matcher calls per argument. A check returns the argument it accepted, and
`Step.args` holds those values: an `int` for an `amount` or `int` role, the
text for any other. Roles: `@type` references a label of that type
declared earlier (`@a|b` one of either; type `none` also takes that bare word),
`+type` declares one, `amount`, `int`, a quoted `note`, `hex64`, `key=value`
(an `@label` value must be a declared actor or account), `code` (an ErrorCode
value, ok or partial), any `word`, a literal set `a|b`, the `method`/`form`
sub-tables, and `?`/`*` for optional/repeated roles.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ErrorCode
from .records import Record
from .staking import ETH, MAX_DRAIN_BLOCKS, WORD, QueueConfig, check_drain_size, estimate_drain_time

_SCAN = re.compile(r'"([^"]*)"|(#.*)|(\S+)')  # quoted value, comment to line end, word
_AMOUNT = re.compile(r"^(\d+)(eth)?$")
_LABEL = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
_CODES = frozenset(code.value for code in ErrorCode) | {"ok", "partial"}


def parse_amount(token: str) -> int:
    match = _AMOUNT.match(token)
    if match is None:
        raise ValueError(f"bad amount {token!r}")
    return int(match.group(1)) * (ETH if match.group(2) else 1)


# `set` key -> (QueueConfig field, converter); QueueConfig checks the value
CONFIG = {"seed": ("rng_seed", int), "unlock_delay": ("unlock_delay", int),
          "missed_prob": ("missed_slot_probability", float),
          "per_block_cap": ("per_block_cap", int)}


def queue_config(pairs, seed: int | None = None) -> QueueConfig:
    """The QueueConfig that a script's `set` lines give, with `seed` overriding its own."""
    kwargs = {CONFIG[key][0]: CONFIG[key][1](value) for key, value in pairs}
    if seed is not None:
        kwargs["rng_seed"] = seed
    return QueueConfig(**kwargs)


def _number(message: str, eth: bool = False):
    """The check of a number role: its decimal digits, or with `eth` also `<n>eth`, as an
    int below 2**256."""
    def check(parser, value, position):
        if len(value) <= 77 and value.isdecimal():  # 77 digits stay below 2**256
            return int(value)
        try:
            number = int(value) if value.isdecimal() else parse_amount(value) if eth else WORD
        except ValueError:  # not an amount, or more digits than int() converts
            number = WORD
        return number if number < WORD else parser.fail(position, message.format(value))
    return check


def _use(types: tuple[str, ...]):
    """The check of a label reference: declared earlier, as one of `types`."""
    def check(parser, value, position):
        if parser.labels.get(value) in types:
            return value
        declared = "none" if value == "none" and "none" in types else parser.labels.get(value)
        if declared is None:
            parser.fail(position, f"label {value!r} not declared", "UnknownLabel")
        if declared not in types:
            parser.fail(position, f"label {value!r} is {declared}, expected {' or '.join(types)}")
        return value
    return check


def _declare(types: tuple[str, ...]):
    """The check of a label declaration, which records the label as `types[0]`."""
    def check(parser, value, position):
        if value in parser.labels:
            parser.fail(position, f"label {value!r} already declared")
        if not _LABEL.fullmatch(value):
            parser.fail(position, f"bad label {value!r}")
        if value == "none":  # an `@account|none` slot reads this word as no address
            parser.fail(position, "label 'none' is reserved")
        parser.labels[value] = types[0]
        return value
    return check


def _key_value(parser, value: str, position: int):
    _, equals, target = value.partition("=")
    equals or parser.fail(position, "expected key=value")
    if target.startswith("@"):
        _use(("actor", "account"))(parser, target[1:], position)
    return value


# role -> check(parser, value, position): the argument `value`, at `position` of its line,
# gives the role (an int for `amount` and `int`, else `value`), or parser.fail raises
_CHECKS = {
    "amount": _number("bad amount {!r} (at most 2**256 - 1)", eth=True),
    "int": _number("expected integer below 2**256, got {!r}"),
    "note": lambda p, v, i: v if i in p.quoted else p.fail(i, "note must be quoted"),
    "hex64": lambda p, v, i: v if re.fullmatch("[0-9a-f]{64}", v)
    else p.fail(i, "expected 64 lowercase hex"),
    "key=value": _key_value,
    "code": lambda p, v, i: v if v in _CODES else p.fail(i, f"unknown error code {v!r}"),
    "word": lambda p, v, i: v,
}
_BUILT = {"@": _use, "+": _declare, "literal": lambda words: lambda p, v, i: v if v in words
          else p.fail(i, f"expected {' or '.join(words)}, got {v!r}")}  # role -> words -> check


class _Form(NamedTuple):
    group: str
    roles: tuple[str, ...]       # "@", "+", "literal", a key of _CHECKS or a sub-table name
    checks: tuple                # each role's check(parser, value, position), as in _CHECKS
    low: int                     # fewest arguments: roles not marked `?` (optional) or `*`
    high: int | None             # most arguments; None after a repeating `*` role or a sub-table
    table: dict | None           # a last sub-table role's: the next value picks the rest


def _table(rows: dict[str, str], grouped: bool = False, **subtables: dict) -> dict[str, _Form]:
    """Decode each row once: `names -> [group] role role ...`, each role with its check."""
    table = {}
    for names, row in rows.items():
        group, _, spec = row.partition(" ") if grouped else ("", "", row)
        roles, checks, low = [], [], 0
        for word in spec.split():
            bare = word.rstrip("?*")
            low += bare == word
            test, words = (bare[0], bare[1:]) if bare[0] in "@+" else (bare, "") \
                if bare in _CHECKS or bare in subtables else ("literal", bare)
            words = tuple(filter(None, words.split("|")))
            roles.append(test)  # a sub-table role checks nothing: `match` looks its value up
            checks.append(_BUILT[test](words) if test in _BUILT
                          else _CHECKS.get(test, _CHECKS["word"]))
        sub = subtables.get(roles[-1]) if roles else None
        high = None if sub or spec.endswith("*") else len(roles)
        form = _Form(group, tuple(roles), tuple(checks), low, high, sub)
        table.update(dict.fromkeys(names.split(), form))
    return table


PROXY_FORMS = _table({"noop request_unstake": "", "stake add_to_stake": "amount",
                      "transfer_value": "@actor|account amount"})
# execute-call steps: the method each calls through the account, None if the step names it
EXECUTE_METHOD = {"proxy": None, "tbacall": None, "stake": "stake", "addstake": "add_to_stake",
                  "unstake": "request_unstake", "withdraw": "transfer_value"}
PROBE_FORMS = _table({"binding": "@account|token", "tba_address": "@token int",
                      "locked counts": ""})

# Groups: a `tx` step builds one ledger operation and may sit in a begin/commit
# group; `tx` and `exec` steps change state and may carry an expectation.
STEP_KINDS = _table({
    "mintnftaa": "tx @actor +account note",
    "minttoken": "tx @actor +token note",
    "transfernftaa": "tx @actor @account @actor|account",
    "transfertoken": "tx @actor @token @actor|account",
    "proxy tbacall": "tx @actor @account method",
    "stake addstake": "tx @actor @account amount",
    "unstake": "tx @actor @account",
    "withdraw": "tx @actor @account @actor|account amount",
    "upgrade": "tx @actor @account int",
    "createtba": "tx @actor @token int +account noexec?",
    "fail interrupt": "tx",
    "actor": "exec +actor",
    "faucet": "exec @actor|account amount",
    "advance": "exec int",
    "commit": "exec",
    "probe": "exec form",
    "assert_digest": "assert hex64",
    "assert_event": "assert word key=value*",
    "assert_note": "assert @account|token note",
    "assert_bound": "assert @account int",
    "assert_account": "assert @account|token @account|none",
    "assert_balance": "assert @actor|account amount",
    "assert_stake": "assert @account amount",
    "assert_staker": "assert @account @account|none",
    "begin": "control",
    "expect_error expect_tba": "control code",
    "set": "control " + "|".join(CONFIG) + " word",
    "queue_report": "control int closed|simulate",
}, grouped=True, method=PROXY_FORMS, form=PROBE_FORMS)
EXECUTABLE = frozenset(kind for kind, form in STEP_KINDS.items() if form.group in ("tx", "exec"))
# an expectation kind -> the other lane's, which may stand between it and its step
_OTHER_LANE = {"expect_error": "expect_tba", "expect_tba": "expect_error"}
# the kinds with rules beyond their arguments' checks, on where they stand or what they set
# up: `set`, a group's ends, the expectations, a simulated report, an exit and `advance`
_RULED = frozenset({"set", "begin", "commit", *_OTHER_LANE, "queue_report", "advance",
                    *(kind for kind, method in EXECUTE_METHOD.items()
                      if method in (None, "request_unstake"))})


class ScenarioParseError(Exception):
    def __init__(self, line: int, column: int, message: str, code: str = "ParseError"):
        self.line, self.column, self.message, self.code = line, column, message, code
        super().__init__(f"line {line}, col {column}: {message}")


class Step(Record):
    """A step kind and its arguments as its checks gave them, an int for each `amount` or `int`
    role and text for the rest; `line`, where the step was written, is not compared."""

    __slots__ = __match_args__ = ("kind", "args", "line")
    def __init__(self, kind: str, args: tuple[str | int, ...], line: int = 0):
        self.kind, self.args, self.line = kind, args, line

    def __eq__(self, other):
        if type(other) is not Step:
            return NotImplemented
        return self.kind == other.kind and self.args == other.args


class ScenarioScript(NamedTuple):
    config: tuple[tuple[str, str], ...] = ()
    steps: tuple[Step, ...] = ()


def _scan(line: str) -> tuple[list[str], tuple | set[int]]:
    """A line's values, and the positions of those that were quoted."""
    if "#" not in line:  # the same values as _SCAN would find
        if '"' not in line:
            return line.split(), ()
        head, _, rest = line.partition('"')
        note, closed, tail = rest.partition('"')
        if closed and (not head or head[-1].isspace()) and (not tail or tail.isspace()):
            values = head.split()  # one quoted value, the last, not inside a word
            values.append(note)
            return values, (len(values) - 1,)
    found = _SCAN.findall(line)
    if found and found[-1][1]:  # a comment, which runs to the end of the line
        found.pop()
    return [bare or inner for inner, _, bare in found], \
        {position for position, (_, _, bare) in enumerate(found) if not bare}


def _qualified(steps, end: int, kind: str) -> int:
    """The index in `steps` of the step that an expectation of `kind` at `end` qualifies, or
    -1: the executable step just before it, looking past one expectation for the other lane."""
    at = end - 2 if end and steps[end - 1].kind == _OTHER_LANE[kind] else end - 1
    return at if at >= 0 and steps[at].kind in EXECUTABLE else -1


def _group_after(kind: str, opened, here):
    """The group open after the step `here` of `kind`, given the one `opened` before it
    (None: none): a group runs from its `begin` to the next `commit`."""
    return here if kind == "begin" else None if kind == "commit" else opened


def build_plan(steps: tuple[Step, ...]) -> tuple[tuple, ...]:
    """What a run executes, built once per script for every lane: a unit per step, or per
    `begin`...`commit` group at its commit, as (step, group, expect_error, expect_tba). A
    step's group is the step itself, a commit's the steps it closes."""
    # each lane's expectations, by the index of the step each qualifies
    errors, tbas = ({_qualified(steps, index, kind): step for index, step in enumerate(steps)
                     if step.kind == kind} for kind in ("expect_error", "expect_tba"))
    units, opened = [], None
    for index, step in enumerate(steps):
        began, opened = opened, _group_after(step.kind, opened, index)
        if opened is None:  # neither a `begin` nor a step of its group
            group = (step,) if began is None else steps[began + 1:index]
            units.append((step, group, errors.get(index), tbas.get(index)))
    return tuple(units)


class _Parser:
    """Single pass over the lines, tracking label declarations as it goes."""

    def fail(self, position: int, message: str, code: str = "ParseError"):
        """Raise at the value at `position` of the current line, only now finding its column."""
        columns = [match.start() + 1 for match in _SCAN.finditer(self.lines[self.line_no - 1])]
        raise ScenarioParseError(self.line_no, columns[position], message, code)

    def parse(self, text: str) -> ScenarioScript:
        self.labels: dict[str, str] = {}  # name -> actor | account | token
        self.config, self.steps, self.opened, self.lines = [], [], None, text.splitlines()
        self.exits, self.advanced, self.queue = 0, 0, None  # the `advance` bound's counts
        for self.line_no, line in enumerate(self.lines, start=1):
            values, self.quoted = _scan(line)
            if not values:
                continue
            kind = values[0]
            form = STEP_KINDS.get(kind)
            if form is None:
                self.fail(0, f"unknown step {kind!r}", code="UnknownStepKind")
            if self.opened is not None and form.group != "tx" and kind != "commit":
                self.fail(0, f"{kind} cannot appear inside a transaction group")
            ruled = kind in _RULED
            if ruled:
                if kind == "set" and self.steps:
                    self.fail(0, "set must appear before any step")
                if kind == "commit" and self.opened is None:
                    self.fail(0, "commit without begin")
                if kind == "commit" and self.steps[-1].kind == "begin":
                    self.fail(0, "commit closes an empty group")
                if kind in _OTHER_LANE and _qualified(self.steps, len(self.steps), kind) < 0:
                    self.fail(0, f"{kind} must immediately follow an executable step")
            if len(values) - 1 == form.high:  # no range, optional role or sub-table to mind
                args = values[1:]
                for position, check in enumerate(form.checks):
                    args[position] = check(self, args[position], position + 1)
            else:
                args = self.match(values, 1, form)
            if ruled:
                if kind == "set":
                    try:
                        queue_config([args])
                    except ValueError as bad:
                        self.fail(2, f"bad {args[0]} {args[1]!r}: {bad}")
                    self.config.append(tuple(args))
                    continue
                if kind == "queue_report" and args[1] == "simulate":
                    try:  # every `set` line has been seen: they lead the file
                        check_drain_size(args[0], queue_config(self.config))
                    except ValueError as bad:
                        self.fail(1, f"queue_report simulate: {bad}")
                if kind in EXECUTE_METHOD and \
                        (EXECUTE_METHOD[kind] or args[2]) == "request_unstake":
                    self.exits += 1  # each exit needs one hit block: 1 / (1 - p) expected blocks
                elif kind == "advance" and self.exits:
                    self.advanced += args[0]  # the queue is busy in at most these blocks
                    if self.advanced > MAX_DRAIN_BLOCKS:
                        self.queue = self.queue or queue_config(self.config)
                        cap = self.queue.per_block_cap
                        blocks = estimate_drain_time(self.exits * cap, self.queue).blocks
                        if blocks > MAX_DRAIN_BLOCKS:
                            self.fail(1, f"advance: a drain of {self.exits} exit(s) takes "
                                         f"about {blocks} blocks, more than {MAX_DRAIN_BLOCKS}")
                self.opened = _group_after(kind, self.opened, self.line_no)
            self.steps.append(Step(kind, tuple(args), self.line_no))
        if self.opened is not None:
            raise ScenarioParseError(self.opened, 1, "begin without matching commit")
        return ScenarioScript(tuple(self.config), tuple(self.steps))

    def match(self, values: list, start: int, form: _Form) -> list:
        """The arguments values[start:] give the roles of `form`, which values[start - 1]
        names: each value is replaced, in place, by what its check returns."""
        _, roles, checks, low, high, table = form
        given = len(values) - start
        if not low <= given <= (given if high is None else high):
            expected = str(low) if low == high else f"{low}..{high or ''}"
            self.fail(start - 1, f"{values[start - 1]} takes {expected} argument(s), got {given}")
        if given < len(checks):  # optional roles left out
            checks = checks[:given]
        elif given > len(checks) and table is None:  # a last `*` role repeats
            checks += checks[-1:] * (given - len(checks))
        for position, check in enumerate(checks, start):
            values[position] = check(self, values[position], position)
        if table is not None:
            position = start + len(checks) - 1
            sub = values[position]
            if sub not in table:
                self.fail(position, f"unknown {values[start - 1]} {roles[-1]} {sub!r}")
            self.match(values, position + 1, table[sub])
        return values[start:]


def parse_scenario(text: str) -> ScenarioScript:
    return _Parser().parse(text)


def _quote(arg: str, note: bool = False) -> str:
    """`arg` as a script writes it: quoted if a note, empty, spaced or led by `#`."""
    return f'"{arg}"' if note or arg.split() != [arg] or arg[:1] == "#" else arg


def serialize_scenario(script: ScenarioScript) -> str:
    lines = [f"set {key} {_quote(value)}" for key, value in script.config]
    for step in script.steps:
        roles = STEP_KINDS[step.kind].roles
        lines.append(" ".join([step.kind] + [
            _quote(str(arg), position < len(roles) and roles[position] == "note")
            for position, arg in enumerate(step.args)]))
    return "\n".join(lines) + ("\n" if lines else "")
