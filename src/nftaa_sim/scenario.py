"""Scenario script parsing.

Scripts are plain text, one step per line, `#` starts a comment. Amounts are
integers in the smallest denomination; `<n>eth` is sugar for n * 10^18.
`begin`/`commit` make the steps between them one atomic transaction, and
`expect_error CODE` qualifies the step it immediately follows.

STEP_KINDS is the vocabulary: a row gives one or more step kinds their group
and the roles of their arguments, and one matcher checks every line against it.
Roles: `@type` references a label declared earlier (`@` any type; type
`none` also takes that bare word), `+type` declares one, `amount`, `int`, a
quoted `note`, `hex64`, `key=value` (an `@label` value must be declared),
`code` (an ErrorCode value, ok or partial), any `word`, a literal set `a|b`,
the `method`/`form` sub-tables, and `?`/`*` for optional/repeated roles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .addresses import SALT_LEN
from .errors import ErrorCode
from .staking import ETH, QueueConfig, check_drain_size

_TOKEN = re.compile(r'"([^"]*)"|(\S+)')
_AMOUNT = re.compile(r"^(\d+)(eth)?$")
_LABEL = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
_CODES = frozenset(code.value for code in ErrorCode) | {"ok", "partial"}
_WORD = 1 << 8 * SALT_LEN  # int and amount values fit one 256-bit word, as a salt does


def parse_amount(token: str) -> int:
    match = _AMOUNT.match(token)
    if match is None:
        raise ValueError(f"bad amount {token!r}")
    return int(match.group(1)) * (ETH if match.group(2) else 1)


# `set` key -> (QueueConfig field, converter); QueueConfig checks the value
CONFIG = {"seed": ("rng_seed", int), "unlock_delay": ("unlock_delay", int),
          "missed_prob": ("missed_slot_probability", float),
          "per_block_cap": ("per_block_cap", int), "blocks_per_day": ("blocks_per_day", int),
          "min_stake": ("min_stake", parse_amount)}


def queue_config(pairs, seed: int | None = None) -> QueueConfig:
    """The QueueConfig that a script's `set` lines give, with `seed` overriding its own."""
    kwargs = {CONFIG[key][0]: CONFIG[key][1](value) for key, value in pairs}
    if seed is not None:
        kwargs["rng_seed"] = seed
    return QueueConfig(**kwargs)


def _converts(convert, value: str) -> bool:
    """Whether the runner's converter for a role accepts `value` and gives a word."""
    try:
        return convert(value) < _WORD
    except ValueError:
        return False


# role -> (test on a token and the role's words, message when the test fails)
_CHECKS = {
    "amount": (lambda t, _: _converts(parse_amount, t.value),
               "bad amount {!r} (at most 2**256 - 1)"),
    "int": (lambda t, _: t.value.isdigit() and _converts(int, t.value),
            "expected integer below 2**256, got {!r}"),
    "note": (lambda t, _: t.quoted, "note must be quoted"),
    "hex64": (lambda t, _: re.fullmatch("[0-9a-f]{64}", t.value), "expected 64 lowercase hex"),
    "key=value": (lambda t, _: "=" in t.value, "expected key=value"),
    "code": (lambda t, _: t.value in _CODES, "unknown error code {!r}"),
    "word": (lambda t, _: True, ""),
    "literal": (lambda t, words: t.value in words, "expected {1}, got {0!r}"),
}


class _Role(NamedTuple):
    test: str                    # "@", "+", a key of _CHECKS or a sub-table name
    words: tuple[str, ...] = ()  # label types of @ and +, the accepted words of a literal
    count: str = ""              # "", "?" (optional) or "*" (optional, repeats)
    forms: dict | None = None    # sub-table: the next token picks the remaining roles


class _Form(NamedTuple):
    group: str
    roles: tuple[_Role, ...]
    low: int                     # fewest arguments
    high: int | None             # most arguments; None after a `*` role or a sub-table


def _table(rows: dict[str, str], grouped: bool = False, **subtables: dict) -> dict[str, _Form]:
    """Decode each row once: `names -> [group] role role ...`."""
    table = {}
    for names, row in rows.items():
        group, _, spec = row.partition(" ") if grouped else ("", "", row)
        roles = []
        for word in spec.split():
            bare = word.rstrip("?*")
            if bare[0] in "@+":
                test, words = bare[0], bare[1:]
            else:
                test, words = (bare, "") if bare in _CHECKS or bare in subtables \
                    else ("literal", bare)
            roles.append(_Role(test, tuple(filter(None, words.split("|"))), word[len(bare):],
                               subtables.get(bare)))
        last = roles[-1] if roles else _Role("")
        high = None if last.count == "*" or last.forms else len(roles)
        for name in names.split():
            table[name] = _Form(group, tuple(roles), sum(not role.count for role in roles), high)
    return table


PROXY_FORMS = _table({"noop request_unstake": "", "stake add_to_stake": "amount",
                      "transfer_value": "@ amount"})
PROBE_FORMS = _table({"binding": "@account|token", "tba_address": "@token int",
                      "locked counts": ""})

# Groups: a `tx` step builds one ledger operation and may sit in a begin/commit
# group; `tx` and `exec` steps change state and may carry an expectation.
STEP_KINDS = _table({
    "mintnftaa": "tx @actor +account note",
    "minttoken": "tx @actor +token note",
    "transfernftaa": "tx @actor @account @",
    "transfertoken": "tx @actor @token @",
    "proxy tbacall": "tx @actor @account method",
    "stake addstake": "tx @actor @account amount",
    "unstake": "tx @actor @account",
    "withdraw": "tx @actor @account @ amount",
    "upgrade": "tx @actor @account int",
    "createtba": "tx @actor @token int +account noexec?",
    "fail interrupt": "tx",
    "actor": "exec +actor",
    "faucet": "exec @ amount",
    "advance": "exec int",
    "commit": "exec",
    "probe": "exec form",
    "assert_digest": "assert hex64",
    "assert_event": "assert word key=value*",
    "assert_note": "assert @account|token note",
    "assert_bound": "assert @account int",
    "assert_account": "assert @account|token @account|none",
    "assert_balance": "assert @ amount",
    "assert_stake": "assert @account amount",
    "assert_staker": "assert @account @account|none",
    "begin": "control",
    "expect_error expect_tba": "control code",
    "set": "control " + "|".join(CONFIG) + " word",
    "queue_report": "control int closed|simulate",
}, grouped=True, method=PROXY_FORMS, form=PROBE_FORMS)
EXECUTABLE = frozenset(kind for kind, form in STEP_KINDS.items() if form.group in ("tx", "exec"))


class ScenarioParseError(Exception):
    def __init__(self, line: int, column: int, message: str, code: str = "ParseError"):
        self.line, self.column, self.message, self.code = line, column, message, code
        super().__init__(f"line {line}, col {column}: {message}")


@dataclass(frozen=True)
class Step:
    kind: str
    args: tuple[str, ...]
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class ScenarioScript:
    config: tuple[tuple[str, str], ...] = ()
    steps: tuple[Step, ...] = ()


class _Token(NamedTuple):
    value: str
    column: int
    quoted: bool


def _tokenize(line: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(line):
        quoted, bare = match.groups()
        if bare is not None and bare.startswith("#"):
            break
        tokens.append(_Token(bare or quoted, match.start() + 1, quoted is not None))
    return tokens


class _Parser:
    """Single pass over the lines, tracking label declarations as it goes."""

    def __init__(self):
        self.labels: dict[str, str] = {}  # name -> actor | account | token
        self.config: list[tuple[str, str]] = []
        self.steps: list[Step] = []
        self.in_group = False

    def fail(self, token: _Token, message: str, code: str = "ParseError"):
        raise ScenarioParseError(self.line_no, token.column, message, code)

    def parse(self, text: str) -> ScenarioScript:
        for self.line_no, raw in enumerate(text.splitlines(), start=1):
            tokens = _tokenize(raw)
            if tokens:
                self.step(tokens[0], tokens[1:])
        if self.in_group:
            opened = next(s.line for s in reversed(self.steps) if s.kind == "begin")
            raise ScenarioParseError(opened, 1, "begin without matching commit")
        return ScenarioScript(tuple(self.config), tuple(self.steps))

    def step(self, head: _Token, tokens: list[_Token]):
        kind = head.value
        form = STEP_KINDS.get(kind)
        if form is None:
            self.fail(head, f"unknown step {kind!r}", code="UnknownStepKind")
        if self.in_group and form.group != "tx" and kind != "commit":
            self.fail(head, f"{kind} cannot appear inside a transaction group")
        if kind == "set" and self.steps:
            self.fail(head, "set must appear before any step")
        if kind == "commit" and not self.in_group:
            self.fail(head, "commit without begin")
        if kind in ("expect_error", "expect_tba"):
            # the step it qualifies, looking past an expectation for the other lane
            other = "expect_tba" if kind == "expect_error" else "expect_error"
            recent = [step.kind for step in self.steps[-2:] if step.kind != other]
            if not recent or recent[-1] not in EXECUTABLE:
                self.fail(head, f"{kind} must immediately follow an executable step")
        values = self.match(head, form, tokens)
        if kind == "set":
            return self.configure(*tokens)
        if kind == "queue_report" and values[1] == "simulate":
            try:  # every `set` line has been seen: they lead the file
                check_drain_size(int(values[0]), queue_config(self.config))
            except ValueError as bad:
                self.fail(tokens[0], f"queue_report simulate: {bad}")
        self.in_group = kind == "begin" or (self.in_group and kind != "commit")
        self.steps.append(Step(kind, tuple(values), self.line_no))

    def match(self, head: _Token, form: _Form, tokens: list[_Token]) -> list[str]:
        """Check the tokens after `head` against the roles of its form; returns their values."""
        given = len(tokens)
        if not form.low <= given <= (given if form.high is None else form.high):
            expected = str(form.low) if form.low == form.high else f"{form.low}..{form.high or ''}"
            self.fail(head, f"{head.value} takes {expected} argument(s), got {given}")
        values, roles = [], form.roles
        for position, token in enumerate(tokens):
            role = roles[position] if position < len(roles) else roles[-1]
            if role.forms is not None:
                sub = role.forms.get(token.value)
                if sub is None:
                    self.fail(token, f"unknown {head.value} {role.test} {token.value!r}")
                return values + [token.value] + self.match(token, sub, tokens[position + 1:])
            values.append(self.check(role, token))
        return values

    def check(self, role: _Role, token: _Token) -> str:
        value = token.value
        if role.test == "@":
            if value == "none" and "none" in role.words:
                return value
            declared = self.labels.get(value)
            if declared is None:
                self.fail(token, f"label {value!r} not declared", code="UnknownLabel")
            if role.words and declared not in role.words:
                self.fail(token, f"label {value!r} is {declared}, "
                                 f"expected {' or '.join(role.words)}")
        elif role.test == "+":
            if value in self.labels:
                self.fail(token, f"label {value!r} already declared")
            if not _LABEL.fullmatch(value):
                self.fail(token, f"bad label {value!r}")
            self.labels[value] = role.words[0]
        else:
            satisfied, message = _CHECKS[role.test]
            if not satisfied(token, role.words):
                self.fail(token, message.format(value, " or ".join(role.words)))
            target = value.partition("=")[2]
            if role.test == "key=value" and target.startswith("@"):
                self.check(_Role("@"), token._replace(value=target[1:]))
        return value

    def configure(self, key: _Token, value: _Token):
        name, convert = CONFIG[key.value]
        try:
            QueueConfig(**{name: convert(value.value)})
        except ValueError as bad:
            self.fail(value, f"bad {key.value} {value.value!r}: {bad}")
        self.config.append((key.value, value.value))


def parse_scenario(text: str) -> ScenarioScript:
    return _Parser().parse(text)


def serialize_scenario(script: ScenarioScript) -> str:
    lines = [f"set {key} {value}" for key, value in script.config]
    for step in script.steps:
        roles = STEP_KINDS[step.kind].roles
        lines.append(" ".join([step.kind] + [
            f'"{arg}"' if position < len(roles) and roles[position].test == "note" else arg
            for position, arg in enumerate(step.args)]))
    return "\n".join(lines) + ("\n" if lines else "")
