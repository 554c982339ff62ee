"""Seeded scenario generators for the benchmark workloads.

Each generator writes a `.scn` script together with the expectation lines
(`expect_error`, `expect_tba`, `assert_*`) that its own model of every lane
predicts, so that every verdict passes when the simulator behaves as
documented. The same seed always gives byte-identical scripts: every random
choice comes from one `random.Random` seeded with a string, which does not
depend on the interpreter's hash seed.

The model tracks only what the generated steps need: who owns each token,
the balance of each label, which registry accounts exist, upgrade versions,
and how many ledger transactions each step costs in each lane.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

ETH = 10**18

# Verdicts of a lane that are not failures; anything else is an error code.
OK = "ok"
PARTIAL = "partial"
NOT_COMPARABLE = "NotComparable"


@dataclass
class Lane:
    """What one runner lane holds after the steps generated so far."""

    name: str                                         # "nftaa" or "tba"
    owner: dict[str, str] = field(default_factory=dict)   # token label -> holder label
    balance: dict[str, int] = field(default_factory=dict)  # bound label -> balance
    tba_token: dict[str, str] = field(default_factory=dict)  # tba label -> its token
    deployed: set[tuple[str, int]] = field(default_factory=set)
    version: dict[str, int] = field(default_factory=dict)
    tx: int = 0
    rolled_back: int = 0

    def bound(self, label: str) -> bool:
        return label in self.balance

    def gate(self, caller: str, account: str) -> str:
        """NotNftOwner unless `caller` holds the token that controls `account`."""
        token = self.tba_token.get(account, account)
        return OK if self.owner.get(token) == caller else "NotNftOwner"

    def transaction(self, verdict: str) -> str:
        self.tx += 1
        if verdict != OK:
            self.rolled_back += 1
        return verdict


class Script:
    """A scenario under construction plus the model of each lane it runs in."""

    def __init__(self, lanes: tuple[str, ...], config: list[tuple[str, str]]):
        self.lanes = {name: Lane(name) for name in lanes}
        self.lines = [f"set {key} {value}" for key, value in config]
        self.steps = 0      # parsed steps, expectation lines included
        self.verdicts = {name: 0 for name in lanes}
        self.blocks = 0     # blocks the `advance` steps add

    # -- emission ---------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(line)
        self.steps += 1

    def expect(self, outcome: dict[str, str]) -> None:
        """Write the expectation lines for the step just emitted."""
        for lane, directive in (("nftaa", "expect_error"), ("tba", "expect_tba")):
            verdict = outcome.get(lane)
            if verdict is None or verdict == OK:
                continue
            if lane == "nftaa" and verdict == PARTIAL:
                raise ValueError("partial outcomes exist only in the tba lane")
            self.emit(f"{directive} {verdict}")
            self.verdicts[lane] += 1

    def text(self, header: str) -> str:
        comments = [f"# {line}" for line in header.splitlines()]
        return "\n".join(comments + self.lines) + "\n"

    def each(self):
        return self.lanes.values()

    # -- steps that hold in every lane ------------------------------------

    def actor(self, label: str) -> None:
        self.emit(f"actor {label}")
        for lane in self.each():
            lane.balance[label] = 0

    def faucet(self, label: str, amount: int) -> None:
        self.emit(f"faucet {label} {amount}")
        for lane in self.each():
            lane.balance[label] += amount

    def advance(self, blocks: int) -> None:
        self.emit(f"advance {blocks}")
        self.blocks += blocks

    def probe(self, *args: str) -> None:
        self.emit("probe " + " ".join(args))

    def assert_balance(self, label: str) -> bool:
        """Assert `label`'s balance if every lane agrees on it."""
        values = {lane.balance[label] for lane in self.each()}
        if len(values) != 1:
            return False
        self.emit(f"assert_balance {label} {values.pop()}")
        for lane in self.lanes:
            self.verdicts[lane] += 1
        return True

    def mintnftaa(self, creator: str, label: str, note: str) -> None:
        self.emit(f'mintnftaa {creator} {label} "{note}"')
        for lane in self.each():
            lane.transaction(OK)
            if lane.name == "tba":   # mint, then a separate account creation
                lane.transaction(OK)
            lane.owner[label] = creator
            lane.balance[label] = 0
            lane.version[label] = 1

    def interrupted_mint(self, creator: str, label: str) -> None:
        """A grouped mint aborted by `interrupt`; the label stays unbound."""
        for line in ("begin", f'mintnftaa {creator} {label} "aborted"', "interrupt",
                     "commit"):
            self.emit(line)
        outcome = {}
        for lane in self.each():
            lane.transaction("InjectedFailure" if lane.name != "tba" else OK)
            outcome[lane.name] = "InjectedFailure" if lane.name != "tba" else PARTIAL
        self.expect(outcome)

    def minttoken(self, creator: str, label: str, note: str) -> None:
        self.emit(f'minttoken {creator} {label} "{note}"')
        for lane in self.each():
            lane.transaction(OK)
            lane.owner[label] = creator

    # -- owner-gated steps --------------------------------------------------

    def _value_call(self, lane: Lane, caller: str, account: str, amount: int) -> str:
        verdict = lane.gate(caller, account)
        if verdict == OK and lane.balance[account] < amount:
            verdict = "InsufficientBalance"
        return lane.transaction(verdict)

    def proxy_transfer(self, caller: str, account: str, to: str, amount: int) -> None:
        self.emit(f"proxy {caller} {account} transfer_value {to} {amount}")
        self._move(caller, account, to, amount)

    def withdraw(self, caller: str, account: str, to: str, amount: int) -> None:
        self.emit(f"withdraw {caller} {account} {to} {amount}")
        self._move(caller, account, to, amount)

    def _move(self, caller: str, account: str, to: str, amount: int) -> None:
        outcome = {}
        for lane in self.each():
            verdict = self._value_call(lane, caller, account, amount)
            if verdict == OK:
                lane.balance[account] -= amount
                lane.balance[to] += amount
            outcome[lane.name] = verdict
        self.expect(outcome)

    def proxy_noop(self, caller: str, account: str) -> None:
        self.emit(f"proxy {caller} {account} noop")
        self.expect({lane.name: lane.transaction(lane.gate(caller, account))
                     for lane in self.each()})

    def transfernftaa(self, caller: str, account: str, to: str) -> None:
        self.emit(f"transfernftaa {caller} {account} {to}")
        outcome = {}
        for lane in self.each():
            if lane.owner[account] != caller:
                verdict = "NotOwner"
            elif to == account and lane.name != "tba":
                verdict = "SelfCustodyHazard"  # the registry style lets it lock
            else:
                verdict = OK
                lane.owner[account] = to
            outcome[lane.name] = lane.transaction(verdict)
        self.expect(outcome)

    def sale(self, seller: str, account: str, buyer: str, pay_from: str, price: int) -> None:
        """Atomic swap: the buyer pays from their own account, the seller hands over."""
        for line in ("begin", f"proxy {buyer} {pay_from} transfer_value {seller} {price}",
                     f"transfernftaa {seller} {account} {buyer}", "commit"):
            self.emit(line)
        for lane in self.each():
            if lane.name == "tba":
                raise ValueError("sales are generated for the native lane only")
            lane.transaction(OK)
            lane.balance[pay_from] -= price
            lane.balance[seller] += price
            lane.owner[account] = buyer

    def drain_and_sell(self, owner: str, account: str, buyer: str, amount: int) -> None:
        """Drain the account and sell its NFT in one intent.

        Generated only when `owner` holds the NFT and the balance covers
        `amount` in every lane, so the atomic lanes hit the fraud guard and
        the tba lane commits both halves.
        """
        for line in ("begin", f"withdraw {owner} {account} {owner} {amount}",
                     f"transfernftaa {owner} {account} {buyer}", "commit"):
            self.emit(line)
        outcome = {}
        for lane in self.each():
            if lane.name == "tba":
                lane.transaction(OK)
                lane.transaction(OK)
                lane.balance[account] -= amount
                lane.balance[owner] += amount
                lane.owner[account] = buyer
                outcome[lane.name] = OK
            else:
                outcome[lane.name] = lane.transaction("FraudGuard")
        self.expect(outcome)

    def upgrade(self, caller: str, account: str, skew: bool) -> None:
        want = self.lanes["nftaa"].version[account] + (2 if skew else 1)
        outcome = {}
        for lane in self.each():
            if lane.name == "tba":
                outcome[lane.name] = NOT_COMPARABLE   # no analog, no transaction
                continue
            verdict = lane.gate(caller, account)
            if verdict == OK and skew:
                verdict = "VersionSkew"
            if lane.transaction(verdict) == OK:
                lane.version[account] = want
            outcome[lane.name] = verdict
        self.emit(f"upgrade {caller} {account} {want}")
        self.expect(outcome)

    # -- registry-only steps (NotComparable in the nftaa lane) --------------

    def createtba(self, caller: str, token: str, salt: int, label: str) -> None:
        self.emit(f"createtba {caller} {token} {salt} {label}")
        outcome = {}
        for lane in self.each():
            if lane.name != "tba":
                outcome[lane.name] = NOT_COMPARABLE
                continue
            key = (token, salt)
            verdict = lane.transaction("AlreadyDeployed" if key in lane.deployed else OK)
            if verdict == OK:
                lane.deployed.add(key)
                lane.tba_token[label] = token
                lane.balance[label] = 0
            outcome[lane.name] = verdict
        self.expect(outcome)

    def tbacall(self, caller: str, label: str) -> None:
        self.emit(f"tbacall {caller} {label} noop")
        outcome = {}
        for lane in self.each():
            if lane.name != "tba":
                outcome[lane.name] = NOT_COMPARABLE
            else:
                outcome[lane.name] = lane.transaction(lane.gate(caller, label))
        self.expect(outcome)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Generated:
    text: str
    steps: int                  # parsed steps per lane
    verdicts: dict[str, int]    # verdict lines each lane evaluates
    tx: dict[str, int]          # ledger transactions each lane attempts
    rolled_back: dict[str, int]
    blocks: int                 # blocks the script's `advance` steps add


def _done(script: Script, header: str) -> Generated:
    return Generated(script.text(header), script.steps, dict(script.verdicts),
                     {n: lane.tx for n, lane in script.lanes.items()},
                     {n: lane.rolled_back for n, lane in script.lanes.items()},
                     script.blocks)


def nftaa_world(seed: int, actors: int = 200, ops: int = 300) -> Generated:
    """A large world of funded NFTAAs, then `ops` owner-gated transactions on it.

    About a fifth of them roll back on purpose (non-owner calls and grouped
    drain+sell attempts); everything else commits. `assert_balance` reads
    ride along and are not counted.
    """
    rng = random.Random(f"nftaa_world:{seed}")
    script = Script(("nftaa",), [("seed", str(seed))])
    lane = script.lanes["nftaa"]
    people = [f"u{i}" for i in range(actors)]
    accounts = [f"n{i}" for i in range(actors)]
    for i, (person, account) in enumerate(zip(people, accounts)):
        script.actor(person)
        script.mintnftaa(person, account, f"acct {i}")
        script.faucet(account, rng.randrange(10**6, 10**7))
        if i % 25 == 24:
            script.advance(1)

    def held_by(person: str) -> list[str]:
        return [a for a in accounts if lane.owner[a] == person]

    done = 0
    while done < ops:   # count transactions, so every seed does the same amount
        before = lane.tx
        account = rng.choice(accounts)
        owner = lane.owner[account]
        stranger = rng.choice([p for p in rng.sample(people, 3) if p != owner])
        funds = lane.balance[account]
        roll = rng.random()
        if roll < 0.28 and funds > 0:
            to = rng.choice(people + accounts)
            if to != account:
                script.proxy_transfer(owner, account, to, rng.randrange(1, funds // 3 + 2))
        elif roll < 0.45 and funds > 0:
            script.withdraw(owner, account, rng.choice(people),
                            rng.randrange(1, funds // 3 + 2))
        elif roll < 0.62:
            price = rng.randrange(1, 5_000)
            wallets = [a for a in held_by(stranger) if lane.balance[a] >= price]
            if wallets:
                script.sale(owner, account, stranger, rng.choice(wallets), price)
            else:
                script.transfernftaa(owner, account, stranger)
        elif roll < 0.70:
            script.proxy_noop(owner, account)
        elif roll < 0.80:
            if rng.random() < 0.5:
                script.proxy_noop(stranger, account)
            else:
                script.withdraw(stranger, account, stranger, 1)
        elif roll < 0.90 and funds > 0:
            script.drain_and_sell(owner, account, stranger, rng.randrange(1, funds + 1))
        else:
            script.assert_balance(rng.choice(people + accounts))
        if lane.tx == before:
            continue
        done += 1
        if done % 10 == 0:
            script.advance(1)
    for label in rng.sample(people + accounts, 20):
        script.assert_balance(label)
    script.probe("counts")
    header = (f"nftaa_world seed={seed}: {actors} actors with one funded NFTAA "
              f"each, then {ops} owner-gated transactions.")
    return _done(script, header)


def fraud_diff(seed: int, actors: int = 40, nftaas: int = 80, tokens: int = 80,
               transactions: int = 660) -> Generated:
    """A rollback-heavy script for both differential lanes.

    After the setup, steps are drawn until they cost `transactions` ledger
    transactions across both lanes, so every seed does about the same work.

    The traffic mixes drain+sell groups, non-owner calls, duplicate-salt
    `createtba`, interrupted grouped mints, self-sends, upgrades, and
    periodic `probe` reads, so every claim class of the diff classifier
    appears.
    """
    rng = random.Random(f"fraud_diff:{seed}")
    script = Script(("nftaa", "tba"), [("seed", str(seed))])
    a, b = script.lanes["nftaa"], script.lanes["tba"]
    people = [f"u{i}" for i in range(actors)]
    for person in people:
        script.actor(person)
    accounts: list[str] = []
    plain: list[str] = []
    tbas: list[str] = []
    salts: dict[str, int] = {}
    aborted = 0

    for i in range(max(nftaas, tokens)):
        if i < nftaas:
            label = f"n{i}"
            script.mintnftaa(rng.choice(people), label, f"acct {i}")
            script.faucet(label, rng.randrange(10**6, 10**7))
            accounts.append(label)
        if i < tokens:
            label = f"t{i}"
            script.minttoken(rng.choice(people), label, f"token {i}")
            plain.append(label)
            salts[label] = 0
        if i % 20 == 19:
            script.advance(1)

    def agreed(account: str) -> str | None:
        """The owner if both lanes agree, else None."""
        owner = a.owner[account]
        return owner if b.owner[account] == owner else None

    spent = emitted = traffic_blocks = 0
    while spent < transactions:
        before, steps = a.tx + b.tx, script.steps
        roll = rng.random()
        account = rng.choice(accounts)
        owner = agreed(account)
        stranger = rng.choice(people)
        if stranger in (a.owner[account], b.owner[account]):
            stranger = None
        funds = min(a.balance[account], b.balance[account])
        if roll < 0.20 and owner and funds > 0:
            buyer = rng.choice([p for p in people if p != owner])
            script.drain_and_sell(owner, account, buyer, rng.randrange(1, funds + 1))
        elif roll < 0.36 and stranger:
            if rng.random() < 0.5:
                script.proxy_noop(stranger, account)
            else:
                script.withdraw(stranger, account, stranger, 1)
        elif roll < 0.44:
            # whoever holds the NFT in the tba lane tries to hand it back
            holder = b.owner[account]
            if holder in people and holder != a.owner[account]:
                script.transfernftaa(holder, account, a.owner[account])
            elif stranger:
                script.transfernftaa(stranger, account, rng.choice(people))
        elif roll < 0.50:
            token = rng.choice(plain)
            label = f"b{len(tbas) + aborted}"
            salt = rng.randrange(salts[token] + 1)   # salt already used -> duplicate
            script.createtba(a.owner[token], token, salt, label)
            if b.bound(label):
                tbas.append(label)
                salts[token] += 1
            else:
                aborted += 1
        elif roll < 0.55 and tbas:
            label = rng.choice(tbas)
            holder = b.owner[b.tba_token[label]]
            script.tbacall(holder if rng.random() < 0.5 else rng.choice(people), label)
        elif roll < 0.61:
            script.interrupted_mint(rng.choice(people), f"x{emitted}")
        elif roll < 0.64 and owner:
            script.transfernftaa(owner, account, account)   # self-send
        elif roll < 0.70 and owner:
            script.upgrade(owner, account, skew=rng.random() < 0.3)
        elif roll < 0.80 and owner and funds > 0:
            script.withdraw(owner, account, rng.choice(people),
                            rng.randrange(1, funds // 2 + 2))
        elif roll < 0.84:
            script.minttoken(rng.choice(people), f"m{emitted}", "late mint")
        elif roll < 0.91:
            script.probe("binding", account)
        elif roll < 0.95:
            script.assert_balance(account)
        elif roll < 0.97:
            script.probe("counts")
        else:
            script.probe("locked")
        spent += a.tx + b.tx - before
        emitted += script.steps > steps
        if spent // 40 > traffic_blocks:   # one block per 40 transactions
            script.advance(1)
            traffic_blocks += 1
    script.probe("locked")
    script.probe("counts")
    header = (f"fraud_diff seed={seed}: {nftaas} NFTAAs and {tokens} plain "
              f"tokens among {actors} actors, then {emitted} rollback-heavy steps.")
    return _done(script, header)


def queue_drain(seed: int, stakers: int = 64, unlock_delay: int = 1_500_000) -> Generated:
    """Stakers lock funds through their NFTAAs across long idle spans, then
    everyone exits through the capped withdrawal queue.

    The idle spans add up to the same number of blocks for every seed, about
    1.66 * `unlock_delay`. The model leaves balances untouched by staking,
    because every stake comes back to its account before the only balance
    asserts run.
    """
    rng = random.Random(f"queue_drain:{seed}")
    script = Script(("nftaa",), [("seed", str(seed)), ("missed_prob", "0.1"),
                                 ("unlock_delay", str(unlock_delay))])
    lane = script.lanes["nftaa"]
    last_unlock = 0
    stake: dict[str, int] = {}
    spans = max(1, stakers // 8)
    for i in range(stakers):
        person, account = f"s{i}", f"v{i}"
        script.actor(person)
        script.mintnftaa(person, account, f"validator {i}")
        deposit = rng.randrange(40, 80) * ETH
        script.faucet(account, deposit)
        if i % 5 == 0:
            script.emit(f"stake {person} {account} 31eth")
            script.expect({"nftaa": lane.transaction("BelowMinStake")})
        first = rng.randrange(32, 36) * ETH
        script.emit(f"stake {person} {account} {first}")
        lane.transaction(OK)
        extra = rng.randrange(1, deposit - first)
        script.emit(f"addstake {person} {account} {extra}")
        lane.transaction(OK)
        stake[account] = first + extra
        last_unlock = script.blocks + unlock_delay
        if i % 4 == 1:
            script.emit(f"unstake {person} {account}")
            script.expect({"nftaa": lane.transaction("StillLocked")})
        if i % 8 == 7:
            script.advance(unlock_delay * 3 // 4 // spans)
    script.advance(last_unlock - script.blocks)
    for i in range(stakers):
        script.emit(f"unstake s{i} v{i}")
        lane.transaction(OK)
        if i % 16 == 15:
            script.advance(1)
    script.advance(200)
    for i in range(stakers):
        script.assert_balance(f"v{i}")   # deposits are back on the accounts
        script.emit(f"assert_stake v{i} 0")
        script.verdicts["nftaa"] += 1
    for i in rng.sample(range(stakers), 4):
        script.emit(f"assert_event WithdrawalProcessed owner=@v{i} amount={stake[f'v{i}']}")
        script.verdicts["nftaa"] += 1
    script.emit("queue_report 800000 simulate")
    script.emit("queue_report 800000 closed")
    header = (f"queue_drain seed={seed}: {stakers} stakers, {script.blocks} blocks of "
              f"which nearly all are idle, then a full exit through the queue.")
    return _done(script, header)


def spot(seed: int) -> Generated:
    """A small differential script that touches every layer once."""
    small = fraud_diff(seed, actors=4, nftaas=4, tokens=4, transactions=60)
    return replace(small, text=small.text + "queue_report 160 simulate\n",
                   steps=small.steps + 1)
