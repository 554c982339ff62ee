"""Parse errors, byte for byte: every way a script is refused, with its position.

`golden/parse_errors.txt` holds one row per malformed script below: the
script as a JSON string, a tab, then the error's `line col code message`.
The cases reach every `fail` site of the parser, and several put the failing
token after tabs, a quoted value holding spaces or `#`, or other whitespace,
so that the columns are not trivial. A parser change must leave the file
untouched; a change that means to alter an error regenerates it and says so
in CHANGES.md:

    PYTHONPATH=src python -m tests.test_parse_errors
"""

import json
from pathlib import Path

from nftaa_sim.scenario import ScenarioParseError, parse_scenario

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse_errors.txt"
# a declared actor `a`, an NFTAA `n` and a plain token `t`
P = 'actor a\nmintnftaa a n "x"\nminttoken a t "y"\n'
# one exit's expected drain: 1 / (1 - p), about 10**10 blocks
EXIT = "set missed_prob 0.9999999999\nset unlock_delay 0\nactor alice\n"

CASES = [
    # unknown step, and steps a transaction group does not allow
    "explode a\n",
    "actor a\n\t \texplode\ta\n",
    "actor a\nbegin\nactor b\ncommit\n",
    "actor a\nbegin\n\tadvance 5\ncommit\n",
    "begin\nbegin\n",
    "actor a\nbegin\nfail\nexpect_error InjectedFailure\ncommit\n",
    # `set` after a step, `commit` without `begin` or closing an empty group, `begin`
    # without `commit`
    "actor a\nset seed 4\n",
    "commit\n",
    "actor a\n  commit # done\n",
    "actor alice\nbegin\ncommit\n",
    "actor a\nbegin\nfail\n",
    "actor a\nbegin\nfail\ncommit\nbegin\ninterrupt\n",
    # misplaced expectations
    "expect_error EmptyNote\n",
    "actor a\nassert_balance a 0\nexpect_error Nope\n",
    "set seed 1\nexpect_tba ok\n",
    "actor a\nfaucet a 5\nexpect_error InjectedFailure\nexpect_tba ok\nexpect_tba ok\n",
    "actor a\nfaucet a 5\nexpect_tba ok\n\n# stacked\nexpect_error EmptyNote\nexpect_error EmptyNote\n",
    # arity, of a step and of a sub-table form
    "actor\n",
    "actor a b\n",
    "set seed\n",
    P + "createtba a t 0 b noexec extra\n",
    "assert_event\n",
    P + "proxy a n\n",
    P + "proxy a n stake\n",
    P + 'proxy a n "transfer_value" "b c" 5 6\n',
    "probe binding\n",
    "probe\tlocked\textra\n",
    # unknown proxy/tbacall method or probe form
    P + "proxy a n levitate\n",
    P + 'tbacall a n "two words"\n',
    "probe\tsideways\n",
    P + 'proxy a n "#noop"\n',
    # labels: undeclared, of the wrong type, declared twice, malformed
    "actor a\nfaucet mallory 5\n",
    'actor a\nassert_note "n # 1" "x"\n',
    P + 'proxy a n transfer_value "b c" 5\n',
    P + "stake n n 32eth\n",
    P + "assert_account t a\n",
    P + 'assert_note\t"#a"\t"q"\n',
    P + 'assert_stake\t"a"\t1\n',
    "actor a\nactor a\n",
    P + 'mintnftaa a t "z"\n',
    # a token where an address is expected: every role that takes an actor or account
    P + "faucet t 5\n",
    P + "transfernftaa a n\tt\n",
    P + "transfertoken a t t\n",
    P + 'withdraw a "n" t 1\n',
    P + "assert_balance\tt 0\n",
    P + "tbacall a n transfer_value t 5\n",
    P + 'assert_event "Transfer # x" from=@a to=@t\n',
    "actor 9lives\n",
    'actor "a b"\n',
    'actor ""\n',
    # each argument check
    "actor a\nfaucet a 1.5eth\n",
    'actor a\nfaucet a "5 eth"\n',
    "actor a\nfaucet\ta\t" + str(2**256) + "\n",
    "advance x\n",
    "advance ²\n",
    P + "upgrade a n -1\n",
    P + 'assert_bound n "1 "\n',
    "actor a\nmintnftaa a n bare\n",
    P + "assert_note n x#y\n",
    "assert_digest abc\n",
    'assert_digest "' + "A" * 64 + '"\n',
    'assert_event Transfer "a b" nokey\n',
    'assert_event "Kind # x" k=v bad\n',
    "actor a\nfaucet a 5\nexpect_error NoSuchCode\n",
    "actor a\nfaucet a 5\nexpect_error UnknownCollection\n",  # a code no operation raises
    'actor a\nfaucet a 5\nexpect_tba\t"ok "\n',
    "set gravity 10\n",
    "queue_report 5 open\n",
    "queue_report -5 closed\n",
    P + "createtba a t 0 b exec\n",
    # an undeclared @label inside key=value
    "assert_event Transfer to=@ghost\n",
    'actor a\nassert_event "to=@a b" from=@a to=@nobody\n',
    "assert_event Kind who=@none\n",
    # `set` values, and a simulated queue_report too long to drain
    "set unlock_delay abc\n",
    "set missed_prob 1.0\n",
    "set per_block_cap 0\n",
    "set blocks_per_day 0\n",
    "set blocks_per_day 1" + "0" * 400 + "\nqueue_report 5 closed\n",
    "set unlock_delay " + str(2**256) + "\n",
    "set\tmin_stake 1" + "0" * 60 + "eth\n",
    'set\tmin_stake\t"1 eth"\n',
    'set seed "#3"\n',
    "set seed -3\n",
    "queue_report 1000000000000 simulate\n",
    'set missed_prob 0.999\n# big\n  queue_report\t"200000000" simulate\n',
    # other whitespace between tokens, and CRLF line ends
    "actor a\nfaucet\x1fa\xa01.5eth\n",
    "actor a\r\nfaucet a  \r\n",
    # an advance past the blocks the script's exits may take to drain: an `unstake`, and a
    # `proxy` or `tbacall` of `request_unstake`, at a missed-slot probability near 1
    EXIT + 'mintnftaa alice n1 "stake"\nfaucet n1 32eth\nstake alice n1 32eth\n'
    "assert_stake n1 32eth\nunstake alice n1\nadvance 100000000000\nassert_balance n1 32eth\n",
    EXIT + 'mintnftaa alice n1 "stake"\nfaucet n1 32eth\nstake alice n1 32eth\n'
    "assert_stake n1 32eth\nproxy alice n1 request_unstake\nadvance 100000000000\n",
    EXIT + 'minttoken alice t1 "stake"\ncreatetba alice t1 0 b1\nfaucet b1 32eth\n'
    "tbacall alice b1 stake 32eth\ntbacall alice b1 request_unstake\nadvance 100000000000\n",
]


def render(cases) -> str:
    rows = []
    for text in cases:
        try:
            parse_scenario(text)
        except ScenarioParseError as error:
            rows.append(f"{json.dumps(text)}\t{error.line} {error.column} "
                        f"{error.code} {error.message}\n")
        else:
            raise AssertionError(f"parsed without error: {text!r}")
    return "".join(rows)


def test_parse_errors_are_unchanged():
    assert render(CASES).encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.write_bytes(render(CASES).encode())
    print(f"wrote {len(CASES)} parse errors to {GOLDEN}")
