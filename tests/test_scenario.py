"""Scenario grammar: tokenizing, label tracking, structure rules, round-trip."""

import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from nftaa_sim import (
    ScenarioParseError,
    parse_amount,
    parse_scenario,
    serialize_scenario,
)
from nftaa_sim.scenario import STEP_KINDS, Step, _scan
from tests import corpus
from tests.perfbench_modules import load

README = Path(__file__).resolve().parent.parent / "README.md"


def test_empty_file_is_a_valid_script():
    script = parse_scenario("")
    assert script.steps == ()
    assert script.config == ()


def test_comments_and_blank_lines_ignored():
    script = parse_scenario("# a comment\n\n   \nactor alice  # trailing\n")
    assert [s.kind for s in script.steps] == ["actor"]


def test_undeclared_label_is_a_parse_error():
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario("actor alice\nfaucet mallory 5\n")
    assert caught.value.code == "UnknownLabel"
    assert caught.value.line == 2
    assert caught.value.column == 8


def test_unknown_step_kind():
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario("explode alice\n")
    assert caught.value.code == "UnknownStepKind"
    assert caught.value.line == 1


def test_duplicate_label_declaration():
    with pytest.raises(ScenarioParseError):
        parse_scenario("actor alice\nactor alice\n")


@pytest.mark.parametrize("line", ["actor none", 'mintnftaa a none "x"', 'minttoken a none "x"',
                                  "createtba a t 0 none"])
def test_none_is_reserved_as_a_label(line):
    # an `@account|none` slot reads the bare word as no address, so a label
    # `none` could never be named there
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario(f'actor a\nminttoken a t "x"\n{line}\n')
    error = caught.value
    assert (error.code, error.line, error.column) == ("ParseError", 3, line.index("none") + 1)
    assert error.message == "label 'none' is reserved"


def test_label_type_checked():
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario("actor alice\nmintnftaa alice n1 \"x\"\nstake n1 n1 32eth\n")
    assert "expected actor" in caught.value.message


def test_note_must_be_quoted():
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario("actor alice\nmintnftaa alice n1 bare\n")
    assert "quoted" in caught.value.message


def test_arity_errors_report_position():
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario("actor\n")
    assert caught.value.line == 1
    assert "argument" in caught.value.message


def test_begin_requires_commit():
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario("actor alice\nbegin\nfail\n")
    assert "begin" in caught.value.message


def test_group_content_restricted_to_operations():
    for body in ("actor bob", "advance 5", "probe locked", "faucet alice 5"):
        with pytest.raises(ScenarioParseError) as caught:
            parse_scenario(f"actor alice\nbegin\n{body}\ncommit\n")
        assert "transaction group" in caught.value.message


def test_commit_requires_begin():
    with pytest.raises(ScenarioParseError):
        parse_scenario("commit\n")


def test_nested_begin_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("begin\nbegin\n")


def test_expect_error_placement():
    with pytest.raises(ScenarioParseError):
        parse_scenario("expect_error EmptyNote\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario("actor a\nassert_balance a 0\nexpect_error Nope\n")
    # stacked lane expectations on one step are legal in either order
    parse_scenario('actor a\nmintnftaa a n "x"\nexpect_error EmptyNote\nexpect_tba ok\n')
    parse_scenario('actor a\nmintnftaa a n "x"\nexpect_tba ok\nexpect_error EmptyNote\n')


def test_expect_error_inside_group_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("actor a\nbegin\nfail\nexpect_error InjectedFailure\ncommit\n")


def test_set_must_lead_the_file():
    with pytest.raises(ScenarioParseError):
        parse_scenario("actor a\nset seed 4\n")
    script = parse_scenario("set seed 4\nset unlock_delay 9\nactor a\n")
    assert dict(script.config) == {"seed": "4", "unlock_delay": "9"}


def test_unknown_config_key():
    # the day length and the minimum stake are protocol constants, not settings
    for line in ("set gravity 10", "set blocks_per_day 7200", "set min_stake 32eth"):
        with pytest.raises(ScenarioParseError) as caught:
            parse_scenario(line + "\n")
        assert (caught.value.line, caught.value.column) == (1, 5)
        assert line.split()[1] in caught.value.message


@pytest.mark.parametrize("line", ["set unlock_delay abc", "set unlock_delay -3",
                                  "set missed_prob 1.0", "set per_block_cap 0"])
def test_config_values_checked_at_parse_time(line):
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario(line + "\n")
    assert (caught.value.line, caught.value.column) == (1, line.rindex(" ") + 2)
    assert line.split()[1] in caught.value.message


def test_unknown_expectation_code_rejected():
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario("actor a\nfaucet a 5\nexpect_error NoSuchCode\n")
    assert (caught.value.line, caught.value.column) == (3, 14)
    assert "NoSuchCode" in caught.value.message
    for code in ("ok", "partial", "FraudGuard", "NotComparable"):
        parse_scenario(f"actor a\nfaucet a 5\nexpect_tba {code}\n")


def test_amount_sugar():
    assert parse_amount("32eth") == 32 * 10**18
    assert parse_amount("5") == 5
    assert parse_amount("0") == 0
    with pytest.raises(ValueError):
        parse_amount("-3")
    with pytest.raises(ValueError):
        parse_amount("eth")


def test_bad_amount_in_script():
    with pytest.raises(ScenarioParseError):
        parse_scenario("actor a\nfaucet a 1.5eth\n")


@pytest.mark.parametrize("amount", ["0", "7" * 77, str(2**256 - 1), str(2**256), "1" * 5000,
                                    "\u0663\u0664", "\u00b2", "3eth", "1.5"])
def test_amount_accepted_exactly_when_it_converts_below_2_256(amount):
    try:
        fits = parse_amount(amount) < 2**256
    except ValueError:
        fits = False
    text = f"actor a\nfaucet a {amount}\n"
    if fits:
        parse_scenario(text)
    else:
        with pytest.raises(ScenarioParseError):
            parse_scenario(text)


def test_digest_format_checked():
    with pytest.raises(ScenarioParseError):
        parse_scenario("assert_digest abc\n")
    parse_scenario("assert_digest " + "0" * 64 + "\n")


def test_proxy_method_arity():
    with pytest.raises(ScenarioParseError):
        parse_scenario('actor a\nmintnftaa a n "x"\nproxy a n stake\n')
    with pytest.raises(ScenarioParseError):
        parse_scenario('actor a\nmintnftaa a n "x"\nproxy a n levitate\n')


def test_round_trip_fixed_corpus():
    text = (
        'set unlock_delay 7\n'
        'actor alice\n'
        'actor bob\n'
        'faucet alice 64eth\n'
        'mintnftaa alice n1 "a note with spaces"\n'
        'minttoken alice t1 "plain"\n'
        'createtba alice t1 3 b1 noexec\n'
        'begin\n'
        'withdraw alice n1 bob 1eth\n'
        'transfernftaa alice n1 bob\n'
        'commit\n'
        'expect_error FraudGuard\n'
        'probe binding n1\n'
        'assert_event NewNFTAA token_id=1 creator=@alice\n'
        'queue_report 800000 closed\n'
    )
    script = parse_scenario(text)
    assert parse_scenario(serialize_scenario(script)) == script


_LABELS = ["alice", "bob", "carol"]


@st.composite
def scripts(draw):
    """Structurally valid scripts: declarations always precede references."""
    lines = [f"actor {label}" for label in _LABELS]
    accounts, tokens = [], []
    n_steps = draw(st.integers(min_value=0, max_value=12))
    for i in range(n_steps):
        actor = draw(st.sampled_from(_LABELS))
        choice = draw(st.integers(min_value=0, max_value=6))
        if choice == 0:
            lines.append(f"faucet {actor} {draw(st.integers(0, 99))}eth")
        elif choice == 1:
            label = f"n{i}"
            note = draw(st.text(alphabet="abc xyz", min_size=1, max_size=12))
            lines.append(f'mintnftaa {actor} {label} "{note}"')
            accounts.append(label)
        elif choice == 2:
            label = f"t{i}"
            lines.append(f'minttoken {actor} {label} "tok"')
            tokens.append(label)
        elif choice == 3 and accounts:
            lines.append(f"proxy {actor} {draw(st.sampled_from(accounts))} noop")
        elif choice == 4 and accounts:
            other = draw(st.sampled_from(_LABELS))
            lines.append(f"transfernftaa {actor} {draw(st.sampled_from(accounts))} {other}")
        elif choice == 5:
            lines.append(f"advance {draw(st.integers(1, 40))}")
        elif choice == 6:
            # any argument may be quoted: empty, spaced or `#`-led ones must be
            word = draw(st.text(alphabet="ab #\t=", max_size=6))
            pairs = draw(st.lists(st.tuples(st.text(alphabet="ab #\t", max_size=3),
                                            st.text(alphabet="ab #\t=", max_size=3)),
                                  max_size=3))
            args = [f'"{word}"'] + [f'"{key}={value}"' for key, value in pairs]
            lines.append("assert_event " + " ".join(args))
    return "\n".join(lines) + "\n"


@given(scripts())
def test_round_trip_generated_scripts(text):
    script = parse_scenario(text)
    assert parse_scenario(serialize_scenario(script)) == script


def test_quoted_arguments_survive_a_round_trip():
    for line in ('assert_event "#x"', 'assert_event ""', 'assert_event Transfer "k=v w"',
                 'assert_event "a b" "k=#" "=\t"', 'set seed " 5"'):
        script = parse_scenario(line + "\n")
        assert parse_scenario(serialize_scenario(script)) == script


# The tokenizer the parser used to read every line with: one finditer match,
# and one token object, per value. The parser now reads a line with one call
# and finds a column only for an error; both must agree with this.
_TOKEN = re.compile(r'"([^"]*)"|(\S+)')


def _reference_tokens(line: str) -> list[tuple[str, int, bool]]:
    """(value, 1-based column, quoted) for each value of `line`."""
    tokens = []
    for match in _TOKEN.finditer(line):
        quoted, bare = match.groups()
        if bare is not None and bare.startswith("#"):
            break
        tokens.append((bare or quoted, match.start() + 1, quoted is not None))
    return tokens


_LINES = st.text(alphabet='"# \t\x1f\xa0ab', max_size=20)


@given(_LINES)
def test_scan_reads_the_values_and_quotes_of_the_reference(line):
    tokens = _reference_tokens(line)
    values, quoted = _scan(line)
    assert values == [value for value, _, _ in tokens]
    assert set(quoted) == {position for position, token in enumerate(tokens) if token[2]}


@given(st.text(alphabet='"# \t\x1f\xa0ab=@', max_size=20))
def test_an_error_is_reported_at_the_reference_column(line):
    """`assert_event` takes a word and then key=value pairs: the first value
    after the word with no `=`, or naming an undeclared `@label`, fails."""
    text = "assert_event " + line
    tokens = _reference_tokens(text)
    bad = [column for value, column, _ in tokens[2:]
           if "=" not in value or value.partition("=")[2].startswith("@")]
    if len(tokens) == 1 or bad:
        with pytest.raises(ScenarioParseError) as caught:
            parse_scenario(text)
        assert (caught.value.line, caught.value.column) == (1, bad[0] if bad else 1)
    else:
        parse_scenario(text)


def _numbers(step: Step) -> list[tuple[bool, object]]:
    """(inside a sub-table, value) of each argument of `step` that fills an `amount` or
    `int` role, read off the roles of its kind and of any `method` or `form` it names."""
    form, args, inside, found = STEP_KINDS[step.kind], step.args, False, []
    while True:
        found += [(inside, arg) for role, arg in zip(form.roles, args) if role in ("amount", "int")]
        if form.table is None:
            return found
        last = len(form.roles) - 1
        form, args, inside = form.table[args[last]], args[last + 1:], True


def _decoded_scripts():
    gen = load("gen")
    yield from (path.read_text() for path in corpus.SCRIPTS)
    for seed in (0, 1, 7, 90210):
        yield gen.fraud_diff(seed, actors=6, nftaas=6, tokens=6, transactions=80).text
        yield gen.spot(seed).text
        yield gen.nftaa_world(seed, actors=10, ops=30).text
        yield gen.queue_drain(seed, stakers=8).text


def test_every_number_argument_is_decoded_once_into_a_word():
    numbers = [number for text in _decoded_scripts()
               for step in parse_scenario(text).steps for number in _numbers(step)]
    assert [value for _, value in numbers
            if type(value) is not int or not 0 <= value < 2**256] == []
    assert any(inside for inside, _ in numbers)  # a `proxy ... stake` or `probe tba_address`
    assert len(numbers) > 500


def test_steps_compare_ignoring_line_numbers():
    assert Step("actor", ("a",), line=1) == Step("actor", ("a",), line=99)


def test_readme_scenario_block_names_every_step_kind():
    section = README.read_text().split("## Scenario scripts", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    named = {line.split()[0] for line in block.splitlines() if line[:1].isalpha()}
    assert named == set(STEP_KINDS)
