"""Scenario runner: lanes, groups, expectations, reports, differentials."""

import statistics
import time
from collections import Counter

import pytest

from nftaa_sim import (ZERO_ADDRESS, ErrorCode, EventKind, ScenarioRunner, parse_scenario,
                       run_differential, run_scenario)
from nftaa_sim.ops import PROXY_METHODS
from nftaa_sim.runner import _CLAIMS, _HANDLERS, LANES, DiffEntry
from nftaa_sim.scenario import EXECUTE_METHOD, PROBE_FORMS, PROXY_FORMS, STEP_KINDS, build_plan
from tests.corpus import ROOT, SCRIPTS
from tests.perfbench_modules import load


def run_text(text, lane="native", seed=None):
    return run_scenario(parse_scenario(text), name="test", lane=lane, seed=seed)


def test_basic_flow_exits_zero():
    report = run_text(
        'actor alice\n'
        'mintnftaa alice n1 "hello"\n'
        'assert_event NewNFTAA token_id=1 creator=@alice\n'
        'assert_account n1 n1\n'
    )
    assert report.exit_code == 0
    assert report.final_digest


def test_unexpected_failure_fails_the_scenario():
    report = run_text('actor alice\nmintnftaa alice n1 ""\n')
    assert report.exit_code == 1
    assert any("unexpected failure EmptyNote" in v.description
               for v in report.verdicts)


def test_expected_failure_passes():
    report = run_text('actor alice\nmintnftaa alice n1 ""\nexpect_error EmptyNote\n')
    assert report.exit_code == 0


def test_wrong_error_code_fails():
    report = run_text('actor alice\nmintnftaa alice n1 ""\nexpect_error NoteTooLarge\n')
    assert report.exit_code == 1


def test_expected_error_but_step_committed_fails():
    report = run_text('actor alice\nmintnftaa alice n1 "fine"\nexpect_error EmptyNote\n')
    assert report.exit_code == 1


def test_group_is_one_transaction():
    # the passing transfer rolls back together with the failing proxy call
    report = run_text(
        'actor alice\n'
        'actor bob\n'
        'faucet alice 10eth\n'
        'mintnftaa bob n1 "owned by bob"\n'
        'begin\n'
        'proxy alice n1 noop\n'
        'commit\n'
        'expect_error NotNftOwner\n'
        'assert_balance alice 10eth\n'
    )
    assert report.exit_code == 0


def test_group_rollback_unbinds_labels():
    report = run_text(
        'actor alice\n'
        'begin\n'
        'mintnftaa alice n1 "x"\n'
        'fail\n'
        'commit\n'
        'expect_error InjectedFailure\n'
        'proxy alice n1 noop\n'
        'expect_error UnknownAccount\n'
    )
    assert report.exit_code == 0


def test_not_comparable_group_unbinds_labels():
    # `x` was bound ahead of a group that never ran; the next mint creates
    # the account `x` would have named, so a leaked `x` reads its balance
    report = run_text(
        'actor alice\n'
        'begin\n'
        'mintnftaa alice x "a"\n'
        'tbacall alice x noop\n'
        'commit\n'
        'expect_error NotComparable\n'
        'mintnftaa alice z "b"\n'
        'faucet z 5eth\n'
        'assert_balance x 0\n',
        lane="nftaa")
    assert report.verdicts[-1].description == "assert_balance raised UnknownAccount"


def test_labels_usable_within_their_creating_group():
    report = run_text(
        'actor alice\n'
        'faucet alice 5eth\n'
        'begin\n'
        'mintnftaa alice n1 "x"\n'
        'proxy alice n1 noop\n'
        'commit\n'
        'assert_account n1 n1\n'
    )
    assert report.exit_code == 0


def test_labels_bound_ahead_in_a_group_take_the_ids_the_receipt_reports():
    # mints before the group offset both counters; inside it each mint's label
    # takes its token id and address from the running counts of the group
    runner = ScenarioRunner(parse_scenario(
        'actor alice\n'
        'minttoken alice t0 "p"\n'
        'mintnftaa alice n0 "q"\n'
        'begin\n'
        'minttoken alice t1 "a"\n'
        'mintnftaa alice n1 "b"\n'
        'minttoken alice t2 "c"\n'
        'mintnftaa alice n2 "d"\n'
        'createtba alice t2 0 b1\n'
        'proxy alice n1 noop\n'
        'tbacall alice b1 noop\n'
        'transfertoken alice t1 n2\n'
        'commit\n'), "test", "native")
    report = runner.run()
    assert report.exit_code == 0 and report.outcomes[-1].status == "committed"
    created = next(e for e in report.events if e.kind is EventKind.TBA_CREATED)
    group = [e for e in report.events if e.tx_id == created.tx_id]
    minted = [e.fields["token_id"] for e in group
              if e.kind is EventKind.TRANSFER and e.fields["from"] == ZERO_ADDRESS]
    accounts = [(e.fields["token_id"], e.fields["account"])
                for e in group if e.kind is EventKind.NEW_NFTAA]
    assert [runner.token_of(label) for label in ("t1", "n1", "t2", "n2")] == minted
    assert [(runner.token_of(n), runner.address_of(n)) for n in ("n1", "n2")] == accounts
    assert (runner.token_of("b1"), runner.address_of("b1")) \
        == (created.fields["token_id"], created.fields["account"])


def test_a_group_of_mints_costs_time_linear_in_its_size():
    """A mint in a group takes its id from a running count, with no rescan of the steps
    before it: one native-lane transaction of 4,000 mints stays within 3x the time of
    the tba lane, which submits them one by one (about 30x when each mint rescanned)."""
    script = parse_scenario("actor a\nbegin\n"
                            + "".join(f'minttoken a t{i} "x"\n' for i in range(4_000)) + "commit\n")

    def median_s(lane):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert run_scenario(script, lane=lane).exit_code == 0
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    assert median_s("native") < 3 * median_s("tba")


def test_reports_are_byte_identical_across_runs():
    text = (
        'set seed 5\n'
        'set unlock_delay 3\n'
        'set missed_prob 0.2\n'
        'actor alice\n'
        'mintnftaa alice n1 "d"\n'
        'faucet n1 40eth\n'
        'stake alice n1 32eth\n'
        'advance 3\n'
        'unstake alice n1\n'
        'advance 20\n'
    )
    one = run_text(text).to_text().encode()
    two = run_text(text).to_text().encode()
    assert one == two


def test_an_unknown_lane_is_refused_before_any_step_runs():
    # a script with no transaction used to run to exit=0 under `bogus`, and one with
    # a transaction to raise a bare KeyError at that step
    for text in ('actor alice\nassert_balance alice 0\n', 'actor alice\nmintnftaa alice n1 "x"\n'):
        with pytest.raises(ValueError, match="expected native, nftaa, tba"):
            run_scenario(parse_scenario(text), lane="bogus")


def test_seed_override_changes_the_report_header():
    report = run_text("set seed 5\nactor alice\n", seed=9)
    assert report.seed == 9


def test_queue_report_step():
    report = run_text("queue_report 800000 closed\nqueue_report 800000 simulate\n")
    details = [o.detail for o in report.outcomes]
    assert details[0] == "drained_in_blocks=50000 days=6.944"
    assert details[1] == details[0]  # simulate agrees at p=0


def test_tba_lane_splits_creation():
    report = run_text('actor alice\nmintnftaa alice n1 "x"\nexpect_tba ok\n',
                      lane="tba")
    assert report.exit_code == 0
    mint = next(o for o in report.outcomes if o.kind == "mintnftaa")
    assert mint.tx_count == 2
    assert "mint=committed" in mint.detail and "account=committed" in mint.detail


def test_tba_lane_group_aborts_after_first_failure():
    runner = ScenarioRunner(parse_scenario(
        'actor alice\n'
        'actor bob\n'
        'mintnftaa alice n1 "x"\n'
        'expect_tba ok\n'
        'begin\n'
        'fail\n'
        'transfernftaa alice n1 bob\n'
        'commit\n'
        'expect_tba InjectedFailure\n'
        'minttoken alice t1 "y"\n'
        'createtba alice t1 1 a1\n'
        # the ledger rolls back a step that binds a label, after a step that committed
        'begin\n'
        'minttoken alice t2 "z"\n'
        'createtba alice t1 1 a2\n'
        'transfertoken alice t2 bob\n'
        'commit\n'
        'expect_tba AlreadyDeployed\n'
        'faucet a2 5\n'
        'expect_tba UnknownAccount\n'), name="test", lane="tba")
    report = runner.run()
    assert report.exit_code == 0
    first, second = [o for o in report.outcomes if o.kind == "commit"]
    assert "transfernftaa=skipped" in first.detail
    assert (second.status, second.tx_count, second.detail) == \
        ("partial", 2, "seq=minttoken=committed,createtba=AlreadyDeployed,transfertoken=skipped")
    assert "a2" not in runner.labels  # so `faucet a2` rolled back UnknownAccount
    assert runner.token_of("t2") == 3 and runner.address_of("a1")


def test_tba_lane_group_led_by_a_step_without_analog_rolls_back():
    # alone, upgrade is NotComparable; leading a group, it is the failure
    # that skips the rest
    report = run_text(
        'actor alice\n'
        'mintnftaa alice n1 "x"\n'
        'begin\n'
        'upgrade alice n1 2\n'
        'proxy alice n1 noop\n'
        'commit\n'
        'expect_tba NotComparable\n',
        lane="tba")
    assert report.exit_code == 0
    commit = next(o for o in report.outcomes if o.kind == "commit")
    assert (commit.status, commit.tx_count, commit.detail) == \
        ("rolled_back", 0, "seq=upgrade=NotComparable,proxy=skipped")


def test_interrupt_lands_in_the_creation_seam():
    text = (
        'actor alice\n'
        'begin\n'
        'mintnftaa alice n1 "x"\n'
        'interrupt\n'
        'commit\n'
        'expect_error InjectedFailure\n'
        'expect_tba partial\n'
        'probe counts\n'
    )
    nftaa = run_text(text, lane="nftaa")
    tba = run_text(text, lane="tba")
    assert nftaa.exit_code == 0 and tba.exit_code == 0
    assert "tokens=0" in nftaa.outcomes[-1].detail     # nothing survived
    assert "tokens=1" in tba.outcomes[-1].detail       # orphan token
    assert "tba_accounts=0" in tba.outcomes[-1].detail  # and no account
    commit = next(o for o in tba.outcomes if o.kind == "commit")
    assert "account=skipped" in commit.detail


def test_differential_fraud_scenario():
    text = (
        'actor alice\n'
        'actor buyer\n'
        'mintnftaa alice n1 "box"\n'
        'expect_tba ok\n'
        'faucet n1 10eth\n'
        'begin\n'
        'withdraw alice n1 alice 10eth\n'
        'transfernftaa alice n1 buyer\n'
        'commit\n'
        'expect_error FraudGuard\n'
        'expect_tba ok\n'
    )
    result = run_differential(parse_scenario(text), name="fraud")
    assert result.exit_code == 0
    assert "fraud-guard" in result.claims
    fraud_entry = next(e for e in result.entries if e.claim == "fraud-guard")
    assert "FraudGuard" in fraud_entry.nftaa
    assert fraud_entry.tba.startswith("committed")


def test_differential_reports_counterfactual_claim():
    text = (
        'actor alice\n'
        'minttoken alice t1 "p"\n'
        'expect_tba ok\n'
        'probe tba_address t1 7\n'
        'expect_error NotComparable\n'
        'createtba alice t1 7 b1\n'
        'expect_error NotComparable\n'
        'expect_tba ok\n'
        'probe tba_address t1 7\n'
        'expect_error NotComparable\n'
    )
    result = run_differential(parse_scenario(text), name="cf")
    assert result.exit_code == 0
    assert result.claims == ["counterfactual-address"]
    probes = [o.detail for o in result.tba.outcomes
              if o.kind == "probe" and o.detail.startswith("tba_address=")]
    assert len(probes) == 2 and probes[0] == probes[1]  # stable pre/post deploy
    created = next(e for e in result.tba.events if e.kind is EventKind.TBA_CREATED)
    assert created.payload["account"] == probes[0].removeprefix("tba_address=")


def test_differential_lanes_share_step_count():
    text = (
        'actor alice\n'
        'mintnftaa alice n1 "x"\n'
        'faucet n1 40eth\n'
        'stake alice n1 32eth\n'
        'upgrade alice n1 2\n'
        'expect_tba NotComparable\n'
    )
    result = run_differential(parse_scenario(text), name="sync")
    assert len(result.nftaa.outcomes) == len(result.tba.outcomes)
    assert result.exit_code == 0
    assert "upgradeability" in result.claims


def _claim_from_detail_text(outcome_a, outcome_b) -> str:
    """The reference classification: one rule after another, a probe's form read off
    the text of its readback."""
    codes = {outcome_a.code, outcome_b.code}
    if ErrorCode.FRAUD_GUARD.value in codes:
        return "fraud-guard"
    if ErrorCode.SELF_CUSTODY_HAZARD.value in codes:
        return "self-lock"
    kind = outcome_a.kind
    if kind in ("proxy", "tbacall") and ErrorCode.NOT_NFT_OWNER.value in codes:
        return "self-lock"
    if any(step.kind == "mintnftaa" for step in outcome_a.group):
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


def _entries_by_signature(result) -> list[DiffEntry]:
    """The reference comparison: every step whose two lane signatures differ, with the
    reference claim."""
    return [DiffEntry(a.index, a.line, a.kind, a.signature(), b.signature(),
                      _claim_from_detail_text(a, b))
            for a, b in zip(result.nftaa.outcomes, result.tba.outcomes)
            if a.signature() != b.signature()]


def test_differential_compares_what_the_signatures_compare():
    """The same entries as the reference, claims included: the `_CLAIMS` table gives
    every diverging step the claim that `_claim_from_detail_text` gives it."""
    gen = load("gen")
    scripts = {path.name: path.read_text() for path in SCRIPTS}
    for seed in range(21):
        scripts[f"fraud_diff-{seed}"] = gen.fraud_diff(seed).text
        scripts[f"spot-{seed}"] = gen.spot(seed).text
    compared = 0
    for name, text in scripts.items():
        result = run_differential(parse_scenario(text), name=name)
        assert result.entries == _entries_by_signature(result), name
        compared += len(result.entries)
    assert compared > 4_000


def test_native_lane_runs_tba_steps_directly():
    report = run_text(
        'actor alice\n'
        'minttoken alice t1 "p"\n'
        'createtba alice t1 0 b1\n'
        'faucet b1 2eth\n'
        'tbacall alice b1 transfer_value alice 1eth\n'
        'assert_balance alice 1eth\n'
    )
    assert report.exit_code == 0


def test_native_lane_group_calls_the_registry_account_it_creates():
    # the account does not exist until the group commits; the label's
    # creating step, not the ledger, says it is a registry-style account
    report = run_text(
        'actor alice\n'
        'minttoken alice t1 "p"\n'
        'begin\n'
        'createtba alice t1 0 b1\n'
        'tbacall alice b1 noop\n'
        'commit\n'
    )
    commit = next(o for o in report.outcomes if o.kind == "commit")
    assert (commit.status, commit.code) == ("committed", None)
    assert report.exit_code == 0


def test_staking_sugar_routes_by_account_type():
    report = run_text(
        'set unlock_delay 2\n'
        'actor alice\n'
        'minttoken alice t1 "p"\n'
        'createtba alice t1 0 b1\n'
        'faucet b1 40eth\n'
        'stake alice b1 32eth\n'
        'advance 2\n'
        'unstake alice b1\n'
        'advance 1\n'
        'assert_balance b1 40eth\n'
    )
    assert report.exit_code == 0


def test_assert_digest_step():
    probe = run_text('actor alice\nmintnftaa alice n1 "x"\n')
    text = ('actor alice\nmintnftaa alice n1 "x"\n'
            f'assert_digest {probe.final_digest}\n')
    assert run_text(text).exit_code == 0
    wrong = 'actor alice\nassert_digest ' + '0' * 64 + '\n'
    assert run_text(wrong).exit_code == 1


def test_assert_event_requires_the_key():
    # a Transfer event has no `bogus` key, so it must not match the text None
    report = run_text('actor alice\nfaucet alice 5\n'
                      'assert_event Transfer to=@alice\n'
                      'assert_event Transfer bogus=None\n')
    assert [(v.line, v.passed) for v in report.verdicts] == [(3, True), (4, False)]
    assert report.exit_code == 1


@pytest.mark.parametrize("pairs", ["amount=7 amount=5", "to=@b to=@a"])
def test_assert_event_requires_every_pair_of_a_repeated_key(pairs):
    # the one Transfer has amount 5 and goes to a: no event matches both values
    report = run_text(f'actor a\nactor b\nfaucet a 5\nassert_event Transfer {pairs}\n')
    assert [verdict.passed for verdict in report.verdicts] == [False]
    assert report.exit_code == 1
    if pairs.startswith("amount"):  # written as a dict's repr would be, the key twice
        assert report.verdicts[0].description == \
            "event Transfer matching {'amount': '7', 'amount': '5'} not found"


def test_every_step_kind_and_probe_form_has_exactly_one_handler():
    # a `set` line becomes config, never a step, and `run` takes a `begin` with
    # its group; every other kind the parser emits is a step with a handler
    script = parse_scenario('set seed 1\nactor a\nbegin\nfail\ncommit\n')
    assert [step.kind for step in script.steps] == ["actor", "begin", "fail", "commit"]
    keys = Counter([*STEP_KINDS.keys() - {"set", "begin"}, *PROBE_FORMS])
    assert keys == Counter(_HANDLERS.keys())  # a form named like a kind would count twice
    assert all(getattr(ScenarioRunner, handler.__name__) is handler
               for handler in _HANDLERS.values())


def test_the_proxy_method_tables_agree():
    # a method the parser took and the ledger did not know would crash `run`
    assert PROXY_FORMS.keys() == PROXY_METHODS
    assert {method for method in EXECUTE_METHOD.values() if method} <= PROXY_METHODS


def test_no_analog_is_reported_before_any_label_is_resolved():
    # the group leaves `t1` unbound in the nftaa lane only (the tba lane
    # commits its mint); the empty note leaves `n1` unbound in both lanes
    text = (
        'actor a\n'
        'begin\n'
        'minttoken a t1 "x"\n'
        'fail\n'
        'commit\n'
        'probe binding t1\n'
        'probe tba_address t1 0\n'
        'createtba a t1 0 b1\n'
        'mintnftaa a n1 ""\n'
        'upgrade a n1 1\n'
    )
    nftaa = {o.line: o for o in run_text(text, lane="nftaa").outcomes}
    tba = {o.line: o for o in run_text(text, lane="tba").outcomes}
    assert nftaa[6].signature() == "rolled_back:UnknownAccount"  # t1 is unbound
    assert tba[6].signature() == "ok:binding=none"                # t1 is bound
    assert nftaa[7].signature() == "not_comparable:NotComparable"
    assert nftaa[8].signature() == "not_comparable:NotComparable"
    assert nftaa[10].signature() == "rolled_back:UnknownAccount"  # n1 is unbound
    assert tba[10].render().endswith(
        "status=not_comparable code=NotComparable seq=upgrade=NotComparable")


def test_every_claim_key_is_a_code_kind_or_form_and_every_claim_is_documented():
    keys = {*STEP_KINDS, *PROBE_FORMS, *(code.value for code in ErrorCode)}
    assert set(_CLAIMS) <= keys
    readme = (ROOT / "README.md").read_text()
    assert all(f"`{claim}`" in readme for claim in _CLAIMS.values())


class _CheckedRunner(ScenarioRunner):
    """A runner that fails if a label ever resolves to no address or no token: the
    parser gives each role only labels of a kind that has one."""

    def address_of(self, label):
        address = super().address_of(label)
        if address is None:
            raise AssertionError(f"{label!r} resolved to no address")
        return address

    def token_of(self, label):
        token_id = super().token_of(label)
        if token_id is None:
            raise AssertionError(f"{label!r} resolved to no token")
        return token_id


def test_typed_roles_never_resolve_a_label_to_nothing():
    gen = load("gen")
    scripts = {path.name: path.read_text() for path in SCRIPTS}
    for seed in range(5):
        scripts[f"fraud_diff-{seed}"] = gen.fraud_diff(seed).text
        scripts[f"spot-{seed}"] = gen.spot(seed).text
        scripts[f"nftaa_world-{seed}"] = gen.nftaa_world(seed, actors=40, ops=120).text
    scripts["queue_drain-0"] = gen.queue_drain(0).text
    steps = 0
    for name, text in scripts.items():
        script = parse_scenario(text)
        plan = build_plan(script.steps)
        for lane in LANES:
            report = _CheckedRunner(script, name, lane).run(plan)
            steps += len(report.outcomes)
    assert steps > 10_000
