"""Command-line surface: exit codes, output shapes, multi-file runs, import cost."""

import gc
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nftaa_sim
from nftaa_sim import runner
from nftaa_sim.cli import main
from nftaa_sim.ledger import Ledger
from nftaa_sim.scenario import ScenarioParseError, parse_scenario
from nftaa_sim.staking import MAX_DRAIN_BLOCKS
from tests.corpus import SCRIPTS
from tests.perfbench_modules import load

GOOD = (
    'actor alice\n'
    'mintnftaa alice n1 "cli"\n'
    'assert_event NewNFTAA token_id=1\n'
)
FAILING = 'actor alice\nmintnftaa alice n1 ""\n'
BROKEN = 'actor alice\nfaucet mallory 5\n'


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "good.scn"
    path.write_text(GOOD)
    return path


def test_run_exit_zero(scenario_file, capsys):
    assert main(["run", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "scenario=good" in out
    assert "exit=0" in out


def test_run_exit_one_on_failed_verdict(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text(FAILING)
    assert main(["run", str(path)]) == 1


def test_run_exit_two_on_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text(BROKEN)
    assert main(["run", str(path)]) == 2
    out = capsys.readouterr().out
    assert "parse_error" in out
    assert "line=2" in out


def test_run_exit_two_on_bad_config_value(tmp_path, capsys):
    path = tmp_path / "config.scn"
    path.write_text("set per_block_cap 0\nactor alice\n")
    assert main(["run", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("parse_error") and "line=1 col=19" in out


@pytest.mark.parametrize("command", ["run", "diff"])
def test_missing_file_exits_two_and_goes_on(command, scenario_file, tmp_path, capsys):
    missing = tmp_path / "nosuch.scn"
    assert main([command, str(missing), str(scenario_file)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"read_error file={missing} No such file or directory\n")
    assert "good" in out  # the next file still ran


@pytest.mark.parametrize("command", ["run", "diff"])
def test_non_utf8_file_exits_two_and_goes_on(command, scenario_file, tmp_path, capsys):
    undecodable = tmp_path / "latin.scn"
    undecodable.write_bytes(b"\xffactor alice\n")
    assert main([command, str(undecodable), str(scenario_file)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"read_error file={undecodable} 'utf-8' codec can't decode "
                          "byte 0xff in position 0: invalid start byte\n")
    assert "good" in out


@pytest.mark.parametrize("line, column", [
    ("advance \u00b2", 9),
    ("queue_report \u00b2 closed", 14),
    ("advance " + "9" * 5000, 9),
    ("faucet alice " + "9" * 5000, 14),
    (f"createtba alice t1 {2**300} b1", 20),
    (f"queue_report {10**400} closed", 14),
    ("faucet alice " + "9" * 4290 + "eth", 14),
    (f"advance {2**256}", 9),
    (f"faucet alice {2**256}", 14),
], ids=["advance superscript", "queue_report superscript",
        "advance 5000 digits", "faucet 5000 digits", "createtba salt 2**300",
        "queue_report 10**400", "faucet 4290 nines eth", "advance 2**256",
        "faucet 2**256"])
def test_unconvertible_number_exits_two_at_parse_time(line, column, tmp_path, capsys):
    path = tmp_path / "number.scn"
    path.write_text(f'actor alice\nminttoken alice t1 "x"\n{line}\n', encoding="utf-8")
    assert main(["run", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"parse_error file={path} line=3 col={column} ")
    assert out.count("\n") == 1


def test_largest_word_runs_in_every_number_role(tmp_path, capsys):
    word = 2**256 - 1
    path = tmp_path / "word.scn"
    path.write_text(f'actor alice\nminttoken alice t1 "x"\ncreatetba alice t1 {word} b1\n'
                    f"probe tba_address t1 {word}\nqueue_report {word} closed\n"
                    f"faucet alice {word}\nadvance {word}\n")
    assert main(["run", str(path)]) == 0
    assert f"height={word}" in capsys.readouterr().out
    assert main(["diff", str(path)]) == 1  # createtba has no nftaa analog


def test_idle_advance_of_a_trillion_blocks_is_instant(tmp_path, capsys):
    path = tmp_path / "idle.scn"
    path.write_text("actor alice\nadvance 1000000000000\n")
    started = time.monotonic()
    assert main(["run", str(path)]) == 0
    assert time.monotonic() - started < 1.0
    assert "height=1000000000000" in capsys.readouterr().out


def test_run_digest_mode(scenario_file, capsys):
    assert main(["run", str(scenario_file), "--digest"]) == 0
    out = capsys.readouterr().out.strip()
    name, digest = out.split()
    assert name == "good"
    assert len(digest) == 64


def test_the_digest_is_hashed_only_where_it_is_printed(monkeypatch, capsys):
    calls = []
    state_digest = Ledger.state_digest

    def counted(ledger):
        calls.append(ledger)
        return state_digest(ledger)

    monkeypatch.setattr(Ledger, "state_digest", counted)
    for path in SCRIPTS:  # no script here has an assert_digest step
        hashed = {}
        for argv in (["diff"], ["diff", "--verbose"], ["run"], ["run", "--digest"]):
            calls.clear()
            main([*argv, str(path)])
            hashed[" ".join(argv)] = len(calls)
            out = capsys.readouterr().out
            if argv == ["run"]:
                final = out.split("final_digest=")[1].split()[0]
        assert hashed == {"diff": 0, "diff --verbose": 2, "run": 1, "run --digest": 1}, path
        assert out == f"{path.stem} {final}\n"


def test_the_plan_is_built_once_per_command(monkeypatch, capsys):
    # both lanes of a `diff` run one plan; `run` builds its own
    built = []
    build_plan = runner.build_plan

    def counted(steps):
        built.append(steps)
        return build_plan(steps)

    monkeypatch.setattr(runner, "build_plan", counted)
    for path in SCRIPTS:
        for command in ("diff", "run"):
            built.clear()
            main([command, str(path)])
            assert len(built) == 1, (command, path)
    capsys.readouterr()


def test_run_writes_event_log(scenario_file, tmp_path, capsys):
    out_file = tmp_path / "events.log"
    assert main(["run", str(scenario_file), "--events", str(out_file)]) == 0
    text = out_file.read_text()
    assert "NewNFTAA" in text


def test_run_multiple_files_parallel(tmp_path, capsys):
    paths = []
    for i in range(3):
        path = tmp_path / f"s{i}.scn"
        path.write_text(GOOD.replace("alice", f"alice{i}"))
        paths.append(str(path))
    events_dir = tmp_path / "events"
    code = main(["run", *paths, "--events", str(events_dir)])
    assert code == 0
    assert sorted(p.name for p in events_dir.iterdir()) == \
        ["s0.events", "s1.events", "s2.events"]


def test_events_of_two_files_with_one_stem_are_refused(tmp_path, capsys):
    # both would write x.events: the run is refused before any file runs
    paths = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        paths.append(tmp_path / name / "x.scn")
        paths[-1].write_text(GOOD)
    events = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main(["run", *map(str, paths), "--events", str(events)])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "two files would write x.events" in captured.err
    assert not events.exists()


def test_events_into_a_directory_exits_two(scenario_file, tmp_path, capsys):
    # one script: --events names the log file itself, here an existing directory
    assert main(["run", str(scenario_file), "--events", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"write_error file={tmp_path} Is a directory\n")
    assert "scenario=good" in out  # the run's report is still printed


def test_events_under_a_file_exits_two(scenario_file, tmp_path, capsys):
    # several scripts: --events names a directory, here an existing file
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["run", str(scenario_file), str(scenario_file), "--events", str(taken)])
    assert code == 2
    out = capsys.readouterr().out
    assert out.count(f"write_error file={taken} File exists\n") == 2
    assert out.count("scenario=good") == 2
    assert taken.read_text() == ""


def test_cli_import_loads_no_dataclasses():
    """Records are plain classes: the CLI's import builds none with `dataclasses`,
    which would also load `inspect`."""
    source = str(Path(nftaa_sim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": source}
    probe = ("import sys, nftaa_sim.cli\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout.strip()
    assert loaded == "[]"


def test_cli_import_stays_single_process():
    """The CLI replays in one process: importing it loads no process or thread pool."""
    source = str(Path(nftaa_sim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": source}
    probe = ("import sys, nftaa_sim.cli\n"
             "print(sorted({m.split('.')[0] for m in sys.modules} & "
             "{'multiprocessing', 'concurrent'}))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout.strip()
    assert loaded == "[]"


def test_run_output_is_deterministic(scenario_file, capsys):
    main(["run", str(scenario_file), "--seed", "3"])
    first = capsys.readouterr().out
    main(["run", str(scenario_file), "--seed", "3"])
    second = capsys.readouterr().out
    assert first.encode() == second.encode()


def test_worst_exit_code_wins(tmp_path, capsys):
    good = tmp_path / "good.scn"
    good.write_text(GOOD)
    bad = tmp_path / "bad.scn"
    bad.write_text(FAILING)
    assert main(["run", str(good), str(bad)]) == 1


def test_diff_command(tmp_path, capsys):
    path = tmp_path / "d.scn"
    path.write_text(
        'actor alice\n'
        'mintnftaa alice n1 "x"\n'
        'expect_tba ok\n'
        'probe binding n1\n'
    )
    assert main(["diff", str(path)]) == 0
    out = capsys.readouterr().out
    assert "claim=binding-visibility" in out
    assert "nftaa_exit=0 tba_exit=0" in out


def test_diff_verbose_includes_lane_reports(tmp_path, capsys):
    path = tmp_path / "d.scn"
    path.write_text('actor alice\nmintnftaa alice n1 "x"\nexpect_tba ok\n')
    assert main(["diff", str(path), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "lane=nftaa" in out and "lane=tba" in out


def test_diff_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text(BROKEN)
    assert main(["diff", str(path)]) == 2


def test_queue_closed_form(capsys):
    assert main(["queue", "--pending", "800000", "--missed-prob", "0"]) == 0
    out = capsys.readouterr().out
    assert "drained_in_blocks=50000 days=6.944" in out


@pytest.mark.parametrize("argv, message", [
    (["--pending", "10", "--missed-prob", "1.0"], "missed_slot_probability must be in [0, 1)"),
    (["--pending", "-5"], "argument --pending: must be >= 0"),
    (["--pending", "1" + "0" * 400], "argument --pending: must be >= 0 and below 2**256"),
    (["--pending", "1" + "0" * 400, "--simulate"], "must be >= 0 and below 2**256"),
], ids=["missed-prob 1.0", "pending -5", "pending 10**400", "simulate pending 10**400"])
def test_queue_exit_two_on_bad_missed_prob(argv, message, capsys):
    with pytest.raises(SystemExit) as caught:
        main(["queue", *argv])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "diff", "queue"])
def test_negative_seed_exits_two(command, scenario_file, capsys):
    """random.Random seeds an int by its absolute value: -3 would draw like 3."""
    target = ["--pending", "500"] if command == "queue" else [str(scenario_file)]
    with pytest.raises(SystemExit) as caught:
        main([command, *target, "--seed", "-3"])
    assert caught.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: must be >= 0, got -3" in captured.err
    assert "Traceback" not in captured.err


def test_queue_simulate_prints_trace_and_summary(capsys):
    assert main(["queue", "--pending", "40", "--simulate"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "block=1 processed=16 remaining=24"
    assert lines[2] == "block=2 processed=16 remaining=8"
    assert lines[3] == "block=3 processed=8 remaining=0"
    assert lines[4] == "drained_in_blocks=3 days=0.000"


@pytest.mark.parametrize("argv, digest", [
    ("--pending 800000 --missed-prob 0.1 --simulate --seed 7",
     "0e34f1636eb23a0e0918b30fc4ee1c9f4804de88f4b96f122ec467cfd9912289"),
    ("--pending 16001 --missed-prob 0.5 --simulate --seed 3",
     "ed8df4a35db58f1b7af5727e32a1bf569b1ad66a5868505adafea14415a97119"),
    ("--pending 1600 --missed-prob 0.0 --simulate",
     "b727bdeab7bb827d2a00887d4d680d89204a740c31a73af5b7e10b22d985f371"),
], ids=["800000 p=0.1", "16001 p=0.5", "1600 p=0"])
def test_queue_simulate_output_is_pinned(argv, digest, capsys):
    """The sha256 of the whole stdout: header, per-block trace and summary."""
    assert main(["queue", *argv.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", ["closed", "simulate"])
def test_queue_negative_zero_missed_prob_prints_as_zero(mode, capsys):
    argv = ["queue", "--pending", "32", "--missed-prob", "-0.0"]
    assert main(argv + ["--simulate"] * (mode == "simulate")) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == f"mode={mode} pending=32 per_block_cap=16 blocks_per_day=7200 missed_prob=0.000"


@pytest.mark.parametrize("missed, shown", [("0.9996", "0.9996"), ("0.0004", "0.0004"),
                                           ("0.3", "0.300")])
def test_queue_header_never_shows_another_missed_prob(missed, shown, capsys):
    """Three places where they read back as p; else every digit, so 0.9996 does not
    print as 1.000, a p that is refused."""
    assert main(["queue", "--pending", "1", "--missed-prob", missed]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == ("mode=closed pending=1 per_block_cap=16 blocks_per_day=7200 "
                      f"missed_prob={shown}")


def test_queue_simulate_no_trace(capsys):
    assert main(["queue", "--pending", "115200", "--simulate", "--no-trace"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "drained_in_blocks=7200 days=1.000"
    assert len(lines) == 2  # header + summary


def test_queue_simulate_empty_prints_header_and_summary(capsys):
    assert main(["queue", "--pending", "0", "--simulate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["mode=simulate pending=0 per_block_cap=16 blocks_per_day=7200 "
                     "missed_prob=0.000", "drained_in_blocks=0 days=0.000"]


def test_queue_simulate_beyond_the_drain_cap_exits_two(capsys):
    started = time.monotonic()
    with pytest.raises(SystemExit) as caught:
        main(["queue", "--pending", str(16 * MAX_DRAIN_BLOCKS + 1), "--simulate"])
    assert caught.value.code == 2
    assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --pending: a simulated drain of 160000001 entries takes about " \
        "10000001 blocks, more than 10000000" in captured.err


def test_queue_simulate_at_the_drain_cap_runs(capsys):
    assert main(["queue", "--pending", str(16 * MAX_DRAIN_BLOCKS), "--simulate",
                 "--no-trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "drained_in_blocks=10000000 days=1388.889"
    assert main(["queue", "--pending", str(10**12)]) == 0  # the closed form has no cap
    assert capsys.readouterr().out.endswith("drained_in_blocks=62500000000 days=8680555.556\n")


@pytest.mark.parametrize("settings", ["", "set missed_prob 0.999\n"],
                         ids=["p=0", "p=0.999"])
def test_queue_report_beyond_the_drain_cap_exits_two_at_parse_time(settings, tmp_path, capsys):
    path = tmp_path / "huge.scn"
    path.write_text(f"{settings}actor alice\nqueue_report 1000000000000 simulate\n")
    started = time.monotonic()
    assert main(["run", str(path)]) == 2
    assert time.monotonic() - started < 1.0
    out = capsys.readouterr().out
    line = settings.count("\n") + 2
    assert out.startswith(f"parse_error file={path} line={line} col=14 queue_report simulate: "
                          "a simulated drain of 1000000000000 entries takes about ")
    assert out.count("\n") == 1


def test_queue_report_at_the_drain_cap_parses(tmp_path, capsys):
    """The parse-time check reads the script's own `set` lines; closed reports stay unbounded."""
    at_cap = 1_000_000 * MAX_DRAIN_BLOCKS
    script = (f"set per_block_cap 1000000\nqueue_report {at_cap} simulate\n"
              f"queue_report {at_cap + 1} closed\n")
    assert [step.kind for step in parse_scenario(script).steps] == ["queue_report"] * 2
    with pytest.raises(ScenarioParseError, match="more than 10000000"):
        parse_scenario(f"set per_block_cap 1000000\nqueue_report {at_cap + 1} simulate\n")


# one proxy-account exit, then an advance of 10**11 blocks; at p = 1 - 10**-10 the exit
# is expected to drain in about 10**10 blocks, more than MAX_DRAIN_BLOCKS
EXIT_THEN_ADVANCE = (
    "set missed_prob {p}\n"
    "set unlock_delay 0\n"
    "actor alice\n"
    'mintnftaa alice n1 "stake"\n'
    "faucet n1 32eth\n"
    "stake alice n1 32eth\n"
    "assert_stake n1 32eth\n"
    "unstake alice n1\n"
    "advance 100000000000\n"
    "assert_balance n1 32eth\n"
)


def test_advance_past_the_exits_drain_bound_exits_two_at_parse_time(tmp_path, capsys):
    script = EXIT_THEN_ADVANCE.format(p="0.9999999999")
    with pytest.raises(ScenarioParseError):  # else `run` below would step for hours
        parse_scenario(script)
    path = tmp_path / "exit.scn"
    path.write_text(script)
    started = time.monotonic()
    assert main(["run", str(path)]) == 2
    assert time.monotonic() - started < 1.0
    out = capsys.readouterr().out
    assert out.startswith(f"parse_error file={path} line=9 col=9 advance: a drain of 1 exit(s) "
                          "takes about ")
    assert out.endswith(" blocks, more than 10000000\n") and out.count("\n") == 1


# the idle advance comes before the exit, so the blocks it advances bound nothing
ADVANCE_THEN_EXIT = EXIT_THEN_ADVANCE.format(p="0.9999999999").replace(
    "unstake alice n1\nadvance 100000000000\nassert_balance n1 32eth\n",
    "advance 100000000000\nunstake alice n1\nadvance 1000\nassert_stake n1 0\n")


# p = 0.99999989: about 9.1 million expected blocks, drawn a batch at a time
@pytest.mark.parametrize("script", [EXIT_THEN_ADVANCE.format(p="0.99999"), ADVANCE_THEN_EXIT,
                                    EXIT_THEN_ADVANCE.format(p="0.99999989")],
                         ids=["p=0.99999", "advance-before-the-exit", "p=0.99999989"])
def test_advance_within_the_exits_drain_bound_runs(script, tmp_path, capsys):
    path = tmp_path / "exit.scn"
    path.write_text(script)
    started = time.monotonic()
    assert main(["run", str(path)]) == 0
    assert time.monotonic() - started < 1.0
    assert "verdicts_passed=2 verdicts_failed=0" in capsys.readouterr().out


def test_queue_seeded_simulation_is_reproducible(capsys):
    args = ["queue", "--pending", "500", "--missed-prob", "0.3",
            "--simulate", "--seed", "11"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def _escape(*args, **kwargs):
    raise RuntimeError(f"escaped with the collector {'on' if gc.isenabled() else 'off'}")


# each way out of a `run`: its script (a path or the text), extra argv, outcome
EXITS = {
    "exit 0": (SCRIPTS[0], [], 0),
    "exit 1": (FAILING, [], 1),
    "exit 2 returned": (BROKEN, [], 2),
    "exit 2 by SystemExit": (GOOD, ["--seed", "-1"], "SystemExit 2"),
    "exception": (GOOD, [], "escaped with the collector off"),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["from enabled", "from disabled"])
@pytest.mark.parametrize("way_out", EXITS)
def test_a_command_leaves_the_collector_as_it_found_it(way_out, enabled, tmp_path,
                                                       monkeypatch, capsys):
    source, extra, outcome = EXITS[way_out]
    path = source if isinstance(source, Path) else tmp_path / "script.scn"
    if path is not source:
        path.write_text(source)
    if way_out == "exception":
        monkeypatch.setattr("nftaa_sim.cli.run_scenario", _escape)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            got = main(["run", str(path), *extra])
        except SystemExit as stop:
            got = f"SystemExit {stop.code}"
        except RuntimeError as escaped:
            got = str(escaped)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert (got, after) == (outcome, enabled)


def test_a_diff_command_starts_no_collection(tmp_path, capsys):
    """The benchmark's seed-7 `fraud_diff` plan, with the collector on: the
    command frees nothing (test_cyclic_garbage.py), so it runs no collection."""
    path = tmp_path / "fraud.scn"
    path.write_text(load("gen").fraud_diff(7).text)
    argv = ["diff", str(path)]
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.collect()  # no young count left over to trip a collection before main runs
    gc.callbacks.append(record)
    try:
        main(argv)
        during = len(started)  # allocates nothing the collector tracks
    finally:
        gc.callbacks.remove(record)
        if not was:
            gc.disable()
    assert during == 0, f"{during} collections, generations {started[:during]}"
