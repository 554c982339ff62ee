"""Command-line driver.

    nftaa-sim run FILE... [--seed N] [--digest] [--events OUT]
    nftaa-sim diff FILE... [--seed N] [--verbose]
    nftaa-sim queue --pending N [--missed-prob P] [--simulate] [--seed N] [--no-trace]

`run` and `diff` replay their files one after another in this process.
A command runs with the cyclic garbage collector off and leaves it as it found it.
Exit codes: 0 all verdicts passed, 1 any verdict failed, 2 parse, read or write error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from pathlib import Path

from .runner import run_differential, run_scenario
from .scenario import ScenarioParseError, parse_scenario
from .staking import BLOCKS_PER_DAY, WORD, QueueConfig, estimate_drain_time, simulate_drain


@functools.cache  # one parser per process: each build costs time and leaves cycles
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nftaa-sim",
                                     description="Deterministic NFT-as-account ledger simulator")
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="replay scenario files")
    run_cmd.add_argument("files", nargs="+", type=Path)
    run_cmd.add_argument("--seed", type=int, default=None,
                         help="override the script's seed")
    run_cmd.add_argument("--digest", action="store_true",
                         help="print only the final state digest per file")
    run_cmd.add_argument("--events", type=Path, default=None,
                         help="write the event log here (a directory when "
                              "multiple files are given)")

    diff_cmd = commands.add_parser("diff", help="run a scenario under both account styles")
    diff_cmd.add_argument("files", nargs="+", type=Path)
    diff_cmd.add_argument("--seed", type=int, default=None)
    diff_cmd.add_argument("--verbose", action="store_true",
                          help="also print both per-lane reports")

    queue_cmd = commands.add_parser("queue", help="withdrawal queue drain report")
    queue_cmd.add_argument("--pending", type=int, required=True)
    queue_cmd.add_argument("--missed-prob", type=float, default=0.0)
    queue_cmd.add_argument("--simulate", action="store_true",
                           help="run the queue to exhaustion instead of the closed form")
    queue_cmd.add_argument("--seed", type=int, default=0)
    queue_cmd.add_argument("--no-trace", action="store_true",
                           help="with --simulate, print only the summary line")
    return parser


def _replay(args) -> int:
    """Parse each file, then run or diff it and print the text; the worst exit code wins."""
    worst = 0
    for path in args.files:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as failure:
            reason = failure.strerror if isinstance(failure, OSError) else failure
            sys.stdout.write(f"read_error file={path} {reason}\n")
            worst = max(worst, 2)
            continue
        try:
            script = parse_scenario(source)
        except ScenarioParseError as failure:
            sys.stdout.write(f"parse_error file={path} line={failure.line} "
                             f"col={failure.column} {failure.message}\n")
            worst = max(worst, 2)
            continue
        if args.command == "diff":
            result = run_differential(script, name=path.stem, seed=args.seed)
            text = result.to_text()
            if args.verbose:
                text += result.nftaa.to_text() + result.tba.to_text()
        else:
            result = run_scenario(script, name=path.stem, seed=args.seed)
            if args.events is not None:
                out = args.events / f"{path.stem}.events" if len(args.files) > 1 else args.events
                try:
                    out.parent.mkdir(parents=True, exist_ok=True)
                    out.write_text("".join(e.render() + "\n" for e in result.events))
                except OSError as failure:
                    sys.stdout.write(f"write_error file={failure.filename or out} "
                                     f"{failure.strerror}\n")
                    worst = max(worst, 2)
            text = f"{path.stem} {result.final_digest}\n" if args.digest else result.to_text()
        sys.stdout.write(text)
        worst = max(worst, result.exit_code)
    return worst


def _shared_stem(files: list[Path]) -> str | None:
    """The first name stem that two different files share, or None."""
    owners = {}
    for path in files:
        if owners.setdefault(path.stem, path.resolve()) != path.resolve():
            return path.stem
    return None


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # a command leaves no cyclic garbage (tests/test_cyclic_garbage.py)
    try:
        return _command(argv)
    finally:
        if enabled:
            gc.enable()


def _command(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.events is not None and len(args.files) > 1:
        stem = _shared_stem(args.files)
        if stem is not None:
            parser.error(f"argument --events: two files would write {stem}.events")  # exits 2
    if args.seed is not None and args.seed < 0:  # random.Random would seed by abs(seed)
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")  # exits 2
    if args.command != "queue":
        return _replay(args)
    if not 0 <= args.pending < WORD:  # the bound of a script queue_report count; exits 2
        parser.error(f"argument --pending: must be >= 0 and below 2**256, got {args.pending}")
    try:
        config = QueueConfig(missed_slot_probability=args.missed_prob, rng_seed=args.seed)
    except ValueError as bad:
        parser.error(f"argument --missed-prob: {bad}")  # exits 2
    try:  # a simulated drain refuses a too-long backlog before it draws
        drain = (simulate_drain(args.pending, config, trace=not args.no_trace) if args.simulate
                 else estimate_drain_time(args.pending, config))
    except ValueError as bad:
        parser.error(f"argument --pending: {bad}")  # exits 2
    p = config.missed_slot_probability
    shown = f"{p:.3f}"  # three places, unless they read back as another p
    print(f"mode={'simulate' if args.simulate else 'closed'} "
          f"pending={args.pending} per_block_cap={config.per_block_cap} "
          f"blocks_per_day={BLOCKS_PER_DAY} "
          f"missed_prob={shown if float(shown) == p else repr(p)}")
    if args.simulate and not args.no_trace:
        sys.stdout.writelines(drain.trace_lines())
    print(drain.summary_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
