"""Benchmark of the nftaa-sim simulator: seeded workloads through the public CLI.

    python3 perfbench/run.py --workload all --seed 7 --seconds 40 --trace 0

Run from the root of an nftaa-sim checkout. The benchmark generates its
inputs from `--seed`, then starts one measured process after another
(perfbench/worker.py, never two at once) until `--seconds` have passed.
Each process imports `nftaa_sim` from `src/`, runs the workload's CLI
invocations with stdout captured, and reports its timings. Every output
is checked; any failed check makes the run incorrect and the exit code 1.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics (medians over the processes of the run). With
`--trace 1` the run alternates untraced and traced processes and reports
the per-layer metrics instead. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench_run")
SETUP_PROBES = 5          # set-up-only processes per run, besides one warm-up
MIN_SAMPLES = 3           # measured processes per run, even past --seconds
HARD_STOP_S = 150         # start no process after this, whatever --seconds says
DEADLINE_S = 175          # kill a process still running this long after the start
PER_BLOCK_CAP = 16
BLOCKS_PER_DAY = 7_200
DRAIN_TOLERANCE = 0.01    # simulated drain vs the closed form, at p = 0.1
ALL_CLAIMS = ("fraud-guard", "creation-atomicity", "binding-visibility", "self-lock",
              "counterfactual-address", "upgradeability")

# Times are reported at a nominal machine speed: host seconds times
# REF_NOMINAL_S / (mean host seconds of worker.reference_s, run in the same
# process right before and after the timed calls). On the shared 2-core
# machine the benchmark was defined on, the speed of a fixed task drifted by
# up to 2x within a minute, and raw run-to-run spreads reached 0.2-0.3; the
# reference drifts with the machine, and dividing it out brought them to
# 0.04-0.08 (README.md). Raw host times are printed too.
REF_NOMINAL_S = 0.1
TIME_UNITS = ("s", "us")

END_TO_END_UNITS = {"wall_s": "s", "tx_per_s": "1/s", "blocks_per_s": "1/s",
                    "peak_rss_mb": "MiB", "setup_s": "s"}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Invocation:
    """One CLI call of a workload and what its output must show."""

    argv: list[str]
    operations: int                  # script steps times lanes, or 1 for `queue`
    verdicts: int | None = None      # `run`: verdicts that must all pass
    claims: tuple[str, ...] = ()     # `diff`: claim classes that must be listed
    pending: int | None = None       # `queue`: entries to drain
    missed_prob: float = 0.0
    simulate_reports: dict[int, tuple[int, float]] = field(default_factory=dict)
    model: str = ""                  # transactions the generator's model expects

    @property
    def command(self) -> str:
        return self.argv[0]


def _script(directory: Path, name: str, generated: gen.Generated, command: str,
            claims: tuple[str, ...] = ()) -> Invocation:
    """Write a generated script and say what its output must show."""
    path = directory / name
    path.write_text(generated.text)
    missed = re.search(r"^set missed_prob (\S+)$", generated.text, re.M)
    missed_prob = float(missed.group(1)) if missed else 0.0
    reports = {number: (int(m.group(1)), missed_prob)
               for number, line in enumerate(generated.text.splitlines(), start=1)
               if (m := re.fullmatch(r"queue_report (\d+) simulate", line))}
    lanes = len(generated.verdicts)
    model = " ".join(f"{lane}_tx={tx} {lane}_rolled_back={generated.rolled_back[lane]}"
                     for lane, tx in generated.tx.items())
    return Invocation([command, str(path)], generated.steps * lanes,
                      verdicts=generated.verdicts.get("nftaa") if command == "run" else None,
                      claims=claims, simulate_reports=reports, model=model)


def _queue(pending: int, missed_prob: float, seed: int) -> Invocation:
    return Invocation(["queue", "--pending", str(pending), "--missed-prob", str(missed_prob),
                       "--simulate", "--seed", str(seed)], 1,
                      pending=pending, missed_prob=missed_prob)


def _spot(directory: Path, seed: int) -> list[Invocation]:
    """Small calls that touch every layer once, so no layer metric of any
    workload is a constant zero; they cost about 1% of a workload's time."""
    return [_script(directory, "spot.scn", gen.spot(seed), "diff"),
            _queue(1600, 0.0, seed)]


def plan_nftaa_world(directory: Path, seed: int) -> list[Invocation]:
    return [_script(directory, "world.scn", gen.nftaa_world(seed), "run")]


def plan_fraud_diff(directory: Path, seed: int) -> list[Invocation]:
    return [_script(directory, "fraud.scn", gen.fraud_diff(seed), "diff", ALL_CLAIMS)]


def plan_queue_drain(directory: Path, seed: int) -> list[Invocation]:
    return [_script(directory, "staking.scn", gen.queue_drain(seed), "run"),
            _queue(800_000, 0.1, seed)]


WORKLOADS = {
    "nftaa_world": plan_nftaa_world,
    "fraud_diff": plan_fraud_diff,
    "queue_drain": plan_queue_drain,
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _check_drain(blocks: int, pending: int, missed_prob: float, where: str) -> list[str]:
    """The drain time against the closed form ceil(pending / cap) / (1 - p)."""
    expected = math.ceil(pending / PER_BLOCK_CAP) / (1.0 - missed_prob)
    if abs(blocks - expected) > DRAIN_TOLERANCE * expected:
        return [f"{where}: drained in {blocks} blocks, closed form {expected:.0f}"]
    return []


def check_output(invocation: Invocation, text: str) -> tuple[list[str], int]:
    """Failed checks of one invocation's stdout, and its FAIL verdict count."""
    problems: list[str] = []
    fail_verdicts = 0
    where = " ".join(invocation.argv)
    if invocation.command == "run":
        fail_verdicts = len(re.findall(r"^verdict line=\d+ status=FAIL", text, re.M))
        summary = re.search(r"^verdicts_passed=(\d+) verdicts_failed=(\d+)$", text, re.M)
        if summary is None:
            problems.append(f"{where}: no verdict summary")
        elif int(summary.group(1)) != invocation.verdicts:
            problems.append(f"{where}: {summary.group(1)} verdicts passed, "
                            f"{invocation.verdicts} written")
        for line_no, (pending, missed_prob) in invocation.simulate_reports.items():
            report = re.search(rf"^step index=\d+ line={line_no} kind=queue_report "
                               rf"status=ok drained_in_blocks=(\d+) ", text, re.M)
            if report is None:
                problems.append(f"{where}: no queue_report on line {line_no}")
            else:
                problems += _check_drain(int(report.group(1)), pending, missed_prob,
                                         f"{where} line {line_no}")
    elif invocation.command == "diff":
        lanes = re.search(r"^nftaa_exit=(\d+) tba_exit=(\d+)$", text, re.M)
        claims = re.search(r"^claims=(\S+)$", text, re.M)
        if lanes is None or claims is None:
            problems.append(f"{where}: no diff summary")
        else:
            fail_verdicts = sum(int(code) != 0 for code in lanes.groups())
            missing = set(invocation.claims) - set(claims.group(1).split(","))
            if missing:
                problems.append(f"{where}: claims {sorted(missing)} missing")
    else:
        problems += _check_queue_trace(invocation, text)
    return problems, fail_verdicts


def _check_queue_trace(invocation: Invocation, text: str) -> list[str]:
    """The per-block trace: FIFO cap C2, consistency, and the drain time."""
    where = " ".join(invocation.argv)
    lines = text.splitlines()
    summary = re.fullmatch(r"drained_in_blocks=(\d+) days=(\d+\.\d{3})", lines[-1]) \
        if lines else None
    if summary is None:
        return [f"{where}: no summary line"]
    if not lines[0].startswith(f"mode=simulate pending={invocation.pending} "
                               f"per_block_cap={PER_BLOCK_CAP} "):
        return [f"{where}: unexpected header {lines[0]!r}"]
    blocks = int(summary.group(1))
    remaining = invocation.pending
    trace = lines[1:-1]
    if len(trace) != blocks:
        return [f"{where}: {len(trace)} trace lines for {blocks} blocks"]
    pattern = re.compile(r"block=(\d+) processed=(\d+) remaining=(\d+)")
    for number, line in enumerate(trace, start=1):
        match = pattern.fullmatch(line)
        if match is None:
            return [f"{where}: bad trace line {line!r}"]
        block, processed, left = map(int, match.groups())
        remaining -= processed
        if block != number or processed > PER_BLOCK_CAP or left != remaining:
            return [f"{where}: trace line {line!r} breaks the queue rules"]
    problems = [] if remaining == 0 else [f"{where}: {remaining} entries never drained"]
    if summary.group(2) != f"{blocks / BLOCKS_PER_DAY:.3f}":
        problems.append(f"{where}: days={summary.group(2)} for {blocks} blocks")
    return problems + _check_drain(blocks, invocation.pending, invocation.missed_prob,
                                   where)


# ---------------------------------------------------------------------------
# Measured processes
# ---------------------------------------------------------------------------

def spawn(directory: Path, mode: str, tag: str, deadline: float) -> dict:
    """Start one worker process, wait for it, and return its result.

    A process still running at `deadline` (a `time.monotonic()` value) is
    killed, and the benchmark fails.
    """
    result_path = directory / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "worker.py"), str(directory / "plan.json"),
               str(result_path), str(time.monotonic_ns()), mode]
    finished = subprocess.run(command, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    if finished.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker ({mode}) exited {finished.returncode}:\n"
                           f"{finished.stderr.strip()}")
    return json.loads(result_path.read_text())


@dataclass
class Sample:
    """What one measured (plain or traced) process gives."""

    wall_s: float        # raw host time
    speed: float         # nominal / host time of the reference before and after
    tx: int
    blocks: int
    peak_rss_mb: float
    setup_s: float       # raw host time
    setup_speed: float   # nominal / host time of the reference right after set-up
    stdout_bytes: int
    digests: list[str]
    problems: list[str]
    failed: int
    layers: dict | None = None


def measure(directory: Path, plan: list[Invocation], mode: str, tag: str,
            deadline: float) -> Sample:
    result = spawn(directory, mode, tag, deadline)
    problems: list[str] = []
    failed = 0
    for index, (invocation, outcome) in enumerate(zip(plan, result["invocations"])):
        where = " ".join(invocation.argv)
        if outcome["error"] is not None:
            problems.append(f"{where}: exception escaped\n{outcome['error']}")
            failed += 1
            continue
        if outcome["exit"] != 0:
            problems.append(f"{where}: exit code {outcome['exit']}")
            failed += 1
        text = (directory / f"{tag}.out{index}").read_text()
        checks, fail_verdicts = check_output(invocation, text)
        problems += checks
        failed += len(checks) + fail_verdicts
    wall_s = sum(outcome["wall_s"] for outcome in result["invocations"])
    speed = 2 * REF_NOMINAL_S / (result["ref_setup_s"] + result["ref_end_s"])
    sample = Sample(wall_s, speed, 0, 0, result["peak_rss_mb"], result["setup_s"],
                    REF_NOMINAL_S / result["ref_setup_s"],
                    sum(outcome["bytes"] for outcome in result["invocations"]),
                    [outcome["sha256"] for outcome in result["invocations"]],
                    problems, failed)
    if mode == "traced":
        dump = json.loads(Path(result["spans"]).read_text())
        sample.layers = {metric: (value * speed if unit in TIME_UNITS else value, unit)
                         for metric, (value, unit) in layer_metrics(dump, wall_s).items()}
        sample.tx = sample.layers["ledger.tx"][0]
        sample.blocks = (sample.layers["ledger.blocks_advanced"][0]
                         + sample.layers["staking.drain_blocks"][0])
    else:
        counts = result["counts"]
        sample.tx = counts["tx"]
        sample.blocks = counts["ledger_blocks"] + counts["drain_blocks"]
    return sample


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def environment() -> dict[str, str]:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            found = re.search(r"^model name\s*:\s*(.+)$", info.read(), re.M)
            cpu = found.group(1).strip() if found else cpu
    except OSError:
        pass
    return {"commit": _commit(), "python": platform.python_version(),
            "cpu": cpu, "nproc": str(os.cpu_count())}


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git; unknown outside git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _show(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def say(line: str) -> None:
    print(line, flush=True)


def run_workload(name: str, seed: int, seconds: float,
                 traced: bool) -> tuple[dict, int, int, bool]:
    """Measure one workload; returns (metrics, attempted, failed, correct)."""
    directory = WORK_DIR / f"{name}-seed{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    plan = WORKLOADS[name](directory, seed) + _spot(directory, seed)
    (directory / "plan.json").write_text(json.dumps([inv.argv for inv in plan]))
    say(f"workload {name} seed={seed} seconds={seconds:g} trace={int(traced)}")
    for inv in plan:
        if inv.command == "queue":
            say(f"input nftaa-sim {' '.join(inv.argv)}")
        else:
            digest = hashlib.sha256(Path(inv.argv[1]).read_bytes()).hexdigest()
            say(f"input {inv.argv[1]} sha256={digest} operations={inv.operations} "
                f"model: {inv.model}")

    setups, plain, traced_samples = _collect(directory, plan, seconds, traced)
    samples = plain + traced_samples
    setups += [(s.setup_s, s.setup_speed) for s in samples]
    problems = _cross_check(plan, plain, traced_samples)
    for problem in [p for s in samples for p in s.problems] + problems:
        say(f"CHECK FAILED {problem}")
    attempted = sum(inv.operations for inv in plan) * len(samples)
    failed = min(attempted, sum(s.failed for s in samples) + len(problems))
    correct = not problems and not any(s.problems for s in samples)

    end_to_end = {
        "wall_s": [s.wall_s * s.speed for s in plain],
        "tx_per_s": [s.tx / (s.wall_s * s.speed) for s in plain],
        "blocks_per_s": [s.blocks / (s.wall_s * s.speed) for s in plain],
        "peak_rss_mb": [s.peak_rss_mb for s in plain],
        "setup_s": [setup * speed for setup, speed in setups],
    }
    raw = {"wall_s": [s.wall_s for s in plain], "setup_s": [setup for setup, _ in setups],
           "reference_s": [REF_NOMINAL_S / speed for _, speed in setups]}
    for metric, values in end_to_end.items():
        q1, q2, q3 = _quartiles(values)
        say(f"metric {metric}={q2:.6g} {END_TO_END_UNITS[metric]} "
            f"(median of {len(values)}, q1={q1:.6g} q3={q3:.6g})")
    for metric, values in raw.items():
        q1, q2, q3 = _quartiles(values)
        say(f"raw {metric}={q2:.6g} s (host time, median of {len(values)}, "
            f"q1={q1:.6g} q3={q3:.6g})")
    say(f"metric fail_frac={failed / attempted:.6g} ratio "
        f"({failed} failed of {attempted} operations)")
    first = plain[0]
    say(f"record transactions={first.tx} blocks={first.blocks} "
        f"stdout_bytes={first.stdout_bytes}")
    for inv, digest in zip(plan, first.digests):
        say(f"record stdout_sha256 {digest} nftaa-sim {' '.join(inv.argv)}")
    if not traced:
        metrics = {m: (statistics.median(v), END_TO_END_UNITS[m])
                   for m, v in end_to_end.items()}
        return metrics, attempted, failed, correct
    return _layers(plain, traced_samples), attempted, failed, correct


def _collect(directory: Path, plan: list[Invocation], seconds: float,
             traced: bool) -> tuple[list[tuple[float, float]], list[Sample], list[Sample]]:
    """Set-up probes, then measured processes until `seconds` have passed."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    spawn(directory, "setup", "warmup", deadline)  # compiles bytecode once, as installs do
    setups = []
    for probe in range(SETUP_PROBES):
        result = spawn(directory, "setup", f"setup{probe}", deadline)
        setups.append((result["setup_s"], REF_NOMINAL_S / result["ref_setup_s"]))
    plain: list[Sample] = []
    traced_samples: list[Sample] = []
    took = {"plain": 0.0, "traced": 0.0}   # duration of the last process of each mode
    while True:
        mode = "traced" if traced and len(traced_samples) < len(plain) else "plain"
        elapsed = time.monotonic() - started
        enough = len(plain) >= MIN_SAMPLES and (not traced
                                                or len(traced_samples) >= MIN_SAMPLES)
        # stop before a process that would end past --seconds, so runs keep their length
        if (enough and elapsed + took[mode] > seconds) or (elapsed >= HARD_STOP_S and plain):
            return setups, plain, traced_samples
        began = time.monotonic()
        sample = measure(directory, plan, mode, mode, deadline)
        took[mode] = time.monotonic() - began
        (traced_samples if mode == "traced" else plain).append(sample)


def _cross_check(plan: list[Invocation], plain: list[Sample],
                 traced_samples: list[Sample]) -> list[str]:
    """Checks across the processes of one run: same inputs, same results."""
    samples = plain + traced_samples
    problems = [f"{' '.join(inv.argv)}: stdout differs between processes"
                for inv, digests in zip(plan, zip(*(s.digests for s in samples)))
                if len(set(digests)) != 1]
    if len({(s.tx, s.blocks) for s in samples}) != 1:
        problems.append("transaction or block counts differ between processes")
    if traced_samples:
        counts = {json.dumps({k: v for k, (v, unit) in s.layers.items() if unit == "count"})
                  for s in traced_samples}
        if len(counts) != 1:
            problems.append("layer counts differ between traced processes")
        busiest = traced_samples[0].layers["staking.max_per_block"][0]
        if busiest > PER_BLOCK_CAP:
            problems.append(f"a block processed {busiest} withdrawals, "
                            f"more than {PER_BLOCK_CAP}")
    return problems


def _layers(plain: list[Sample], traced_samples: list[Sample]) -> dict:
    """Per-layer metrics: counts (equal in every traced process) and median times."""
    layers = {metric: (value if unit == "count"
                       else statistics.median(s.layers[metric][0] for s in traced_samples),
                       unit)
              for metric, (value, unit) in traced_samples[0].layers.items()}
    traced_wall = statistics.median(s.wall_s * s.speed for s in traced_samples)
    untraced_wall = statistics.median(s.wall_s * s.speed for s in plain)
    top_level = layers.pop("trace.top_level_s")[0]
    layers["cli.stdout_bytes"] = (plain[0].stdout_bytes, "bytes")
    layers["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    layers["trace.coverage"] = (top_level / traced_wall, "ratio")
    for metric, (value, unit) in layers.items():
        say(f"layer {metric}={_show(value)} {unit}")
    say(f"trace overhead: traced wall_s {traced_wall:.4f} s / untraced {untraced_wall:.4f} s"
        f" = {traced_wall / untraced_wall:.3f} "
        f"(medians of {len(traced_samples)} and {len(plain)} processes)")
    say(f"trace coverage: top-level spans {top_level:.4f} s = "
        f"{top_level / traced_wall:.1%} of traced wall_s, "
        f"{top_level / untraced_wall:.1%} of untraced wall_s")
    for metric in ("ledger.tx_committed", "ledger.tx_rolled_back", "staking.withdrawals",
                   "staking.drain_blocks"):
        say(f"record {metric}={layers[metric][0]}")
    return layers


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path("src") / "nftaa_sim" / "cli.py").is_file():
        print("perfbench: run from the root of an nftaa-sim checkout "
              "(src/nftaa_sim/cli.py not found)", file=sys.stderr)
        return 2
    say("env " + " ".join(f"{k}={v!r}" for k, v in environment().items())
        + f" seed={args.seed}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        result, tried, broke, ok = run_workload(name, args.seed, args.seconds,
                                                bool(args.trace))
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in result.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
        attempted += tried
        failed += broke
        correct = correct and ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
