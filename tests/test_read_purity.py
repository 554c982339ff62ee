"""Reads are pure: a probe or an assert changes nothing it does not report.

Each corpus script, `tests/golden/failures.scn` and one script whose queue
drains through missed slots (so a read that draws from the ledger's
generator shows) is run once as written and then once per read inserted at
each top-level position: after the `set` lines (which are not steps),
outside every `begin`/`commit` group, and not directly before an `expect_*`
line, which would take the expectation away from the step it belongs to. In every lane, every other step must keep its
kind, status, error code, transaction count and detail, every other verdict
must stay as it was, and the event log and the final digest must not change.
"""

from nftaa_sim import ScenarioRunner, Step, parse_scenario
from tests.corpus import SCRIPTS

# seed 7 misses the first two slots, so the withdrawal lands in block 3
MISSED_SLOTS = ("set seed 7\nset missed_prob 0.5\nset unlock_delay 0\nactor a\n"
                "mintnftaa a n1 \"x\"\nfaucet n1 40eth\nstake a n1 32eth\nunstake a n1\n"
                + "advance 1\n" * 4)
LANES = ("native", "nftaa", "tba")
# line 0 marks the inserted read: the parser numbers real lines from 1
READS = (Step("probe", ("counts",)), Step("probe", ("locked",)),
         Step("assert_digest", ("0" * 64,)))


def _observed(script, lane: str):
    report = ScenarioRunner(script, "purity", lane).run()
    outcomes = [(o.line, o.kind, o.status, o.code, o.tx_count, o.detail)
                for o in report.outcomes if o.line]
    verdicts = [(v.line, v.description, v.passed) for v in report.verdicts if v.line]
    return outcomes, verdicts, report.events, report.final_digest


def _read_positions(steps) -> list[int]:
    """Indices a read may be inserted before (len(steps) appends it)."""
    positions, depth = [], 0
    for index, step in enumerate(steps):
        if depth == 0 and not step.kind.startswith("expect_"):
            positions.append(index)
        depth += {"begin": 1, "commit": -1}.get(step.kind, 0)
    return positions + [len(steps)]


def test_inserted_reads_change_nothing_else():
    runs = 0
    scripts = {path.name: path.read_text() for path in SCRIPTS} | {"missed_slots": MISSED_SLOTS}
    for name, text in scripts.items():
        script = parse_scenario(text)
        steps = script.steps
        baseline = {lane: _observed(script, lane) for lane in LANES}
        for position in _read_positions(steps):
            for read in READS:
                probed = script._replace(steps=steps[:position] + (read,) + steps[position:])
                for lane in LANES:
                    assert _observed(probed, lane) == baseline[lane], \
                        f"{name} lane={lane}: {read.kind} {read.args[0][:8]} " \
                        f"before step {position}"
                    runs += 1
    assert runs >= 1_000, f"only {runs} runs"
