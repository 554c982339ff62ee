"""Per-step rollback purity in the runner.

A step reported `rolled_back`, or `not_comparable` because it has no analog
in its lane, must leave that lane's state digest as it was before the step.
The ledger's fuzz driver checks this per transaction; this checks it per
step above the ledger, where a group, a split tba-lane step or a label that
fails to resolve can each end a step early. It runs every corpus file, the
scripts kept next to the golden transcripts and three generated `spot`
scripts (`perfbench/gen.py`) in all three lanes.
"""

from nftaa_sim import ScenarioRunner, parse_scenario
from nftaa_sim.runner import NOT_COMPARABLE, ROLLED_BACK
from tests.corpus import SCRIPTS
from tests.perfbench_modules import load


def _spot_scripts() -> dict[str, str]:
    return {f"spot{seed}": load("gen").spot(seed).text for seed in (0, 7, 11)}


class _PurityRunner(ScenarioRunner):
    """Compares the digest around every step that reports it changed nothing."""

    checked = 0

    def _run_step(self, step, group):
        before = self.ledger.state_digest()
        outcome = super()._run_step(step, group)
        if outcome.status in (ROLLED_BACK, NOT_COMPARABLE):
            assert self.ledger.state_digest() == before, \
                f"{self.report.name} lane={self.lane}: {outcome.render()}"
            self.checked += 1
        return outcome


def test_failed_steps_leave_the_digest_unchanged():
    scripts = {path.stem: path.read_text() for path in SCRIPTS} | _spot_scripts()
    checked = 0
    for name, text in scripts.items():
        script = parse_scenario(text)
        for lane in ("native", "nftaa", "tba"):
            runner = _PurityRunner(script, name, lane)
            runner.run()
            checked += runner.checked
    assert checked >= 200, f"only {checked} failed steps checked"
