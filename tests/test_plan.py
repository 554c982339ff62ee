"""The plan of a script, built once and run by every lane, against the walk it replaced.

Before the plan, `ScenarioRunner.run` found each lane's expectations and each
group's `commit` itself, every run. That walk is kept here as the oracle: over
the corpus, the scripts kept next to the golden transcripts and generated
`fraud_diff`, `nftaa_world`, `spot` and `queue_drain` scripts, every unit of
the plan must hold the same step and group, be reported as a group exactly
when the walk took one at its `begin`, and carry for each lane the
expectation the walk found.
"""

from nftaa_sim import parse_scenario
from nftaa_sim.scenario import EXECUTABLE, build_plan
from tests.corpus import SCRIPTS
from tests.perfbench_modules import load

LANES = {"native": "expect_error", "nftaa": "expect_error", "tba": "expect_tba"}
EXPECTS = ("expect_error", "expect_tba")


def _walked(steps, wanted: str) -> list[tuple]:
    """(step, group, grouped, expectation) per unit, as the runner's loop found them."""
    expectations = {i - (steps[i - 1].kind in EXPECTS): step
                    for i, step in enumerate(steps) if step.kind == wanted}
    units, index = [], 0
    while index < len(steps):
        step, group, grouped = steps[index], steps[index:index + 1], False
        index += 1
        if step.kind == "begin":
            end = next(i for i in range(index, len(steps)) if steps[i].kind == "commit")
            group, step, grouped = steps[index:end], steps[end], True
            index = end + 1
        units.append((step, group, grouped,
                      expectations.get(index) if step.kind in EXECUTABLE else None))
    return units


def _planned(steps, wanted: str) -> list[tuple]:
    """The same, read from the plan as `run` reads it."""
    return [(step, group, step.kind == "commit",
             expect_tba if wanted == "expect_tba" else expect_error)
            for step, group, expect_error, expect_tba in build_plan(steps)]


def _positions(steps, units) -> list[tuple]:
    """Each step named by its index in the script, so identity, not equality, counts."""
    at = {id(step): index for index, step in enumerate(steps)}
    return [(at[id(step)], [at[id(inner)] for inner in group], grouped,
             None if expectation is None else at[id(expectation)])
            for step, group, grouped, expectation in units]


def test_the_plan_gives_each_unit_the_group_and_expectations_the_walk_found():
    gen = load("gen")
    texts = {path.name: path.read_text() for path in SCRIPTS}
    for seed in (1, 7, 11):
        for make in (gen.fraud_diff, gen.nftaa_world, gen.spot, gen.queue_drain):
            texts[f"{make.__name__}-{seed}"] = make(seed).text
    groups = expectations = looked_past = 0
    for name, text in texts.items():
        steps = parse_scenario(text).steps
        for lane, wanted in LANES.items():
            walked = _walked(steps, wanted)
            assert _positions(steps, _planned(steps, wanted)) == _positions(steps, walked), \
                f"{name} lane={lane}"
            groups += sum(grouped for _, _, grouped, _ in walked)
            expectations += sum(expectation is not None for *_, expectation in walked)
        looked_past += sum(a.kind in EXPECTS and b.kind in EXPECTS
                           for a, b in zip(steps, steps[1:]))
    assert groups > 1_000 and expectations > 2_000 and looked_past > 300, \
        (groups, expectations, looked_past)
