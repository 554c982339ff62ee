"""Scripts from the benchmark's generator pass the verdicts its own model predicts.

`perfbench/gen.py` writes each script together with the `expect_*` and
`assert_*` lines that its model of every lane predicts. Small instances,
over Hypothesis-drawn seeds, go through the command each generator models:
`nftaa_world` through `run`, `fraud_diff` and `spot` through `diff` (both
lanes). Every verdict must pass, each lane must evaluate as many verdicts
as the model wrote, and parse -> serialize -> parse must give the script
back. A failure means the runner or the model is wrong.
"""

from hypothesis import given, settings, strategies as st

from nftaa_sim import parse_scenario, serialize_scenario
from nftaa_sim.runner import run_differential, run_scenario
from tests.perfbench_modules import load

gen = load("gen")

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _parsed(generated):
    script = parse_scenario(generated.text)
    assert parse_scenario(serialize_scenario(script)) == script
    return script


def _all_pass(report, expected: int):
    assert [v for v in report.verdicts if not v.passed] == []
    assert len(report.verdicts) == expected


@settings(max_examples=50, deadline=None)
@given(SEEDS)
def test_generated_world_passes_under_run(seed):
    generated = gen.nftaa_world(seed, actors=10, ops=30)
    report = run_scenario(_parsed(generated), name="world", seed=seed)
    _all_pass(report, generated.verdicts["nftaa"])


@settings(max_examples=50, deadline=None)
@given(SEEDS)
def test_generated_fraud_diff_passes_in_both_lanes(seed):
    generated = gen.fraud_diff(seed, actors=6, nftaas=6, tokens=6, transactions=80)
    result = run_differential(_parsed(generated), name="fraud", seed=seed)
    _all_pass(result.nftaa, generated.verdicts["nftaa"])
    _all_pass(result.tba, generated.verdicts["tba"])


@settings(max_examples=50, deadline=None)
@given(SEEDS)
def test_generated_spot_passes_in_both_lanes(seed):
    generated = gen.spot(seed)
    result = run_differential(_parsed(generated), name="spot", seed=seed)
    _all_pass(result.nftaa, generated.verdicts["nftaa"])
    _all_pass(result.tba, generated.verdicts["tba"])
