"""Metamorphic properties: two ways to run a script that must agree.

* Splitting each `advance N` into parts that add up to N gives the same
  events, final digest and exit code. This pins the idle-block jump of
  `Ledger.advance_blocks` to the block-at-a-time rule it stands for.
* A script that uses nothing of the token-bound-account style (no
  `createtba`, `tbacall` or `probe tba_address`) gives the same outcomes,
  verdicts, events and digest in the `native` lane as in the `nftaa` lane of
  `diff`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from nftaa_sim import Step, parse_scenario, run_scenario
from tests import corpus
from tests.perfbench_modules import load

gen = load("gen")

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _split_advances(script, rng):
    """`script` with each `advance N` cut into one to four parts that add up to N.

    Half the cuts fall in the first four blocks, where a queue left busy by
    the steps before is still draining one block at a time.
    """
    steps = []
    for step in script.steps:
        if step.kind != "advance":
            steps.append(step)
            continue
        total = step.args[0]
        cuts = sorted(rng.randint(0, total if rng.random() < 0.5 else min(total, 4))
                      for _ in range(rng.randint(0, 3)))
        steps += [Step("advance", (end - start,), step.line)
                  for start, end in zip([0] + cuts, cuts + [total])]
    return script._replace(steps=tuple(steps))


@settings(max_examples=20, deadline=None)
@given(SEEDS, st.randoms(use_true_random=False))
def test_split_advances_give_the_same_run(seed, rng):
    script = parse_scenario(gen.queue_drain(seed, stakers=40, unlock_delay=2_000).text)
    split = _split_advances(script, rng)
    whole, parts = run_scenario(script), run_scenario(split)
    assert len(parts.outcomes) >= len(whole.outcomes)
    assert parts.events == whole.events
    assert parts.final_digest == whole.final_digest
    assert parts.exit_code == whole.exit_code


def _uses_tba(script) -> bool:
    return any(step.kind in ("createtba", "tbacall") or step.args[:1] == ("tba_address",)
               for step in script.steps)


def _assert_lanes_agree(script):
    native, nftaa = run_scenario(script, lane="native"), run_scenario(script, lane="nftaa")
    assert nftaa.outcomes == native.outcomes
    assert nftaa.verdicts == native.verdicts
    assert nftaa.events == native.events
    assert nftaa.final_digest == native.final_digest


SCRIPTS = {path.name: parse_scenario(path.read_text()) for path in corpus.SCRIPTS}
CORPUS = {name: script for name, script in SCRIPTS.items() if not _uses_tba(script)}


def test_the_lane_comparison_covers_most_of_the_corpus():
    assert len(CORPUS) >= 10


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_runs_alike_in_native_and_nftaa_lanes(name):
    _assert_lanes_agree(CORPUS[name])


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_generated_world_runs_alike_in_native_and_nftaa_lanes(seed):
    script = parse_scenario(gen.nftaa_world(seed, actors=10, ops=30).text)
    assert not _uses_tba(script)
    _assert_lanes_agree(script)
