"""Every name the benchmark's tracer patches still exists in nftaa_sim.

`perfbench/tracing.py` replaces the functions in its TRACED table by name,
plus `WithdrawalQueue.process_block`; its untraced `Counter` wraps the
TRACED entries named in `Counter.COUNTED`. A rename would otherwise surface
only when someone runs the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = _tracing()
    missing = []
    for _layer, name, namespaces, attribute in tracing.TRACED:
        for namespace in namespaces:
            module_name, _, class_name = namespace.partition(":")
            owner = importlib.import_module(f"nftaa_sim.{module_name}")
            if class_name:
                owner = getattr(owner, class_name, None)
            if not callable(getattr(owner, attribute, None)):
                missing.append(f"{name} in {namespace}")
    assert tracing.TRACED and not missing


def test_block_counter_and_counted_names_resolve():
    tracing = _tracing()
    staking = importlib.import_module("nftaa_sim.staking")
    assert callable(getattr(staking.WithdrawalQueue, "process_block", None))
    traced = {name for _layer, name, _namespaces, _attribute in tracing.TRACED}
    assert tracing.Counter.COUNTED
    assert set(tracing.Counter.COUNTED) <= traced
