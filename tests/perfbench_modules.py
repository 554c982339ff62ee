"""The benchmark's modules (`perfbench/*.py`), loaded by path for tests that reuse them.

`perfbench/` is not a package, so a test cannot import from it. `load("gen")`
gives the script generator and `load("tracing")` the tracer.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """`perfbench/<name>.py` as the module `perfbench_<name>`, run once per process.

    The module is registered in `sys.modules` before it runs, because the
    dataclasses of `gen.py` look their module up there.
    """
    module_name = f"perfbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        sys.modules[module_name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[module_name]
