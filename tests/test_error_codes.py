"""Every error code is raised or read somewhere: no code outlives the rule that used it.

Every code a script can reach is also pinned: it shows in a golden transcript, as a
step's `code=` or an assert's `raised`, unless it is listed in `UNREACHABLE` with why.
"""

import ast
import re

from nftaa_sim import ErrorCode
from tests.corpus import GOLDEN
from tests.test_dependencies import PACKAGE

# code -> why no script reaches it
UNREACHABLE = {
    "CallerNotEoa": "every transaction step's caller is an `actor` label, and an actor is an EOA",
    "NegativeAmount": "a script amount is decimal digits, so never negative",
    "NotDeployed": "a registry account's label is bound by the step that deploys it, and "
                   "unbound if that step fails",
    "UnknownToken": "a token's label is bound by the step that mints it, and unbound if that "
                    "step fails",
}


def test_every_error_code_is_named_outside_its_enum():
    named = {}  # member name -> the first module naming it as `ErrorCode.<NAME>`
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "ErrorCode"):
                named.setdefault(node.attr, path.name)
    assert {"ledger.py", "runner.py"} <= set(named.values())  # the walk found the uses
    assert [code.name for code in ErrorCode if code.name not in named] == []


def test_every_reachable_error_code_shows_in_a_golden_transcript():
    shown = set()
    for path in [*GOLDEN.glob("*.run.txt"), *GOLDEN.glob("*.diff.txt")]:
        shown.update(re.findall(r"(?:code=|raised )(\w+)", path.read_text()))
    # a code neither shown nor listed fails, and so does a listed code that shows
    assert {code.value for code in ErrorCode} - shown == UNREACHABLE.keys()
