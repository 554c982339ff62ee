"""Every error code is raised or read somewhere: no code outlives the rule that used it."""

import ast

from nftaa_sim import ErrorCode
from tests.test_dependencies import PACKAGE


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
