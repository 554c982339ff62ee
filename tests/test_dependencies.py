"""The package has no runtime dependencies: it imports only the standard library."""

import ast
import sys

from tests.corpus import ROOT

PACKAGE = ROOT / "src" / "nftaa_sim"


def test_every_absolute_import_names_a_standard_library_module():
    imported = {}  # top-level module name -> the first file importing it
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not `from .x`
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    assert {"hashlib", "argparse"} <= imported.keys()  # the walk found the imports
    assert {name: path for name, path in imported.items()
            if name not in sys.stdlib_module_names} == {}
