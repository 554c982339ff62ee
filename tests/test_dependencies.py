"""The package has no runtime dependencies: it imports only the standard library.
Nor does the transcripts tool need pytest."""

import ast
import os
import subprocess
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


def test_the_transcripts_module_imports_without_pytest():
    """`python -m tests.transcripts` runs under an interpreter that has no pytest,
    to compare output across the Pythons the package admits."""
    code = "import sys; sys.modules['pytest'] = None; import tests.transcripts"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
