"""The package has no runtime dependencies: it imports only the standard library.
Nor does the transcripts tool need pytest, and it runs its other side under any Python."""

import ast
import os
import subprocess
import sys

from tests import transcripts
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


def test_the_transcripts_tool_runs_the_other_side_under_the_given_python(monkeypatch, capsys):
    started = []

    class Other:  # stands in for the other side's process: prints the same two lines
        returncode = 0

        def __init__(self, argv, cwd, env, stdout, text):
            started.append((argv, env["PYTHONPATH"]))
            stdout.write("a\nb\n")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(transcripts, "transcript", lambda: iter(["a\n", "b\n"]))
    monkeypatch.setattr(transcripts.subprocess, "Popen", Other)
    this_src = str(ROOT / "src")
    for argv, expected in ((["--python", "python3.10"], ["python3.10", this_src]),
                           (["--python", "py", "--against", "x/src"], ["py", "x/src"]),
                           (["--against", "x/src"], [sys.executable, "x/src"])):
        monkeypatch.setattr(sys, "argv", ["transcripts", *argv])
        assert transcripts.main() == 0
        (command, pythonpath), = started
        assert [command[0], pythonpath] == expected
        assert command[1:] == ["-m", "tests.transcripts"]
        assert capsys.readouterr().out == "same=2 differ=0\n"
        started.clear()
