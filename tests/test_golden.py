"""Golden transcripts: `run` and `diff` output for every corpus file, byte for byte.

Each transcript is the stdout of `nftaa-sim run --seed 7 FILE` or
`nftaa-sim diff --seed 7 --verbose FILE`, driven through `cli.main`, for
every corpus file and for the scripts kept next to the transcripts (runner
paths the corpus does not reach),
followed by an `exit=<code>` line holding the command's return value. A
refactor must leave every transcript untouched; a change that alters one
regenerates them and says so in CHANGES.md:

    PYTHONPATH=src python -m tests.test_golden
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nftaa_sim.cli import main
from tests.corpus import CORPUS, GOLDEN, PINNED, ROOT, SCRIPTS

COMMANDS = {"run": ["run", "--seed", "7"], "diff": ["diff", "--seed", "7", "--verbose"]}
CASES = [(command, path) for path in SCRIPTS for command in COMMANDS]


def _golden_path(command: str, path: Path) -> Path:
    return GOLDEN / f"{path.stem}.{command}.txt"


def transcript(command: str, path: Path) -> str:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = main(COMMANDS[command] + [str(path)])
    return f"{captured.getvalue()}exit={code}\n"


def test_corpus_has_eleven_files_with_distinct_names():
    assert len(CORPUS) == 11
    assert len({path.stem for path in SCRIPTS}) == 11 + len(PINNED)


@pytest.mark.parametrize("command,path", CASES,
                         ids=[f"{c}-{p.stem}" for c, p in CASES])
def test_transcript_is_unchanged(command, path):
    expected = _golden_path(command, path).read_bytes()
    assert transcript(command, path).encode() == expected


def test_transcripts_do_not_depend_on_the_hash_seed():
    """The same bytes and exit codes under two string-hash seeds: no output
    follows the iteration order of a set or dict keyed by strings."""
    runs = {}
    for hash_seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(ROOT / "src")}
        runs[hash_seed] = [
            subprocess.run([sys.executable, "-m", "nftaa_sim.cli", *arguments,
                            *map(str, SCRIPTS)], env=env, capture_output=True, timeout=120)
            for arguments in COMMANDS.values()]
    first, second = ([(run.returncode, run.stdout) for run in runs[seed]] for seed in runs)
    assert first == second
    assert all(run.stdout.count(b"\nexit=") >= len(SCRIPTS) for run in runs["0"])


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command, path in CASES:
        _golden_path(command, path).write_bytes(transcript(command, path).encode())
    print(f"wrote {len(CASES)} transcripts to {GOLDEN}")
