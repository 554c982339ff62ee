"""Golden transcripts: `run` and `diff` output for every corpus file, byte for byte.

Each transcript is the stdout of `nftaa-sim run --seed 7 FILE` or
`nftaa-sim diff --seed 7 --verbose FILE`, driven through `cli.main`, for
every corpus file and for the scripts kept next to the transcripts (runner
paths the corpus does not reach),
followed by an `exit=<code>` line holding the command's return value. The
benchmark's three scripts at seed 11 (`run` of `nftaa_world` and
`queue_drain`, `diff --verbose` of `fraud_diff`) are pinned the same way, by
the sha256 of their script text and of their transcript in
`benchmark.sha256`: a changed script sha says the generator changed, a
changed transcript sha under an unchanged script says the program did. A
refactor must leave every transcript untouched; a change that alters one
regenerates them and says so in CHANGES.md:

    PYTHONPATH=src python -m tests.test_golden
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from tests.corpus import CORPUS, GOLDEN, PINNED, ROOT, SCRIPTS, _stdout
from tests.perfbench_modules import load

COMMANDS = {"run": ["run", "--seed", "7"], "diff": ["diff", "--seed", "7", "--verbose"]}
CASES = [(command, path) for path in SCRIPTS for command in COMMANDS]

# file name -> (the perfbench generator that writes it at seed 11, the command the benchmark runs)
BENCHMARK_SCRIPTS = {"world.scn": ("nftaa_world", ["run"]),
                     "staking.scn": ("queue_drain", ["run"]),
                     "fraud.scn": ("fraud_diff", ["diff", "--verbose"])}
BENCHMARK_PINS = GOLDEN / "benchmark.sha256"


def _golden_path(command: str, path: Path) -> Path:
    return GOLDEN / f"{path.stem}.{command}.txt"


def transcript(command: str, path: Path) -> str:
    return _stdout(COMMANDS[command] + [str(path)])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def benchmark_pin(name: str, directory: Path) -> str:
    """`<file> <script sha256> <transcript sha256>` for one benchmark script."""
    generator, command = BENCHMARK_SCRIPTS[name]
    text, path = getattr(load("gen"), generator)(11).text, directory / name
    path.write_text(text)
    return f"{name} {_sha256(text)} {_sha256(_stdout(command + [str(path)]))}"


def test_corpus_has_eleven_files_with_distinct_names():
    assert len(CORPUS) == 11
    assert len({path.stem for path in SCRIPTS}) == 11 + len(PINNED)


@pytest.mark.parametrize("command,path", CASES,
                         ids=[f"{c}-{p.stem}" for c, p in CASES])
def test_transcript_is_unchanged(command, path):
    expected = _golden_path(command, path).read_bytes()
    assert transcript(command, path).encode() == expected


@pytest.mark.parametrize("name", BENCHMARK_SCRIPTS)
def test_benchmark_script_transcript_is_unchanged(name, tmp_path):
    pinned = {line.split()[0]: line for line in BENCHMARK_PINS.read_text().splitlines()}
    _, script_pin, _ = pinned[name].split()
    actual = benchmark_pin(name, tmp_path)
    assert actual.split()[1] == script_pin, "the generator changed: regenerate the pins"
    assert actual == pinned[name]


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
    with tempfile.TemporaryDirectory() as directory:
        BENCHMARK_PINS.write_text("".join(benchmark_pin(name, Path(directory)) + "\n"
                                          for name in BENCHMARK_SCRIPTS))
    print(f"wrote {len(CASES)} transcripts and {len(BENCHMARK_SCRIPTS)} benchmark pins to {GOLDEN}")
