"""Digests of `run` and `diff` output over many scripts, for comparing two versions of the program.

    PYTHONPATH=src python -m tests.transcripts > out.txt

prints one line per script and command: the script's name, the command, its
exit code and the sha256 of its stdout (for `run --events`, of the stdout
followed by the events file). The scripts are the bundled corpus, the scripts
kept next to the golden transcripts, and the benchmark generator's scripts:
`fraud_diff` and `spot` at seeds 0-59, 123, 4242 and 90210, `nftaa_world` and
`queue_drain` at seeds 0-11 and 90210. A change meant to keep behaviour runs
this once with `PYTHONPATH` at the old `src/` and once at the new one, from the
same checkout, and diffs the two outputs. It is not a pytest module: the golden
transcripts pin a few scripts in tier-1, this covers many more in about 15 s.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from tests.corpus import ROOT, SCRIPTS
from tests.perfbench_modules import load
from tests.test_golden import _stdout

COMMANDS = {"run": ["run"], "run --digest": ["run", "--digest"],
            "run --seed 5": ["run", "--seed", "5"], "run --events": ["run", "--events"],
            "diff": ["diff"], "diff --verbose": ["diff", "--verbose"]}
GENERATED = {"fraud_diff": [*range(60), 123, 4242, 90210], "spot": [*range(60), 123, 4242, 90210],
             "nftaa_world": [*range(12), 90210], "queue_drain": [*range(12), 90210]}


def scripts(directory: Path) -> list[tuple[str, Path]]:
    """(name, path) of every script, the generated ones written into `directory`."""
    named = [(str(path.relative_to(ROOT)), path) for path in SCRIPTS]
    gen = load("gen")
    for generator, seeds in GENERATED.items():
        for seed in seeds:
            path = directory / f"{generator}-{seed}.scn"
            path.write_text(getattr(gen, generator)(seed).text)
            named.append((path.name, path))
    return named


def line(name: str, command: str, path: Path, events: Path) -> str:
    argv = COMMANDS[command] + ([str(events)] if command == "run --events" else []) + [str(path)]
    stdout, _, code = _stdout(argv).rpartition("exit=")
    data = stdout.encode()
    if command == "run --events":
        data += events.read_bytes()
        events.unlink()
    return f"{name} {command!r} exit={code.strip()} {hashlib.sha256(data).hexdigest()}\n"


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        events = Path(directory) / "events.txt"
        for name, path in scripts(Path(directory)):
            for command in COMMANDS:
                sys.stdout.write(line(name, command, path, events))


if __name__ == "__main__":
    main()
