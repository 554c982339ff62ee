"""Digests of `run`, `diff` and `queue` output, for comparing two versions of the program.

    PYTHONPATH=src python -m tests.transcripts > out.txt

prints one line per script and command: the script's name, the command, its
exit code and the sha256 of its stdout (for `run --events`, of the stdout
followed by the events file). The scripts are the bundled corpus, the scripts
kept next to the golden transcripts, and the benchmark generator's scripts:
`fraud_diff` and `spot` at seeds 0-59, 123, 4242 and 90210, `nftaa_world` and
`queue_drain` at seeds 0-11 and 90210. Then it prints one line per `queue`
report, in the same form: closed, `--simulate --no-trace` and traced
`--simulate`, over the pending counts, missed-slot probabilities and seeds of
`QUEUE`, each drain shorter than 2**53 blocks: seed 7 in every mode, miss-heavy
drains at p = 0.9 among them, and traced drains at a second seed, 90210, so
the miss rows of two generator streams are covered. A change meant to keep
behaviour compares the two versions in one command, from the new checkout:

    PYTHONPATH=src python -m tests.transcripts --against OTHER/src

computes the lines of the program on `PYTHONPATH` and, in a subprocess run with
`PYTHONPATH=OTHER/src`, those of the other version, both with this checkout's
scripts and generator. It prints each line that differs, from both sides
(`this:` and `other:`), then `same=<n> differ=<m>`, and exits 1 if any line
differs. With `--python EXE` the other side runs under that interpreter, with
`--against`'s program or else this one, to compare the Pythons the package
admits:

    PYTHONPATH=src python -m tests.transcripts --python /path/to/python3.13

It is not a pytest module: the golden transcripts pin a few scripts in
tier-1, this covers many more in about 25 s. It imports no pytest, so it runs
under an interpreter that has none.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from itertools import product, zip_longest
from pathlib import Path

import nftaa_sim
from tests.corpus import ROOT, SCRIPTS, _stdout
from tests.perfbench_modules import load

COMMANDS = {"run": ["run"], "run --digest": ["run", "--digest"],
            "run --seed 5": ["run", "--seed", "5"], "run --events": ["run", "--events"],
            "diff": ["diff"], "diff --verbose": ["diff", "--verbose"]}
GENERATED = {"fraud_diff": [*range(60), 123, 4242, 90210], "spot": [*range(60), 123, 4242, 90210],
             "nftaa_world": [*range(12), 90210], "queue_drain": [*range(12), 90210]}
SIMULATE = {"queue": [], "queue --simulate --no-trace": ["--simulate", "--no-trace"],
            "queue --simulate": ["--simulate"]}
# (pending counts, missed-slot probabilities, seeds, modes): the closed form alone for the
# counts too long to simulate; a second seed and miss-heavy drains for the traced reports
COUNTS = (0, 1, 16, 17, 33_333, 800_000)
QUEUE = [(COUNTS, ("0", "0.1", "0.5", "0.9"), ("7",), SIMULATE),
         (COUNTS, ("0.1", "0.5", "0.9"), ("90210",), {"queue --simulate": ["--simulate"]}),
         ((10**12, 16 * 2**51), ("0", "0.1", "0.5"), ("7",), {"queue": []})]


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


def digest(name: str, command: str, argv: list[str], events: Path | None = None) -> str:
    """The line of one CLI call: its stdout's sha256, followed by the events file if given."""
    stdout, _, code = _stdout(argv).rpartition("exit=")
    data = stdout.encode()
    if events is not None:
        data += events.read_bytes()
        events.unlink()
    return f"{name} {command!r} exit={code.strip()} {hashlib.sha256(data).hexdigest()}\n"


def line(name: str, command: str, path: Path, events: Path) -> str:
    if command != "run --events":
        return digest(name, command, COMMANDS[command] + [str(path)])
    return digest(name, command, COMMANDS[command] + [str(events), str(path)], events)


def queue_lines():
    for counts, probabilities, seeds, modes in QUEUE:
        for pending, missed, seed, mode in product(counts, probabilities, seeds, modes):
            argv = ["queue", "--pending", str(pending), "--missed-prob", missed, "--seed", seed]
            name = f"pending={pending} missed_prob={missed} seed={seed}"
            yield digest(name, mode, argv + modes[mode])


def transcript():
    """Every line, in order, of the program that `nftaa_sim` imports."""
    with tempfile.TemporaryDirectory() as directory:
        events = Path(directory) / "events.txt"
        for name, path in scripts(Path(directory)):
            for command in COMMANDS:
                yield line(name, command, path, events)
    yield from queue_lines()


def compare(other_src: str, python: str) -> int:
    """Print the lines that differ from those of the program in `other_src`, run under
    `python`; 1 if any."""
    env = {**os.environ, "PYTHONPATH": other_src}
    with tempfile.TemporaryFile("w+") as out:
        with subprocess.Popen([python, "-m", "tests.transcripts"], cwd=ROOT, env=env,
                              stdout=out, text=True) as other:
            ours = list(transcript())  # while the other side runs
        if other.returncode:
            sys.exit(f"the transcripts of {other_src} under {python} exited {other.returncode}")
        out.seek(0)
        theirs = out.readlines()
    differ = 0
    for this, that in zip_longest(ours, theirs, fillvalue="(none)\n"):
        if this != that:
            differ += 1
            sys.stdout.write(f"this: {this}other: {that}")
    print(f"same={max(len(ours), len(theirs)) - differ} differ={differ}")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.transcripts")
    parser.add_argument("--against", metavar="OTHER/src",
                        help="compare with the program in this directory")
    parser.add_argument("--python", metavar="EXE",
                        help="compare with the other side run under this interpreter")
    args = parser.parse_args()
    if args.against is not None or args.python is not None:
        this_src = str(Path(nftaa_sim.__file__).resolve().parents[1])
        return compare(args.against or this_src, args.python or sys.executable)
    sys.stdout.writelines(transcript())
    return 0


if __name__ == "__main__":
    sys.exit(main())
