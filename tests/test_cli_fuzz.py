"""Seeded mutation fuzzing of the command line.

Byte- and line-level mutations of the graph and theta files in ``tests/data``
go through ``cli.main``.  Every run must end in exit 0, 1, 3 or 4 with no
exception escaping, and a second run of the same command must print the same
stdout.
"""

import random
from pathlib import Path

from csfkit.cli import main

DATA = Path(__file__).parent / "data"
SEED = 1
MUTANTS = 300
# digits and separators keep most mutants near the format; the rest do not
BYTES = b"0123456789  \n\n-x\t\xb9"


def mutate(rng: random.Random, text: bytes) -> bytes:
    lines = text.split(b"\n")
    kind = rng.randrange(6)
    if kind == 0:  # replace a byte
        i = rng.randrange(len(text))
        return text[:i] + bytes([rng.choice(BYTES)]) + text[i + 1:]
    if kind == 1:  # insert a byte
        i = rng.randrange(len(text) + 1)
        return text[:i] + bytes([rng.choice(BYTES)]) + text[i:]
    if kind == 2:  # delete a byte
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:]
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == 3:  # duplicate a line
        lines.insert(j, lines[i])
    elif kind == 4:  # delete a line
        del lines[i]
    else:  # swap two lines
        lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


def commands(path: Path, source: Path, out: str) -> list[list[str]]:
    if path.suffix == ".theta":
        return [["reconstruct", str(path), *route, "--out", f"{out}.graph"]
                for route in ([], ["--pairs-only"])]
    return [["csf", str(path)], ["csf", str(path), "--chromatic", "3"],
            ["equal", str(path), str(source)], ["theta", str(path)],
            ["decompose", str(path), "--rule", "reduce", "--out", out]]


def test_mutated_inputs_exit_cleanly_and_repeat(tmp_path, capsys):
    rng = random.Random(SEED)
    sources = sorted(DATA.glob("*.graph")) + sorted(DATA.glob("*.theta"))
    for i in range(MUTANTS):
        source = rng.choice(sources)
        text = source.read_bytes()
        for _ in range(rng.randint(1, 3)):
            text = mutate(rng, text)
        path = tmp_path / f"m{i}{source.suffix}"
        path.write_bytes(text)
        for argv in commands(path, source, str(tmp_path / f"out{i}")):
            first = main(argv), capsys.readouterr().out
            assert first[0] in (0, 1, 3, 4), (argv, text)
            assert (main(argv), capsys.readouterr().out) == first, (argv, text)
