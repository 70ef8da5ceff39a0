"""Seeded mutation fuzzing of the command line.

Byte- and line-level mutations of the graph and theta files in ``tests/data``
go through ``cli.main``, and so do structure-aware ones that keep each file
readable: graphs with a valid header and edges moved, added or dropped, and
theta tables with one image changed by one unit, which reach the kernels,
their bounds and the reconstruction.  Every run must end in exit 0, 1, 3 or 4
with no exception escaping, and a second run of the same command must print
the same stdout.
"""

import random
from pathlib import Path

from csfkit import Graph, ThetaTable, parse_graph
from csfkit.cli import main

DATA = Path(__file__).parent / "data"
SEED = 1
MUTANTS = 300
STRUCTURED = 200
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


def run_twice(path: Path, source: Path, out: str, capsys) -> None:
    text = path.read_bytes()
    for argv in commands(path, source, out):
        first = main(argv), capsys.readouterr().out
        assert first[0] in (0, 1, 3, 4), (argv, text)
        assert (main(argv), capsys.readouterr().out) == first, (argv, text)


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
        run_twice(path, source, str(tmp_path / f"out{i}"), capsys)


def shift_edges(rng: random.Random, g: Graph) -> str:
    """g's file with one to three edges moved, added or dropped, and a header
    that counts the edges left; an edge may become a loop or a repeat."""
    n, edges = g.vertex_count, list(g.edges)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3) if edges else 1
        if kind == 0:  # move one end of an edge
            i = rng.randrange(len(edges))
            edges[i] = (edges[i][rng.randrange(2)], rng.randrange(n))
        elif kind == 1:  # add an edge
            edges.append((rng.randrange(n), rng.randrange(n)))
        else:  # drop an edge
            del edges[rng.randrange(len(edges))]
    return "".join([f"{n} {len(edges)}\n", *(f"{min(e)} {max(e)}\n" for e in edges)])


def shift_image(rng: random.Random, text: str) -> str:
    """A theta table with one unit moved between two parts of one image, the
    parts sorted again; a part may fall to 0."""
    lines = text.splitlines()
    i = rng.randrange(1, len(lines))
    *labels, image = lines[i].split()
    parts = [int(part) for part in image.split(",")]
    a, b = rng.sample(range(len(parts)), 2)
    parts[a], parts[b] = parts[a] + 1, parts[b] - 1
    lines[i] = " ".join([*labels, ",".join(map(str, sorted(parts, reverse=True)))])
    return "\n".join(lines) + "\n"


def test_structured_mutants_pass_parsing_exit_cleanly_and_repeat(tmp_path, capsys):
    rng = random.Random(SEED)
    # csf on a 41-vertex tree with an edge added takes up to 1.6 s, so graphs
    # come from the files under 100 bytes; the 41-vertex table rebuilds fast
    sources = [p for p in sorted(DATA.glob("*.graph")) if p.stat().st_size < 100]
    sources += sorted(DATA.glob("*.theta"))
    parsed = 0
    for i in range(STRUCTURED):
        source = rng.choice(sources)
        text = source.read_text(encoding="ascii")
        if source.suffix == ".graph":
            text = shift_edges(rng, parse_graph(text))
        else:
            text = shift_image(rng, text)
        path = tmp_path / f"s{i}{source.suffix}"
        path.write_text(text, encoding="ascii")
        try:
            (parse_graph if source.suffix == ".graph" else ThetaTable.from_text)(text)
            parsed += 1
        except ValueError:
            pass
        run_twice(path, source, str(tmp_path / f"out{i}"), capsys)
    # about half get past parsing to the kernels, their bounds and the rebuild
    # (97 of 200 at seed 1), where 29 of the 300 byte-level mutants do
    assert parsed > STRUCTURED // 3
