"""Batch command-line surface.

Subcommands: csf, equal, decompose, make-pair, theta, reconstruct, search.
Exit codes: 0 success (or EQUAL), 1 polynomials differ, 2 usage error,
3 data error, 4 resource limit.  All stdout output is deterministic;
timing diagnostics go to stderr.  The only limits are the fixed work limits
of the layers underneath; none is set from the command line or environment.
``main`` may be called many times in one process: the parser is built on the
first call and shared after it.
"""

from __future__ import annotations

import argparse
import functools
import sys

# The layers are imported here; a module only one command needs (search, hashlib,
# decimal) is imported in that command, so other commands do not load it.
from .csf import PowerSumPolynomial, _csf_text, csf_codes, csf_value, first_difference
from .errors import CsfkitError, ResourceLimitError
from .graph import Graph, parse_graph
from .pairgen import RootedTree, glue_rooted_trees
from .partitions import _read_int, partition_key
from .rewrite import path_split, reduce_triangle_free, triangle_split, wedge_split
from .treedata import ThetaTable, reconstruct_from_pairs, reconstruct_from_theta, theta_tables


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read())


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _natural(text: str) -> int:
    """An integer argument read by the one rule; its refusal is the usage error."""
    try:
        return _read_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ---------------------------------------------------------------------------
# csf / equal


def cmd_csf(args) -> int:
    g, k = _load_graph(args.input), args.chromatic
    if k is None:
        print(_csf_text(g.vertex_count, csf_codes(g)), end="")
    else:  # every p_s becomes k; a Decimal's text has no digit cap, unlike str(int)
        from decimal import Decimal
        print(Decimal(csf_value(g, [k] * (g.vertex_count + 1))))
    return 0


def cmd_equal(args) -> int:
    g, h = _load_graph(args.file_a), _load_graph(args.file_b)
    x, y = csf_codes(g), csf_codes(h)
    if g.vertex_count == h.vertex_count and x == y:  # equal code maps at one count: equal functions
        print("EQUAL")
        return 0
    # each X_G has the term 1^n with coefficient 1, so the two differ at a partition
    where, va, vb = first_difference(PowerSumPolynomial.from_codes(g.vertex_count, x),
                                     PowerSumPolynomial.from_codes(h.vertex_count, y))
    print(f"DIFFER at {partition_key(where)}: {va} vs {vb}")
    return 1


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
    g = _load_graph(args.input)
    if args.rule == "reduce":
        if args.edges is not None:
            raise ValueError("--edges is not used with --rule reduce")
        combo = reduce_triangle_free(g)
    else:
        if args.edges is None:
            raise ValueError(f"--rule {args.rule} requires --edges")
        try:
            indices = [_read_int(tok, signed=True) for tok in args.edges.split(",")]
        except ValueError:
            raise ValueError(f"--edges takes comma-separated integers, got {args.edges!r}") from None
        want = 2 if args.rule == "path" else 3
        if len(indices) != want:
            raise ValueError(f"--rule {args.rule} takes {want} edge indices")
        rule = {"triangle": triangle_split, "path": path_split, "wedge": wedge_split}[args.rule]
        combo = rule(g, *indices)
    for i, (coeff, h) in enumerate(combo.terms):
        path = f"{args.out}{i}.graph"
        _write_text(path, h.to_text())
        print(f"{coeff} {path}")
    return 0


# ---------------------------------------------------------------------------
# make-pair / theta / reconstruct


def cmd_make_pair(args) -> int:
    import hashlib
    t1 = RootedTree(_load_graph(args.tree1), args.root1)
    t2 = RootedTree(_load_graph(args.tree2), args.root2)
    h, j = glue_rooted_trees(t1, t2)
    codes = csf_codes(h)
    if csf_codes(j) != codes:
        raise AssertionError("glued pair disagrees; this is a bug")
    path_h = f"{args.out}_h.graph"
    path_j = f"{args.out}_j.graph"
    _write_text(path_h, h.to_text())
    _write_text(path_j, j.to_text())
    digest = hashlib.sha256(_csf_text(h.vertex_count, codes).encode("ascii")).hexdigest()
    print(path_h)
    print(path_j)
    print(f"csf-sha256 {digest}")
    return 0


def cmd_theta(args) -> int:
    tbl = theta_tables(_load_graph(args.input))
    print(tbl.to_text(), end="")
    return 0


def cmd_reconstruct(args) -> int:
    with open(args.input, "r", encoding="ascii") as fh:
        tbl = ThetaTable.from_text(fh.read())
    rebuild = reconstruct_from_pairs if args.pairs_only else reconstruct_from_theta
    tree, _ = rebuild(tbl)
    _write_text(args.out, tree.to_text())
    print("CONSISTENT")
    return 0


# ---------------------------------------------------------------------------
# search


def cmd_search(args) -> int:
    from .search import run_search
    report = run_search(args.n, args.graph_class)
    print(f"search class={report.graph_class} n={report.n}")
    print(f"graphs={report.graph_count}")
    print(f"collision-groups={len(report.groups)}")
    for i, group in enumerate(report.groups, start=1):
        print(f"group {i}: {len(group)} members")
        for line in group:
            print(f"  {line}")
    print(f"elapsed {report.elapsed_seconds:.2f}s", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="csfkit",
        description="Exact chromatic symmetric function toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("csf", help="power-sum expansion or chromatic polynomial value")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--chromatic", type=_natural, metavar="K", help="print the k-coloring count")

    p = sub.add_parser("equal", help="compare the CSFs of two graphs")
    p.add_argument("file_a")
    p.add_argument("file_b")

    p = sub.add_parser("decompose", help="apply a rewriting rule at named edge indices")
    p.add_argument("input")
    p.add_argument("--rule", required=True, choices=["triangle", "path", "wedge", "reduce"])
    p.add_argument("--edges", help="comma-separated edge indices (not with reduce)")
    p.add_argument("--out", required=True, help="output path prefix for term files")

    p = sub.add_parser("make-pair", help="glue two rooted trees into an equal-CSF pair")
    p.add_argument("tree1")
    p.add_argument("root1", type=_natural)
    p.add_argument("tree2")
    p.add_argument("root2", type=_natural)
    p.add_argument("--out", required=True, help="output path prefix (_h/_j files)")

    p = sub.add_parser("theta", help="print singleton and pair cut data of a tree")
    p.add_argument("input")

    p = sub.add_parser("reconstruct", help="rebuild a single-centroid tree from cut data")
    p.add_argument("input", help="theta table file")
    p.add_argument("--pairs-only", action="store_true",
                   help="ignore singleton lines and reconstruct from pairs")
    p.add_argument("--out", required=True, help="output edge-list file")

    p = sub.add_parser("search", help="enumerate a class and group equal-CSF graphs")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--class", dest="graph_class", required=True,
                   choices=["tree", "unicyclic"])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Resolved on each call, not stored in the shared parser, so a command
    # function replaced after the first call (patched or wrapped) is the one run.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (CsfkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
