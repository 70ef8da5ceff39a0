"""csfkit benchmark: real CLI commands on seeded inputs, timed end to end.

Usage, from the repository root:

    python3 perfbench/run.py --workload csf_heavy --seed 1 --seconds 45 --trace 0

Each workload's command list goes through ``csfkit.cli.main(argv)`` in this
one single-threaded process, as a closed loop with one client: the next
command starts when the previous one returns.  stdout is captured and files go
to a temporary directory under ``.perfbench_tmp/`` in the repository root.

A run sets up once (fresh ``import csfkit``, input generation, file writing),
makes one warm-up pass, then repeats passes for ``--seconds``, timing one
more set-up after each pass.  With ``--trace 0`` it reports the end-to-end
metrics: pass time (each command's fastest time, summed), median set-up time
and peak resident memory.  With ``--trace 1`` half the time goes to untraced
passes (per-command-kind times) and half to passes traced by
``tracer.Tracer`` (per-layer self times and counters, from the fastest
traced pass); the spans of the last traced pass are written to
``.perfbench_out/``.  Outputs are checked after timing; a command fails when
it exits non-zero, fails its check, or prints something different from the
warm-up pass.

The last stdout line is the result object; the line before it holds run
metadata (Python version, CPUs, git SHA, source digest and line counts).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "csfkit"
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
KINDS = ("csf", "equal", "search", "make_pair", "theta", "reconstruct",
         "reconstruct_pairs", "decompose")


# ---------------------------------------------------------------------------
# set-up and passes


def set_up(workload: str, seed: int, parent: str):
    """Fresh import of csfkit, input generation and file writing."""
    start = perf_counter()
    for name in [k for k in sys.modules if k == "csfkit" or k.startswith("csfkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("csfkit.cli")
    inputs = WORKLOADS[workload](seed)
    workdir = tempfile.mkdtemp(dir=parent)
    for rel, text in inputs.files.items():
        with open(os.path.join(workdir, rel), "w", encoding="ascii") as fh:
            fh.write(text)
    elapsed = perf_counter() - start
    if Path(cli.__file__).resolve().parent != PACKAGE:
        raise RuntimeError(f"imported csfkit from {cli.__file__}, not from {PACKAGE}")
    return elapsed, cli, inputs, workdir


def set_up_again(workload: str, seed: int, parent: str) -> float:
    """Time one more set-up, then put back the modules the passes use."""
    kept = {k: m for k, m in sys.modules.items() if k == "csfkit" or k.startswith("csfkit.")}
    elapsed, _, _, workdir = set_up(workload, seed, parent)
    shutil.rmtree(workdir)
    sys.modules.update(kept)
    return elapsed


def run_pass(cli, steps):
    """One closed-loop pass; returns (wall seconds, seconds per step, outcomes)."""
    times = []
    outcomes = []
    gc.collect()
    start = perf_counter()
    for step in steps:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            began = perf_counter()
            try:
                rc = cli.main(step.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # one command's crash is recorded as its failure
                rc = traceback.format_exc()
            times.append(perf_counter() - began)
        text = out.getvalue()
        if step.save_stdout_to:
            with open(step.save_stdout_to, "w", encoding="ascii") as fh:
                fh.write(text)
        outcomes.append((rc, text))
    return perf_counter() - start, times, outcomes


def repeat_passes(cli, steps, seconds: float, minimum: int, before=None, after=None):
    passes = []
    start = perf_counter()
    while len(passes) < minimum or perf_counter() - start < seconds:
        if before:
            before()
        passes.append(run_pass(cli, steps))
        if after:
            after(passes[-1])
    return passes


def count_failures(steps, passes) -> tuple[int, int]:
    """(attempted, failed) over all passes; checks run on the first pass."""
    reference = passes[0][2]
    bad = set()
    for i, (step, (rc, text)) in enumerate(zip(steps, reference)):
        try:
            message = f"exit status {rc}" if rc != 0 else step.check(text)
        except Exception as exc:  # a check that cannot read the output fails it
            message = f"check raised {exc!r}"
        if message:
            bad.add(i)
            print(f"FAILED {' '.join(step.argv)}: {message}", file=sys.stderr)
    failed = 0
    for _, _, outcomes in passes:
        failed += sum(1 for i, got in enumerate(outcomes) if i in bad or got != reference[i])
    return len(steps) * len(passes), failed


# ---------------------------------------------------------------------------
# metrics


def best_time(steps, passes, kind: str | None = None) -> float:
    """Each command's fastest time over the passes, summed over the commands.

    On a shared machine, neighbours can slow pure-Python work by up to half
    for seconds at a time; a command's fastest time filters that out, where
    the median of whole passes carries it into the result.
    """
    return sum((min(p[1][i] for p in passes)
                for i, step in enumerate(steps) if kind is None or step.kind == kind), 0.0)


def source_lines() -> dict[str, int]:
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with open(path, "rb") as fh:
            counts[path.stem] = sum(1 for _ in fh)
    return counts


def layer_metrics(self_s: dict[str, float], counts: dict[str, int], reduce_runs: int,
                  reduce_terms: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    def calls(name: str) -> int:
        return counts.get(name + ".calls", 0)

    def own(name: str) -> float:
        return self_s.get(name, 0.0)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((v for k, v in self_s.items() if k.split(".", 1)[0] == layer), 0.0)
    out["csf.calls"] = calls("csf.chromatic_symmetric_function")
    out["csf.edge_subsets"] = counts.get("csf.edge_subsets", 0)
    out["csf.terms_out"] = counts.get("csf.terms_out", 0)
    out["csf.to_text.self_s"] = own("csf.PowerSumPolynomial.to_text")
    yielded = counts.get("graph.enumerate_trees.yielded", 0)
    levels = calls("graph.tree_from_levels")
    out["graph.enumerate_trees.yielded"] = yielded
    out["graph.tree_from_levels.calls"] = levels
    out["graph.tree_unique_ratio"] = yielded / levels if levels else 0.0
    for fn in ("canonical_tree_code", "pi_type", "require_tree", "centroid", "parse_graph"):
        out[f"graph.{fn}.calls"] = calls(f"graph.{fn}")
    keys = calls("cli.unicyclic_canonical_key")
    out["cli.unicyclic_canonical_key.calls"] = keys
    out["cli.unicyclic_unique_ratio"] = counts.get("cli.unicyclic_graphs", 0) / keys if keys else 0.0
    splits = calls("rewrite.triangle_split")
    # Each split turns one pending graph into three, so a reduce run has
    # 1 + 2 * splits leaves before identical graphs are merged.
    leaves = reduce_runs + 2 * splits
    out["cli.reduce_merge_ratio"] = reduce_terms / leaves if reduce_runs else 0.0
    out["treedata.theta.calls"] = calls("treedata.theta")
    out["treedata.theta_tables.self_s"] = own("treedata.theta_tables")
    out["treedata.reconstruct_from_theta.self_s"] = own("treedata.reconstruct_from_theta")
    out["treedata.reconstruct_from_pairs.self_s"] = own("treedata.reconstruct_from_pairs")
    out["treedata.attracts_from_theta.calls"] = calls("treedata.attracts_from_theta")
    out["treedata.from_text.self_s"] = own("treedata.ThetaTable.from_text")
    out["rewrite.triangle_split.calls"] = splits
    out["rewrite.graphs_out"] = counts.get("rewrite.graphs_out", 0)
    out["pairgen.glue_rooted_trees.calls"] = calls("pairgen.glue_rooted_trees")
    out["pairgen.verify_p1.calls"] = calls("pairgen.verify_p1")
    out["partitions.parse_partition_key.calls"] = calls("partitions.parse_partition_key")
    out["partitions.rearrange.calls"] = calls("partitions.rearrange")
    return out


def traced_passes(cli, steps, seconds: float, workload: str):
    """Traced passes; returns them with the layer metrics and self-time
    coverage of each."""
    tracer = Tracer()
    reduce_runs = sum(1 for s in steps if s.kind == "decompose")
    layers = []

    def collect(result):
        wall, _, outcomes = result
        self_s = tracer.self_times()
        reduce_terms = sum(len(text.splitlines()) for s, (_, text) in zip(steps, outcomes)
                           if s.kind == "decompose")
        layers.append((layer_metrics(self_s, dict(tracer.counts), reduce_runs, reduce_terms),
                       sum(self_s.values()) / wall))

    tracer.install()
    try:
        origin = perf_counter()
        passes = repeat_passes(cli, steps, seconds, MIN_TRACED_PASSES,
                               before=tracer.reset, after=collect)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload}.tsv.gz", origin)
    return passes, layers


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result object, metadata)."""
    if str(PACKAGE.parent) not in sys.path:
        sys.path.insert(0, str(PACKAGE.parent))
    TMP_DIR.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=TMP_DIR)
    try:
        elapsed, cli, inputs, workdir = set_up(workload, seed, run_dir)
        setups = [elapsed]
        steps = inputs.build_steps(workdir)
        warm = run_pass(cli, steps)
        budget = seconds / 2 if trace else seconds
        # One more set-up after each timed pass spreads the set-up samples
        # over the whole run, as the pass samples are.
        timed = repeat_passes(cli, steps, budget, MIN_PASSES,
                              after=lambda _: setups.append(set_up_again(workload, seed, run_dir)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = [warm] + timed
        if trace:
            traced, layers = traced_passes(cli, steps, budget, workload)
            passes += traced
        checked = perf_counter()
        attempted, failed = count_failures(steps, passes)
        check_seconds = perf_counter() - checked
        if trace:
            metrics = {f"{k}_s": (best_time(steps, timed, k), "s") for k in KINDS}
            metrics["failed_ratio"] = (failed / attempted, "ratio")
            traced_wall = best_time(steps, traced)
            metrics["traced_wall_s"] = (traced_wall, "s")
            metrics["trace_overhead_s"] = (traced_wall - best_time(steps, timed), "s")
            # Layer metrics come from the fastest traced pass, as one consistent set.
            fastest = min(range(len(traced)), key=lambda k: traced[k][0])
            layer, coverage = layers[fastest]
            metrics["trace.self_coverage"] = (coverage, "ratio")
            for name, value in layer.items():
                unit = "s" if name.endswith("_s") else ("ratio" if name.endswith("_ratio") else "count")
                metrics[name] = (value, unit)
            lines = source_lines()
            for name in LAYERS:
                metrics[f"{name}.source_lines"] = (lines[name], "lines")
            metrics["csfkit.source_lines"] = (sum(lines.values()), "lines")
        else:
            metrics = {
                "wall_s": (best_time(steps, timed), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "pass_walls_s": [p[0] for p in passes],
        "steps_per_pass": len(steps),
        "setups_s": setups,
        "check_seconds": check_seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "source_lines": source_lines(),
    }
    return result, meta


# ---------------------------------------------------------------------------
# metadata


def git_sha() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no csfkit sources at {PACKAGE}; run from a checkout", file=sys.stderr)
        return 2
    result, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
