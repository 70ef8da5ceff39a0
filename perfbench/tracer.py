"""Span tracer that wraps csfkit's public functions from outside the package.

Every public module-level function of a layer module, and every public method
(plus ``__post_init__``) of a public class defined there, is replaced by a
wrapper in every ``csfkit`` namespace that holds it.  Each call records one
span (name, start, end, parent) in flat arrays; a generator function records
one span per ``next()``, so time the consumer spends between items is not
charged to the generator.  Call counts and a few computed counters are taken
in the same wrappers.  ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "csf", "graph", "treedata", "rewrite", "pairgen", "partitions")


def _count_edge_subsets(counts, args, kwargs, result):
    graph = args[0] if args else kwargs["g"]
    counts["csf.edge_subsets"] += 1 << graph.edge_count
    counts["csf.terms_out"] += len(result.terms)


def _count_rewrite_terms(counts, args, kwargs, result):
    counts["rewrite.graphs_out"] += len(result.terms)


def _count_unicyclic_graphs(counts, args, kwargs, result):
    if result.graph_class == "unicyclic":
        counts["cli.unicyclic_graphs"] += result.graph_count


# Counters computed from arguments or results, keyed by span name.
HOOKS = {
    "csf.chromatic_symmetric_function": _count_edge_subsets,
    "rewrite.triangle_split": _count_rewrite_terms,
    "cli.run_search": _count_unicyclic_graphs,
}


def _targets(module, layer):
    """(owner, attribute, original, span name) for everything to wrap."""
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__post_init__":
                    continue
                if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                    found.append((obj, attr, member, f"{layer}.{name}.{attr}"))
    return found


class Tracer:
    """Collects spans and counts for one traced pass at a time."""

    def __init__(self):
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts.clear()

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap_function(self, fn, name):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        calls_key = name + ".calls"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            names, parents, starts, ends = (tracer.span_name, tracer.span_parent,
                                            tracer.span_start, tracer.span_end)
            stack = tracer._stack
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            tracer.counts[calls_key] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        nid = self._name_id(name)
        calls_key = name + ".calls"
        yielded_key = name + ".yielded"
        tracer = self

        def resume(gen):
            while True:
                names, parents, starts, ends = (tracer.span_name, tracer.span_parent,
                                                tracer.span_start, tracer.span_end)
                stack = tracer._stack
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(idx)
                starts.append(perf_counter())
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    ends[idx] = perf_counter()
                    stack.pop()
                tracer.counts[yielded_key] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[calls_key] += 1
            return resume(fn(*args, **kwargs))

        return traced

    def _wrap(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        return self._wrap_function(fn, name)

    def install(self) -> None:
        """Wrap every target and rebind it in every csfkit namespace."""
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "csfkit" or key.startswith("csfkit.")]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"csfkit.{layer}"]
            for owner, attr, original, name in _targets(module, layer):
                if isinstance(original, (classmethod, staticmethod)):
                    wrapper = type(original)(self._wrap(original.__func__, name))
                else:
                    wrapper = self._wrap(original, name)
                    replaced[id(original)] = (original, wrapper)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value and value is not hit[1]:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus direct children."""
        n = len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        totals = [0.0] * len(self.names)
        names = self.span_name
        for i in range(n):
            totals[names[i]] += ends[i] - starts[i] - child[i]
        return {self.names[k]: v for k, v in enumerate(totals) if v}

    def write_spans(self, path, origin: float) -> None:
        """Gzipped TSV: index, name, parent index, start and end in ns from origin."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("index\tname\tparent\tstart_ns\tend_ns\n")
            names, parents = self.names, self.span_parent
            starts, ends, ids = self.span_start, self.span_end, self.span_name
            for i in range(len(ids)):
                fh.write(f"{i}\t{names[ids[i]]}\t{parents[i]}\t"
                         f"{round((starts[i] - origin) * 1e9)}\t{round((ends[i] - origin) * 1e9)}\n")
