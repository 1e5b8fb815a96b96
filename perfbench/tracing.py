"""Traced ``flowtune`` run: spans around the calls into each layer.

Usage (with flowtune importable, e.g. ``PYTHONPATH=src``)::

    python3 perfbench/tracing.py SPANS.json explore --input c.aag --seed 1 ...

The wrappers are installed from outside the package.  Modules bind their
collaborators with ``from .x import y``, so each wrapper replaces the name
in the module that looks it up (``multistage.optimistic_init``,
``cli.run``, ``transforms.apply`` ...), not only where it is defined.
Spans (name, start, end, parent, attributes) stay in memory and are
written to SPANS.json when the run ends; :func:`summarize` turns them into
the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import sys
from time import perf_counter

KINDS = ("balance", "rewrite", "rewrite_z", "refactor", "refactor_z", "resub")

# every per-layer metric summarize() returns; the benchmark adds the
# set-up and overhead ones
SPAN_METRICS = tuple(
    [f"transforms.{k}.{m}" for k in KINDS
     for m in ("calls", "self_s", "noop", "removed")]
    + ["aig.compact.calls", "aig.compact.s", "aig.metrics.calls",
       "aig.metrics.s", "transforms.cache.lookups", "transforms.cache.misses",
       "transforms.cache.hit_ratio", "transforms.cache.ands_held",
       "transforms.distinct_ratio", "bandit.init_s", "bandit.init_passes",
       "bandit.init_distinct", "bandit.pull_s", "bandit.pulls",
       "bandit.bookkeeping_s", "aig.equivalent_s", "aig.equivalent_patterns",
       "cli.replay_s", "cli.replay_passes", "multistage.run_s",
       "multistage.commit_passes", "multistage.final_depth", "aiger.parse_s",
       "aiger.write_s", "blif.parse_s"])


class Tracer:
    """Span stack for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._open: list[int] = []
        self.paused = False

    def begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        span = [name, perf_counter(), 0.0, parent, {}]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str, annotate=None):
        """Time every call of fn as a span; annotate(span, args, kwargs,
        result) runs afterwards in a paused 'trace.bookkeeping' span, so
        its cost is kept out of the caller's self time."""
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if annotate is not None:
                book = self.begin("trace.bookkeeping")
                self.paused = True
                try:
                    annotate(span, args, kwargs, result)
                finally:
                    self.paused = False
                    self.end(book)
            return result
        return traced


def install(tracer: Tracer) -> dict[int, tuple[object, int]]:
    """Patch flowtune's layer boundaries.  Returns the graphs the run's
    FlowCache holds, as id -> (graph, AND count), filled in as it runs."""
    from flowtune import aig, bandit, cli, multistage, transforms

    keys: dict[int, tuple[object, str]] = {}  # id -> (graph, content hash)
    held: dict[int, tuple[object, int]] = {}

    def content_key(g, kind) -> str:
        hit = keys.get(id(g))
        if hit is None or hit[0] is not g:
            digest = hashlib.sha1(cli.write_aiger(g).encode()).hexdigest()[:16]
            hit = keys[id(g)] = (g, digest)
        return f"{hit[1]}:{kind.value}"

    def on_apply(span, args, kwargs, result):
        g, kind = args
        res, rep = result
        span[4].update(kind=kind.value, tnodes=rep.tnodes,
                       removed=rep.nodes_before - rep.nodes_after,
                       key=content_key(g, kind))
        parent = tracer.spans[span[3]] if span[3] >= 0 else None
        if parent is not None and parent[4].get("role") == "run":
            held[id(res)] = (res, res.num_ands)

    def on_count(span, args, kwargs, result):
        g, kind = args
        span[4].update(kind=kind.value, tnodes=result, key=content_key(g, kind))

    def on_equivalent(span, args, kwargs, result):
        a = args[0]
        mode = args[2] if len(args) > 2 else kwargs.get("mode", "exhaustive")
        span[4].update(mode=mode, ok=result,
                       patterns=(kwargs.get("count", 4096) if mode == "random"
                                 else 1 << a.num_inputs))

    def on_run(span, args, kwargs, result):
        span[4]["final_depth"] = result.final_qor.depth

    def cache_class(role: str):
        class TracedFlowCache(transforms.FlowCache):
            def apply_flow(self, g, flow):
                flow = tuple(flow)
                span = tracer.begin("cache.apply_flow")
                span[4].update(role=role, lookups=len(flow))
                try:
                    return super().apply_flow(g, flow)
                finally:
                    tracer.end(span)
        return TracedFlowCache

    transforms.apply = tracer.wrap(transforms.apply, "transforms.apply", on_apply)
    bandit.count_transformable = tracer.wrap(
        bandit.count_transformable, "transforms.count", on_count)
    aig.Aig.compact = tracer.wrap(aig.Aig.compact, "aig.compact")
    traced_metrics = tracer.wrap(aig.metrics, "aig.metrics")
    for mod in (transforms, bandit, multistage, cli):
        mod.metrics = traced_metrics
    multistage.optimistic_init = tracer.wrap(multistage.optimistic_init,
                                             "bandit.init")
    multistage.pull = tracer.wrap(multistage.pull, "bandit.pull")
    multistage.run_stage = tracer.wrap(multistage.run_stage,
                                       "multistage.run_stage")
    multistage.FlowCache = cache_class("run")
    cli.FlowCache = cache_class("replay")
    cli.run = tracer.wrap(cli.run, "multistage.run", on_run)
    cli.equivalent = tracer.wrap(cli.equivalent, "aig.equivalent", on_equivalent)
    cli.parse_aiger = tracer.wrap(cli.parse_aiger, "aiger.parse")
    cli.parse_blif = tracer.wrap(cli.parse_blif, "blif.parse")
    cli.write_aiger = tracer.wrap(cli.write_aiger, "aiger.write")
    return held


def summarize(spans: list[list], ands_held: int) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    Pass spans (applied or counting-only) report self time: their span
    minus the metrics/compaction spans inside.  Boundary layers report
    their whole span less the tracer's own bookkeeping inside it.
    """
    child = [0.0] * len(spans)
    book = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
        if name == "trace.bookkeeping":
            while parent >= 0:
                book[parent] += end - start
                parent = spans[parent][3]

    def self_time(i: int) -> float:
        return spans[i][2] - spans[i][1] - child[i]

    def duration(i: int) -> float:
        return spans[i][2] - spans[i][1] - book[i]

    def where(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name: str) -> float:
        return sum(duration(i) for i in where(name))

    def parent_of(i: int):
        p = spans[i][3]
        return spans[p] if p >= 0 else None

    m: dict[str, float] = {}
    applies = where("transforms.apply")
    counts = where("transforms.count")
    for kind in KINDS:
        mine = [i for i in applies + counts if spans[i][4]["kind"] == kind]
        m[f"transforms.{kind}.calls"] = len(mine)
        m[f"transforms.{kind}.self_s"] = sum(self_time(i) for i in mine)
        m[f"transforms.{kind}.noop"] = sum(spans[i][4]["tnodes"] == 0
                                           for i in mine)
        m[f"transforms.{kind}.removed"] = sum(
            spans[i][4]["removed"] for i in applies
            if spans[i][4]["kind"] == kind)
    for name in ("aig.compact", "aig.metrics"):
        m[f"{name}.calls"] = len(where(name))
        m[f"{name}.s"] = total(name)

    def cache_passes(role: str, under=None) -> int:
        n = 0
        for i in applies:
            p = parent_of(i)
            if p is None or p[0] != "cache.apply_flow" or p[4]["role"] != role:
                continue
            if under is None or (p[3] >= 0 and spans[p[3]][0] == under):
                n += 1
        return n

    run_caches = [i for i in where("cache.apply_flow")
                  if spans[i][4]["role"] == "run"]
    lookups = sum(spans[i][4]["lookups"] for i in run_caches)
    misses = cache_passes("run")
    m["transforms.cache.lookups"] = lookups
    m["transforms.cache.misses"] = misses
    m["transforms.cache.hit_ratio"] = 1 - misses / lookups if lookups else 0.0
    m["transforms.cache.ands_held"] = ands_held
    m["transforms.distinct_ratio"] = (
        len({spans[i][4]["key"] for i in applies}) / len(applies)
        if applies else 0.0)

    m["bandit.init_s"] = total("bandit.init")
    m["bandit.init_passes"] = len(counts)
    m["bandit.init_distinct"] = len({spans[i][4]["key"] for i in counts})
    m["bandit.pull_s"] = total("bandit.pull")
    m["bandit.pulls"] = len(where("bandit.pull"))
    m["bandit.bookkeeping_s"] = sum(self_time(i)
                                    for i in where("multistage.run_stage"))

    checks = where("aig.equivalent")
    m["aig.equivalent_s"] = total("aig.equivalent")
    m["aig.equivalent_patterns"] = sum(spans[i][4]["patterns"] for i in checks)

    m["cli.replay_s"] = sum(duration(i) for i in where("cache.apply_flow")
                            if spans[i][4]["role"] == "replay")
    m["cli.replay_passes"] = cache_passes("replay")
    runs = where("multistage.run")
    m["multistage.run_s"] = total("multistage.run")
    m["multistage.commit_passes"] = cache_passes("run", under="multistage.run")
    m["multistage.final_depth"] = sum(spans[i][4]["final_depth"] for i in runs)
    m["aiger.parse_s"] = total("aiger.parse")
    m["aiger.write_s"] = total("aiger.write")
    m["blif.parse_s"] = total("blif.parse")
    return m


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracing.py SPANS.json COMMAND [ARGS...]", file=sys.stderr)
        return 2
    from flowtune import cli

    tracer = Tracer()
    held = install(tracer)
    root = tracer.begin("cli.main")
    try:
        code = cli.main(argv[1:])
    finally:
        tracer.end(root)
    with open(argv[0], "w") as fh:
        json.dump({"spans": tracer.spans,
                   "ands_held": sum(n for _, n in held.values())}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
