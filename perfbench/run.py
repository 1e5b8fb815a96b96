"""flowtune benchmark: ``flowtune explore`` wall time, QoR and peak memory.

Usage, from the repository root::

    python3 perfbench/run.py --workload narrow-16in --seed 1 --seconds 45 --trace 0

Each timed run is one ``flowtune explore --jobs 1`` in a fresh process
(``python3 -m flowtune`` on ``src/``), one after another, with
FLOWTUNE_LOG unset.  The workload seed picks the circuits and the explore
seeds; circuit sizes are fixed.  Every run's outputs are checked by the
benchmark's own AIGER evaluator (``circuit.py``), and a workload's QoR and
counts must repeat exactly across runs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced runs with traced ones (``tracing.py``) on the first circuit and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from circuit import Circuit, check_patterns, same_function
from tracing import SPAN_METRICS, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3  # timed set-ups after each explore step
DEADLINE_S = 150  # after the first explore starts, no run goes on past this
CHECK_PATTERNS = 8192  # random patterns for circuits above 16 inputs


def suite_spec(i: int) -> tuple[int, int, int, int]:
    """SUITE_SPECS[i] of the acceptance suite: (inputs, ANDs, outputs, seed)."""
    return 24 + 8 * (i % 5), round(1000 * 5 ** (i / 19)), 16, 9000 + i


@dataclass(frozen=True)
class Workload:
    spec: tuple[int, int, int, int]  # GenSpec fields; the seed is a base
    preset: str
    reps: int
    fmt: str  # "aag" or "blif"
    circuits: int  # circuits set up for an untraced run


WORKLOADS = {
    # 24-step flows: many cache lookups and no-op passes, little init
    "longflow-reps4": Workload(suite_spec(9), "2:30", 4, "aag", 8),
    # 16 inputs: exhaustive resub and final check, BLIF input, six stages
    "narrow-16in": Workload((16, 8000, 16, 9100), "6:10", 1, "blif", 10),
}

END_TO_END_UNITS = {"explore_s": "s", "peak_rss_mb": "MB",
                    "final_nodes": "nodes", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


@dataclass
class Instance:
    index: int
    unit: int  # GenSpec seed offset and explore seed
    path: Path
    reference: Circuit
    patterns: list[int]
    width: int


@dataclass
class SetupTimes:
    gen: list[float]  # gen_random alone
    total: list[float]  # gen_random, the input text and the file write
    texts: dict[int, set[str]]  # input files written, per circuit


@dataclass
class Outcome:
    ok: bool
    wall_s: float
    rss_mb: float
    signature: tuple = ()  # (final nodes, best flow, output digest)
    layers: dict | None = None


def set_up(work: Workload, index: int, unit: int, path: Path,
           times: SetupTimes):
    """Generate circuit `unit` and write its input file, timed; returns
    the graph and the file text."""
    from flowtune import GenSpec, gen_random, write_aiger

    ni, na, no, base = work.spec
    gc.collect()  # no collection of the benchmark's own objects in a sample
    t0 = time.perf_counter()
    g = gen_random(GenSpec(ni, na, no, base + 1000 * unit))
    t1 = time.perf_counter()
    text = (write_aiger(g) if work.fmt == "aag"
            else Circuit.from_aig(g).to_blif())
    path.write_text(text)
    t2 = time.perf_counter()
    times.gen.append(t1 - t0)
    times.total.append(t2 - t0)
    times.texts.setdefault(index, set()).add(text)
    return g, text


def instance(work: Workload, seed: int, index: int, workdir: Path,
             times: SetupTimes) -> Instance:
    """Set up circuit `index` of this seed: its input file and reference."""
    unit = seed * work.circuits + index
    path = workdir / f"c{index}.{work.fmt}"
    g, text = set_up(work, index, unit, path, times)
    reference = (Circuit.from_aag(text) if work.fmt == "aag"
                 else Circuit.from_aig(g))
    # flowtune's own check draws its patterns from the explore seed
    # (`unit`), so the benchmark's are drawn from another one
    patterns, width = check_patterns(work.spec[0], f"perfbench-check-{unit}",
                                     CHECK_PATTERNS)
    return Instance(index, unit, path, reference, patterns, width)


def explore(work: Workload, inst: Instance, workdir: Path, traced: bool,
            timeout: float) -> Outcome:
    """One timed explore process, then the benchmark's own output check."""
    prefix = workdir / f"out{inst.index}"
    spans = workdir / f"spans{inst.index}.json"
    args = ["explore", "--input", str(inst.path), "--seed",
            str(inst.unit), "--jobs", "1", "--preset", work.preset,
            "--out", str(prefix)]
    if work.reps > 1:
        args += ["--reps", str(work.reps)]
    if traced:
        cmd = [sys.executable, str(HERE / "tracing.py"), str(spans)] + args
    else:
        cmd = [sys.executable, "-m", "flowtune"] + args
    env = {k: v for k, v in os.environ.items() if k != "FLOWTUNE_LOG"}
    env["PYTHONPATH"] = str(SRC)
    outputs = [prefix.with_suffix(x) for x in (".json", ".aag", ".csv")]
    for stale in [spans] + outputs:
        stale.unlink(missing_ok=True)
    errlog = workdir / "stderr.txt"
    launch = [sys.executable, str(HERE / "launch.py"), str(timeout)]
    with open(errlog, "wb") as err:
        done = subprocess.run(launch + cmd, env=env, stdout=subprocess.PIPE,
                              stderr=err, timeout=timeout + 30)
    run = json.loads(done.stdout.decode().splitlines()[-1])
    wall, rss_mb = run["wall_s"], run["maxrss_kb"] / 1024.0
    if run["exit"] != 0:
        return _failed(f"exit code {run['exit']}", errlog, wall, rss_mb)
    try:
        summary = json.loads(prefix.with_suffix(".json").read_text())
        final_nodes = summary["final"]["nodes"]
        best_flow = tuple(summary["best_flow"])
        checked = summary["equivalence"]["ok"]
        aag = prefix.with_suffix(".aag").read_text()
        result = Circuit.from_aag(aag)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return _failed(f"unreadable outputs: {exc!r}", errlog, wall, rss_mb)
    if len(result.ands) != final_nodes:
        return _failed(f"run.aag has {len(result.ands)} ANDs, run.json "
                       f"says {final_nodes}", errlog, wall, rss_mb)
    if checked is not True:
        return _failed("run.json reports a failed check", errlog, wall, rss_mb)
    if not same_function(inst.reference, result, inst.patterns, inst.width):
        return _failed("run.aag differs from the input", errlog, wall, rss_mb)
    layers = None
    if traced:
        data = json.loads(spans.read_text())
        layers = summarize(data["spans"], data["ands_held"])
    digest = hashlib.sha256(aag.encode()).hexdigest()
    return Outcome(True, wall, rss_mb, (final_nodes, best_flow, digest), layers)


def _failed(reason: str, errlog: Path, wall: float, rss_mb: float) -> Outcome:
    tail = errlog.read_text(errors="replace")[-2000:] if errlog.exists() else ""
    print(f"run failed: {reason}\n{tail}", file=sys.stderr)
    return Outcome(False, wall, rss_mb)


def repeats_exactly(values: list, what: str) -> bool:
    if len(set(values)) <= 1:
        return True
    print(f"not deterministic: {what} took values {sorted(set(values))}",
          file=sys.stderr)
    return False


def measure(work: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    """Set up, run and check one workload; returns the JSON result."""
    times = SetupTimes([], [], {})
    count = 1 if trace else work.circuits
    instances = [instance(work, seed, j, workdir, times) for j in range(count)]
    modes = (False, True) if trace else (False,)
    runs: dict[tuple[int, bool], list[Outcome]] = {
        (i.index, m): [] for i in instances for m in modes}
    # Every circuit is explored once, so final_nodes always averages the
    # same circuits (they take about `seconds` on a 2-core machine), then
    # round-robin until the time is up.  A traced run makes at least two traced and two
    # untraced explores, alternating which goes first.  After each step the
    # next circuit is set up SETUP_REPEATS more times, so the set-up
    # samples spread over the run as the explores do.  Nothing runs past
    # DEADLINE_S, so a very slow program still ends in time, without the
    # circuits it did not reach.
    min_steps = max(count, 2 if trace else 1)
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    step = 0
    while step < min_steps or time.perf_counter() - start < seconds:
        if time.perf_counter() >= deadline:
            print(f"stopped at the {DEADLINE_S} s deadline after {step} "
                  "steps", file=sys.stderr)
            break
        inst = instances[step % count]
        for traced in (modes if step % 2 == 0 else modes[::-1]):
            timeout = max(1.0, deadline - time.perf_counter())
            outcome = explore(work, inst, workdir, traced, timeout)
            runs[inst.index, traced].append(outcome)
            nodes = outcome.signature[0] if outcome.ok else "failed"
            print(f"circuit {inst.index}{' traced' if traced else ''}: "
                  f"{outcome.wall_s:.3f} s, {outcome.rss_mb:.1f} MB, "
                  f"{nodes} nodes", file=sys.stderr)
        following = instances[(step + 1) % count]
        for _ in range(SETUP_REPEATS):
            set_up(work, following.index, following.unit, following.path,
                   times)
        step += 1

    every = [o for outs in runs.values() for o in outs]
    attempted = len(every)
    failed = sum(not o.ok for o in every)
    correct = failed == 0
    for index, texts in sorted(times.texts.items()):
        if len(texts) > 1:
            print(f"not deterministic: circuit {index} was generated "
                  f"{len(texts)} different ways", file=sys.stderr)
            correct = False
    for inst in instances:  # traced and untraced runs alike
        good = [o for m in modes for o in runs[inst.index, m] if o.ok]
        correct &= repeats_exactly([o.signature for o in good],
                                   f"circuit {inst.index} final nodes/flow/output")
    if not correct:
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}

    def median_of(index: int, traced: bool, field: str) -> float:
        return statistics.median(getattr(o, field)
                                 for o in runs[index, traced])

    if not trace:
        ran = [i.index for i in instances if runs[i.index, False]]
        values = {
            "explore_s": statistics.fmean(
                median_of(i, False, "wall_s") for i in ran),
            "peak_rss_mb": statistics.fmean(
                median_of(i, False, "rss_mb") for i in ran),
            "final_nodes": statistics.fmean(
                runs[i, False][0].signature[0] for i in ran),
            "setup_s": statistics.median(times.total),
        }
        units = END_TO_END_UNITS
    else:
        traced = [o.layers for o in runs[0, True]]
        values = {}
        for name in SPAN_METRICS:
            samples = [layers[name] for layers in traced]
            if layer_unit(name) == "count":
                correct &= repeats_exactly(samples, name)
                values[name] = samples[0]
            else:
                values[name] = statistics.median(samples)
        values["randgen.gen_s"] = statistics.median(times.gen)
        values["trace.overhead_s"] = (median_of(0, True, "wall_s")
                                      - median_of(0, False, "wall_s"))
        units = {name: layer_unit(name) for name in values}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "flowtune" / "cli.py").is_file():
        print(f"error: no flowtune sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
