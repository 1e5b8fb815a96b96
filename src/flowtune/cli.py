"""Command-line harness: exploration runs, transformable-node profiling,
search-space queries, random baselines and synthetic bandit checks.

Every command takes an explicit --seed; there is no wall-clock default, so
identical invocations produce byte-identical outputs.  Set FLOWTUNE_LOG to
debug/info/warning/error for logging verbosity, or to "timing" to record
real per-pull wall times in the elapsed_ms column (off by default because
it breaks byte-for-byte reproducibility).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import os
import sys

from .aig import EXHAUSTIVE_INPUT_LIMIT, Aig, Objective, equivalent
from .aiger import parse_aiger, write_aiger
from .bandit import run_bernoulli_random, run_bernoulli_ucb
from .blif import parse_blif
from .errors import ParseError
from .flowspace import (Multiset, count_m_repetition, count_multiset,
                        count_none_repetition, flow_length)
from .multistage import (DEFAULT_PRESET, SCHEDULE_PRESETS, StageSchedule,
                         profile_positions, random_baseline, run)
from .randgen import GenSpec, gen_random
from .transforms import DEFAULT_KINDS, TransformKind

log = logging.getLogger("flowtune")

RANDOM_CHECK_PATTERNS = 4096


def _setup_logging() -> bool:
    """Configure logging from FLOWTUNE_LOG; returns whether to measure time."""
    raw = os.environ.get("FLOWTUNE_LOG", "").lower()
    measure = raw == "timing"
    level = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "timing": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }.get(raw, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    return measure


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _parse_kinds(spec: str | None) -> tuple[TransformKind, ...]:
    if not spec:
        return DEFAULT_KINDS
    kinds = []
    for name in spec.split(","):
        name = name.strip()
        try:
            kind = TransformKind(name)
        except ValueError:
            valid = ", ".join(k.value for k in TransformKind)
            raise SystemExit(f"error: unknown transform {name!r} (valid: {valid})")
        if kind in kinds:
            raise SystemExit(f"error: transform {name!r} given more than once")
        kinds.append(kind)
    return tuple(kinds)


def _load_circuit(args) -> Aig:
    if args.generate and args.input:
        raise SystemExit("error: --input and --generate are mutually exclusive")
    if args.generate:
        try:
            ni, na, no = (int(x) for x in args.generate.split(","))
            spec = GenSpec(ni, na, no, args.seed)
        except ValueError:
            raise SystemExit("error: --generate expects INPUTS,ANDS,OUTPUTS "
                             "with INPUTS, OUTPUTS >= 1, ANDS >= 0 and "
                             "INPUTS >= 2 when ANDS > 0")
        return gen_random(spec)
    if not args.input:
        raise SystemExit("error: provide --input FILE or --generate I,A,O")
    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit(f"error: cannot read {args.input}: {exc}")
    fmt = args.format
    if fmt == "auto":
        fmt = "blif" if args.input.lower().endswith(".blif") else "aiger"
    try:
        return parse_blif(text) if fmt == "blif" else parse_aiger(text)
    except ParseError as exc:
        for diag in exc.diagnostics:
            print(f"{args.input}:{diag}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _open_out(path):
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path}: {exc}")


def _write_all(texts: dict[str, str]) -> None:
    """Write each path's text, or no file at all if one cannot be opened."""
    opened = []
    try:
        for path in texts:
            opened.append(_open_out(path))
    except SystemExit:
        for fh in opened:
            fh.close()
            os.remove(fh.name)
        raise
    for fh, text in zip(opened, texts.values()):
        with fh:
            fh.write(text)


def _flow_str(flow) -> str:
    return ";".join(k.value for k in flow)


EXPLORE_FIELDS = ["stage", "iteration", "arm_id", "first_transform", "flow",
                  "value", "reward_delta", "q_mean", "ucb_bonus",
                  "cumulative_regret", "nodes", "depth", "elapsed_ms"]


def cmd_explore(args) -> int:
    measure = _setup_logging()
    aig = _load_circuit(args)
    kinds = _parse_kinds(args.kinds)
    objective = Objective(args.objective)
    if args.stages or args.iters:
        if not (args.stages and args.iters):
            raise SystemExit("error: --stages and --iters go together")
        schedule = StageSchedule(args.stages, args.iters, args.top_k,
                                 args.reps)
    else:
        schedule = StageSchedule.from_preset(args.preset, args.top_k,
                                             args.reps)
    result = run(aig, schedule, objective, kinds, seed=args.seed,
                 measure_time=measure)

    if aig.num_inputs <= EXHAUSTIVE_INPUT_LIMIT:
        check_mode = "exhaustive"
        ok = equivalent(aig, result.final, "exhaustive")
    else:
        check_mode = "random"
        ok = equivalent(aig, result.final, "random",
                        count=RANDOM_CHECK_PATTERNS, seed=args.seed)
    if not ok:
        print("error: optimized circuit failed the equivalence check",
              file=sys.stderr)
        return 2

    table = io.StringIO()
    w = csv.writer(table)
    w.writerow(EXPLORE_FIELDS)
    for r in result.log:
        w.writerow([r.stage, r.iteration, r.arm_id, r.first.value,
                    _flow_str(r.flow), _fmt(r.value), _fmt(r.reward_delta),
                    _fmt(r.q_mean), _fmt(r.ucb_bonus),
                    _fmt(r.cumulative_regret), r.nodes, r.depth,
                    _fmt(r.elapsed_ms)])
    summary = {
        "input": args.input or f"generate:{args.generate}",
        "seed": args.seed,
        "objective": objective.value,
        "kinds": [k.value for k in kinds],
        "schedule": {"stages": schedule.stages,
                     "iters_per_stage": schedule.iters_per_stage,
                     "top_k": schedule.top_k},
        "pulls": len(result.log),
        "initial": {"nodes": result.initial_qor.and_count,
                    "depth": result.initial_qor.depth,
                    "objective_value": result.initial_qor.objective_value},
        "final": {"nodes": result.final_qor.and_count,
                  "depth": result.final_qor.depth,
                  "objective_value": result.final_qor.objective_value},
        "best_flow": [k.value for k in result.best_flow_overall],
        "equivalence": {"mode": check_mode, "ok": ok},
    }
    _write_all({args.out + ".csv": table.getvalue(),
                args.out + ".json": json.dumps(summary, indent=2,
                                               sort_keys=True) + "\n",
                args.out + ".aag": write_aiger(result.final)})
    log.info("explore done: %d -> %d nodes", result.initial_qor.and_count,
             result.final_qor.and_count)
    return 0


def cmd_profile(args) -> int:
    _setup_logging()
    aig = _load_circuit(args)
    kinds = _parse_kinds(args.kinds)
    stats = profile_positions(aig, kinds, args.flows, args.seed)
    with _open_out(args.out) as fh:
        w = csv.writer(fh)
        w.writerow(["position", "mean_rel", "min_rel", "max_rel", "mean_tnodes"])
        for row in stats:
            w.writerow([row["position"], _fmt(row["mean_rel"]),
                        _fmt(row["min_rel"]), _fmt(row["max_rel"]),
                        _fmt(row["mean_tnodes"])])
    return 0


def cmd_space(args) -> int:
    _setup_logging()
    if args.mvec:
        try:
            m_vec = [int(x) for x in args.mvec.split(",")]
        except ValueError:
            raise SystemExit(f"error: --mvec expects comma-separated "
                             f"integers, got {args.mvec!r}")
    elif args.n is None:
        raise SystemExit("error: provide --n N [--m M] or --mvec M0,M1,...")
    # the counting functions validate their arguments
    try:
        if args.mvec:
            lines = [f"multiset flows: {count_multiset(m_vec)}",
                     f"L = {flow_length(m_vec)}"]
        elif args.m is None or args.m == 1:
            lines = [f"none-repetition flows: {count_none_repetition(args.n)}"]
        else:
            lines = [f"{args.m}-repetition flows: "
                     f"{count_m_repetition(args.n, args.m)}",
                     f"L = {args.n * args.m}"]
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print("\n".join(lines))
    return 0


BASELINE_FIELDS = ["iteration", "flow", "value", "best_value", "nodes", "depth"]


def cmd_random_baseline(args) -> int:
    _setup_logging()
    aig = _load_circuit(args)
    kinds = _parse_kinds(args.kinds)
    multiset = Multiset.uniform(kinds, args.reps)
    rows, best_value, best_qor = random_baseline(
        aig, multiset, args.budget, args.seed, Objective(args.objective))
    with _open_out(args.out) as fh:
        w = csv.writer(fh)
        w.writerow(BASELINE_FIELDS)
        for r in rows:
            w.writerow([r["iteration"], _flow_str(r["flow"]), _fmt(r["value"]),
                        _fmt(r["best_value"]), r["nodes"], r["depth"]])
    log.info("baseline best value %s (%d nodes)", best_value,
             best_qor.and_count)
    return 0


SYNTH_FIELDS = ["step", "ucb_arm", "ucb_reward", "ucb_cum_regret",
                "rand_arm", "rand_reward", "rand_cum_regret"]


def cmd_bandit_synthetic(args) -> int:
    _setup_logging()
    try:
        means = [float(x) for x in args.means.split(",")]
    except ValueError:
        raise SystemExit(f"error: --means expects comma-separated numbers, "
                         f"got {args.means!r}")
    if len(means) < 2 or any(not 0.0 <= m <= 1.0 for m in means):
        raise SystemExit("error: --means needs >= 2 values in [0, 1]")
    ucb = run_bernoulli_ucb(means, args.steps, args.seed)
    rnd = run_bernoulli_random(means, args.steps, args.seed)
    with _open_out(args.out) as fh:
        w = csv.writer(fh)
        w.writerow(SYNTH_FIELDS)
        for i in range(args.steps):
            w.writerow([i + 1, ucb.arms[i], _fmt(ucb.rewards[i]),
                        _fmt(ucb.regret[i]), rnd.arms[i], _fmt(rnd.rewards[i]),
                        _fmt(rnd.regret[i])])
    best = max(range(len(means)), key=lambda i: means[i])
    shares = " ".join(f"{p / args.steps:.4f}" for p in ucb.pulls)
    print(f"# pull shares (ucb): {shares}", file=sys.stderr)
    print(f"# best-arm share (ucb): {ucb.pulls[best] / args.steps:.4f}",
          file=sys.stderr)
    print(f"# final regret ucb={ucb.regret[-1]:.2f} random={rnd.regret[-1]:.2f}",
          file=sys.stderr)
    return 0


def _add_circuit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="circuit file (.aag or .blif)")
    p.add_argument("--format", choices=["auto", "aiger", "blif"], default="auto")
    p.add_argument("--generate", metavar="I,A,O",
                   help="generate a seeded random circuit instead of reading one")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowtune",
        description="Autonomous synthesis-flow exploration on AIGs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="run the multi-stage bandit exploration")
    _add_circuit_args(p)
    p.add_argument("--kinds", help="comma-separated transform kinds (default: all six)")
    p.add_argument("--objective", choices=[o.value for o in Objective],
                   default=Objective.NODE_COUNT.value)
    p.add_argument("--preset", choices=sorted(SCHEDULE_PRESETS),
                   default=DEFAULT_PRESET, help="s:m schedule preset")
    p.add_argument("--stages", type=_positive_int,
                   help="explicit stage count (with --iters)")
    p.add_argument("--iters", type=_positive_int,
                   help="iterations per stage (with --stages)")
    p.add_argument("--top-k", type=_positive_int, default=2, dest="top_k")
    p.add_argument("--reps", type=_positive_int, default=1,
                   help="repetitions of each kind in every sampled flow")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True,
                   help="output prefix (.csv, .json, .aag are written)")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("profile", help="transformed-node share per flow position")
    _add_circuit_args(p)
    p.add_argument("--kinds")
    p.add_argument("--flows", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("space", help="exact search-space sizes")
    p.add_argument("--n", type=int, help="number of distinct transformations")
    p.add_argument("--m", type=_positive_int,
                   help="repetitions of every transformation")
    p.add_argument("--mvec", help="comma-separated per-kind repetition counts")
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("random-baseline", help="uniform random flow sampling")
    _add_circuit_args(p)
    p.add_argument("--kinds")
    p.add_argument("--reps", type=_positive_int, default=1)
    p.add_argument("--budget", type=_positive_int, required=True)
    p.add_argument("--objective", choices=[o.value for o in Objective],
                   default=Objective.NODE_COUNT.value)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_random_baseline)

    p = sub.add_parser("bandit-synthetic", help="UCB1 on Bernoulli arms")
    p.add_argument("--means", required=True, help="comma-separated arm means")
    p.add_argument("--steps", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bandit_synthetic)

    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    if out is not None:
        # checked before any work, so a long run never fails at the end
        out_dir = os.path.dirname(out) or "."
        if not os.path.isdir(out_dir):
            raise SystemExit(f"error: output directory {out_dir!r} "
                             f"does not exist")
        # explore's --out is a prefix; the others name the file itself
        for path in ([out + ext for ext in (".csv", ".json", ".aag")]
                     if args.command == "explore" else [out]):
            if os.path.isdir(path):
                raise SystemExit(f"error: output {path!r} is a directory")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
