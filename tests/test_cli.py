import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowtune
from flowtune import (GenSpec, apply_flow, gen_random, parse_aiger,
                      write_aiger)
from flowtune.cli import main
from flowtune.transforms import TransformKind

from conftest import NAMED_BLIF, build_chain


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestExplore:
    def test_depth_objective_on_chain(self, tmp_path):
        src = tmp_path / "chain.aag"
        src.write_text(write_aiger(build_chain(8)))
        out = tmp_path / "run"
        rc = main(["explore", "--input", str(src), "--kinds", "balance",
                   "--objective", "depth", "--stages", "1", "--iters", "3",
                   "--seed", "4", "--out", str(out)])
        assert rc == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["final"]["depth"] == 3
        assert summary["best_flow"][0] == "balance"
        assert summary["equivalence"] == {"mode": "exhaustive", "ok": True}
        # the optimized circuit was written and is readable
        from flowtune import parse_aiger, metrics
        opt = parse_aiger((tmp_path / "run.aag").read_text())
        assert metrics(opt).depth == 3

    def test_repeat_run_byte_identical(self, tmp_path):
        args = ["explore", "--generate", "12,300,6", "--seed", "9",
                "--stages", "2", "--iters", "4"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for ext in (".csv", ".json", ".aag"):
            assert (tmp_path / f"a{ext}").read_bytes() == \
                (tmp_path / f"b{ext}").read_bytes(), ext

    def test_written_graph_is_replayed_best_flow(self, tmp_path):
        src = tmp_path / "in.aag"
        src.write_text(write_aiger(gen_random(GenSpec(14, 500, 8, 2001))))
        main(["explore", "--input", str(src), "--seed", "7",
              "--stages", "2", "--iters", "5", "--out", str(tmp_path / "run")])
        summary = json.loads((tmp_path / "run.json").read_text())
        flow = [TransformKind(k) for k in summary["best_flow"]]
        assert flow
        replayed, _ = apply_flow(parse_aiger(src.read_text()), flow)
        assert (tmp_path / "run.aag").read_text() == write_aiger(replayed)

    def test_blif_names_written(self, tmp_path):
        src = tmp_path / "named.blif"
        src.write_text(NAMED_BLIF)
        main(["explore", "--input", str(src), "--seed", "3", "--stages", "1",
              "--iters", "2", "--out", str(tmp_path / "run")])
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["final"]["nodes"] < summary["initial"]["nodes"]
        lines = (tmp_path / "run.aag").read_text().splitlines()
        assert "i0 a" in lines
        assert "o0 chain" in lines

    def test_row_count_matches_schedule(self, tmp_path):
        main(["explore", "--generate", "10,200,4", "--seed", "3",
              "--stages", "4", "--iters", "15", "--out", str(tmp_path / "r")])
        rows = read_csv(tmp_path / "r.csv")
        assert len(rows) == 60
        assert rows[0]["stage"] == "0"
        assert rows[-1]["stage"] == "3"

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.aag"
        bad.write_text("not an aiger file")
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--input", str(bad), "--seed", "1",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 1
        assert "bad magic" in capsys.readouterr().err


class TestProfile:
    def test_first_position_normalized_to_one(self, tmp_path, capsys):
        rc = main(["profile", "--generate", "16,400,8", "--seed", "21",
                   "--flows", "20"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        assert first["position"] == "1"
        assert float(first["mean_rel"]) == 1.0

    def test_irredundant_reports_zero(self, tmp_path, capsys):
        src = tmp_path / "tree.aag"
        from conftest import build_balanced_tree
        src.write_text(write_aiger(build_balanced_tree(8)))
        main(["profile", "--input", str(src), "--seed", "2", "--flows", "5"])
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            row = line.split(",")
            assert float(row[1]) == 0.0  # guarded normalization, no crash

    def test_blif_suffix_detected_in_any_case(self, tmp_path, capsys):
        outs = []
        for name in ("n.blif", "N.BLIF", "n.Blif"):
            src = tmp_path / name
            src.write_text(NAMED_BLIF)
            rc = main(["profile", "--input", str(src), "--seed", "1",
                       "--flows", "1"])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].startswith("position,")
        assert outs[1] == outs[0] and outs[2] == outs[0]


class TestSpace:
    def test_none_repetition(self, capsys):
        main(["space", "--n", "3", "--m", "1"])
        assert "6" in capsys.readouterr().out

    def test_m_repetition(self, capsys):
        main(["space", "--n", "6", "--m", "4"])
        out = capsys.readouterr().out
        assert "3246670537110000" in out
        assert "L = 24" in out

    def test_multiset(self, capsys):
        main(["space", "--mvec", "2,1,1"])
        out = capsys.readouterr().out
        assert "12" in out
        assert "L = 4" in out


class TestRandomBaseline:
    def test_budget_one(self, capsys):
        main(["random-baseline", "--generate", "10,200,4", "--seed", "8",
              "--budget", "1"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # header plus one evaluation

    def test_best_value_is_running_max(self, tmp_path):
        out = tmp_path / "rb.csv"
        main(["random-baseline", "--generate", "12,300,6", "--seed", "5",
              "--budget", "12", "--out", str(out)])
        rows = read_csv(out)
        assert len(rows) == 12
        best = max(float(r["value"]) for r in rows)
        assert float(rows[-1]["best_value"]) == best
        for r in rows:
            assert float(r["best_value"]) >= float(r["value"])

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["random-baseline", "--generate", "12,300,6", "--seed", "5",
                "--budget", "6"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestBanditSynthetic:
    def test_schema_and_summary(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        rc = main(["bandit-synthetic", "--means", "0.9,0.1", "--steps", "500",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 500
        assert set(rows[0]) == {"step", "ucb_arm", "ucb_reward",
                                "ucb_cum_regret", "rand_arm", "rand_reward",
                                "rand_cum_regret"}
        err = capsys.readouterr().err
        assert "best-arm share" in err

    def test_rejects_bad_means(self):
        with pytest.raises(SystemExit):
            main(["bandit-synthetic", "--means", "0.9", "--seed", "1"])
        with pytest.raises(SystemExit):
            main(["bandit-synthetic", "--means", "0.9,1.5", "--seed", "1"])


EXPLORE = ["explore", "--generate", "6,30,2", "--seed", "1"]


@pytest.mark.parametrize("argv,expected", [
    (EXPLORE + ["--top-k", "0"], "positive integer"),
    (EXPLORE + ["--stages", "0", "--iters", "3"], "positive integer"),
    (EXPLORE + ["--stages", "2", "--iters", "0"], "positive integer"),
    (EXPLORE + ["--reps", "0"], "positive integer"),
    (EXPLORE + ["--reps", "-1"], "positive integer"),
    (EXPLORE + ["--kinds", "balance,balance"], "more than once"),
    (["random-baseline", "--generate", "6,30,2", "--seed", "1",
      "--budget", "0"], "positive integer"),
    (["random-baseline", "--generate", "6,30,2", "--seed", "1",
      "--budget", "2", "--reps", "0"], "positive integer"),
    (["space", "--n", "3", "--m", "0"], "positive integer"),
    (["profile", "--generate", "6,30,2", "--seed", "1", "--flows", "0"],
     "positive integer"),
    (["bandit-synthetic", "--means", "0.9,0.1", "--seed", "1",
      "--steps", "0"], "positive integer"),
    (["space", "--mvec", "0,0"], "must be >= 1"),
    (["space", "--mvec", "a,1"], "comma-separated integers"),
    (["space", "--n", "-1"], "must be >= 0"),
    (["explore", "--generate", "0,10,1", "--seed", "1"], "INPUTS,ANDS,OUTPUTS"),
    (["bandit-synthetic", "--means", "0.5,x", "--seed", "1"],
     "comma-separated numbers"),
], ids=["top-k", "stages", "iters", "reps-0", "reps-neg", "kinds-twice",
        "budget", "baseline-reps", "space-m", "flows", "steps", "space-mvec-0",
        "space-mvec-nonint", "space-n-neg", "generate-0-inputs",
        "means-nonnumeric"])
def test_bad_counts_rejected(argv, expected, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--out", str(tmp_path / "x")]
                     if argv[0] == "explore" else []))
    assert exc.value.code not in (0, None)
    message = f"{exc.value.code} {capsys.readouterr().err}"
    assert "error" in message
    assert expected in message
    assert not list(tmp_path.iterdir())  # nothing was written


@pytest.mark.parametrize("command", ["explore", "profile"])
def test_out_into_missing_directory_rejected(command, tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    with pytest.raises(SystemExit) as exc:
        main([command, "--generate", "6,30,2", "--seed", "1",
              "--out", str(out)])
    message = f"{exc.value.code} {capsys.readouterr().err}"
    assert "error" in message and "does not exist" in message
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["profile", "--generate", "6,30,2"],
    ["random-baseline", "--generate", "6,30,2", "--budget", "2"],
    ["bandit-synthetic", "--means", "0.9,0.1"],
], ids=["profile", "random-baseline", "bandit-synthetic"])
def test_out_naming_a_directory_rejected(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1", "--out", str(tmp_path)])
    message = f"{exc.value.code} {capsys.readouterr().err}"
    assert "error" in message and "is a directory" in message
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("ext", [".csv", ".json", ".aag"])
def test_explore_output_naming_a_directory_rejected(ext, tmp_path, capsys):
    (tmp_path / f"c{ext}").mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["explore", "--generate", "8,60,2", "--seed", "5",
              "--out", str(tmp_path / "c")])
    message = f"{exc.value.code} {capsys.readouterr().err}"
    assert "error" in message and "is a directory" in message
    assert f"c{ext}" in message
    assert [p.name for p in tmp_path.iterdir()] == [f"c{ext}"]


def test_explore_output_that_cannot_be_opened_rejected(tmp_path, capsys):
    # 251 characters: the .csv and .aag names fit the 255-character
    # limit on a file name, the .json name does not
    out = tmp_path / ("x" * 251)
    with pytest.raises(SystemExit) as exc:
        main(["explore", "--generate", "8,60,2", "--seed", "5",
              "--out", str(out)])
    message = f"{exc.value.code} {capsys.readouterr().err}"
    assert "error" in message and "cannot write" in message
    assert ".json" in message
    # all three outputs or none: the .csv opened before the failure is gone
    assert list(tmp_path.iterdir()) == []


def test_out_that_cannot_be_opened_rejected(tmp_path, capsys):
    out = tmp_path / ("x" * 300)  # longer than a file name may be
    with pytest.raises(SystemExit) as exc:
        main(["bandit-synthetic", "--means", "0.9,0.1", "--seed", "1",
              "--out", str(out)])
    message = f"{exc.value.code} {capsys.readouterr().err}"
    assert "error" in message and "cannot write" in message


# sha256 of explore's outputs on a 12-input circuit (exhaustive resub and
# final check), a 24-input one (sampled) and a repeated-kind run whose
# top-k exceeds the arm count; a change that alters any pass result, pull,
# log row or summary field shows here.  Keys are --generate, then any
# further explore arguments.
PINNED_EXPLORE = {
    "12,400,4": {
        ".csv": "8be4ef9070c8949ecb090feb4a0a2e46f11f8cf3ffaa4c7a5ab5bb163ab7a6c3",
        ".json": "7a161a05fe6b6da0a9106e140200e850df34ba24633b804d6752c52ba16a8c0c",
        ".aag": "2fd8fad75a065ec8dfe6612490ae07f4df1cdc24c9b9b1102c1f1c793ac00518",
    },
    "24,600,8": {
        ".csv": "9add1cee4d99497a8efe5ca52e2a458deeec774e0956920a058589bb5b044e14",
        ".json": "254c46b6fa9725fa5f912919c8d29d5a39329384d2b4dfa39e8c57b863500d75",
        ".aag": "de33cb6641bc2b654443d95f15d67a7752721783caaf084e4cf2f3bc09671d96",
    },
    "12,300,4 --reps 2 --preset 3:20 --top-k 9": {
        ".csv": "06b645f73727d981676aac2a53ba1d2654c9a9482c43067e1dfc636b1423f569",
        ".json": "846c95970dc07f5200cbcbae27c9a51212f665cf11b5ab8499236ca1662e8113",
        ".aag": "be39e569326b389511826e913ea86cf59c7b7ba53233916238845fdf9469131d",
    },
}


@pytest.mark.parametrize("generate", sorted(PINNED_EXPLORE))
def test_explore_outputs_pinned(generate, tmp_path):
    prefix = tmp_path / "run"
    spec, *extra = generate.split()
    assert main(["explore", "--generate", spec, "--seed", "3", *extra,
                 "--out", str(prefix)]) == 0
    got = {ext: hashlib.sha256((tmp_path / f"run{ext}").read_bytes())
           .hexdigest() for ext in (".csv", ".json", ".aag")}
    assert got == PINNED_EXPLORE[generate]


@pytest.mark.skipif(importlib.util.find_spec("_sha2") is None
                    and importlib.util.find_spec("_sha256") is None,
                    reason="no builtin SHA-256 in this interpreter")
def test_import_does_not_load_openssl(tmp_path):
    # a fresh interpreter: this one has imported hashlib already.  After
    # one explore, every top-level module loaded past interpreter start-up
    # (which may run .pth imports) must be stdlib or flowtune itself, and
    # none may be the data-class module or the modules it loads.
    script = """if True:
        import sys
        start = {m.partition('.')[0] for m in sys.modules}
        import flowtune.cli
        code = flowtune.cli.main(['explore', '--generate', '8,60,4', '--seed',
                                  '1', '--out', sys.argv[1]])
        loaded = {m.partition('.')[0] for m in sys.modules} - start
        print(code, '_hashlib' in sys.modules)
        print(sorted(loaded - set(sys.stdlib_module_names) - {'flowtune'}))
        print([m for m in ('dataclasses', 'inspect', 'ast', 'dis')
               if m in sys.modules])
    """
    src = str(Path(flowtune.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "run")],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-3:] == ["0 False", "[]", "[]"]


def test_public_names_resolve_once():
    names = flowtune.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(flowtune, n)]
    assert not missing
