"""The shipped scripts: outputs against the golden files, bad arguments."""

import importlib.util
import json
import math
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(name):
    path = os.path.join(ROOT, "scripts", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_tables_writes_the_golden_tables(tmp_path):
    # perfbench/workloads.py keeps its own copy of the four studies, so
    # that an edit to the script cannot change the benchmark; this ties
    # the two copies together through their outputs
    golden = os.path.join(ROOT, "perfbench", "golden", "tables")
    assert load_script("make_tables").main(["--out-dir", str(tmp_path)]) == 0
    names = sorted(os.listdir(golden))
    assert names == ["energy.csv", "l2.csv", "singular.csv",
                     "small-gamma.csv"]
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(golden, name), "rb") as fh:
            want = fh.read()
        assert (tmp_path / name).read_bytes() == want, name


@pytest.mark.parametrize("gamma", ["-1", "0", "nan", "inf"])
def test_stability_report_rejects_a_bad_gamma(capsys, gamma):
    with pytest.raises(SystemExit) as exc:
        load_script("stability_report").main(["--gammas", "1", gamma])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and "gamma" in err and "Traceback" not in err


@pytest.mark.parametrize("levels", [["10", "10"], ["-1", "2"]])
def test_stability_report_rejects_a_bad_level(capsys, levels):
    # refused by the same check as a config's levels, before any solve
    with pytest.raises(SystemExit) as exc:
        load_script("stability_report").main(["--levels", *levels])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error: " in line] == [
        err.splitlines()[-1]]
    assert "bad value for --levels: " in err and "Traceback" not in err


def test_stability_report_prints_bounded_sequences(capsys):
    assert load_script("stability_report").main(
        ["--levels", "2", "3", "--gammas", "1"]) == 0
    blocks = capsys.readouterr().out.split("\n\n")
    assert blocks[-1] == ""
    assert [b.splitlines()[0] for b in blocks[:-1]] == [
        "example1  gamma=1", "example2  gamma=1"]
    for block in blocks[:-1]:
        lines = block.splitlines()
        assert lines[1].split() == ["level", "state", "norm", "trace",
                                    "seminorm"]
        assert [line.split()[0] for line in lines[2:]] == [
            "2", "3", "spread"]
        values = [float(v) for line in lines[2:] for v in line.split()[1:]]
        assert len(values) == 6 and all(map(math.isfinite, values))
        assert all(v >= 1.0 for v in values[4:])


STAGES = ["start", "mesh", "DofMap and cell geometry", "stiffness K",
          "mass M", "boundary mass M_Gamma", "loads", "solve"]


@pytest.mark.parametrize("tolerance", [None, 1e-30])
def test_stage_memory_prints_every_stage(tmp_path, capsys, tolerance):
    # a gate that no solve meets is one line after the solve stage
    config = "example1"
    if tolerance is not None:
        config = str(tmp_path / "strict.json")
        (tmp_path / "strict.json").write_text(json.dumps(
            {"problem": "example1", "solver_tolerance": tolerance}))
    assert load_script("stage_memory").main(
        ["--config", config, "--level", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["after", "stage", "peak", "MB"]
    rows = lines[1:1 + len(STAGES)]
    assert [row.rsplit(None, 1)[0] for row in rows] == STAGES
    peaks = [float(row.rsplit(None, 1)[1]) for row in rows]
    assert peaks == sorted(peaks) and peaks[0] > 0
    tail = lines[1 + len(STAGES):]
    if tolerance is None:
        assert tail == []
    else:
        assert len(tail) == 1
        assert tail[0].startswith("SolverError: relative residual")


@pytest.mark.parametrize("config,level", [
    ("nosuch", "3"),                                  # no such file
    ('{"problem": "example1", "gamma": -1}', "3"),    # a ConfigError
    ("example1", "-1"),
    ("example1", "10"),                               # above the bound
    ('{"problem": "example1", "domain": [0, 1e-300, 0, 1e-300]}', "3"),
    ('{"problem": "example1", "f": "log(x1-0.5)"}', "2"),  # an EvalError
])
def test_stage_memory_rejects_a_bad_argument(tmp_path, capsys, config,
                                             level):
    if config.startswith("{"):
        (tmp_path / "bad.json").write_text(config)
        config = str(tmp_path / "bad.json")
    with pytest.raises(SystemExit) as exc:
        load_script("stage_memory").main(["--config", config,
                                          "--level", level])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("script,argv,code,message", [
    # the data overflow: a SolverError in the first solve
    ("stability_report", ["--levels", "2", "2", "--gammas", "1e-300"], 3,
     "solver error: the norm of the right-hand side is not finite"),
    # data that cannot be evaluated: an EvalError in the loads stage
    ("stage_memory", ["--config", "log.json", "--level", "2"], 2,
     "error: evaluation failed: invalid value encountered in log"),
    # an output directory under a regular file: a NotADirectoryError
    ("make_tables", ["--out-dir", "file/tables"], 2,
     "error: [Errno 20] Not a directory"),
])
def test_a_failed_run_ends_in_one_line(tmp_path, monkeypatch, capsys,
                                       script, argv, code, message):
    # the way dbcfem ends the same failure: its exit status and one line
    monkeypatch.chdir(tmp_path)
    (tmp_path / "log.json").write_text(json.dumps(
        {"problem": "example1", "f": "log(x1-0.5)"}))
    (tmp_path / "file").write_text("")
    with pytest.raises(SystemExit) as exc:
        load_script(script).main(argv)
    assert exc.value.code == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(message), err
