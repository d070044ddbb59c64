"""The shipped scripts: outputs against the golden files, bad arguments."""

import importlib.util
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
