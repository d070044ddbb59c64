"""End-to-end CLI behavior: files written, exit codes, determinism.

Everything runs in-process through main(argv) so coverage and debugging
stay simple; the exit-code contract is 0 success, 2 config/usage,
3 solver failure, 4 verification failure.
"""

import json

import numpy as np
import pytest
from scipy.io import mmread

import dbcfem.cli as cli
from dbcfem.cli import main


def write_config(tmp_path, payload, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestSolve:
    def test_writes_solution_bundle(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--config", "example1", "--level", "1",
                     "--out", str(out)])
        assert code == 0
        assert "solved example1 level 1" in capsys.readouterr().out

        vtk = (out / "solution.vtk").read_text()
        assert vtk.startswith("# vtk DataFile Version 3.0")
        assert "CELLS 32" in vtk
        assert "SCALARS y double 1" in vtk and "SCALARS z double 1" in vtk

        control = (out / "control.csv").read_text().splitlines()
        assert control[0] == "arc_length,x1,x2,u"
        assert len(control) == 1 + 16  # 16 boundary panels at level 1
        first = control[1].split(",")
        assert float(first[0]) == 0.0

        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "solve"
        assert summary["problem"] == "example1"
        assert len(summary["config_hash"]) == 16
        assert summary["report"]["num_triangles"] == 32
        assert "errors" in summary["report"]["norms"]
        assert len(summary["iterations"]) == 1
        assert summary["iterations"][0] > 0

    def test_control_column_matches_boundary_trace(self, tmp_path):
        out = tmp_path / "run"
        main(["solve", "--config", "example1", "--level", "1",
              "--out", str(out)])
        rows = [line.split(",") for line in
                (out / "control.csv").read_text().splitlines()[1:]]
        # the exact control on the unit square boundary is
        # x1^2 - x1 + x2^2 - x2; nodal agreement is first order
        for s, x1, x2, u in ((float(a), float(b), float(c), float(d))
                             for a, b, c, d in rows):
            exact = x1 ** 2 - x1 + x2 ** 2 - x2
            assert abs(u - exact) < 0.1

    def test_dump_matrix_round_trips(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--config", "example1", "--level", "2",
                     "--out", str(out), "--dump-matrix"])
        assert code == 0
        def read_dense(path):
            m = mmread(str(path))
            return m.toarray() if hasattr(m, "toarray") else np.asarray(m)

        system = read_dense(out / "system.mtx")
        rhs = read_dense(out / "rhs.mtx")
        # level 2: 81 vertices, 49 interior -> coupled system of 130 rows
        assert system.shape == (130, 130)
        assert rhs.shape == (130, 1)

    def test_each_operator_assembled_once(self, tmp_path, assembly_calls):
        code = main(["solve", "--config", "example1", "--level", "2",
                     "--out", str(tmp_path / "run")])
        assert code == 0
        assert sorted(assembly_calls) == [("boundary_mass", 2), ("mass", 2),
                                          ("stiffness", 2)]

    def test_negative_level_is_a_usage_error(self, tmp_path, capsys):
        code = main(["solve", "--config", "example1", "--level", "-1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "nonnegative" in capsys.readouterr().err


class TestConvergence:
    def test_csv_and_run_record(self, tmp_path, capsys):
        config = write_config(tmp_path, {"problem": "example1",
                                         "levels": [0, 1]})
        out = tmp_path / "table.csv"
        code = main(["convergence", "--config", config, "--out", str(out)])
        assert code == 0

        csv_text = out.read_text()
        assert capsys.readouterr().out == csv_text
        lines = csv_text.splitlines()
        assert lines[0] == "h,h1_y,order_h1_y,h1_z,order_h1_z,l2_u,order_l2_u"
        assert len(lines) == 3
        assert lines[1].split(",")[1:3] != ["", ""]

        record = json.loads((tmp_path / "table.run.json").read_text())
        assert record["command"] == "convergence"
        assert record["levels"] == [0, 1]
        assert len(record["residuals"]) == 2
        assert len(record["iterations"]) == 2
        assert set(record["report"]["errors"]) == {"h1_y", "h1_z", "l2_u"}

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, {"problem": "example1",
                                         "levels": [0, 1]})
        out = tmp_path / "table.csv"
        main(["convergence", "--config", config, "--out", str(out)])
        first = out.read_bytes()
        main(["convergence", "--config", config, "--out", str(out)])
        assert out.read_bytes() == first


class TestVerify:
    def test_property_suite_passes(self, tmp_path, capsys):
        config = write_config(tmp_path, {"problem": "example1",
                                         "levels": [1, 2, 3]})
        code = main(["verify", "--config", config])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        for name in ("homogeneous-data-zero-solution",
                     "state-galerkin-identity", "adjoint-consistency",
                     "boundary-bubble-inverse-estimate",
                     "l2-error-controlled-by-h1",
                     "discrete-stability-bounded"):
            assert "PASS %s" % name in out

    def test_each_operator_assembled_once_per_level(self, capsys,
                                                    assembly_calls):
        assert main(["verify", "--config", "example1"]) == 0
        for kind in ("stiffness", "mass", "boundary_mass"):
            levels = [lv for k, lv in assembly_calls if k == kind]
            assert levels == [0, 1, 2, 3, 4], kind

    def test_thin_config_skips_unverifiable_checks(self, tmp_path, capsys):
        config = write_config(tmp_path, {"problem": "example1",
                                         "levels": [0]})
        code = main(["verify", "--config", config])
        out = capsys.readouterr().out
        assert code == 0
        assert "SKIP boundary-bubble-inverse-estimate" in out
        assert "SKIP discrete-stability-bounded" in out

    def test_failed_check_exits_four(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._TOLERANCES, "galerkin", 1e-30)
        config = write_config(tmp_path, {"problem": "example1",
                                         "levels": [0, 1]})
        code = main(["verify", "--config", config])
        assert code == 4
        assert "FAIL state-galerkin-identity" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "absent.json"),
                     "--level", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_preset_name(self, tmp_path):
        assert main(["solve", "--config", "not-a-preset", "--level", "0",
                     "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["verify", "--config", str(path)]) == 2

    def test_unknown_config_key(self, tmp_path):
        config = write_config(tmp_path, {"problem": "example1", "zap": 1})
        assert main(["verify", "--config", config]) == 2

    def test_unreachable_tolerance_is_a_solver_failure(self, tmp_path,
                                                       capsys):
        config = write_config(tmp_path, {"problem": "example1",
                                         "solver_tolerance": 1e-30})
        code = main(["solve", "--config", config, "--level", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "solver error:" in capsys.readouterr().err

    def test_direct_lu_records_zero_iterations(self, tmp_path):
        config = write_config(tmp_path, {"problem": "example1",
                                         "levels": [0, 1],
                                         "solver_method": "direct-lu"})
        out = tmp_path / "table.csv"
        assert main(["convergence", "--config", config, "--out",
                     str(out)]) == 0
        record = json.loads((tmp_path / "table.run.json").read_text())
        assert record["iterations"] == [0, 0]

    def test_retired_solver_method_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "problem": "example1",
            "solver_method": "block-forward-substitution"})
        code = main(["solve", "--config", config, "--level", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown solver method" in capsys.readouterr().err

    def test_expression_domain_error_is_a_config_error(self, tmp_path,
                                                       capsys):
        config = write_config(tmp_path, {"problem": "example1",
                                         "f": "log(x1 - 0.5)"})
        code = main(["solve", "--config", config, "--level", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out
