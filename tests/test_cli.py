"""End-to-end CLI behavior: files written, exit codes, determinism.

Everything runs in-process through main(argv) so coverage and debugging
stay simple; the exit-code contract is 0 success, 2 config/usage,
3 solver failure, 4 verification failure.
"""

import dataclasses
import json
import logging
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.io import mmread

import dbcfem.assembly as assembly
import dbcfem.cli as cli
import dbcfem.problems as problems
from dbcfem.analysis import boundary_walk_dofs
from dbcfem.assembly import DofMap, build_block_system
from dbcfem.cli import main
from dbcfem.mesh import mesh_hierarchy

from oracles import (bubble_check_block, control_csv_per_row,
                     convergence_report_by_hand, stability_check_block)
from test_problems import (NON_FINITE, NUMERIC_STRINGS, TOO_FINE,
                           WRONG_CONTAINERS, WRONG_TYPES)


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
        assert len(summary["solves"]) == 1
        assert summary["solves"][0]["iterations"][0] > 0
        assert summary["solves"][0]["interior"] == "dst"
        assert "fill" not in summary["solves"][0]

    def test_quadratic_solve_records_dst(self, tmp_path):
        config = write_config(tmp_path, {"problem": "example1", "degree": 2})
        out = tmp_path / "run"
        assert main(["solve", "--config", config, "--level", "1",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solves"][0]["interior"] == "dst"
        assert "fill" not in summary["solves"][0]

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

    @pytest.mark.parametrize("degree", [1, 2])
    def test_control_csv_matches_the_row_writer(self, tmp_path, degree):
        config = write_config(tmp_path, {"problem": "example1",
                                         "degree": degree})
        out = tmp_path / "run"
        assert main(["solve", "--config", config, "--level", "2",
                     "--out", str(out)]) == 0
        sol = problems.solve_level(problems.load_config(config), 2)
        dofs, arcs, coords = boundary_walk_dofs(sol.dofmap)
        want = control_csv_per_row(arcs, coords, sol.y.coeffs[dofs])
        assert (out / "control.csv").read_bytes() == want.encode("ascii")

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
        spec = problems.load_config("example1")
        want = build_block_system(
            DofMap(mesh_hierarchy(spec.domain, 2)[-1], spec.degree),
            spec.gamma, spec.field(spec.f), spec.field(spec.y_d))
        assert np.abs(system - want.full().toarray()).max() <= 1e-15
        assert np.abs(rhs.ravel() - want.rhs()).max() <= 1e-15

    def test_dump_matrix_writes_the_solved_system(self, tmp_path,
                                                  monkeypatch):
        # the dump reuses the system solve_level solved: one load for F
        # and one for G, none assembled again
        calls = []
        assemble_load = assembly.assemble_load

        def counting(dofmap, g):
            calls.append(dofmap.mesh.level)
            return assemble_load(dofmap, g)

        monkeypatch.setattr(assembly, "assemble_load", counting)
        assert main(["solve", "--config", "example1", "--level", "2",
                     "--out", str(tmp_path / "run"), "--dump-matrix"]) == 0
        assert calls == [2, 2]

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
        assert [s["level"] for s in record["solves"]] == [0, 1]
        assert all("residual" in s for s in record["solves"])
        assert all("iterations" in s for s in record["solves"])
        # level 0 has a single interior node, too few for the grid test
        assert [s["interior"] for s in record["solves"]] == ["splu", "dst"]
        assert set(record["report"]["errors"]) == {"h1_y", "h1_z", "l2_u"}

    @pytest.mark.parametrize("payload", [
        {"problem": "example1", "levels": [0, 1, 2]},
        {"problem": "example2", "levels": [0, 1], "reference_level": 3}])
    def test_record_report_matches_the_hand_built_one(self, tmp_path,
                                                       payload):
        config = write_config(tmp_path, payload)
        out = tmp_path / "table.csv"
        assert main(["convergence", "--config", config,
                     "--out", str(out)]) == 0
        record = json.loads((tmp_path / "table.run.json").read_text())
        report, _ = problems.run_convergence(problems.load_config(config))
        want = convergence_report_by_hand(report)
        assert (json.dumps(record["report"], indent=2, sort_keys=True)
                == json.dumps(want, indent=2, sort_keys=True))

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, {"problem": "example1",
                                         "levels": [0, 1]})
        out = tmp_path / "table.csv"
        main(["convergence", "--config", config, "--out", str(out)])
        first = out.read_bytes()
        main(["convergence", "--config", config, "--out", str(out)])
        assert out.read_bytes() == first


class TestSolveRecord:
    def test_every_solve_block_key_reaches_both_records(self, tmp_path,
                                                        monkeypatch):
        solve_block = problems.solve_block

        def probed(system, config=None, stats=None):
            result = solve_block(system, config, stats=stats)
            stats["probe"] = 1
            return result

        monkeypatch.setattr(problems, "solve_block", probed)
        config = write_config(tmp_path, {"problem": "example1",
                                         "levels": [0, 1]})
        assert main(["solve", "--config", config, "--level", "1",
                     "--out", str(tmp_path / "run")]) == 0
        assert main(["convergence", "--config", config, "--out",
                     str(tmp_path / "table.csv")]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        record = json.loads((tmp_path / "table.run.json").read_text())

        _, solutions = problems.run_convergence(problems.load_config(config))
        want = [{"level": s.level, **s.stats} for s in solutions]
        assert all(entry["probe"] == 1
                   for entry in summary["solves"] + record["solves"])
        assert record["solves"] == want
        assert summary["solves"] == want[1:]


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

    @pytest.mark.parametrize("preset,changes", [
        ("example1", {}), ("example2", {}), ("example1", {"degree": 2}),
        ("example1", {"levels": (0,)}), ("example1", {"levels": (0, 1)}),
        ("example1", {"levels": (1, 2)})])
    def test_spread_checks_match_the_separate_blocks(self, preset, changes):
        spec = dataclasses.replace(problems.load_config(preset), **changes)
        checks, solutions = cli._verify_checks(spec)
        assert checks[3] == bubble_check_block(solutions, cli._TOLERANCES)
        assert checks[5] == stability_check_block(spec, solutions,
                                                  cli._TOLERANCES)

    def test_every_solve_record_is_logged(self, tmp_path, capsys, caplog,
                                          monkeypatch):
        # verify writes no run record; its solves reach the log instead
        records = []
        solve_block = problems.solve_block

        def recording(system, config=None, stats=None):
            result = solve_block(system, config, stats=stats)
            records.append(stats)
            return result

        monkeypatch.setattr(problems, "solve_block", recording)
        caplog.set_level(logging.DEBUG, logger="dbcfem")
        config = write_config(tmp_path, {"problem": "example1",
                                         "levels": [0, 1]})
        assert main(["verify", "--config", config]) == 0
        logged = [r.getMessage() for r in caplog.records
                  if r.name == "dbcfem"]
        assert len(records) >= 2
        assert logged == ["solve record %s" % (stats,) for stats in records]

    def test_failed_check_exits_four(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._TOLERANCES, "galerkin", 1e-30)
        config = write_config(tmp_path, {"problem": "example1",
                                         "levels": [0, 1]})
        code = main(["verify", "--config", config])
        assert code == 4
        assert "FAIL state-galerkin-identity" in capsys.readouterr().out

    def test_numpy_bool_failure_exits_four(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr(cli, "_verify_checks", lambda spec: (
            [("forced", np.bool_(False), "numpy false")], []))
        assert main(["verify", "--config", "example1"]) == 4
        assert "FAIL forced" in capsys.readouterr().out


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

    @pytest.mark.parametrize("base", [[], {"a": 1}])
    def test_non_string_preset_is_a_config_error(self, tmp_path, capsys,
                                                 base):
        config = write_config(tmp_path, {"problem": base})
        assert main(["verify", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown problem preset"), err

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path,
                                                       capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"problem": "example1", "f": "\xff"}')
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON"), err

    def test_string_gradient_is_a_config_error(self, tmp_path, capsys):
        exact = dict(problems.load_config("example1").exact, y_grad="12")
        config = write_config(tmp_path, {"problem": "example1",
                                         "exact": exact})
        assert main(["verify", "--config", config]) == 2
        assert "bad value for exact" in capsys.readouterr().err

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

    @pytest.mark.parametrize("patch", [
        {"f": "1e300*x1"}, {"f": "1e200*x1"}, {"gamma": 1e-300}])
    def test_overflowing_data_is_a_solver_failure(self, tmp_path, capsys,
                                                  patch):
        # y_d scales with 1/gamma, so gamma = 1e-300 overflows as well
        config = write_config(tmp_path, {"problem": "example1", **patch})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--config", config, "--level", "5",
                         "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == ("solver error: the norm of the right-hand side is "
                       "not finite: the data f or y_d overflow double "
                       "precision\n")
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("e", [170, 160, 155])
    def test_data_too_small_to_gate_is_a_solver_failure(self, tmp_path,
                                                        capsys, e):
        # the squares in the norm of the right-hand side underflow: at
        # e = 160 and 170 it reads 0, and at e = 155 it loses digits
        config = write_config(tmp_path, {"problem": "example1",
                                         "f": "1e-%d*x1" % e,
                                         "y_d": "1e-%d*x2" % e})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--config", config, "--level", "5",
                         "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == ("solver error: the right-hand side is too small to "
                       "gate: the data f and y_d underflow double "
                       "precision\n")
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_retired_solver_method_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "problem": "example1",
            "solver_method": "block-forward-substitution"})
        code = main(["solve", "--config", config, "--level", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_wrong_type_values_are_config_errors(self, tmp_path, capsys):
        for patch, _ in (WRONG_TYPES + NON_FINITE + NUMERIC_STRINGS
                         + WRONG_CONTAINERS + TOO_FINE):
            config = write_config(tmp_path, {"problem": "example1", **patch})
            assert main(["verify", "--config", config]) == 2, patch
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, patch

    @pytest.mark.parametrize("config,level", [
        ("example1", "10"), ("example2", "40"), ("p2", "9")])
    def test_level_beyond_the_bound_is_a_config_error(self, tmp_path, capsys,
                                                      config, level):
        if config == "p2":
            config = write_config(tmp_path, {"problem": "example1",
                                             "degree": 2})
        out = tmp_path / "o"
        assert main(["solve", "--config", config, "--level", level,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad value for level: levels above "), err
        assert not out.exists()

    def test_numeric_with_order_is_a_config_error(self, tmp_path, capsys):
        # 0 would otherwise read as "no order column"; no table is written
        config = write_config(tmp_path, {"problem": "example1",
                                         "columns": [["h1_y", 0]]})
        out = tmp_path / "table.csv"
        assert main(["convergence", "--config", config,
                     "--out", str(out)]) == 2
        assert "bad value for columns" in capsys.readouterr().err
        assert not out.exists()

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


def test_import_does_not_load_scipy_io():
    # scipy.io serves only solve --dump-matrix, which imports it; a
    # module-level import would add its load time to every process
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, dbcfem.cli; print('scipy.io' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
