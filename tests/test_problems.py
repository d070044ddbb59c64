"""Problem presets, JSON configs, solver driver, and the reference cache."""

import dataclasses
import json
import math
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from dbcfem import (
    ConfigError,
    load_config,
    run_convergence,
    solve_level,
)
from dbcfem.analysis import compute_eoc
from dbcfem.assembly import DofMap
from dbcfem.mesh import mesh_hierarchy
from dbcfem.problems import (MAX_DOFS, NORMS, REGISTRY, ProblemSpec,
                             _errors_exact, _matrix_norms, config_hash)

from oracles import interpolate

MINIMAL = {
    "domain": [0.0, 1.0, 0.0, 1.0],
    "gamma": 1.0,
    "degree": 1,
    "f": "-4",
    "y_d": "x1 + x2",
    "levels": [0, 1],
    "reference_level": 3,
    "columns": ["l2_y"],
}


# config values of the wrong type or form, and the error, which names
# the key
WRONG_TYPES = [
    ({"levels": [0, "x"]}, "bad value for levels"),
    ({"levels": 5}, "bad value for levels"),
    ({"columns": [3]}, "bad value for columns"),
    ({"domain": "abc"}, "bad value for domain"),
    ({"gamma": [1]}, "bad value for gamma"),
    ({"constants": [1, 2]}, "bad value for constants"),
    ({"exact": "abc"}, "bad value for exact"),
    ({"f": 5}, "bad expression for f"),
    ({"reference_level": "x"}, "bad value for reference_level"),
    ({"constants": {"s": "abc"}}, "bad value for constants"),
    ({"levels": [0, float("inf")]}, "bad value for levels"),
    ({"columns": [["l2_y", "false"]]}, "bad value for columns"),
]

# numbers that JSON reads (Infinity, NaN, 1e400) but a config refuses;
# kept apart from WRONG_TYPES so that the parametrized ids after it stay
NON_FINITE = [
    ({"domain": [0, float("inf"), 0, 1]}, "bad value for domain"),
    ({"gamma": float("inf")}, "bad value for gamma"),
    ({"constants": {"s": float("nan")}}, "bad value for constants"),
]

# strings that float() reads as numbers ("1_0" as 10.0, " 1 " as 1.0); a
# number in a config is a JSON number, never a string
NUMERIC_STRINGS = [
    ({"gamma": "0.5"}, "bad value for gamma"),
    ({"gamma": "1_0"}, "bad value for gamma"),
    ({"gamma": " 1 "}, "bad value for gamma"),
    ({"domain": ["0", "1", "0", "1"]}, "bad value for domain"),
    ({"constants": {"s": "2e-5"}}, "bad value for constants"),
]

# containers of the wrong kind: iterating an object reads its keys (a
# column's with_order would be dropped), and dict() takes a list of pairs
WRONG_CONTAINERS = [
    ({"columns": {"h1_y": False, "l2_u": 0}}, "bad value for columns"),
    ({"constants": [["s", 2e-5]]}, "bad value for constants"),
    ({"exact": {"y": "x1", "y_grad": {"1": 0, "2": 0}}},
     "bad value for exact"),
]

# levels that cannot be built, refused before any allocation: one finer
# than the bound on the mesh would grow until the process is killed
# (1e308 is a whole number), and on a domain whose squared cell edges
# leave the normal doubles the cell geometry would divide by 0 or
# overflow.  A width of 1e-152 is admitted up to level 5.
TOO_FINE = [
    ({"reference_level": 40}, "bad value for reference_level: levels "
     "above 9 are refused for degree 1"),
    ({"reference_level": 1e308}, "bad value for reference_level"),
    ({"reference_level": 10}, "bad value for reference_level"),
    ({"levels": [0, 40]}, "bad value for levels: levels above 9"),
    ({"domain": [0, 1e-300, 0, 1e-300]}, "bad value for domain: its "
     "cells leave double precision"),
    ({"domain": [0, 1e300, 0, 1e300]}, "bad value for domain"),
    ({"domain": [0, 1e-152, 0, 1e-152], "reference_level": 9},
     "bad value for domain: its cells leave double precision at "
     "reference_level 9"),
    ({"reference_level": -1}, "bad value for reference_level: a level "
     "must be nonnegative"),
]


def write_config(tmp_path, payload, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestPresets:
    def test_smooth_preset(self):
        spec = load_config("example1")
        assert spec.name == "example1"
        assert spec.domain == (0.0, 1.0, 0.0, 1.0)
        assert spec.gamma == 1.0
        assert spec.degree == 1
        assert spec.levels == (0, 1, 2, 3, 4)
        assert set(spec.exact) == {"y", "y_grad", "z", "z_grad", "u"}
        assert spec.columns == (("h1_y", True), ("h1_z", True),
                                ("l2_u", True))

    def test_singular_preset(self):
        spec = load_config("example2")
        assert spec.domain == (0.0, 0.25, 0.0, 0.25)
        assert spec.constants == {"s": 1e-5}
        assert spec.exact is None
        assert spec.reference_level == 7
        assert spec.solver_tolerance == 1e-10

    def test_preset_fields_evaluate(self):
        spec = load_config("example1")
        assert spec.field(spec.f)(0.3, 0.8) == -4.0
        # the exact state vanishes on the whole boundary of the unit square
        y = spec.field(spec.exact["y"])
        assert y(0.0, 0.5) == pytest.approx(-0.25)
        assert y(1.0, 0.5) == pytest.approx(-0.25)

    def test_singular_data_evaluates_near_origin(self):
        spec = load_config("example2")
        yd = spec.field(spec.y_d)
        assert yd(0.1, 0.1) == pytest.approx((0.02) ** 1e-5, rel=1e-12)

    @pytest.mark.parametrize("preset", ["example1", "example2"])
    @pytest.mark.parametrize("override", [False, True])
    def test_results_share_no_dicts(self, tmp_path, preset, override):
        # constants and exact are dicts inside a frozen spec; mutating one
        # result must reach neither the preset nor the next result
        source = (write_config(tmp_path, {"problem": preset, "gamma": 0.5})
                  if override else preset)
        registry = dataclasses.asdict(REGISTRY[preset])
        fresh = dataclasses.asdict(load_config(source))
        spec = load_config(source)
        spec.constants["s"] = 0.0
        if spec.exact is not None:
            spec.exact["y"] = "0"
            spec.exact.pop("u")
        assert dataclasses.asdict(REGISTRY[preset]) == registry
        assert dataclasses.asdict(load_config(source)) == fresh


class TestJsonConfig:
    def test_preset_override(self, tmp_path):
        path = write_config(tmp_path, {"problem": "example1", "gamma": 0.01,
                                       "levels": [0, 1, 2]})
        spec = load_config(path)
        assert spec.name == "example1"
        assert spec.gamma == 0.01
        assert spec.levels == (0, 1, 2)
        assert spec.f == "-4/gamma"  # untouched preset fields survive

    def test_standalone_config_named_after_file(self, tmp_path):
        path = write_config(tmp_path, MINIMAL, name="mycase.json")
        spec = load_config(path)
        assert spec.name == "mycase"
        assert spec.exact is None and spec.reference_level == 3

    def test_column_shorthand_expands(self, tmp_path):
        payload = dict(MINIMAL, columns=["l2_y", ["l2_z", False]])
        spec = load_config(write_config(tmp_path, payload))
        assert spec.columns == (("l2_y", True), ("l2_z", False))

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, {"problem": "example1", "foo": 1})
        with pytest.raises(ConfigError, match="unknown config keys: foo"):
            load_config(path)

    def test_unknown_preset_rejected(self, tmp_path):
        path = write_config(tmp_path, {"problem": "nope"})
        with pytest.raises(ConfigError, match="unknown problem preset"):
            load_config(path)

    def test_missing_fields_listed(self, tmp_path):
        path = write_config(tmp_path, {"gamma": 1.0})
        with pytest.raises(ConfigError, match="missing"):
            load_config(path)

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(str(path))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "absent.json"))


class TestValidation:
    @pytest.mark.parametrize("patch,match", [
        ({"gamma": 0.0}, "gamma must be positive"),
        ({"gamma": -2.0}, "gamma must be positive"),
        ({"degree": 3}, "degree must be 1 or 2"),
        ({"levels": []}, "levels"),
        ({"levels": [2, 1]}, "increasing"),
        ({"levels": [-1, 0]}, "nonnegative"),
        ({"domain": [0, 1, 1, 0.5]}, "empty or inverted"),
        ({"domain": [0, 1, 1]}, "domain must be"),
        ({"columns": []}, "at least one"),
        ({"columns": ["l3_q"]}, "unknown norm key"),
        ({"solver_method": "magic"}, "unknown config keys"),
        ({"solver_tolerance": 0.0}, "tolerance"),
        ({"solver_tolerance": 1.5}, "tolerance"),
        ({"f": "x1 +"}, "bad expression for f"),
        ({"y_d": "x9"}, "bad expression for y_d"),
        # s is a constant of example2 only; elsewhere it must be declared
        ({"y_d": "s*x1"}, "bad expression for y_d: unknown identifier 's'"),
        ({"solver_tolerance": "1e-12"}, "bad solver settings"),
        *WRONG_TYPES,
        ({"exact": {"y": "x1", "yy": "x1"}}, "unknown exact entries: yy"),
        ({"exact": {"y_grd": "x1"}}, "unknown exact entries: y_grd"),
        # a string would otherwise be the pair of its two characters
        ({"exact": {"y": "x1", "y_grad": "12"}}, "bad value for exact"),
        ({"exact": {"y": "x1", "y_grad": [1, 2]}},
         "bad expression for y_grad: 1 is not a string"),
        *NON_FINITE,
        *NUMERIC_STRINGS,
        *WRONG_CONTAINERS,
        *TOO_FINE,
    ])
    def test_bad_field_rejected(self, tmp_path, patch, match):
        payload = dict(MINIMAL, **patch)
        with pytest.raises(ConfigError, match=match):
            load_config(write_config(tmp_path, payload))

    def test_dof_count_is_the_closed_form(self):
        for rect in (MINIMAL["domain"], (0.0, 2.0, 0.0, 0.5)):
            for mesh in mesh_hierarchy(rect, 5):
                for degree in (1, 2):
                    assert (DofMap(mesh, degree).num_dofs
                            == (2 ** (mesh.level + degree) + 1) ** 2)

    def test_bound_admits_the_level9_reference(self, tmp_path):
        # 1,050,625 dofs: the level-9 P1 reference, or P2 level 8
        assert MAX_DOFS == (2 ** 10 + 1) ** 2 == 1050625
        spec = load_config(write_config(tmp_path, dict(
            MINIMAL, levels=[0, 8], reference_level=9)))
        assert spec.reference_level == 9
        assert load_config(write_config(tmp_path, dict(
            MINIMAL, degree=2, levels=[0, 8], exact={"y": "x1"},
            reference_level=None))).levels == (0, 8)
        with pytest.raises(ConfigError, match="bad value for levels: "
                           "levels above 8 are refused for degree 2"):
            load_config(write_config(tmp_path, dict(
                MINIMAL, degree=2, levels=[9], exact={"y": "x1"})))
        # a width of 1e-152 is admitted up to level 5, whose squared cell
        # leg (1e-152 / 2^6)² = 2.4e-308 is still a normal double
        thin = dict(MINIMAL, domain=[0, 1e-152, 0, 1e-152],
                    levels=[0, 1, 2, 3])
        assert load_config(write_config(tmp_path, dict(
            thin, reference_level=5))).reference_level == 5
        with pytest.raises(ConfigError, match="at reference_level 6 "):
            load_config(write_config(tmp_path, dict(
                thin, reference_level=6)))

    @pytest.mark.parametrize("name", ["x1", "x2", "sin", "pi", "gamma"])
    def test_reserved_constant_names(self, tmp_path, name):
        payload = dict(MINIMAL, constants={name: 2.0})
        with pytest.raises(ConfigError, match="reserved"):
            load_config(write_config(tmp_path, payload))

    def test_need_exact_or_reference(self, tmp_path):
        payload = dict(MINIMAL)
        payload.pop("reference_level")
        with pytest.raises(ConfigError, match="exact solutions or a"):
            load_config(write_config(tmp_path, payload))

    def test_reference_must_exceed_levels(self, tmp_path):
        payload = dict(MINIMAL, reference_level=1)
        with pytest.raises(ConfigError, match="must exceed"):
            load_config(write_config(tmp_path, payload))

    def test_reference_errors_are_degree_one_only(self, tmp_path):
        payload = dict(MINIMAL, degree=2)
        with pytest.raises(ConfigError, match="degree 1 only"):
            load_config(write_config(tmp_path, payload))

    def test_column_requires_matching_exact_entry(self, tmp_path):
        payload = dict(MINIMAL, columns=["l2_z"])
        payload.pop("reference_level")
        payload["exact"] = {"y": "x1"}
        with pytest.raises(ConfigError, match="needs exact\\['z'\\]"):
            load_config(write_config(tmp_path, payload))

    def test_columns_set_outside_json_are_normalized(self):
        spec = load_config("example1")
        assert dataclasses.replace(spec, columns=("l2_y",)).columns == (
            ("l2_y", True),)
        with pytest.raises(ConfigError, match="unknown norm key 'h1'"):
            dataclasses.replace(spec, columns=("h1",))
        with pytest.raises(ConfigError, match="column entries"):
            dataclasses.replace(spec, columns=(("l2_y", True, False),))

    @pytest.mark.parametrize("key,value", [
        ("levels", (0, 1.5, 2.9)),
        ("reference_level", 7.5),
        ("degree", True),
        ("gamma", False),
        ("domain", "0101"),
        ("exact", dict(load_config("example1").exact, y_grad="12")),
    ])
    def test_replace_rejects_values_it_would_truncate(self, key, value):
        # int() truncates 1.5, True passes as 1, and "0101" and "12"
        # iterate
        with pytest.raises(ConfigError, match="bad value for %s" % key):
            dataclasses.replace(load_config("example1"), **{key: value})

    def test_gradient_entries_need_two_components(self, tmp_path):
        payload = dict(MINIMAL, columns=["h1_y"])
        payload.pop("reference_level")
        payload["exact"] = {"y_grad": ["x1"]}
        with pytest.raises(ConfigError, match="two components"):
            load_config(write_config(tmp_path, payload))

    def test_config_docs_list_exactly_the_config_keys(self):
        # only the "## Keys" table: the exact table below it lists y, u, ...
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "docs", "config.md"),
                  encoding="utf-8") as fh:
            text = fh.read()
        section = text.split("\n## Keys\n", 1)[1].split("\n#", 1)[0]
        documented = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
        schema = {f.name for f in dataclasses.fields(ProblemSpec)}
        assert len(documented) == len(set(documented))
        assert set(documented) == schema - {"name"} | {"problem"}


class TestConfigHash:
    @pytest.mark.parametrize("preset,digest", [
        ("example1", "d5d3daa649e51b0d"),
        ("example2", "417ba535512b5890"),
    ])
    def test_preset_digests_are_pinned(self, preset, digest):
        # the reference cache is keyed by this digest: a change to the
        # hashed JSON would orphan every cached reference
        assert config_hash(load_config(preset)) == digest

    def test_stable_and_sensitive(self):
        a = load_config("example1")
        assert config_hash(a) == config_hash(load_config("example1"))
        # one change to each field that determines the solution
        changes = [{"gamma": 2.0}, {"domain": (0.0, 2.0, 0.0, 1.0)},
                   {"degree": 2}, {"f": "-4"}, {"y_d": "x1"},
                   {"constants": {"c": 1.0}}, {"reference_level": 7},
                   {"solver_tolerance": 1e-10}]
        digests = {config_hash(dataclasses.replace(a, **change))
                   for change in changes}
        assert len(digests) == len(changes)
        assert config_hash(a) not in digests

    def test_ignores_presentation_fields(self):
        a = load_config("example1")
        b = dataclasses.replace(a, name="other", levels=(0, 1),
                                columns=(("h1_y", True),),
                                exact={"y": "x1", "y_grad": ("1", "0")})
        assert config_hash(b) == config_hash(a)


class TestSolveLevel:
    def test_consistency_residuals_are_tiny(self):
        spec = load_config("example1")
        sol = solve_level(spec, 2)
        assert sol.stats["galerkin"] <= 1e-10
        assert sol.stats["adjoint"] <= 1e-10
        assert sol.stats["residual"] <= 1e-10

    def test_dofmap_and_level_are_those_of_the_fields(self):
        spec = load_config("example1")
        sol = solve_level(spec, 2)
        assert sol.dofmap is sol.y.dofmap is sol.z.dofmap
        assert sol.level == sol.dofmap.mesh.level == 2

    def test_adjoint_vanishes_on_the_boundary(self):
        spec = load_config("example1")
        sol = solve_level(spec, 2)
        assert np.all(sol.z.coeffs[sol.dofmap.boundary] == 0.0)

    def test_state_approaches_known_interior_value(self):
        # the exact adjoint at the domain center is 1/16; the discrete one
        # converges to it
        spec = load_config("example1")
        sol = solve_level(spec, 3)
        center = np.where((sol.dofmap.coords == 0.5).all(axis=1))[0]
        assert len(center) == 1
        assert abs(sol.z.coeffs[center[0]] - 1 / 16) < 5e-3

    @pytest.mark.parametrize("level,degree,match", [
        (3, 2, "level 2, degree 2, not level 3, degree 1"),
        (2, 2, "level 2, degree 2, not level 2, degree 1"),
        (3, 1, "level 2, degree 1, not level 3, degree 1"),
    ])
    def test_dofmap_must_match_level_and_degree(self, level, degree, match):
        spec = load_config("example1")
        dofmap = DofMap(mesh_hierarchy(spec.domain, 2)[-1], degree)
        with pytest.raises(ValueError, match=match):
            solve_level(spec, level, dofmap)

    @pytest.mark.parametrize("degree,level", [(1, 10), (2, 9),
                                              (1, 10 ** 308)])
    def test_level_beyond_the_bound_is_refused(self, monkeypatch, degree,
                                               level):
        def refuse(*args):
            raise AssertionError("a mesh was built")
        monkeypatch.setattr("dbcfem.problems.mesh_hierarchy", refuse)
        spec = dataclasses.replace(load_config("example1"), degree=degree)
        with pytest.raises(ConfigError, match="bad value for level: "):
            solve_level(spec, level)

    def test_homogeneous_data_gives_zero(self):
        spec = load_config("example1")
        quiet = dataclasses.replace(spec, f="0", y_d="0")
        sol = solve_level(quiet, 2)
        assert np.abs(sol.y.coeffs).max() <= 1e-12
        assert np.abs(sol.z.coeffs).max() <= 1e-12


class TestNormTable:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_closed_form_errors_against_zero_are_the_matrix_norms(
            self, degree):
        # against zero exact solutions each closed-form error is the norm
        # of the field itself; y and z differ, so a wrong field or a
        # wrong operator in the table shows up
        zero = {"y": "0", "y_grad": ("0", "0"), "z": "0",
                "z_grad": ("0", "0"), "u": "0"}
        spec = dataclasses.replace(load_config("example1"), degree=degree,
                                   exact=zero)
        dofmap = DofMap(mesh_hierarchy(spec.domain, 3)[-1], degree)
        sol = SimpleNamespace(
            y=interpolate(dofmap, lambda a, b: np.sin(3 * a) * np.cos(2 * b)),
            z=interpolate(dofmap, lambda a, b: np.exp(a) * b * (1 - b)))
        closed = _errors_exact(spec, sol, NORMS)
        matrix = _matrix_norms(dofmap, sol.y.coeffs, sol.z.coeffs, NORMS)
        for key, (_, _, _, operator) in NORMS.items():
            v = (sol.z if key.endswith("_z") else sol.y).coeffs
            want = math.sqrt(v @ (getattr(dofmap, operator) @ v))
            assert closed[key] == pytest.approx(want, rel=1e-12), key
            assert matrix[key] == pytest.approx(want, rel=1e-12), key


class TestRunConvergence:
    def test_exact_errors_shrink(self):
        spec = load_config("example1")
        small = dataclasses.replace(spec, levels=(0, 1, 2))
        report, solutions = run_convergence(small)
        assert len(solutions) == 3
        assert report.h == pytest.approx((math.sqrt(2) / 2,
                                          math.sqrt(2) / 4,
                                          math.sqrt(2) / 8), rel=1e-14)
        for key in ("h1_y", "h1_z", "l2_u"):
            vals = report.errors[key]
            assert vals[0] > vals[1] > vals[2] > 0

    def test_a_key_listed_twice_has_one_error_per_level(self):
        spec = dataclasses.replace(load_config("example1"), levels=(0, 1, 2),
                                   columns=("h1_y", ("h1_y", False)))
        report, _ = run_convergence(spec)
        once, _ = run_convergence(dataclasses.replace(spec, columns=("h1_y",)))
        assert report.errors == once.errors
        assert len(report.errors["h1_y"]) == 3

    @pytest.mark.parametrize("base,degree", [("example1", 1),
                                             ("example1", 2),
                                             ("example2", 1)])
    def test_last_orders_reach_the_paper_rate(self, base, degree):
        """The paper's rate k - 1/2 for the state in L2 and the adjoint
        in H1, on the last refinement step of levels 0-4.  example2 is
        measured against its level-7 reference, which the session cache
        shares with the acceptance study (the columns are not part of
        the config hash).  P2 on example2 needs a P2 prolongation to
        the reference level, which does not exist yet."""
        spec = dataclasses.replace(load_config(base), degree=degree,
                                   columns=("l2_y", "h1_z"))
        report, _ = run_convergence(spec)
        for key in ("l2_y", "h1_z"):
            assert report.eoc[key][-1] >= degree - 0.5, key

    def test_one_mesh_hierarchy_per_run(self, monkeypatch):
        import dbcfem.mesh as mesh

        calls = []
        original = mesh.refine_uniform

        def counting(coarse):
            calls.append(coarse.level)
            return original(coarse)

        monkeypatch.setattr(mesh, "refine_uniform", counting)
        spec = load_config("example1")
        run_convergence(spec)
        assert len(calls) == max(spec.levels)

    def test_reference_errors_shrink(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBCFEM_CACHE_DIR", str(tmp_path))
        spec = load_config("example2")
        mini = dataclasses.replace(spec, levels=(0, 1), reference_level=3)
        report, _ = run_convergence(mini)
        l2y = report.errors["l2_y"]
        assert l2y[0] > l2y[1] > 0
        assert report.eoc["l2_y"][1] > 1.0
        assert report.eoc == {key: compute_eoc(errors)
                              for key, errors in report.errors.items()}

    def test_reference_solution_is_cached(self, tmp_path, monkeypatch):
        import dbcfem.problems as problems

        monkeypatch.setenv("DBCFEM_CACHE_DIR", str(tmp_path))
        spec = load_config("example2")
        mini = dataclasses.replace(spec, levels=(0, 1), reference_level=3)

        calls = []
        original = problems.solve_level

        def counting(spec, level, dofmap=None, solver_config=None):
            calls.append(level)
            return original(spec, level, dofmap=dofmap,
                            solver_config=solver_config)

        monkeypatch.setattr(problems, "solve_level", counting)
        first, _ = run_convergence(mini)
        assert calls.count(3) == 1  # reference solved once ...
        calls.clear()
        second, _ = run_convergence(mini)
        assert calls.count(3) == 0  # ... then loaded from the cache
        assert second.errors == first.errors

    def test_reference_is_solved_again_for_another_gate(self, tmp_path,
                                                         monkeypatch):
        import dbcfem.problems as problems

        monkeypatch.setenv("DBCFEM_CACHE_DIR", str(tmp_path))
        loose = dataclasses.replace(load_config("example2"), levels=(0, 1),
                                    reference_level=3)
        tight = dataclasses.replace(loose, solver_tolerance=1e-12)
        dofmap = DofMap(mesh_hierarchy(loose.domain, 3)[-1], loose.degree)

        calls = []
        original = problems.solve_level

        def counting(spec, level, dofmap=None, solver_config=None):
            calls.append(spec.solver_tolerance)
            return original(spec, level, dofmap=dofmap,
                            solver_config=solver_config)

        monkeypatch.setattr(problems, "solve_level", counting)
        for spec in (loose, tight, loose, tight):
            problems.get_reference(spec, dofmap)
        # each gate is solved once and then read from its own entry
        assert calls == [1e-10, 1e-12]
        assert len(list(tmp_path.iterdir())) == 2

    def test_cold_run_assembles_the_reference_once(self, tmp_path,
                                                   monkeypatch,
                                                   assembly_calls):
        monkeypatch.setenv("DBCFEM_CACHE_DIR", str(tmp_path))
        spec = load_config("example2")
        mini = dataclasses.replace(spec, levels=(0, 1), reference_level=3)
        run_convergence(mini)
        assert sorted(k for k, lv in assembly_calls if lv == 3) == [
            "boundary_mass", "mass", "stiffness"]

    @pytest.mark.parametrize("damage", ["truncated", "wrong-length"])
    def test_bad_cache_entry_is_recomputed(self, tmp_path, monkeypatch,
                                           damage):
        monkeypatch.setenv("DBCFEM_CACHE_DIR", str(tmp_path))
        spec = load_config("example2")
        mini = dataclasses.replace(spec, levels=(0, 1), reference_level=3)
        fresh, _ = run_convergence(mini)
        (path,) = tmp_path.iterdir()
        with np.load(path) as data:
            y, z = data["y"], data["z"]
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        else:
            with open(path, "wb") as fh:
                np.savez(fh, y=y[:-1], z=z[:-1])
        again, _ = run_convergence(mini)
        assert again.errors == fresh.errors
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        with np.load(path) as data:
            assert np.array_equal(data["y"], y)
            assert np.array_equal(data["z"], z)

    def test_cache_key_separates_different_data(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBCFEM_CACHE_DIR", str(tmp_path))
        spec = load_config("example2")
        mini = dataclasses.replace(spec, levels=(0,), reference_level=2)
        other = dataclasses.replace(mini, gamma=0.01)
        run_convergence(mini)
        run_convergence(other)
        cached = sorted(p.name for p in tmp_path.iterdir())
        assert len(cached) == 2
        assert cached[0].startswith("ref-") and cached[0].endswith(".npz")
