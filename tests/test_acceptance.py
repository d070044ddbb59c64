"""Acceptance gate: the studies this package ships must reproduce the
pinned target tables and hold the method's structural properties.

Every criterion prints one PASS/FAIL line (echoed again after the run
summary).  The pinned values are regression targets distributed with
the suite; tolerances are fixed here and are not to be loosened.  A
failing criterion means the computation genuinely does not reach its
target -- see notes in the repository history before touching either.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import conftest
from dbcfem import (
    DofMap,
    load_config,
    mesh_hierarchy,
    run_convergence,
    seminorm_H_half_boundary,
    solve_level,
    verify_boundary_bubble_estimate,
    verify_discrete_stability,
)
from oracles import (
    as_float,
    dense_global_matrix,
    local_edge_mass_exact,
    local_mass_exact,
    local_stiffness_exact,
    seminorm_dense_oracle,
    walk_trace,
)

UNIT = (0.0, 1.0, 0.0, 1.0)

# pinned targets for the smooth problem, gamma = 1, energy norms,
# levels 0..4 (h = sqrt(2)/2 ... sqrt(2)/32)
TARGET_ENERGY = {
    "h1_y": (0.7187, 0.3603, 0.1928, 0.0898, 0.0446),
    "h1_z": (0.1069, 0.0539, 0.0278, 0.0140, 0.0070),
    "l2_u": (0.1901, 0.0663, 0.0345, 0.0154, 0.0066),
}
TARGET_ENERGY_EOC = {
    "h1_y": (0.9964, 0.9021, 1.1023, 1.0097),
    "h1_z": (0.9881, 0.9552, 0.9897, 1.0000),
    "l2_u": (1.5200, 0.9424, 1.1637, 1.2224),
}

# pinned targets for the smooth problem, gamma = 1, L2 norms, levels 0..5
TARGET_L2 = {
    "l2_y": (0.0897, 0.0250, 0.0078, 0.0025, 7.86e-4, 2.55e-4),
    "l2_z": (0.0181, 0.0054, 0.0014, 3.55e-4, 8.74e-5, 2.10e-5),
}

# pinned targets for the smooth problem at gamma = 0.01, levels 0..4
TARGET_SMALL_GAMMA = {
    "l2_y": (2.9637, 0.7594, 0.2101, 0.0663, 0.0191),
    "h1_z": (0.1134, 0.0561, 0.0279, 0.0140, 0.0070),
    "l2_u": (9.0693, 2.5525, 0.8519, 0.3384, 0.1187),
}

# pinned targets for the singular-data problem measured against the
# level-7 reference, levels 0..4 of the quarter square
TARGET_SINGULAR = {
    "l2_y": (0.0117, 0.0034, 0.0011, 3.61e-4, 1.18e-4),
    "l2_z": (7.28e-5, 2.51e-5, 7.95e-6, 2.10e-6, 5.29e-7),
}
SINGULAR_U_BAND = (0.25, 0.35)


def record(num, name, ok, detail):
    line = "criterion %s (%s): %s -- %s" % (num, name,
                                            "PASS" if ok else "FAIL", detail)
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def cell_report(errors, targets, rel):
    """Check per-entry relative deviation; returns (ok, detail string)."""
    bad = []
    worst = 0.0
    for key, wants in targets.items():
        for lv, (got, want) in enumerate(zip(errors[key], wants)):
            dev = (got - want) / want
            worst = max(worst, abs(dev))
            if abs(dev) > rel:
                bad.append("%s[%d] %.4g vs %.4g (%+.1f%%)"
                           % (key, lv, got, want, 100 * dev))
    if bad:
        return False, "%d/%d cells beyond %g%%: %s" % (
            len(bad), sum(len(v) for v in targets.values()), 100 * rel,
            "; ".join(bad))
    return True, "all %d cells within %g%% (worst %.2f%%)" % (
        sum(len(v) for v in targets.values()), 100 * rel, 100 * worst)


@pytest.fixture(scope="module")
def energy_study():
    spec = load_config("example1")
    t0 = time.perf_counter()
    report, solutions = run_convergence(spec)
    return report, solutions, time.perf_counter() - t0


@pytest.fixture(scope="module")
def l2_study():
    spec = dataclasses.replace(
        load_config("example1"), levels=(0, 1, 2, 3, 4, 5),
        columns=(("l2_y", True), ("l2_z", True), ("h1_y", False)))
    report, solutions = run_convergence(spec)
    return report, solutions


@pytest.fixture(scope="module")
def small_gamma_study():
    spec = dataclasses.replace(
        load_config("example1"), gamma=0.01,
        columns=(("l2_y", True), ("h1_z", True), ("l2_u", True)))
    report, solutions = run_convergence(spec)
    return report, solutions


@pytest.fixture(scope="module")
def singular_study():
    spec = load_config("example2")
    t0 = time.perf_counter()
    report, solutions = run_convergence(spec)
    return report, solutions, time.perf_counter() - t0


@pytest.fixture(scope="module")
def quadratic_study():
    base = load_config("example1")
    spec = dataclasses.replace(base, degree=2,
                               columns=base.columns + (("l2_y", False),))
    report, solutions = run_convergence(spec)
    return report, solutions


class TestTableReproduction:
    def test_energy_norm_table_smooth_problem(self, energy_study):
        report, _, elapsed = energy_study
        ok_cells, cells = cell_report(report.errors, TARGET_ENERGY, 0.05)
        bad_eoc = []
        for key, wants in TARGET_ENERGY_EOC.items():
            for i, (got, want) in enumerate(zip(report.eoc[key][1:], wants)):
                if abs(got - want) > 0.1:
                    bad_eoc.append("order_%s[%d] %.4f vs %.4f"
                                   % (key, i + 1, got, want))
        ok_time = elapsed < 30.0
        ok = ok_cells and not bad_eoc and ok_time
        detail = "%s; eoc %s; %.1fs (budget 30s)" % (
            cells, "within 0.1" if not bad_eoc else "off: " +
            "; ".join(bad_eoc), elapsed)
        line = record(1, "energy-norm table, smooth problem", ok, detail)
        assert ok, line

    def test_l2_norm_table_smooth_problem(self, l2_study):
        report, _ = l2_study
        ok_cells, cells = cell_report(
            {k: report.errors[k] for k in TARGET_L2}, TARGET_L2, 0.05)
        eoc_y = report.eoc["l2_y"][1:]
        eoc_z = report.eoc["l2_z"][1:]
        ok_y = all(1.5 <= e <= 1.9 for e in eoc_y)
        ok_z = all(1.7 <= e <= 2.1 for e in eoc_z)
        ok = ok_cells and ok_y and ok_z
        detail = "%s; eoc_y %s in [1.5,1.9]: %s; eoc_z %s in [1.7,2.1]: %s" % (
            cells, ["%.3f" % e for e in eoc_y], ok_y,
            ["%.3f" % e for e in eoc_z], ok_z)
        line = record(2, "l2-norm table, smooth problem", ok, detail)
        assert ok, line

    def test_energy_table_small_gamma(self, small_gamma_study):
        report, _ = small_gamma_study
        ok, cells = cell_report(report.errors, TARGET_SMALL_GAMMA, 0.05)
        line = record(3, "small-gamma table, smooth problem", ok, cells)
        assert ok, line

    def test_reference_error_table_singular_problem(self, singular_study):
        report, _, elapsed = singular_study
        ok_cells, cells = cell_report(
            {k: report.errors[k] for k in TARGET_SINGULAR},
            TARGET_SINGULAR, 0.10)
        u = report.errors["l2_u"]
        decreasing = all(b < a for a, b in zip(u, u[1:]))
        in_band = all(SINGULAR_U_BAND[0] <= v <= SINGULAR_U_BAND[1]
                      for v in u)
        ok_time = elapsed < 300.0
        ok = ok_cells and decreasing and in_band and ok_time
        detail = ("%s; u column %s decreasing: %s, in [0.25,0.35]: %s; "
                  "%.1fs (budget 300s)") % (
            cells, ["%.4g" % v for v in u], decreasing, in_band, elapsed)
        line = record(4, "reference-error table, singular problem", ok,
                      detail)
        assert ok, line


class TestStructuralProperties:
    def test_homogeneous_data_zero_solution(self):
        spec = dataclasses.replace(load_config("example1"), f="0", y_d="0")
        worst = 0.0
        for level in spec.levels:
            sol = solve_level(spec, level)
            worst = max(worst, float(np.abs(sol.y.coeffs).max()),
                        float(np.abs(sol.z.coeffs).max()))
        ok = worst <= 1e-10
        line = record(5, "homogeneous data, zero solution", ok,
                      "max coefficient %.3e (tolerance 1e-10)" % worst)
        assert ok, line

    def test_state_rows_satisfy_galerkin_identity(self, energy_study,
                                                  singular_study):
        _, sols1, _ = energy_study
        _, sols2, _ = singular_study
        worst = max(s.galerkin_residual for s in sols1 + sols2)
        ok = worst <= 1e-10
        line = record(6, "state-row Galerkin residual", ok,
                      "max relative residual %.3e over both problem "
                      "suites (tolerance 1e-10)" % worst)
        assert ok, line

    def test_boundary_bubble_inverse_estimate(self):
        meshes = mesh_hierarchy(UNIT, 6)
        ratios = [verify_boundary_bubble_estimate(DofMap(m, 1))
                  for m in meshes[1:]]
        spread = max(ratios) / min(ratios)
        ok = spread <= 2.0
        line = record(7, "boundary-bubble inverse estimate", ok,
                      "ratios %s over levels 1-6, spread %.3f (bound 2)"
                      % (["%.3f" % r for r in ratios], spread))
        assert ok, line

    def test_l2_error_controlled_by_h1_error(self, l2_study):
        report, _ = l2_study
        # the smooth-problem suite is levels 0..4; this study adds level 5
        # for its own table, so cut back to the suite range here
        ratios = [l2 / h1 for l2, h1 in zip(report.errors["l2_y"][:5],
                                            report.errors["h1_y"][:5])]
        tail = ratios[1:]
        spread = max(tail) / min(tail)
        decreasing = all(b < a for a, b in zip(tail, tail[1:]))
        ok = spread <= 3.0 and decreasing
        line = record(8, "l2 error controlled by h1 error", ok,
                      "ratios %s levels 1-4, max/min %.2f (bound 3), "
                      "decreasing: %s" % (["%.4g" % r for r in tail],
                                          spread, decreasing))
        assert ok, line

    def test_discrete_stability_bounded(self):
        worst = 0.0
        details = []
        for base in ("example1", "example2"):
            for gamma in (1.0, 0.01):
                spec = dataclasses.replace(load_config(base), gamma=gamma)
                combined, hhalf = [], []
                for level in (2, 3, 4, 5, 6):
                    sol = solve_level(spec, level)
                    c, hh = verify_discrete_stability(sol.y, gamma)
                    combined.append(c)
                    hhalf.append(hh)
                spread = max(max(combined) / min(combined),
                             max(hhalf) / min(hhalf))
                worst = max(worst, spread)
                details.append("%s gamma=%g: %.3f" % (base, gamma, spread))
        ok = worst <= 1.5
        line = record(9, "discrete stability bounded", ok,
                      "spreads over levels 2-6 (bound 1.5): %s"
                      % "; ".join(details))
        assert ok, line

    def test_oracle_equivalence(self, energy_study):
        worst = 0.0
        for rect in (UNIT, (0.0, 0.25, 0.0, 0.25)):
            for degree in (1, 2):
                dofmap = DofMap(mesh_hierarchy(rect, 1)[-1], degree)
                from dbcfem import (assemble_boundary_mass, assemble_mass,
                                    assemble_stiffness)
                for kind, build in (("stiffness", assemble_stiffness),
                                    ("mass", assemble_mass),
                                    ("boundary_mass",
                                     assemble_boundary_mass)):
                    got = build(dofmap).toarray()
                    want = as_float(dense_global_matrix(dofmap, kind))
                    worst = max(worst, float(np.abs(got - want).max()))
        ok_local = worst <= 1e-13

        _, solutions, _ = energy_study
        sol = solutions[3]  # 512 elements, 64 boundary panels
        got = seminorm_H_half_boundary(sol.y)
        want = seminorm_dense_oracle(*walk_trace(sol.y))
        dev = abs(got - want) / want
        ok_semi = dev <= 0.01

        ok = ok_local and ok_semi
        line = record(10, "oracle equivalence", ok,
                      "matrix deviation %.2e (tolerance 1e-13); seminorm "
                      "%.6g vs oracle %.6g (%.3f%%, tolerance 1%%)"
                      % (worst, got, want, 100 * dev))
        assert ok, line


class TestQuadraticElements:
    """Same checks for the degree-2 space on the smooth problem."""

    def test_quadratic_structural_properties(self, quadratic_study):
        _, solutions = quadratic_study
        spec = dataclasses.replace(load_config("example1"), degree=2,
                                   f="0", y_d="0")
        worst_coeff = 0.0
        for level in (0, 1, 2):
            sol = solve_level(spec, level)
            worst_coeff = max(worst_coeff, float(np.abs(sol.y.coeffs).max()),
                              float(np.abs(sol.z.coeffs).max()))
        gal = max(s.galerkin_residual for s in solutions)
        meshes = mesh_hierarchy(UNIT, 6)
        ratios = [verify_boundary_bubble_estimate(DofMap(m, 2))
                  for m in meshes[1:]]
        spread = max(ratios) / min(ratios)
        ok = worst_coeff <= 1e-10 and gal <= 1e-10 and spread <= 2.0
        line = record("rider-a", "quadratic elements, structure", ok,
                      "homogeneous max coefficient %.2e; galerkin %.2e; "
                      "bubble spread %.3f" % (worst_coeff, gal, spread))
        assert ok, line

    def test_quadratic_error_ratio_band(self, quadratic_study):
        report, _ = quadratic_study
        ratios = [l2 / h1 for l2, h1 in zip(report.errors["l2_y"],
                                            report.errors["h1_y"])]
        tail = ratios[1:]
        spread = max(tail) / min(tail)
        decreasing = all(b < a for a, b in zip(tail, tail[1:]))
        ok = spread <= 3.0 and decreasing
        line = record("rider-b", "quadratic elements, error ratio band", ok,
                      "ratios %s levels 1-4, max/min %.2f (bound 3), "
                      "decreasing: %s" % (["%.4g" % r for r in tail],
                                          spread, decreasing))
        assert ok, line

    def test_quadratic_convergence_orders(self, quadratic_study):
        report, _ = quadratic_study
        bad = []
        for key in ("h1_y", "h1_z", "l2_u"):
            errs = report.errors[key]
            if not all(b < a for a, b in zip(errs, errs[1:])):
                bad.append("%s errors not monotone" % key)
            low = min(report.eoc[key][1:])
            if low < 1.5:
                bad.append("%s min order %.4f < 1.5" % (key, low))
        ok = not bad
        detail = ("orders h1_y %s, h1_z %s, l2_u %s" % tuple(
            ["%.3f" % e for e in report.eoc[k][1:]]
            for k in ("h1_y", "h1_z", "l2_u")))
        if bad:
            detail += "; " + "; ".join(bad)
        line = record("rider-c", "quadratic elements, convergence orders",
                      ok, detail)
        assert ok, line
