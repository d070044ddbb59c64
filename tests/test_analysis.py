"""Error norms, the fractional boundary seminorm, and the verifiers.

The H^{1/2} seminorm is checked against a dense double-integral oracle
(tests/oracles.py) that shares no code with the package quadrature, and
its quadrature sum against the same rule applied pair by pair.
"""

import math

import numpy as np
import pytest

from dbcfem import (
    ConvergenceReport,
    DofMap,
    FemField,
    boundary_L2_projection,
    boundary_walk_dofs,
    compute_eoc,
    error_H1_semi,
    error_L2,
    error_L2_boundary,
    mesh_hierarchy,
    seminorm_H_half_boundary,
    verify_boundary_bubble_estimate,
    verify_discrete_stability,
    verify_L2_controlled_by_H1,
)

from oracles import (
    _gauss01,
    as_float,
    bubble_estimate_loop,
    dense_global_matrix,
    interpolate,
    seminorm_dense_oracle,
    seminorm_pairwise,
    walk_trace,
)

UNIT = (0.0, 1.0, 0.0, 1.0)
QUARTER = (0.0, 0.25, 0.0, 0.25)


def linear(x1, x2):
    return 0.3 + 1.7 * x1 - 0.9 * x2


def linear_grad(x1, x2):
    one = np.ones_like(np.asarray(x1, dtype=float))
    return 1.7 * one, -0.9 * one


def quadratic(x1, x2):
    return x1 ** 2 + 3.0 * x1 * x2 - x2 + 0.25 * x2 ** 2


def quadratic_grad(x1, x2):
    return 2.0 * x1 + 3.0 * x2, 3.0 * x1 - 1.0 + 0.5 * x2


class TestFemField:
    def test_wrong_length_rejected(self):
        dofmap = DofMap(mesh_hierarchy(UNIT, 1)[-1], 1)
        with pytest.raises(ValueError):
            FemField(dofmap, np.zeros(dofmap.num_dofs + 1))

    def test_interpolate_hits_nodal_values(self):
        dofmap = DofMap(mesh_hierarchy(UNIT, 2)[-1], 2)
        field = interpolate(dofmap, quadratic)
        x = dofmap.coords
        assert field.coeffs == pytest.approx(quadratic(x[:, 0], x[:, 1]),
                                             rel=1e-15)


class TestErrorNorms:
    @pytest.mark.parametrize("degree,fn,grad", [
        (1, linear, linear_grad),
        (2, quadratic, quadratic_grad),
    ])
    def test_interpolant_of_exact_polynomial_has_zero_error(
            self, degree, fn, grad):
        dofmap = DofMap(mesh_hierarchy(UNIT, 2)[-1], degree)
        field = interpolate(dofmap, fn)
        assert error_L2(field, fn) <= 1e-12
        assert error_H1_semi(field, grad) <= 1e-12
        assert error_L2_boundary(field, fn) <= 1e-12

    def test_error_against_zero_recovers_norms(self):
        # against u = 0 the "errors" are plain norms, known in closed form
        dofmap = DofMap(mesh_hierarchy(UNIT, 2)[-1], 2)
        field = interpolate(dofmap, lambda x1, x2: x1)
        zero = lambda x1, x2: np.zeros_like(np.asarray(x1, dtype=float))
        zgrad = lambda x1, x2: (np.zeros_like(np.asarray(x1, dtype=float)),) * 2
        assert error_L2(field, zero) == pytest.approx(math.sqrt(1 / 3),
                                                      rel=1e-13)
        assert error_H1_semi(field, zgrad) == pytest.approx(1.0, rel=1e-13)
        # int over the boundary of x1^2: right edge 1, bottom and top
        # 1/3 each, left edge 0
        assert error_L2_boundary(field, zero) == pytest.approx(
            math.sqrt(5 / 3), rel=1e-13)

    def test_p1_interpolation_error_of_quadratic_matches_theory(self):
        # u = x1^2 on one hypotenuse-refined family: the L2 interpolation
        # error must shrink by 4 per level once the mesh resolves u
        errs = []
        for mesh in mesh_hierarchy(UNIT, 3)[1:]:
            field = interpolate(DofMap(mesh, 1), lambda x1, x2: x1 ** 2)
            errs.append(error_L2(field, lambda x1, x2: x1 ** 2))
        rates = compute_eoc(errs)[1:]
        assert all(abs(r - 2.0) < 0.05 for r in rates)


class TestEoc:
    def test_basic_values(self):
        out = compute_eoc([0.4, 0.1])
        assert out[0] is None
        assert out[1] == pytest.approx(2.0, rel=1e-15)

    def test_flat_sequence_gives_zero(self):
        assert compute_eoc([0.5, 0.5])[1] == 0.0

    def test_nonpositive_gives_nan(self):
        out = compute_eoc([1.0, 0.0, 2.0])
        assert math.isnan(out[1]) and math.isnan(out[2])

    def test_length_matches_input(self):
        assert len(compute_eoc([3.0, 2.0, 1.0, 0.5])) == 4


class TestSeminormHHalf:
    def test_constant_trace_has_zero_seminorm(self):
        for degree in (1, 2):
            dofmap = DofMap(mesh_hierarchy(UNIT, 2)[-1], degree)
            field = interpolate(dofmap, lambda x1, x2: np.full_like(
                np.asarray(x1, dtype=float), 3.7))
            # basis recombination leaves roundoff-sized differences
            assert seminorm_H_half_boundary(field) <= 1e-12

    def test_homogeneity_and_sign(self):
        dofmap = DofMap(mesh_hierarchy(UNIT, 2)[-1], 1)
        field = interpolate(dofmap, quadratic)
        s = seminorm_H_half_boundary(field)
        double = FemField(dofmap, 2.0 * field.coeffs)
        flipped = FemField(dofmap, -field.coeffs)
        assert seminorm_H_half_boundary(double) == pytest.approx(2 * s,
                                                                 rel=1e-12)
        assert seminorm_H_half_boundary(flipped) == pytest.approx(s, rel=1e-12)

    def test_dilation_invariance(self):
        # the seminorm is invariant under scaling the domain; the quarter
        # square at the same level is an exact 1/4 dilation of the unit one
        for level in (1, 2):
            du = DofMap(mesh_hierarchy(UNIT, level)[-1], 1)
            dq = DofMap(mesh_hierarchy(QUARTER, level)[-1], 1)
            iu = du.boundary[len(du.boundary) // 3]
            iq = dq.boundary[len(dq.boundary) // 3]
            cu = np.zeros(du.num_dofs)
            cu[iu] = 1.0
            cq = np.zeros(dq.num_dofs)
            cq[iq] = 1.0
            su = seminorm_H_half_boundary(FemField(du, cu))
            sq = seminorm_H_half_boundary(FemField(dq, cq))
            assert su == pytest.approx(sq, rel=1e-12)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_boundary_hat_against_dense_oracle(self, level):
        dofmap = DofMap(mesh_hierarchy(UNIT, level)[-1], 1)
        coeffs = np.zeros(dofmap.num_dofs)
        coeffs[dofmap.boundary[len(dofmap.boundary) // 3]] = 1.0
        field = FemField(dofmap, coeffs)
        got = seminorm_H_half_boundary(field)
        want = seminorm_dense_oracle(*walk_trace(field))
        assert got == pytest.approx(want, rel=1e-2)

    def test_smooth_trace_against_dense_oracle(self):
        dofmap = DofMap(mesh_hierarchy(UNIT, 2)[-1], 1)
        field = interpolate(dofmap, quadratic)
        got = seminorm_H_half_boundary(field)
        want = seminorm_dense_oracle(*walk_trace(field))
        assert got == pytest.approx(want, rel=1e-2)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_quadrature_sum_matches_the_pairwise_loop(self, degree, level):
        # level 0 has 8 panels, so the offsets stop at n/2 = 4; random
        # coefficients on a non-square rectangle make every pair differ
        dofmap = DofMap(mesh_hierarchy((0.1, 1.3, 0.2, 0.9), level)[-1],
                        degree)
        coeffs = np.random.default_rng(level).standard_normal(
            dofmap.num_dofs)
        field = FemField(dofmap, coeffs)
        assert seminorm_H_half_boundary(field) == pytest.approx(
            seminorm_pairwise(field), rel=1e-12)

    def test_quadratic_trace_space_matches_linear_for_linear_data(self):
        # a linear function has the same trace whether the field lives in
        # the degree 1 or degree 2 space, so the seminorms must agree
        mesh = mesh_hierarchy(UNIT, 2)[-1]
        s1 = seminorm_H_half_boundary(interpolate(DofMap(mesh, 1), linear))
        s2 = seminorm_H_half_boundary(interpolate(DofMap(mesh, 2), linear))
        assert s1 == pytest.approx(s2, rel=1e-12)


class TestBoundaryProjection:
    @pytest.mark.parametrize("degree,fn", [(1, linear), (2, quadratic)])
    def test_trace_space_member_projects_to_itself(self, degree, fn):
        dofmap = DofMap(mesh_hierarchy(UNIT, 2)[-1], degree)
        proj = boundary_L2_projection(dofmap, fn)
        x = dofmap.coords[dofmap.boundary]
        assert proj == pytest.approx(fn(x[:, 0], x[:, 1]), abs=1e-12)

    def test_zero_projects_to_zero(self):
        dofmap = DofMap(mesh_hierarchy(UNIT, 1)[-1], 1)
        proj = boundary_L2_projection(
            dofmap, lambda x1, x2: np.zeros_like(np.asarray(x1, dtype=float)))
        assert np.all(proj == 0.0)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_residual_is_orthogonal_to_trace_space(self, degree):
        # Galerkin orthogonality of the projection, checked with an
        # independent 16-point Gauss rule per boundary panel
        dofmap = DofMap(mesh_hierarchy(UNIT, 2)[-1], degree)
        q = lambda x1, x2: x1 ** 2 + 0.5 * x2
        proj = boundary_L2_projection(dofmap, q)
        full = np.zeros(dofmap.num_dofs)
        full[dofmap.boundary] = proj

        mesh = dofmap.mesh
        a = mesh.vertices[mesh.boundary_edges[:, 0]]
        b = mesh.vertices[mesh.boundary_edges[:, 1]]
        lengths = np.sqrt(((b - a) ** 2).sum(axis=1))
        tg, wg = _gauss01(16)
        tg, wg = np.array(tg), np.array(wg)
        if degree == 1:
            tvals = np.stack([1 - tg, tg])
        else:
            tvals = np.stack([(1 - tg) * (1 - 2 * tg), tg * (2 * tg - 1),
                              4 * tg * (1 - tg)])
        moments = np.zeros(dofmap.num_dofs)
        for e in range(len(lengths)):
            pts = a[e] + tg[:, None] * (b[e] - a[e])
            resid = q(pts[:, 0], pts[:, 1]) - full[dofmap.edge_dofs[e]] @ tvals
            for n, dof in enumerate(dofmap.edge_dofs[e]):
                moments[dof] += lengths[e] * np.sum(wg * resid * tvals[n])
        assert np.abs(moments).max() <= 1e-12


class TestBubbleEstimate:
    def test_single_hat_ratio_matches_closed_form(self):
        # hat at a non-corner boundary vertex: stiffness diagonal 2,
        # boundary mass diagonal 2L/3, h = sqrt(2) L, so the squared
        # ratio is exactly 3 sqrt(2) at every level
        for level in (1, 2):
            dofmap = DofMap(mesh_hierarchy(UNIT, level)[-1], 1)
            stiff = as_float(dense_global_matrix(dofmap, "stiffness"))
            bmass = as_float(dense_global_matrix(dofmap, "boundary_mass"))
            h = dofmap.mesh.h_max
            corners = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
            side = next(i for i in dofmap.boundary
                        if tuple(dofmap.coords[i]) not in corners)
            ratio = math.sqrt(stiff[side, side] * h / bmass[side, side])
            assert ratio == pytest.approx(math.sqrt(3 * math.sqrt(2)),
                                          rel=1e-14)

    def test_randomized_max_is_bounded_by_generalized_eigenvalue(self):
        dofmap = DofMap(mesh_hierarchy(UNIT, 2)[-1], 1)
        got = verify_boundary_bubble_estimate(dofmap, trials=200, seed=3)
        from scipy.linalg import eigh

        from dbcfem import assemble_boundary_mass, assemble_stiffness
        bnd = dofmap.boundary
        k_bb = assemble_stiffness(dofmap).toarray()[np.ix_(bnd, bnd)]
        m_bb = assemble_boundary_mass(dofmap).toarray()[np.ix_(bnd, bnd)]
        lam = eigh(k_bb, m_bb, eigvals_only=True)[-1]
        bound = math.sqrt(lam * dofmap.mesh.h_max)
        assert 0.0 < got <= bound * (1 + 1e-12)
        # the non-corner hat is an admissible draw direction, so random
        # sampling should land in the same ballpark
        assert got >= math.sqrt(3 * math.sqrt(2)) * 0.5

    def test_deterministic_given_seed(self):
        dofmap = DofMap(mesh_hierarchy(UNIT, 1)[-1], 1)
        a = verify_boundary_bubble_estimate(dofmap, trials=50, seed=11)
        b = verify_boundary_bubble_estimate(dofmap, trials=50, seed=11)
        assert a == b

    def test_trials_must_be_positive(self):
        dofmap = DofMap(mesh_hierarchy(UNIT, 1)[-1], 1)
        with pytest.raises(ValueError):
            verify_boundary_bubble_estimate(dofmap, trials=0)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    @pytest.mark.parametrize("trials, seed", [(100, 0), (100, 11), (1, 5)])
    def test_one_draw_matches_the_trial_loop(self, degree, level, trials,
                                             seed):
        # the (trials, |B|) draw holds the per-trial draws row by row;
        # only the summation order of the quadratic forms differs
        dofmap = DofMap(mesh_hierarchy(UNIT, level)[-1], degree)
        want = bubble_estimate_loop(dofmap, trials=trials, seed=seed)
        got = verify_boundary_bubble_estimate(dofmap, trials=trials,
                                              seed=seed)
        assert abs(got - want) <= 1e-14 * want

    def test_level_spread_is_small(self):
        ratios = [verify_boundary_bubble_estimate(
            DofMap(mesh_hierarchy(UNIT, lvl)[-1], 1))
            for lvl in (1, 2, 3)]
        assert max(ratios) / min(ratios) <= 2.0


class TestVerifiers:
    def test_l2_h1_ratio_is_nan_when_errors_vanish(self):
        dofmap = DofMap(mesh_hierarchy(UNIT, 1)[-1], 1)
        field = FemField(dofmap, np.zeros(dofmap.num_dofs))
        zero = lambda x1, x2: np.zeros_like(np.asarray(x1, dtype=float))
        zgrad = lambda x1, x2: (np.zeros_like(np.asarray(x1, dtype=float)),) * 2
        assert math.isnan(verify_L2_controlled_by_H1(field, zero, zgrad))

    def test_l2_h1_ratio_finite_for_nontrivial_error(self):
        dofmap = DofMap(mesh_hierarchy(UNIT, 2)[-1], 1)
        field = interpolate(dofmap, lambda x1, x2: x1 ** 2)
        ratio = verify_L2_controlled_by_H1(
            field, lambda x1, x2: x1 ** 2,
            lambda x1, x2: (2 * x1, np.zeros_like(np.asarray(x1,
                                                             dtype=float))))
        assert 0.0 < ratio < 1.0

    def test_stability_of_zero_field(self):
        dofmap = DofMap(mesh_hierarchy(UNIT, 1)[-1], 1)
        field = FemField(dofmap, np.zeros(dofmap.num_dofs))
        assert verify_discrete_stability(field, 1.0) == (0.0, 0.0)

    def test_stability_of_constant_field_in_closed_form(self):
        # v = 1 on the unit square: ||v|| = 1, ||v||_Gamma = 2, and the
        # seminorm vanishes
        dofmap = DofMap(mesh_hierarchy(UNIT, 2)[-1], 1)
        field = interpolate(dofmap, lambda x1, x2: np.ones_like(
            np.asarray(x1, dtype=float)))
        combined, semi = verify_discrete_stability(field, 0.25)
        assert combined == pytest.approx(0.5 * 2.0 + 1.0, rel=1e-13)
        assert semi == 0.0


class TestBoundaryWalkDofs:
    def test_degree_one_walk(self):
        dofmap = DofMap(mesh_hierarchy(UNIT, 1)[-1], 1)
        dofs, arcs, coords = boundary_walk_dofs(dofmap)
        assert len(dofs) == len(dofmap.boundary)
        assert arcs[0] == 0.0
        assert np.all(np.diff(arcs) > 0)
        assert arcs[-1] < 4.0  # total perimeter, last point short of closing
        assert coords == pytest.approx(dofmap.coords[dofs])

    def test_degree_two_walk_interleaves_midpoints(self):
        dofmap = DofMap(mesh_hierarchy(UNIT, 1)[-1], 2)
        dofs, arcs, coords = boundary_walk_dofs(dofmap)
        assert len(dofs) == len(dofmap.boundary)
        assert np.all(np.diff(arcs) > 0)
        steps = np.diff(arcs)
        assert steps == pytest.approx(np.full(len(steps), steps[0]))


class TestConvergenceReport:
    def test_csv_layout(self):
        report = ConvergenceReport(
            h=(0.5, 0.25),
            errors={"l2_y": [0.4, 0.1], "l2_u": [0.3, 0.15]},
            columns=(("l2_y", True), ("l2_u", False)),
        )
        assert report.eoc == {"l2_y": [None, 2.0], "l2_u": [None, 1.0]}
        assert report.to_csv() == (
            "h,l2_y,order_l2_y,l2_u\n"
            "0.5,0.4,--,0.3\n"
            "0.25,0.1,2,0.15\n"
        )

    def test_csv_is_deterministic(self):
        report = ConvergenceReport(
            h=(0.5,),
            errors={"l2_y": [0.123456789]},
            columns=(("l2_y", True),),
        )
        assert report.to_csv() == report.to_csv()
