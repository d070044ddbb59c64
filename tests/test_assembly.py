"""Global operator assembly and the coupled block system."""

import numpy as np
import pytest

from dbcfem.assembly import (DofMap, assemble_boundary_mass, assemble_load,
                             assemble_mass, assemble_stiffness,
                             build_block_system)
from dbcfem.mesh import (TriMesh, make_initial_mesh, mesh_hierarchy,
                         refine_uniform)

from oracles import (as_float, dense_global_matrix, local_edge_mass_exact,
                     local_mass_exact, local_stiffness_exact)

UNIT = (0.0, 1.0, 0.0, 1.0)
QUARTER = (0.0, 0.25, 0.0, 0.25)


def single_triangle_mesh(p0, p1, p2):
    verts = np.array([p0, p1, p2], dtype=float)
    sides = [np.hypot(*(verts[b] - verts[a])) for a, b in
             ((0, 1), (1, 2), (2, 0))]
    return TriMesh(vertices=verts,
                   triangles=np.array([[0, 1, 2]]),
                   boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
                   boundary_markers=np.ones(3, dtype=np.int64),
                   level=0, h_max=max(sides))


class TestLocalMatrices:
    """The exact-arithmetic oracle carries the pinned values; the
    assembled matrices must agree with it entry by entry."""

    def test_oracle_reproduces_reference_p1_stiffness(self):
        loc = as_float(local_stiffness_exact((0, 0), (1, 0), (0, 1), 1))
        expect = np.array([[1.0, -0.5, -0.5],
                           [-0.5, 0.5, 0.0],
                           [-0.5, 0.0, 0.5]])
        assert np.array_equal(loc, expect)

    def test_oracle_reproduces_p1_mass_for_any_area(self):
        # T/12 * [[2,1,1],[1,2,1],[1,1,2]] on a skewed triangle
        tri = ((0.2, -0.1), (1.4, 0.3), (0.5, 2.0))
        loc = as_float(local_mass_exact(*tri, 1))
        area = 0.5 * abs((1.4 - 0.2) * (2.0 + 0.1) - (0.5 - 0.2) * 0.4)
        expect = area / 12 * np.array([[2., 1., 1.],
                                       [1., 2., 1.],
                                       [1., 1., 2.]])
        assert loc == pytest.approx(expect, rel=1e-14)

    def test_oracle_reproduces_edge_mass_matrices(self):
        length = 0.375
        assert as_float(local_edge_mass_exact(length, 1)) == pytest.approx(
            length / 6 * np.array([[2., 1.], [1., 2.]]), rel=1e-15)
        assert as_float(local_edge_mass_exact(length, 2)) == pytest.approx(
            length / 30 * np.array([[4., -1., 2.],
                                    [-1., 4., 2.],
                                    [2., 2., 16.]]), rel=1e-15)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_single_triangle_assembly_matches_oracle(self, degree):
        tri = ((0.0, 0.0), (0.8, 0.1), (0.3, 0.9))
        mesh = single_triangle_mesh(*tri)
        dofmap = DofMap(mesh, degree)
        # scatter the local oracle into the dofmap's global numbering
        # (edge dofs are numbered by sorted vertex pair, not cell order)
        dofs = dofmap.cell_dofs[0]
        n = dofmap.num_dofs
        for assemble, oracle, tol in (
                (assemble_stiffness, local_stiffness_exact, 1e-13),
                (assemble_mass, local_mass_exact, 1e-14)):
            want = np.zeros((n, n))
            want[np.ix_(dofs, dofs)] = as_float(oracle(*tri, degree))
            got = assemble(dofmap).toarray()
            assert got == pytest.approx(want, abs=tol)


class TestGlobalMatrices:
    @pytest.mark.parametrize("rect", [UNIT, QUARTER])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_agree_with_dense_oracle(self, rect, degree):
        mesh = refine_uniform(make_initial_mesh(rect))
        dofmap = DofMap(mesh, degree)
        for kind, assemble in (("stiffness", assemble_stiffness),
                               ("mass", assemble_mass),
                               ("boundary_mass", assemble_boundary_mass)):
            got = assemble(dofmap).toarray()
            want = dense_global_matrix(dofmap, kind)
            assert np.abs(got - want).max() <= 1e-13, kind

    @pytest.mark.parametrize("degree", [1, 2])
    def test_dofmap_caches_its_operators(self, degree):
        dofmap = DofMap(mesh_hierarchy(UNIT, 2)[-1], degree)
        for kind, assemble in (("stiffness", assemble_stiffness),
                               ("mass", assemble_mass),
                               ("boundary_mass", assemble_boundary_mass)):
            cached = getattr(dofmap, kind)
            assert getattr(dofmap, kind) is cached, kind
            fresh = assemble(dofmap)
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(cached, part),
                                      getattr(fresh, part)), (kind, part)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_stiffness_kernel_and_symmetry(self, degree):
        mesh = refine_uniform(refine_uniform(make_initial_mesh(UNIT)))
        stiff = assemble_stiffness(DofMap(mesh, degree))
        ones = np.ones(stiff.shape[0])
        assert np.abs(stiff @ ones).max() <= 1e-13
        assert np.abs(stiff - stiff.T).max() <= 1e-15

    @pytest.mark.parametrize("rect,area", [(UNIT, 1.0), (QUARTER, 1 / 16)])
    def test_mass_total_is_the_area(self, rect, area):
        for level in range(3):
            mesh = make_initial_mesh(rect)
            for _ in range(level):
                mesh = refine_uniform(mesh)
            for degree in (1, 2):
                mass = assemble_mass(DofMap(mesh, degree))
                assert mass.sum() == pytest.approx(area, rel=1e-12)

    @pytest.mark.parametrize("rect,perimeter", [(UNIT, 4.0), (QUARTER, 1.0)])
    def test_boundary_mass_total_is_the_perimeter(self, rect, perimeter):
        mesh = refine_uniform(make_initial_mesh(rect))
        for degree in (1, 2):
            bmass = assemble_boundary_mass(DofMap(mesh, degree))
            assert bmass.sum() == pytest.approx(perimeter, rel=1e-12)

    def test_boundary_mass_interior_rows_vanish(self):
        mesh = refine_uniform(make_initial_mesh(UNIT))
        dofmap = DofMap(mesh, 1)
        bmass = assemble_boundary_mass(dofmap)
        assert np.abs(bmass.toarray()[dofmap.interior]).max() == 0.0

    def test_mass_is_positive_definite(self):
        mesh = refine_uniform(make_initial_mesh(UNIT))
        mass = assemble_mass(DofMap(mesh, 1)).toarray()
        assert np.linalg.eigvalsh(mass).min() > 0

    def test_assembly_independent_of_element_order(self):
        mesh = refine_uniform(make_initial_mesh(UNIT))
        rng = np.random.default_rng(11)
        perm = rng.permutation(mesh.num_triangles)
        shuffled = TriMesh(vertices=mesh.vertices.copy(),
                           triangles=mesh.triangles[perm].copy(),
                           boundary_edges=mesh.boundary_edges.copy(),
                           boundary_markers=mesh.boundary_markers.copy(),
                           level=mesh.level, h_max=mesh.h_max)
        for degree in (1, 2):
            a = assemble_stiffness(DofMap(mesh, degree)).toarray()
            b = assemble_stiffness(DofMap(shuffled, degree)).toarray()
            assert np.abs(a - b).max() <= 1e-13


class TestLoadVector:
    def test_zero_integrand_gives_zero(self):
        dofmap = DofMap(make_initial_mesh(UNIT), 1)
        load = assemble_load(dofmap, lambda x1, x2: 0.0 * x1)
        assert np.array_equal(load, np.zeros(dofmap.num_dofs))

    @pytest.mark.parametrize("rect,area", [(UNIT, 1.0), (QUARTER, 1 / 16)])
    def test_constant_one_sums_to_area(self, rect, area):
        mesh = refine_uniform(make_initial_mesh(rect))
        for degree in (1, 2):
            load = assemble_load(DofMap(mesh, degree),
                                 lambda x1, x2: np.ones_like(x1))
            assert load.sum() == pytest.approx(area, rel=1e-13)

    def test_constant_minus_four_sums_to_minus_four(self):
        # the partition of unity forces the total of (f, phi_i) to f*|domain|
        dofmap = DofMap(refine_uniform(make_initial_mesh(UNIT)), 1)
        load = assemble_load(dofmap, lambda x1, x2: -4.0 + 0.0 * x1)
        assert load.sum() == pytest.approx(-4.0, rel=1e-13)

    def test_linear_integrand_exact_moments(self):
        # (x1, hat_i) summed over i is the integral of x1 over the square
        dofmap = DofMap(refine_uniform(make_initial_mesh(UNIT)), 1)
        load = assemble_load(dofmap, lambda x1, x2: x1)
        assert load.sum() == pytest.approx(0.5, rel=1e-13)


class TestBlockSystem:
    def test_level0_unit_square_shapes(self):
        dofmap = DofMap(make_initial_mesh(UNIT), 1)
        system = build_block_system(dofmap, 1.0,
                                    lambda x1, x2: 0 * x1,
                                    lambda x1, x2: 0 * x1)
        n, ni, nb = 9, 1, 8
        assert len(system.boundary) == nb
        assert len(system.interior) == ni
        assert system.A.shape == (ni, n)
        assert system.B.shape == (n, n)
        assert system.C.shape == (n, ni)
        assert system.F.shape == (ni,)
        assert system.G.shape == (n,)
        assert system.full().shape == (n + ni, n + ni)
        assert system.rhs().shape == (n + ni,)

    def test_zero_data_gives_zero_rhs(self):
        dofmap = DofMap(refine_uniform(make_initial_mesh(UNIT)), 1)
        system = build_block_system(dofmap, 2.0,
                                    lambda x1, x2: 0 * x1,
                                    lambda x1, x2: 0 * x1)
        assert not system.F.any()
        assert not system.G.any()

    def test_coupling_block_combines_the_two_masses(self):
        gamma = 0.01
        dofmap = DofMap(refine_uniform(make_initial_mesh(UNIT)), 1)
        system = build_block_system(dofmap, gamma,
                                    lambda x1, x2: 0 * x1,
                                    lambda x1, x2: 0 * x1)
        mass = assemble_mass(dofmap)
        bmass = assemble_boundary_mass(dofmap)
        expect = -(mass + gamma * bmass).toarray()
        assert np.abs(system.B.toarray() - expect).max() <= 1e-16

    def test_state_blocks_are_stiffness_restrictions(self):
        dofmap = DofMap(refine_uniform(make_initial_mesh(UNIT)), 1)
        system = build_block_system(dofmap, 1.0,
                                    lambda x1, x2: 0 * x1,
                                    lambda x1, x2: 0 * x1)
        stiff = assemble_stiffness(dofmap).toarray()
        assert np.array_equal(system.A.toarray(), stiff[dofmap.interior, :])
        assert np.array_equal(system.C.toarray(), stiff[:, dofmap.interior])

    def test_interior_stiffness_positive_definite(self):
        dofmap = DofMap(refine_uniform(make_initial_mesh(UNIT)), 1)
        system = build_block_system(dofmap, 1.0,
                                    lambda x1, x2: 0 * x1,
                                    lambda x1, x2: 0 * x1)
        k_ii = system.C.toarray()[dofmap.interior, :]
        assert np.abs(k_ii - k_ii.T).max() <= 1e-15
        assert np.linalg.eigvalsh(k_ii).min() > 0

    def test_load_sides_carry_the_data(self):
        dofmap = DofMap(refine_uniform(make_initial_mesh(UNIT)), 1)
        f = lambda x1, x2: -4.0 + 0 * x1
        y_d = lambda x1, x2: 3.0 * x1
        system = build_block_system(dofmap, 1.0, f, y_d)
        assert np.array_equal(system.F,
                              assemble_load(dofmap, f)[dofmap.interior])
        assert np.array_equal(system.G, -assemble_load(dofmap, y_d))

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_nonpositive_gamma_rejected(self, gamma):
        dofmap = DofMap(make_initial_mesh(UNIT), 1)
        with pytest.raises(ValueError):
            build_block_system(dofmap, gamma,
                               lambda x1, x2: 0 * x1,
                               lambda x1, x2: 0 * x1)


class TestDofMap:
    @pytest.mark.parametrize("level,degree", [(0, 1), (1, 1), (2, 1),
                                              (0, 2), (1, 2)])
    def test_interior_boundary_partition(self, level, degree):
        mesh = make_initial_mesh(UNIT)
        for _ in range(level):
            mesh = refine_uniform(mesh)
        dofmap = DofMap(mesh, degree)
        both = np.concatenate([dofmap.interior, dofmap.boundary])
        assert np.array_equal(np.sort(both), np.arange(dofmap.num_dofs))
        # boundary dofs are exactly the nodes on the rectangle edge
        coords = dofmap.coords
        on_edge = ((coords[:, 0] == 0) | (coords[:, 0] == 1)
                   | (coords[:, 1] == 0) | (coords[:, 1] == 1))
        assert np.array_equal(np.sort(dofmap.boundary),
                              np.flatnonzero(on_edge))

    def test_p1_counts(self):
        for level in range(3):
            mesh = make_initial_mesh(UNIT)
            for _ in range(level):
                mesh = refine_uniform(mesh)
            dofmap = DofMap(mesh, 1)
            assert dofmap.num_dofs == (2 ** (level + 1) + 1) ** 2
            assert len(dofmap.boundary) == 8 * 2 ** level

    def test_p2_edge_dofs_are_the_next_levels_vertices(self):
        for mesh in mesh_hierarchy(UNIT, 4):
            nv = mesh.num_vertices
            coords = DofMap(mesh, 2).coords
            assert np.array_equal(coords[nv:],
                                  refine_uniform(mesh).vertices[nv:])

    def test_p2_dofs_match_the_loop_reference(self):
        # edge dofs numbered by a dict of sorted vertex pairs, filled
        # triangle by triangle: the numbering the tables were made with
        mesh = mesh_hierarchy(UNIT, 2)[-1]
        nv = mesh.num_vertices
        key = lambda a, b: (int(min(a, b)), int(max(a, b)))
        edges = sorted({key(*p) for a, b, c in mesh.triangles
                        for p in ((a, b), (b, c), (c, a))})
        mid = {e: nv + k for k, e in enumerate(edges)}
        m = lambda a, b: mid[key(a, b)]
        dofmap = DofMap(mesh, 2)
        assert np.array_equal(dofmap.cell_dofs, [
            [a, b, c, m(a, b), m(b, c), m(c, a)]
            for a, b, c in mesh.triangles])
        assert np.array_equal(dofmap.edge_dofs, [
            [u, v, m(u, v)] for u, v in mesh.boundary_edges])

    def test_p2_counts(self):
        mesh = refine_uniform(make_initial_mesh(UNIT))
        dofmap = DofMap(mesh, 2)
        # vertex dofs plus one dof per edge
        tri = mesh.triangles
        pairs = np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
        pairs.sort(axis=1)
        n_edges = len(np.unique(pairs, axis=0))
        assert dofmap.num_dofs == mesh.num_vertices + n_edges
        assert len(dofmap.boundary) == 2 * len(mesh.boundary_edges)
