"""Global operator assembly and the coupled block system."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import dbcfem.assembly as assembly
import dbcfem.expr as expr
from dbcfem.analysis import (FemField, boundary_L2_projection, error_H1_semi,
                             error_L2, error_L2_boundary,
                             seminorm_H_half_boundary)
from dbcfem.assembly import (DofMap, _cell_geometry, assemble_boundary_mass,
                             assemble_load, assemble_mass, assemble_stiffness,
                             build_block_system)
from dbcfem.elements import ReferenceBasis, triangle_quadrature
from dbcfem.mesh import (TriMesh, make_initial_mesh, mesh_hierarchy,
                         refine_uniform)
from dbcfem.problems import load_config

from oracles import (as_float, cell_geometry_stacked, dense_global_matrix,
                     error_H1_semi_einsum, error_L2_einsum, interpolate,
                     load_einsum, local_edge_mass_exact, local_mass_exact,
                     local_stiffness_exact, physical_gradients,
                     stiffness_einsum)

UNIT = (0.0, 1.0, 0.0, 1.0)
QUARTER = (0.0, 0.25, 0.0, 0.25)
SKEW = (0.1, 1.3, 0.2, 0.9)


def single_triangle_mesh(p0, p1, p2):
    return TriMesh(vertices=np.array([p0, p1, p2], dtype=float),
                   triangles=np.array([[0, 1, 2]]),
                   boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
                   level=0)


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

    @pytest.mark.parametrize("degree", [0, 3])
    def test_dofmap_rejects_an_unsupported_degree(self, degree):
        with pytest.raises(ValueError, match=r"unsupported degree %d "
                                             r"\(only 1 and 2\)" % degree):
            DofMap(mesh_hierarchy(UNIT, 0)[-1], degree)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_dofmap_caches_its_operators(self, degree):
        dofmap = DofMap(mesh_hierarchy(UNIT, 2)[-1], degree)
        for kind, assemble in (("stiffness", assemble_stiffness),
                               ("mass", assemble_mass),
                               ("boundary_mass", assemble_boundary_mass)):
            cached = getattr(dofmap, kind)
            assert getattr(dofmap, kind) is cached, kind
            # sorted columns and no duplicates, straight from tocsr()
            assert cached.format == "csr" and cached.has_canonical_format
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
                           level=mesh.level)
        for degree in (1, 2):
            a = assemble_stiffness(DofMap(mesh, degree)).toarray()
            b = assemble_stiffness(DofMap(shuffled, degree)).toarray()
            assert np.abs(a - b).max() <= 1e-13


class TestScatterBlocks:
    """_scatter converts more than _SCATTER_BLOCK cells in (at most)
    quarters and adds the partial matrices; at most _SCATTER_BLOCK
    cells in one step."""

    OPERATORS = (assemble_stiffness, assemble_mass, assemble_boundary_mass)

    @pytest.fixture(scope="class")
    def level7(self):
        return DofMap(mesh_hierarchy(UNIT, 7)[-1], 1)

    @staticmethod
    def assert_canonical(m):
        assert m.format == "csr"
        assert m.indices.dtype == np.int32 and m.indptr.dtype == np.int32
        assert np.all(m.data != 0), "explicit zeros"
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        same_row = rows[1:] == rows[:-1]
        # sorted and without duplicates: strictly increasing in each row
        assert np.all(np.diff(m.indices)[same_row] > 0)

    @pytest.mark.parametrize("rect", [UNIT, SKEW])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_quarters_match_one_block(self, monkeypatch, rect, degree):
        for mesh in mesh_hierarchy(rect, 4):
            dofmap = DofMap(mesh, degree)
            for assemble in self.OPERATORS:
                monkeypatch.setattr(assembly, "_SCATTER_BLOCK", 2 ** 62)
                whole = assemble(dofmap)
                monkeypatch.setattr(assembly, "_SCATTER_BLOCK", 8)
                parts = assemble(dofmap)
                where = (mesh.level, assemble.__name__)
                self.assert_canonical(parts)
                assert np.array_equal(parts.indptr, whole.indptr), where
                assert np.array_equal(parts.indices, whole.indices), where
                ulp = np.spacing(np.abs(whole.data).max())
                assert np.abs(parts.data - whole.data).max() <= 4 * ulp, where

    def test_level7_p1_is_bitwise_the_one_block_scatter(self, monkeypatch,
                                                        level7):
        for assemble in (assemble_stiffness, assemble_mass):
            parts = assemble(level7)
            monkeypatch.setattr(assembly, "_SCATTER_BLOCK", 2 ** 62)
            whole = assemble(level7)
            monkeypatch.undo()
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(parts, part),
                                      getattr(whole, part)), part

    @staticmethod
    def coo_sizes(monkeypatch):
        sizes, coo = [], assembly.sp.coo_matrix

        def counting(arg, *args, **kwargs):
            sizes.append(len(arg[0]))
            return coo(arg, *args, **kwargs)
        monkeypatch.setattr(assembly.sp, "coo_matrix", counting)
        return sizes

    def test_level7_p1_stiffness_builds_four_quarters(self, monkeypatch,
                                                      level7):
        sizes = self.coo_sizes(monkeypatch)
        assemble_stiffness(level7)
        assert len(sizes) == 4
        assert max(sizes) <= 9 * 2 ** 15 and sum(sizes) == 9 * 8 * 4 ** 7

    def test_p2_level6_stiffness_builds_one_block(self, monkeypatch):
        dofmap = DofMap(mesh_hierarchy(UNIT, 6)[-1], 2)
        sizes = self.coo_sizes(monkeypatch)
        assemble_stiffness(dofmap)
        assert sizes == [36 * 8 * 4 ** 6]


class TestScatterLocal:
    """_scatter asks its local function for one block of cells at a
    time, so no local matrices of the whole mesh are computed at once
    on a mesh of more than _SCATTER_BLOCK cells."""

    @staticmethod
    def requested(dofmap):
        """The slices _scatter asks a recording local function for."""
        asked = []

        def local(cells):
            asked.append(cells)
            nb, nd = len(dofmap.cell_dofs[cells]), dofmap.cell_dofs.shape[1]
            return np.ones((nb, nd, nd))
        assembly._scatter(dofmap.cell_dofs, local, dofmap.num_dofs)
        return [(c.start, c.stop) for c in asked]

    @pytest.mark.parametrize("degree", [1, 2])
    def test_local_is_asked_for_one_block_at_a_time(self, monkeypatch,
                                                    degree):
        monkeypatch.setattr(assembly, "_SCATTER_BLOCK", 8)
        meshes = mesh_hierarchy(UNIT, 3)
        # 8 cells: one call for the whole mesh
        assert self.requested(DofMap(meshes[0], degree)) == [(0, 8)]
        # 32 cells: four quarters of 8 in order, none above the block
        assert self.requested(DofMap(meshes[1], degree)) == [
            (0, 8), (8, 16), (16, 24), (24, 32)]
        # at most two halvings: 128 and 512 cells give four quarters
        for mesh in meshes[2:]:
            nt = mesh.num_triangles
            q = nt // 4
            assert self.requested(DofMap(mesh, degree)) == [
                (0, q), (q, 2 * q), (2 * q, 3 * q), (3 * q, nt)]

    def test_level7_p1_operators_hold_one_quarter_of_local_matrices(self):
        # Level 7 has 131072 cells, scattered in quarters of 32768.
        # The whole (nt, 9) local array of the stiffness was 9.4 MB, and
        # the stiffness and the mass peaked at 20.3 and 21.0 MB; with
        # one quarter's local matrices at a time they peak at 13.6 and
        # 14.3 MB, the output CSR (5.8 MB) included.
        dofmap = DofMap(mesh_hierarchy(UNIT, 7)[-1], 1)
        dofmap.cell_geometry   # cached, not a transient
        for assemble in (assemble_stiffness, assemble_mass):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assemble(dofmap)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra = (peak - before) / 2 ** 20
            assert extra < 17, (assemble.__name__, extra)


class TestCellBlocks:
    """The loads and the error norms iterate _cell_quadrature, at most
    _CELL_BLOCK cells at a time; their results do not depend on the
    block size, and their memory beyond the output does not grow with
    the mesh."""

    @staticmethod
    def kernels(dofmap):
        """The loads of example1's f and y_d and the L2 and H1 errors of
        the interpolant of its exact state, as (name, call) pairs."""
        spec = load_config("example1")
        y = spec.field(spec.exact["y"])
        g1, g2 = (spec.field(s) for s in spec.exact["y_grad"])
        u = interpolate(dofmap, y)
        return (("load_f", lambda: assemble_load(dofmap, spec.field(spec.f))),
                ("load_y_d",
                 lambda: assemble_load(dofmap, spec.field(spec.y_d))),
                ("L2", lambda: error_L2(u, y)),
                ("H1", lambda: error_H1_semi(
                    u, lambda a, b: (g1(a, b), g2(a, b)))))

    @pytest.mark.parametrize("degree", [1, 2])
    def test_blocks_of_8_are_bitwise_the_default(self, monkeypatch, degree):
        for mesh in mesh_hierarchy(load_config("example1").domain, 5):
            for name, call in self.kernels(DofMap(mesh, degree)):
                default = np.asarray(call()).tobytes()
                for block in (8, 2 ** 62):
                    monkeypatch.setattr(assembly, "_CELL_BLOCK", block)
                    assert np.asarray(call()).tobytes() == default, (
                        mesh.level, name, block)
                    monkeypatch.undo()

    def test_level7_p1_transients_do_not_scale_with_the_mesh(self):
        # Level 7 has 131072 cells and the P1 rule 7 points, so one
        # block's (nq, nb) plane is 7·4096·8 B = 0.22 MB.  Each norm
        # keeps a 1 MB per-cell array and about a dozen planes: 5 MB.
        # The load adds one block's local entries at a time (see the
        # next test).  Planes of the whole mesh would be 7.3 MB each.
        dofmap = DofMap(mesh_hierarchy(load_config("example1").domain,
                                       7)[-1], 1)
        bounds = {"load_f": 8, "load_y_d": 8, "L2": 5, "H1": 5}
        for name, call in self.kernels(dofmap):
            call()   # the cached cell geometry is not a transient
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = np.asarray(call())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra = (peak - before - out.nbytes) / 2 ** 20
            assert extra < bounds[name], (name, extra)

    @pytest.mark.parametrize("key", ["f", "y_d"])
    def test_level7_p1_load_holds_no_array_of_the_whole_mesh(self, key):
        # Level 7's (nt, 3) local entries would take 3 MB, and so would
        # a copy of the mesh's cell dofs; one block's entries and planes
        # and the 0.5 MB vector itself take under 2 MB.
        spec = load_config("example1")
        dofmap = DofMap(mesh_hierarchy(spec.domain, 7)[-1], 1)
        dofmap.cell_geometry
        g = spec.field(getattr(spec, key))
        tracemalloc.start()
        try:
            assemble_load(dofmap, g)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak < 4, peak


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

    @pytest.mark.parametrize("degree", [1, 2])
    def test_zero_datum_is_exact_zeros_without_evaluation(self, monkeypatch,
                                                          degree):
        calls = []
        original = expr.eval
        monkeypatch.setattr(
            expr, "eval", lambda *a, **k: calls.append(1) or original(*a, **k))
        spec = load_config("example2")
        # x1 < 0 on part of the domain, so 0*x1 samples -0.0 there
        dofmap = DofMap(mesh_hierarchy((-0.7, 0.3, 0.15, 2.2), 3)[-1], degree)
        zeros = np.zeros(dofmap.num_dofs).tobytes()
        load = assemble_load(dofmap, spec.field("0"))
        assert calls == []
        assert load.tobytes() == zeros
        # a constant bound to 0 is the same ("num", 0.0) leaf
        quiet = dataclasses.replace(spec, constants={"s": 0.0})
        load = assemble_load(dofmap, quiet.field("s"))
        assert calls == []
        assert load.tobytes() == zeros
        # any other tree is sampled, and the quadrature sums to +0.0 too
        load = assemble_load(dofmap, spec.field("0*x1"))
        assert calls
        assert load.tobytes() == zeros


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

    @pytest.mark.parametrize("degree", [1, 2])
    def test_boundary_is_the_dofmap_boundary(self, degree):
        # derived from interior on access, in the DofMap's sorted order
        dofmap = DofMap(refine_uniform(refine_uniform(
            make_initial_mesh(UNIT))), degree)
        system = build_block_system(dofmap, 1.0, lambda x1, x2: 0 * x1,
                                    lambda x1, x2: 0 * x1)
        assert np.array_equal(system.boundary, dofmap.boundary)
        assert system.boundary.dtype == dofmap.boundary.dtype

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

    @pytest.mark.parametrize("degree", [1, 2])
    def test_keeps_the_dofmap_masses(self, degree):
        # M and M_Gamma are the DofMap's own; B, formed on access, has
        # M's pattern, since M_Gamma's entries all lie on mesh edges
        gamma = 0.01
        dofmap = DofMap(mesh_hierarchy(UNIT, 3)[-1], degree)
        system = build_block_system(dofmap, gamma, lambda x1, x2: 0 * x1,
                                    lambda x1, x2: 0 * x1)
        assert system.M is dofmap.mass
        assert system.M_Gamma is dofmap.boundary_mass
        assert system.gamma == gamma
        B, M = system.B, system.M
        assert B.format == "csr" and B.has_canonical_format
        assert np.array_equal(B.indices, M.indices)
        assert np.array_equal(B.indptr, M.indptr)
        expect = -(M.toarray() + gamma * system.M_Gamma.toarray())
        assert np.array_equal(B.toarray(), expect)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_builds_no_sparse_matrix(self, monkeypatch, degree):
        # with the operators cached, the block system only gathers them
        dofmap = DofMap(mesh_hierarchy(UNIT, 3)[-1], degree)
        for name in ("stiffness", "mass", "boundary_mass"):
            getattr(dofmap, name)
        built = []
        original = sp.csr_matrix.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(sp.csr_matrix, "__init__", counting)
        build_block_system(dofmap, 0.01, lambda x1, x2: 1 + 0 * x1,
                           lambda x1, x2: x1 * x2)
        assert built == []

    @pytest.mark.parametrize("degree", [1, 2])
    def test_mass_product_equals_b_on_interior_rows(self, degree):
        # -(M·v + gamma·(M_Gamma·v)), as the solver applies B, is bitwise
        # the product with the formed B on interior rows, where M_Gamma
        # has no entries; only boundary rows may round differently
        gamma = 0.01
        dofmap = DofMap(mesh_hierarchy(SKEW, 3)[-1], degree)
        system = build_block_system(dofmap, gamma, lambda x1, x2: 0 * x1,
                                    lambda x1, x2: 0 * x1)
        v = np.random.default_rng(8).standard_normal(dofmap.num_dofs)
        got = -(system.M @ v + gamma * (system.M_Gamma @ v))
        I = dofmap.interior
        assert got[I].tobytes() == (system.B @ v)[I].tobytes()
        assert np.abs(got - system.B @ v).max() <= 1e-15 * np.abs(got).max()

    def test_state_blocks_are_stiffness_restrictions(self):
        dofmap = DofMap(refine_uniform(make_initial_mesh(UNIT)), 1)
        system = build_block_system(dofmap, 1.0,
                                    lambda x1, x2: 0 * x1,
                                    lambda x1, x2: 0 * x1)
        assert system.K is dofmap.stiffness
        stiff = assemble_stiffness(dofmap).toarray()
        for block in (system.A, system.B, system.C):
            assert block.format == "csr" and block.has_canonical_format
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


class TestCellGeometry:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_one_level_builds_it_once(self, monkeypatch, degree):
        calls = []
        original = assembly._cell_geometry
        monkeypatch.setattr(assembly, "_cell_geometry",
                            lambda mesh: calls.append(mesh) or original(mesh))
        spec = load_config("example1")
        dofmap = DofMap(mesh_hierarchy(spec.domain, 3)[-1], degree)
        u = interpolate(dofmap, lambda a, b: np.sin(3 * a) * np.cos(2 * b))
        dofmap.stiffness, dofmap.mass
        assemble_load(dofmap, spec.field(spec.f))
        assemble_load(dofmap, spec.field(spec.y_d))
        error_L2(u, spec.exact_field("y"))
        error_H1_semi(u, spec.exact_field("y_grad"))
        assert len(calls) == 1
        # the int32 scatter leaves the CSR index type as it was
        for name in ("stiffness", "mass", "boundary_mass"):
            m = getattr(dofmap, name)
            assert m.indices.dtype == m.indptr.dtype == np.int32, name


class TestPhysicalGradients:
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("exactness", [2, 3, 4, 5, 6])
    def test_equal_to_the_einsum(self, degree, exactness):
        rule = triangle_quadrature(exactness)
        grads = ReferenceBasis(degree).gradients(rule.points)
        for mesh in mesh_hierarchy((0.1, 1.3, 0.2, 0.9), 4):
            _, jac, det = _cell_geometry(mesh)
            inv_t = cell_geometry_stacked(mesh)[3]
            want = np.einsum("tab,nqb->tnqa", inv_t, grads)
            assert np.array_equal(physical_gradients(jac, det, grads), want)


class TestKernelOracles:
    """The reference-tensor stiffness and the matmul load agree with the
    per-point einsums they replaced to 1e-15 of the largest magnitude,
    and the quadrature-major error norms with the per-cell ones; the
    column-wise cell geometry equals the stacked form bit for bit."""

    LOADS = (lambda a, b: np.sin(3 * a) * np.cos(2 * b) + a * b,
             lambda a, b: 2.5)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_stiffness_and_loads_match_the_einsums(self, degree):
        for mesh in mesh_hierarchy(SKEW, 4):
            dofmap = DofMap(mesh, degree)
            want = stiffness_einsum(dofmap)
            got = assemble_stiffness(dofmap)
            assert abs(got - want).max() <= 1e-15 * abs(want).max()
            for g in self.LOADS:
                want = load_einsum(dofmap, g)
                got = assemble_load(dofmap, g)
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("rect", [SKEW, UNIT])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_error_norms_match_the_einsums(self, degree, rect):
        # the quadrature-major contractions against the per-cell forms
        # with the (nt, nd, nq, 2) physical gradients.  Both round u_h - u
        # at each point to about eps·|u|, and the P2 L2 error falls to
        # 1e-6·‖u‖ by level 5, hence the term in ‖u‖ (the error of 0).
        u = lambda a, b: np.sin(3 * a) * np.cos(2 * b) + a * b
        grad = lambda a, b: (3 * np.cos(3 * a) * np.cos(2 * b) + b,
                             a - 2 * np.sin(3 * a) * np.sin(2 * b))
        for mesh in mesh_hierarchy(rect, 5):
            dofmap = DofMap(mesh, degree)
            field, zero = interpolate(dofmap, u), FemField(
                dofmap, np.zeros(dofmap.num_dofs))
            for new, old, exact in ((error_L2, error_L2_einsum, u),
                                    (error_H1_semi, error_H1_semi_einsum,
                                     grad)):
                got, want = new(field, exact), old(field, exact)
                bound = 1e-13 * want + 1e-15 * old(zero, exact)
                assert abs(got - want) <= bound, (new.__name__, mesh.level)

    @pytest.mark.parametrize("rect", [SKEW, (-0.7, 0.3, 0.15, 2.2)])
    def test_cell_geometry_equals_the_stacked_form(self, rect):
        # unit reference gradients read J^-T back out of the physical
        # gradients: column a of J^-T is the gradient of e_a
        unit = np.eye(2)[:, None, :]
        for mesh in mesh_hierarchy(rect, 6):
            origin, jac, det = _cell_geometry(mesh)
            inv_t = physical_gradients(jac, det, unit)[:, :, 0, :]
            arrays = origin, jac, det, inv_t.transpose(0, 2, 1)
            stacked = cell_geometry_stacked(mesh)
            assert len(arrays) == len(stacked)
            for got, want in zip(arrays, stacked):
                assert got.shape == want.shape
                assert np.array_equal(got, want), mesh.level


class TestBitwiseKernels:
    """One sha256 per array over levels 0-5 of example1's domain: the
    CSR arrays of each operator, the load vectors of example1's f and
    y_d, and the L2 and H1 errors of an interpolant (which map the
    quadrature points the same way as the load).  Any change in
    rounding changes the digest of the array it touches, and only that
    one.  The stiffness and load digests are those of the reference-tensor
    stiffness and the matmul load, which TestKernelOracles compares with
    the einsum forms they replaced.  The norms digests were recorded
    again when the error norms began to contract quadrature-major, one
    (nq, nt) plane per quantity, which TestKernelOracles compares with
    the per-cell einsum forms."""

    DIGESTS = {
        1: {"stiffness": "3fce34c6abe49d76", "mass": "4b90a9c17fa51736",
            "boundary_mass": "546651f8624e6d18",
            "load_f": "795de0f11163de99", "load_y_d": "ef9b0616a85cdbaf",
            "norms": "987715c4413212e1"},
        2: {"stiffness": "2da3e46cf6a92819", "mass": "184222e658e8307c",
            "boundary_mass": "4ddeb36eef3e7392",
            "load_f": "096c63a3a22972bd", "load_y_d": "a3760d15531d268c",
            "norms": "fb7775dfde982271"},
    }

    # the trace layer on the same meshes: the H^{1/2} seminorm and the
    # boundary L2 error of the interpolant, and the boundary L2
    # projection of the interpolated function; recorded before the
    # seminorm's neighbouring-panel block was folded into its offset loop
    TRACE_DIGESTS = {
        1: {"seminorm": "734aa7f65dda2f57",
            "boundary_error": "1425d12dd009067a",
            "projection": "ed4bfc3a3c0cd3fd"},
        2: {"seminorm": "e75ea194e916653f",
            "boundary_error": "fd8839a58bd4395d",
            "projection": "d219281e0443f744"},
    }

    @staticmethod
    def levels(degree):
        """(dofmap, interpolant, fn, spec) on levels 0-5 of example1."""
        spec = load_config("example1")
        fn = lambda a, b: np.sin(3 * a) * np.cos(2 * b)
        for mesh in mesh_hierarchy(spec.domain, 5):
            dofmap = DofMap(mesh, degree)
            yield dofmap, interpolate(dofmap, fn), fn, spec

    @staticmethod
    def hexdigests(arrays_per_level):
        hashes = {}
        for arrays in arrays_per_level:
            for name, parts in arrays.items():
                h = hashes.setdefault(name, hashlib.sha256())
                for part in parts:
                    h.update(np.ascontiguousarray(part).tobytes())
        return {name: h.hexdigest()[:16] for name, h in hashes.items()}

    @classmethod
    def digests(cls, degree):
        def arrays(dofmap, u, spec):
            f, y_d = spec.field(spec.f), spec.field(spec.y_d)
            g1, g2 = (spec.field(s) for s in spec.exact["y_grad"])
            errors = (error_L2(u, spec.field(spec.exact["y"])),
                      error_H1_semi(u, lambda a, b: (g1(a, b), g2(a, b))))
            out = {"load_f": [assemble_load(dofmap, f)],
                   "load_y_d": [assemble_load(dofmap, y_d)],
                   "norms": [np.array(errors)]}
            for name in ("stiffness", "mass", "boundary_mass"):
                m = getattr(dofmap, name)
                out[name] = [m.data, m.indices, m.indptr]
            return out
        return cls.hexdigests(arrays(dofmap, u, spec)
                              for dofmap, u, _, spec in cls.levels(degree))

    @classmethod
    def trace_digests(cls, degree):
        def arrays(dofmap, u, fn, spec):
            y = spec.field(spec.exact["y"])
            return {"seminorm": [np.array(seminorm_H_half_boundary(u))],
                    "boundary_error": [np.array(error_L2_boundary(u, y))],
                    "projection": [boundary_L2_projection(dofmap, fn)]}
        return cls.hexdigests(arrays(*level) for level in cls.levels(degree))

    @pytest.mark.parametrize("degree", [1, 2])
    def test_operators_loads_and_norms_are_bitwise_unchanged(self, degree):
        assert self.digests(degree) == self.DIGESTS[degree]

    @pytest.mark.parametrize("degree", [1, 2])
    def test_trace_layer_is_bitwise_unchanged(self, degree):
        assert self.trace_digests(degree) == self.TRACE_DIGESTS[degree]
