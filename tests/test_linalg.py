"""Coupled-system solves, residual gating, and sparse kernels."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.io import mmread

from dbcfem.assembly import BlockSystem, DofMap, build_block_system
from dbcfem.linalg import (SolverConfig, SolverError, residual,
                           save_matrix_market, solve_block)
from dbcfem.mesh import make_initial_mesh, refine_uniform

UNIT = (0.0, 1.0, 0.0, 1.0)


def toy_system():
    """3 unknowns (2 state dofs, 1 adjoint): full matrix
    [[2, 1, 0], [-1, 0, 2], [0, -2, 1]], rhs [1, 3, 4].  Solving by
    hand gives Y = (1, -1), Z = (2,)."""
    return BlockSystem(
        A=sp.csr_matrix(np.array([[2.0, 1.0]])),
        B=sp.csr_matrix(np.array([[-1.0, 0.0], [0.0, -2.0]])),
        C=sp.csr_matrix(np.array([[2.0], [1.0]])),
        F=np.array([1.0]),
        G=np.array([3.0, 4.0]),
        interior=np.array([0]),
        boundary=np.array([1]))


def example_system(level=2, gamma=1.0, degree=1):
    mesh = make_initial_mesh(UNIT)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    dofmap = DofMap(mesh, degree)
    f = lambda x1, x2: -4.0 / gamma + 0 * x1
    y_d = lambda x1, x2: (2 + 1 / gamma) * (x1 ** 2 - x1 + x2 ** 2 - x2)
    return build_block_system(dofmap, gamma, f, y_d)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.method == "reduced-pcg"
        assert cfg.tolerance == 1e-12

    @pytest.mark.parametrize("kwargs", [
        {"method": "jacobi"},
        {"tolerance": 0.0},
        {"tolerance": 1.0},
        {"tolerance": -1e-3},
        {"max_iterations": 0},
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSolveBlock:
    @pytest.mark.parametrize("method", ["direct-lu", "reduced-pcg"])
    def test_toy_system_solved_exactly(self, method):
        Y, Z = solve_block(toy_system(), SolverConfig(method=method))
        assert Y == pytest.approx([1.0, -1.0], abs=1e-14)
        assert Z == pytest.approx([2.0], abs=1e-14)

    def test_zero_data_gives_zero_solution(self):
        system = example_system()
        system = BlockSystem(A=system.A, B=system.B, C=system.C,
                             F=np.zeros_like(system.F),
                             G=np.zeros_like(system.G),
                             interior=system.interior,
                             boundary=system.boundary)
        Y, Z = solve_block(system)
        assert np.abs(Y).max() == 0.0
        assert np.abs(Z).max() == 0.0

    def test_methods_agree(self):
        system = example_system(level=3)
        Y1, Z1 = solve_block(system, SolverConfig(method="direct-lu"))
        Y2, Z2 = solve_block(system, SolverConfig(method="reduced-pcg"))
        scale = np.abs(Y1).max()
        assert np.abs(Y1 - Y2).max() <= 1e-11 * scale
        assert np.abs(Z1 - Z2).max() <= 1e-11 * scale

    def test_residual_meets_default_gate(self):
        system = example_system(level=3)
        Y, Z = solve_block(system)
        assert residual(system, Y, Z) <= 1e-12

    def test_methods_agree_for_quadratic_elements(self):
        system = example_system(level=3, degree=2)
        Y1, Z1 = solve_block(system, SolverConfig(method="direct-lu"))
        Y2, Z2 = solve_block(system, SolverConfig(method="reduced-pcg"))
        scale = np.abs(Y1).max()
        assert np.abs(Y1 - Y2).max() <= 1e-11 * scale
        assert np.abs(Z1 - Z2).max() <= 1e-11 * scale

    def test_iteration_counts_reported(self):
        system = example_system(level=3)
        stats = {}
        Y, Z = solve_block(system, SolverConfig(method="direct-lu"),
                           stats=stats)
        assert stats["iterations"] == []
        assert stats["residual"] == residual(system, Y, Z)
        assert stats["residual"] <= 1e-12
        stats = {}
        solve_block(system, stats=stats)
        assert len(stats["iterations"]) >= 1
        assert all(isinstance(k, int) for k in stats["iterations"])
        assert stats["iterations"][0] > 0

    def test_only_direct_lu_forms_the_coupled_matrix(self, monkeypatch):
        system = example_system(level=3)
        Y, Z = solve_block(system, SolverConfig(method="direct-lu"))

        def refuse(self):
            raise AssertionError("coupled matrix formed")

        monkeypatch.setattr(BlockSystem, "full", refuse)
        Yr, Zr = solve_block(system)
        assert np.abs(Yr - Y).max() <= 1e-11 * np.abs(Y).max()
        with pytest.raises(AssertionError, match="coupled matrix formed"):
            solve_block(system, SolverConfig(method="direct-lu"))

    @pytest.mark.parametrize("degree", [1, 2])
    def test_residual_matches_the_coupled_matrix(self, degree):
        system = example_system(level=3, degree=degree)
        Y, Z = solve_block(system)
        rhs = system.rhs()
        full = system.full().astype(np.longdouble)
        noise = 1e-6 * np.random.default_rng(3).standard_normal(len(Y))
        for Yt in (Y, Y + noise):
            x = np.concatenate([Yt, Z]).astype(np.longdouble)
            r = (rhs.astype(np.longdouble) - full @ x).astype(float)
            want = np.linalg.norm(r) / np.linalg.norm(rhs)
            assert residual(system, Yt, Z) == pytest.approx(want, rel=1e-6)

    def test_iteration_limit_raises(self):
        system = example_system(level=4, gamma=0.01)
        with pytest.raises(SolverError, match="2 iterations"):
            solve_block(system, SolverConfig(max_iterations=2))

    def test_unreachable_tolerance_raises(self):
        system = example_system(level=2)
        with pytest.raises(SolverError):
            solve_block(system, SolverConfig(tolerance=1e-30))

    def test_inconsistent_dimensions_rejected(self):
        system = toy_system()
        bad = BlockSystem(A=system.A, B=system.B, C=system.C,
                          F=np.array([1.0, 2.0]),  # wrong length
                          G=system.G, interior=system.interior,
                          boundary=system.boundary)
        with pytest.raises(ValueError):
            solve_block(bad)

    def test_permuted_unknowns_give_the_same_solution(self):
        system = example_system(level=2)
        n = system.B.shape[0]
        ni = len(system.interior)
        rng = np.random.default_rng(5)
        perm_n = rng.permutation(n)
        perm_i = rng.permutation(ni)
        inv_n = np.argsort(perm_n)

        permuted = BlockSystem(
            A=sp.csr_matrix(system.A.toarray()[perm_i][:, perm_n]),
            B=sp.csr_matrix(system.B.toarray()[perm_n][:, perm_n]),
            C=sp.csr_matrix(system.C.toarray()[perm_n][:, perm_i]),
            F=system.F[perm_i],
            G=system.G[perm_n],
            interior=inv_n[system.interior[perm_i]],
            boundary=inv_n[system.boundary])

        Y, Z = solve_block(system)
        for method in ("direct-lu", "reduced-pcg"):
            Yp, Zp = solve_block(permuted, SolverConfig(method=method))
            assert np.abs(Yp - Y[perm_n]).max() <= 1e-10 * np.abs(Y).max()
            assert np.abs(Zp - Z[perm_i]).max() <= 1e-10 * np.abs(Y).max()


class TestMatrixMarket:
    def test_round_trip(self, tmp_path):
        system = example_system(level=1)
        path = tmp_path / "system.mtx"
        save_matrix_market(path, system.full())
        back = mmread(str(path)).tocsr()
        assert back.shape == system.full().shape
        assert np.abs(back - system.full()).max() <= 1e-15

    def test_rhs_round_trip(self, tmp_path):
        system = example_system(level=1)
        path = tmp_path / "rhs.mtx"
        save_matrix_market(path, system.rhs().reshape(-1, 1))
        back = mmread(str(path)).tocsr()
        assert np.abs(np.asarray(back.todense()).ravel()
                      - system.rhs()).max() <= 1e-15


class TestReducedConditioning:
    """First-solve CG counts of reduced-pcg under mesh refinement.

    The preconditioned reduced operator has eigenvalues from about 1 up
    to a level-independent limit; for small gamma that limit is set by
    the constant boundary mode, 1 + |Omega|/(gamma |Gamma|), and the
    O(h) part M_BB of the preconditioner keeps the top lower while h is
    not small against gamma.  Measured condition numbers at
    gamma = 0.01, levels 2-6: 6.8, 10.7, 15.5, 20.2, 24.0 (limit 26).
    So the count is flat from level 3 at gamma = 1, while at
    gamma = 0.01 it climbs to level 5 (h = 0.022) and is flat from
    there.
    """

    @staticmethod
    def first_solve_counts(gamma, levels):
        counts = []
        for level in levels:
            stats = {}
            solve_block(example_system(level=level, gamma=gamma), stats=stats)
            counts.append(stats["iterations"][0])
        return counts

    def test_counts_flat_at_unit_gamma(self):
        counts = self.first_solve_counts(1.0, range(3, 7))
        assert max(counts) <= 8, counts
        assert counts[-1] - counts[0] <= 2, counts

    def test_counts_bounded_at_small_gamma(self):
        counts = self.first_solve_counts(0.01, range(3, 7))
        assert max(counts) <= 20, counts
        assert counts[-1] - counts[-2] <= 2, counts
