"""Coupled-system solves, residual gating, and sparse kernels."""

import contextlib
import dataclasses
import functools
import hashlib
import json
import logging
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import dstn
from scipy.io import mmread, mmwrite
from scipy.sparse.linalg import splu

import dbcfem.linalg as linalg
from dbcfem.assembly import BlockSystem, DofMap, build_block_system
from dbcfem.linalg import (SolverConfig, SolverError, _interior_solver,
                           _uniform_grid, residual, solve_block)
from dbcfem.mesh import make_initial_mesh, mesh_hierarchy, refine_uniform
from dbcfem.problems import load_config

from oracles import coupled_lu_solve, extended_residual_cast_once

UNIT = (0.0, 1.0, 0.0, 1.0)


def toy_system():
    """3 unknowns (2 state dofs, 1 adjoint): full matrix
    [[2, 1, 0], [-1, 0, 2], [0, -2, 1]], rhs [1, 3, 4].  Solving by
    hand gives Y = (1, -1), Z = (2,).  K[1, 1] is never read; B =
    -(M + M_Gamma) = diag(-1, -2), with an empty M_Gamma."""
    return BlockSystem(
        K=sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 0.0]])),
        M=sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]])),
        M_Gamma=sp.csr_matrix((2, 2)), gamma=1.0,
        F=np.array([1.0]),
        G=np.array([3.0, 4.0]),
        interior=np.array([0]),
        coords=np.array([[0.5, 0.5], [0.0, 0.0]]))


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
        assert SolverConfig().tolerance == 1e-12

    @pytest.mark.parametrize("kwargs", [
        {"tolerance": 0.0},
        {"tolerance": 1.0},
        {"tolerance": -1e-3},
        {"tolerance": float("nan")},
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSolveBlock:
    def test_toy_system_solved_exactly(self):
        Y, Z = solve_block(toy_system())
        assert Y == pytest.approx([1.0, -1.0], abs=1e-14)
        assert Z == pytest.approx([2.0], abs=1e-14)

    def test_zero_data_gives_zero_solution(self):
        system = example_system()
        system = dataclasses.replace(system, F=np.zeros_like(system.F),
                                     G=np.zeros_like(system.G))
        Y, Z = solve_block(system)
        assert np.abs(Y).max() == 0.0
        assert np.abs(Z).max() == 0.0

    @pytest.mark.parametrize("scale", [1e-150, 1e-170, 1e-300])
    def test_data_too_small_to_gate_is_refused(self, scale):
        # the squares in the norms underflow below sqrt(tiny) ≈ 1.5e-154
        system = example_system()
        system = dataclasses.replace(system, F=scale * system.F,
                                     G=scale * system.G)
        with pytest.raises(SolverError, match="too small to gate"):
            solve_block(system)

    def test_small_data_above_the_bound_solve_to_scale(self):
        system = example_system()
        Y, Z = solve_block(system)
        small = dataclasses.replace(system, F=1e-130 * system.F,
                                    G=1e-130 * system.G)
        Ys, Zs = solve_block(small)
        assert np.abs(1e130 * Ys - Y).max() <= 1e-10 * np.abs(Y).max()
        assert np.abs(1e130 * Zs - Z).max() <= 1e-10 * np.abs(Z).max()

    def test_methods_agree(self):
        system = example_system(level=3)
        Y1, Z1 = coupled_lu_solve(system)
        Y2, Z2 = solve_block(system)
        scale = np.abs(Y1).max()
        assert np.abs(Y1 - Y2).max() <= 1e-11 * scale
        assert np.abs(Z1 - Z2).max() <= 1e-11 * scale

    def test_residual_meets_default_gate(self):
        system = example_system(level=3)
        Y, Z = solve_block(system)
        assert residual(system, Y, Z) <= 1e-12

    def test_methods_agree_for_quadratic_elements(self):
        system = example_system(level=3, degree=2)
        Y1, Z1 = coupled_lu_solve(system)
        Y2, Z2 = solve_block(system)
        scale = np.abs(Y1).max()
        assert np.abs(Y1 - Y2).max() <= 1e-11 * scale
        assert np.abs(Z1 - Z2).max() <= 1e-11 * scale

    def test_iteration_counts_reported(self):
        system = example_system(level=3)
        stats = {}
        Y, Z = solve_block(system, stats=stats)
        assert stats["residual"] == residual(system, Y, Z)
        assert stats["residual"] <= 1e-12
        assert len(stats["iterations"]) >= 1
        assert all(isinstance(k, int) for k in stats["iterations"])
        assert stats["iterations"][0] > 0

    def test_solve_block_never_forms_the_coupled_matrix(self, monkeypatch):
        systems = [example_system(level=3, degree=d) for d in (1, 2)]
        wanted = [coupled_lu_solve(system) for system in systems]

        def refuse(self):
            raise AssertionError("coupled matrix formed")

        monkeypatch.setattr(BlockSystem, "full", refuse)
        for system, (Y, _) in zip(systems, wanted):
            Yr, _ = solve_block(system)
            assert np.abs(Yr - Y).max() <= 1e-11 * np.abs(Y).max()

    @pytest.mark.parametrize("degree", [1, 2])
    def test_residual_matches_the_coupled_matrix(self, degree):
        # compared away from the solution, where the residual (~1e-6) is
        # far above the rounding of either evaluation; at the solution
        # (~1e-14) two 80-bit evaluations differ in the sixth digit.  The
        # coupled matrix is formed in 80 bits from K, M and M_Gamma: the
        # map never rounds B = -(M + gamma M_Gamma) to double, and
        # system.full()'s rounded boundary entries of B move this
        # residual by about 1e-11 of itself
        system = example_system(level=3, degree=degree)
        Y, Z = solve_block(system)
        rhs = system.rhs()
        ld = np.longdouble
        M, M_Gamma = system.M.astype(ld), system.M_Gamma.astype(ld)
        B = -(M + ld(system.gamma) * M_Gamma)
        full = sp.bmat([[system.A.astype(ld), None], [B, system.C.astype(ld)]],
                       format="csr")
        noise = 1e-6 * np.random.default_rng(3).standard_normal(len(Y))
        x = np.concatenate([Y + noise, Z])
        want = rhs.astype(np.longdouble) - full @ x.astype(np.longdouble)
        got = linalg._extended_residual(system)(x)
        ni = len(system.F)
        for block in (slice(0, ni), slice(ni, None)):
            assert (np.linalg.norm((got[block] - want[block]).astype(float))
                    <= 1e-12 * np.linalg.norm(want[block].astype(float)))
        want = np.linalg.norm(want.astype(float)) / np.linalg.norm(rhs)
        assert residual(system, Y + noise, Z) == pytest.approx(
            want, rel=1e-6, abs=0)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_galerkin_and_adjoint_are_the_residual_blocks(self, degree):
        system = example_system(level=3, degree=degree)
        stats = {}
        Y, Z = solve_block(system, stats=stats)
        r = linalg._extended_residual(system)(np.concatenate([Y, Z]))
        ni = len(system.F)
        assert stats["galerkin"] == linalg._norm_ratio(r[:ni], system.F)
        assert stats["adjoint"] == linalg._norm_ratio(r[ni:], system.G)
        assert stats["residual"] == residual(system, Y, Z)

    @pytest.mark.parametrize("tolerance,outcome", [
        (1e-12, contextlib.nullcontext()),
        (1e-30, pytest.raises(SolverError)),   # the failing record too
    ])
    def test_solve_record_is_logged_once(self, caplog, tolerance, outcome):
        caplog.set_level(logging.DEBUG, logger="dbcfem")
        stats = {}
        with outcome:
            solve_block(example_system(level=2, degree=2),
                        SolverConfig(tolerance=tolerance), stats=stats)
        logged = [r for r in caplog.records if r.name == "dbcfem"]
        assert len(logged) == 1
        assert logged[0].levelno == logging.DEBUG
        assert logged[0].getMessage() == "solve record %s" % (stats,)
        assert set(stats) == {"iterations", "interior", "residual",
                              "galerkin", "adjoint"}

    def test_extended_casts_are_bounded_row_blocks(self, monkeypatch):
        # building the map casts nothing; each call casts every entry of
        # K, M and M_Gamma once, in blocks of at most _ROW_BLOCK rows,
        # whatever the sweeps.  Every 80-bit CSR matrix built holds its
        # block's slice of the column indices of K, M or M_Gamma (scipy
        # copies a slice much shorter than its base) and the block's row
        # pointers, shifted to start at 0: no whole index array
        spec = dataclasses.replace(load_config("example1"), degree=2)
        system = build_block_system(
            DofMap(mesh_hierarchy(spec.domain, 4)[-1], 2), spec.gamma,
            spec.field(spec.f), spec.field(spec.y_d))
        originals = (system.K, system.M, system.M_Gamma)
        bound = 1000     # N = 4225: five blocks
        monkeypatch.setattr(linalg, "_ROW_BLOCK", bound)
        casts = []
        original = sp.csr_matrix.__init__

        def counting(self, *args, **kwargs):
            original(self, *args, **kwargs)
            if self.dtype == np.longdouble:
                casts.append(self)

        monkeypatch.setattr(sp.csr_matrix, "__init__", counting)
        residual_of = linalg._extended_residual(system)
        assert casts == []
        residual_of(np.ones(system.num_dofs + len(system.F)))
        per_call = sum(A.nnz for A in originals)
        assert sum(m.nnz for m in casts) == per_call
        blocks = [(A, start, min(start + bound, system.num_dofs))
                  for A in originals
                  for start in range(0, system.num_dofs, bound)]
        assert len(casts) == len(blocks)
        for A, start, stop in blocks:
            lo, hi = A.indptr[start], A.indptr[stop]
            assert sum(m.shape[0] == stop - start
                       and np.array_equal(m.indptr,
                                          A.indptr[start:stop + 1] - lo)
                       and np.array_equal(m.indices, A.indices[lo:hi])
                       for m in casts) >= 1
        casts.clear()
        stats = {}
        solve_block(system, SolverConfig(spec.solver_tolerance), stats=stats)
        # the first residual, one per sweep and one for the gate
        assert len(stats["iterations"]) >= 2, stats
        assert (sum(m.nnz for m in casts)
                == (len(stats["iterations"]) + 1) * per_call), stats

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, None])   # None: one block
    def test_blocked_residual_is_the_cast_once_map(self, monkeypatch,
                                                   degree, block, shuffled):
        # shuffled: the interior unknowns in an order of the caller's own,
        # so a block's state rows are not one run of I
        system = example_system(level=3, gamma=0.3, degree=degree)
        if shuffled:
            p = np.random.default_rng(1).permutation(len(system.interior))
            system = dataclasses.replace(system, F=system.F[p],
                                         interior=system.interior[p])
        monkeypatch.setattr(linalg, "_ROW_BLOCK", block or system.num_dofs)
        Y, Z = solve_block(system)
        noise = np.random.default_rng(5).standard_normal(len(Y) + len(Z))
        for x in (np.concatenate([Y, Z]), noise):
            got = linalg._extended_residual(system)(x)
            want = extended_residual_cast_once(system)(x)
            assert got.dtype == want.dtype == np.longdouble
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_p2_level5_solve_transients_are_bounded(self):
        # P2 level 5 has N = 16641, nnz(K) = 164865 and nnz(M) = 189441.
        # Whole 80-bit copies of K, M and gamma·M_Gamma are 5.7 MB, and
        # the map that kept them, beside the sweeps' vectors, peaked at
        # 11.6 MB.  The peak is now the K_II set-up, with K[I] dropped
        # and ‖K_II‖∞ taken before the probe planes: 8.7 MB.
        spec = dataclasses.replace(load_config("example1"), degree=2)
        system = build_block_system(
            DofMap(mesh_hierarchy(spec.domain, 5)[-1], 2), spec.gamma,
            spec.field(spec.f), spec.field(spec.y_d))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            Y, Z = solve_block(system, SolverConfig(spec.solver_tolerance))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = (peak - before - Y.nbytes - Z.nbytes) / 2 ** 20
        assert extra < 10, extra

    @pytest.mark.parametrize("norms,atol,kept,sweeps", [
        ([8, 3, 2.9], 1, 2, 2),      # halved, then lowered a little: kept
        ([8, 3, 3.1], 1, 1, 2),      # halved, then raised: not kept
        ([8, 9], 1, 0, 1),           # raised at once
        ([8, 4, 2, 1, 0.5], 0, 3, 3),  # halving all along: three sweeps
        ([8, 2, 0.5], 1, 2, 2),      # at atol
        ([0.5], 1, 0, 0),            # at atol before any sweep
    ])
    def test_refinement_stops_unless_a_sweep_halves_the_residual(
            self, norms, atol, kept, sweeps):
        # iterate k has residual norm norms[k]; each sweep adds 1
        calls = []

        def apply_inverse(r):
            calls.append(1)
            return np.ones(1)

        x, r = linalg._refine(np.zeros(1),
                              lambda x: np.array([norms[int(x[0])]]),
                              apply_inverse, atol)
        assert (x[0], r[0], len(calls)) == (kept, norms[kept], sweeps)

    def test_p2_sweeps_stop_when_the_residual_stagnates(self):
        # example1 level 5 at degree 2: the first sweep lowers the
        # residual 3.5x and the second does not lower it, so no third
        # sweep runs
        spec = dataclasses.replace(load_config("example1"), degree=2)
        system = build_block_system(
            DofMap(mesh_hierarchy(spec.domain, 5)[-1], 2), spec.gamma,
            spec.field(spec.f), spec.field(spec.y_d))
        stats = {}
        solve_block(system, SolverConfig(spec.solver_tolerance), stats=stats)
        assert len(stats["iterations"]) <= 3, stats

    def test_iteration_limit_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "_MAX_CG_ITERATIONS", 2)
        system = example_system(level=4, gamma=0.01)
        with pytest.raises(SolverError, match="2 iterations"):
            solve_block(system)

    def test_unreachable_tolerance_raises(self):
        system = example_system(level=2)
        with pytest.raises(SolverError):
            solve_block(system, SolverConfig(tolerance=1e-30))

    def test_inconsistent_dimensions_rejected(self):
        system = toy_system()
        bad = dataclasses.replace(system,
                                  F=np.array([1.0, 2.0]))  # wrong length
        with pytest.raises(ValueError):
            solve_block(bad)

    def test_permuted_unknowns_give_the_same_solution(self):
        system = example_system(level=2)
        n = system.num_dofs
        ni = len(system.interior)
        rng = np.random.default_rng(5)
        perm_n = rng.permutation(n)
        perm_i = rng.permutation(ni)
        inv_n = np.argsort(perm_n)

        def permute(A):
            return sp.csr_matrix(A.toarray()[perm_n][:, perm_n])

        permuted = BlockSystem(
            K=permute(system.K), M=permute(system.M),
            M_Gamma=permute(system.M_Gamma), gamma=system.gamma,
            F=system.F[perm_i],
            G=system.G[perm_n],
            interior=inv_n[system.interior[perm_i]],
            coords=system.coords[perm_n])

        Y, Z = solve_block(system)
        stats = {}
        for Yp, Zp in (coupled_lu_solve(permuted),
                       solve_block(permuted, stats=stats)):
            assert np.abs(Yp - Y[perm_n]).max() <= 1e-10 * np.abs(Y).max()
            assert np.abs(Zp - Z[perm_i]).max() <= 1e-10 * np.abs(Y).max()
        assert stats["interior"] == "dst"


class TestBitwiseSolve:
    """Two sha256 per problem over levels 0-5, each solved with its
    spec's tolerance: example1 (P1 at gamma = 1 and 0.01, and P2) and
    example2.  The solution digest covers Y, Z and the CG counts, the
    record digest the whole solve record.  Any change in the rounding
    of the solver, the residual or the refinement sweeps changes the
    digests of every problem it touches.  The solution digests were
    recorded while A and C were stored copies of the stiffness rows and
    columns; those of example1-p2 again when its K_II moved from splu to
    sine transforms and the sweeps began to stop on stagnation, after
    Y and Z were checked against coupled_lu_solve at every level.  Both
    digests of the three P1 problems were recorded again when the P1
    K_II moved from its analytic eigenvalues to the probed block
    symbol, after every CG count was checked equal to the previous one
    and Y and Z within 1e-12·max|Y| of the previous solution.  All eight
    were recorded again when the probed blocks began to be inverted
    plane by plane through their Schur complement, after every CG count
    and K_II solver was checked equal to the previous ones and Y and Z
    within 1e-12·max|Y| of the previous solution.  All eight again when
    the solver stopped forming B and began to apply it as -(M·v +
    gamma·(M_Gamma·v)), which rounds only the boundary rows differently,
    after every CG count and K_II solver was checked equal to the
    previous ones and Y and Z within 1e-13·max|Y| of the previous
    solution."""

    SOLUTION_DIGESTS = {
        "example1": "b7dcb004cf75f77c",
        "example1-gamma0.01": "cbbfc9ebefa675f3",
        "example1-p2": "6740a24795ebd7e1",
        "example2": "15df2f52ce3597f3",
    }
    RECORD_DIGESTS = {
        "example1": "b040ab59d3a69051",
        "example1-gamma0.01": "9e854eaa73631cdc",
        "example1-p2": "158f86a633fc7681",
        "example2": "ae38dc05697d4a88",
    }

    SPECS = {
        "example1": ("example1", {}),
        "example1-gamma0.01": ("example1", {"gamma": 0.01}),
        "example1-p2": ("example1", {"degree": 2}),
        "example2": ("example2", {}),
    }

    @classmethod
    def digests(cls, name):
        """(solution digest, record digest) of one problem."""
        preset, changes = cls.SPECS[name]
        spec = dataclasses.replace(load_config(preset), **changes)
        f, y_d = spec.field(spec.f), spec.field(spec.y_d)
        config = SolverConfig(spec.solver_tolerance)
        solution, record = hashlib.sha256(), hashlib.sha256()
        for mesh in mesh_hierarchy(spec.domain, 5):
            system = build_block_system(DofMap(mesh, spec.degree),
                                        spec.gamma, f, y_d)
            stats = {}
            Y, Z = solve_block(system, config, stats=stats)
            solution.update(Y.tobytes())
            solution.update(Z.tobytes())
            solution.update(json.dumps(stats["iterations"]).encode())
            record.update(json.dumps(stats, sort_keys=True).encode())
        return solution.hexdigest()[:16], record.hexdigest()[:16]

    @pytest.mark.parametrize("name", list(SPECS))
    def test_solution_and_record_are_bitwise_unchanged(self, name):
        assert self.digests(name) == (self.SOLUTION_DIGESTS[name],
                                      self.RECORD_DIGESTS[name])

    def test_record_does_not_depend_on_the_blas_thread_count(self):
        # BLAS may split a long dot product across threads, which moves
        # the rounding of a norm taken through it
        src = os.path.dirname(os.path.dirname(linalg.__file__))
        code = ("import dataclasses, json\n"
                "from dbcfem.problems import load_config, solve_level\n"
                "spec = dataclasses.replace(load_config('example1'), "
                "degree=2)\n"
                "print(json.dumps(solve_level(spec, 5).stats, "
                "sort_keys=True))\n")
        records = [subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONPATH=src,
                                 OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")]
        assert records[0] == records[1]


class TestMatrixMarket:
    """The coupled system and its right-hand side survive the Matrix
    Market form that ``solve --dump-matrix`` writes them in."""

    def test_round_trip(self, tmp_path):
        system = example_system(level=1)
        path = tmp_path / "system.mtx"
        mmwrite(str(path), system.full())
        back = mmread(str(path)).tocsr()
        assert back.shape == system.full().shape
        assert np.abs(back - system.full()).max() <= 1e-15

    def test_rhs_round_trip(self, tmp_path):
        system = example_system(level=1)
        path = tmp_path / "rhs.mtx"
        mmwrite(str(path), sp.coo_matrix(system.rhs().reshape(-1, 1)))
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


RECTANGLES = [(0.0, 1.0, 0.0, 1.0), (0.0, 2.0, 0.0, 0.5),
              (0.0, 0.3, -0.7, 0.1), (0.1, 1.3, 0.2, 0.9)]


def interior_block(rect, level, degree=1):
    dofmap = DofMap(mesh_hierarchy(rect, level)[-1], degree)
    I = dofmap.interior
    return dofmap.stiffness[I][:, I].tocsr(), dofmap.coords[I]


class TestInteriorSolver:
    """K_II of P1 on these meshes is the 5-point Laplacian, diagonal in
    the sine basis, and K_II of P2 is block diagonal in it; both are
    solved through their probed block symbol.  A K_II off a uniform
    grid, or one that fails the check of that solve, is factored with
    splu."""

    @pytest.mark.parametrize("rect", RECTANGLES)
    def test_p1_interior_stiffness_is_the_five_point_operator(self, rect):
        x0, x1, y0, y1 = rect
        for level in range(1, 6):
            K, xy = interior_block(rect, level)
            cells = 2 ** (level + 1)          # intervals per side
            m = n = cells - 1
            hx, hy = (x1 - x0) / cells, (y1 - y0) / cells
            ix = np.rint((xy[:, 0] - x0) / hx).astype(int) - 1
            iy = np.rint((xy[:, 1] - y0) / hy).astype(int) - 1
            T = lambda k: sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1],
                                   shape=(k, k))
            L = (hy / hx * sp.kron(T(m), sp.identity(n))
                 + hx / hy * sp.kron(sp.identity(m), T(n))).tocsr()
            L = L[ix * n + iy][:, ix * n + iy]
            assert abs(K - L).max() <= 1e-12 * abs(K).max(), level
            assert _interior_solver(K, xy)[1]["interior"] == "dst", level

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_p2_takes_dst(self, level):
        # at level 0 the nine P2 interior nodes fill a uniform 3 x 3 grid
        K, xy = interior_block(RECTANGLES[0], level, degree=2)
        assert _interior_solver(K, xy)[1] == {"interior": "dst"}
        stats = {}
        solve_block(example_system(level=level, degree=2), stats=stats)
        assert stats["interior"] == "dst"
        assert "fill" not in stats

    @pytest.mark.parametrize("rect", RECTANGLES)
    def test_p2_symbol_couples_each_mode_only_to_its_flips(self, rect):
        K, xy = p2_block(rect, 3)
        cell, (m, n) = _uniform_grid(xy)
        # Q from node values in K's order to modes (i, j) in row-major
        # order; the grid's Q is symmetric
        Q = dstn(np.eye(m * n).reshape(-1, m, n), type=1, norm="ortho",
                 axes=(1, 2)).reshape(m * n, m * n)[:, cell]
        T = Q @ K.toarray() @ Q.T
        i, j = np.divmod(np.arange(m * n), n)
        flips = (((i[:, None] == i) | (i[:, None] == m - 1 - i))
                 & ((j[:, None] == j) | (j[:, None] == n - 1 - j)))
        bound = 1e-12 * abs(K).sum(axis=1).max()
        assert np.abs(T[~flips]).max() <= bound
        assert np.abs(T[flips]).max() > 1e6 * bound

    @pytest.mark.parametrize("m,n", [(4, 6), (5, 6), (2, 3), (7, 9)])
    def test_probed_solve_on_even_and_odd_grids(self, m, n):
        # a 9-point operator, diagonal in the sine basis, plus diagonal
        # terms of period 2, which couple each mode to its flips only;
        # P2 grids are always odd, so this covers the even axes, in a
        # shuffled node order
        T = lambda k, d: sp.diags([-1.0, d, -1.0], [-1, 0, 1], shape=(k, k))
        i, j = np.arange(m) % 2, np.arange(n) % 2
        K = (sp.kron(T(m, 4.0), T(n, 4.0)) + sp.kron(T(m, 2.0), sp.identity(n))
             + sp.diags((0.7 * np.add.outer(i, j)
                         + 0.3 * np.outer(i, j)).ravel())).tocsr()
        xy = np.column_stack([np.repeat(0.1 * np.arange(m), n),
                              np.tile(0.2 * np.arange(n), m)])
        q = np.random.default_rng(5).permutation(m * n)
        K, xy = K[q][:, q], xy[q]
        solve, record = _interior_solver(K, xy)
        assert record == {"interior": "dst"}
        f = np.random.default_rng(6).standard_normal(m * n)
        assert np.linalg.norm(K @ solve(f) - f) <= 1e-14 * np.linalg.norm(f)

    def test_p2_nodes_off_the_grid_take_splu(self):
        K, xy = p2_block(RECTANGLES[2], 3)
        xy = xy + 1e-6 * np.random.default_rng(3).standard_normal(xy.shape)
        assert _uniform_grid(xy) is None
        solve, record = _interior_solver(K, xy)
        assert record == {"interior": "splu", "fill": splu(K.tocsc()).nnz}
        f = np.random.default_rng(17).standard_normal(K.shape[0])
        assert np.linalg.norm(K @ solve(f) - f) <= 1e-12 * np.linalg.norm(f)

    def test_perturbed_entry_takes_splu(self):
        def perturbed(K):
            K = K.tocoo()
            K.data[np.flatnonzero(K.row != K.col)[0]] += 1e-8
            return K.tocsr()

        K, xy = interior_block(RECTANGLES[1], 3)
        K = perturbed(K)
        assert K.nnz <= 5 * K.shape[0]
        assert _interior_solver(K, xy)[1]["interior"] == "splu"
        system = example_system(level=3)
        I = system.interior
        K_II = system.K[I][:, I].tocoo()
        e = np.flatnonzero(K_II.row != K_II.col)[0]
        K = system.K.copy()           # system.K is the DofMap's own
        K[I[K_II.row[e]], I[K_II.col[e]]] += 1e-8
        system = dataclasses.replace(system, K=K)
        stats = {}
        solve_block(system, stats=stats)
        assert stats["interior"] == "splu"
        # P2: one off-diagonal entry scaled by 1 + 1e-8 fails the check
        # of the probed solve
        K, xy = p2_block(RECTANGLES[1], 3)
        K = K.tocoo()
        data = K.data.copy()
        data[np.flatnonzero(K.row != K.col)[0]] *= 1 + 1e-8
        K = sp.csr_matrix((data, (K.row, K.col)), shape=K.shape)
        assert _interior_solver(K, xy)[1]["interior"] == "splu"

    @pytest.mark.parametrize("m,n", [(4, 6), (5, 6), (4, 7), (5, 7)])
    def test_plane_inverse_matches_numpy(self, m, n):
        # random SPD 4 x 4 blocks with eigenvalues in [1, 10], and the
        # unit rows that _sine_solver writes for the middle modes of an
        # odd m (rows 2 and 3) and an odd n (rows 1 and 3)
        m2, n2 = (m + 1) // 2, (n + 1) // 2
        rng = np.random.default_rng(10 * m + n)
        V = np.linalg.qr(rng.standard_normal((m2, n2, 4, 4)))[0]
        block = (V * rng.uniform(1.0, 10.0, (m2, n2, 1, 4))) @ np.swapaxes(
            V, 2, 3)
        unit = np.eye(4)
        if m % 2:
            block[-1, :, 2:] = unit[2:]
        if n % 2:
            block[:, -1, 1::2] = unit[1::2]
        want = np.linalg.inv(block)
        got = linalg._plane_inverse(block.transpose(2, 3, 0, 1))
        err = np.abs(got.transpose(2, 3, 0, 1) - want).max(axis=(2, 3))
        assert (err <= 1e-13 * np.abs(want).max(axis=(2, 3))).all()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_inverse_takes_splu(self, monkeypatch, value):
        # a zero pivot gives inf or nan, which fails the fixed-seed check
        monkeypatch.setattr(linalg, "_plane_inverse",
                            lambda a: np.full_like(a, value))
        K, xy = interior_block(RECTANGLES[0], 3)
        assert _interior_solver(K, xy)[1] == {"interior": "splu",
                                              "fill": splu(K.tocsc()).nnz}

    def test_singular_grid_matrix_raises_solver_error(self):
        # its probed blocks are singular, and so is the splu fallback
        K, xy = interior_block(RECTANGLES[0], 2)
        with pytest.raises(SolverError, match="interior stiffness"):
            _interior_solver(sp.csr_matrix(K.shape), xy)

    @pytest.mark.parametrize("change", [
        None,
        "coupling removed",            # in both directions
        "diagonal neighbour",          # 1e-8 one step in x and in y
        "stored zero",                 # a coupling held as an explicit 0
        "coupling stored twice",       # in place of another one
        "coupling added twice",        # a second copy on top
        "coupling moved",              # one step in x and one in y
    ])
    def test_changed_entries_take_splu(self, change):
        # each change but None couples sine modes that are not flips of
        # each other, which the probed blocks miss, so the fixed-seed
        # check rejects it
        K, xy = interior_block(RECTANGLES[3], 3)
        cell, (m, n) = _uniform_grid(xy)
        E = K.tocoo()
        row, col, val = E.row.copy(), E.col.copy(), E.data.copy()
        off = np.flatnonzero(row != col)
        e = off[0]
        if change == "coupling removed":      # both (i, j) and (j, i)
            keep = ~(((row == row[e]) & (col == col[e]))
                     | ((row == col[e]) & (col == row[e])))
            row, col, val = row[keep], col[keep], val[keep]
        elif change == "diagonal neighbour":
            i, j = (np.flatnonzero(cell == c)[0] for c in (0, n + 1))
            row, col, val = (np.append(row, i), np.append(col, j),
                             np.append(val, 1e-8))
        elif change == "stored zero":
            val[e] = 0.0
        elif change == "coupling stored twice":
            other = off[(val[off] == val[e]) & (off != e)][0]
            row[other], col[other] = row[e], col[e]
        elif change == "coupling added twice":
            row, col, val = (np.append(row, row[e]), np.append(col, col[e]),
                             np.append(val, val[e]))
        elif change == "coupling moved":
            # from a point of the top grid row, whose step up in y is
            # missing, to its neighbour one step right and one down
            ix, iy = np.divmod(cell, n)
            i = np.flatnonzero((iy == n - 1) & (ix < m - 1))[0]
            j, k = (np.flatnonzero(cell == cell[i] + d)[0]
                    for d in (n, n - 1))
            col[(row == i) & (col == j)] = k
        # CSR straight from the entries, which keeps a duplicate stored
        order = np.lexsort((col, row))
        indptr = np.searchsorted(row[order], np.arange(K.shape[0] + 1))
        K = sp.csr_matrix((val[order], col[order], indptr), shape=K.shape)
        assert K.nnz <= 5 * K.shape[0]
        want = "dst" if change is None else "splu"
        assert _interior_solver(K, xy)[1]["interior"] == want

    @pytest.mark.parametrize("xy", [
        [[0, 0], [0, 1], [1, 0]],                      # a point missing
        [[0, 0], [0, 1], [1, 0], [1, 1], [1, 1]],      # a point twice
        [[0, 0], [0, 1], [1, 0], [1, 1],
         [2.5, 0], [2.5, 1]],                          # uneven spacing
        [[0, 0], [1, 0], [2, 0]],                      # a single row
    ])
    def test_grids_that_are_not_full_and_uniform_are_rejected(self, xy):
        assert _uniform_grid(np.array(xy, dtype=float)) is None

    @pytest.mark.parametrize("rect", RECTANGLES)
    def test_sine_solve_matches_splu(self, rect):
        # P1 at level 5, P2 at levels 0-5
        blocks = [interior_block(rect, 5)]
        blocks += [p2_block(rect, level) for level in range(6)]
        for K, xy in blocks:
            f = np.random.default_rng(11).standard_normal(K.shape[0])
            want = linalg._factor(K, "test").solve(f)
            solve, record = _interior_solver(K, xy)
            assert record == {"interior": "dst"}
            got = solve(f)
            assert (np.linalg.norm(got - want)
                    <= 1e-12 * np.linalg.norm(want)), K.shape

    @pytest.mark.parametrize("degree,calls", [(1, 1), (2, 1)])
    def test_splu_calls_of_a_reduced_solve(self, monkeypatch, degree, calls):
        # only the boundary-mass preconditioner, for P1 and P2 alike
        count = []
        original = linalg.splu

        def counting(*args, **kwargs):
            count.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(linalg, "splu", counting)
        solve_block(example_system(level=3, degree=degree))
        assert len(count) == calls


@functools.lru_cache(maxsize=None)
def p2_block(rect, level):
    """interior_block at degree 2, built once per test session; callers
    must not modify the matrix."""
    return interior_block(rect, level, degree=2)


def test_import_does_not_load_scipy_fft():
    # scipy.fft is loaded by the sine-transform solver on first use; a
    # module-level import would add its load time to every process
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    code = "import sys, dbcfem; print('scipy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
