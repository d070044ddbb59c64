"""Solvers for the coupled block system and a Matrix Market writer.

The coupled matrix [[A, 0], [B, C]] is nonsymmetric but uniquely
solvable for any gamma > 0.  The default, reduced-pcg, uses that the
control is the trace of the state: with K_II the interior stiffness
block (SPD), the first block row gives Y = Y0 + E Y_B with
Y0 = [K_II^-1 F; 0] and the discrete harmonic extension
E = [-K_II^-1 K_IB; I].  Testing the second row with E cancels Z and
leaves one system for Y_B alone,

    H Y_B = E^T (B Y0 - G),   H = -E^T B E = E^T M E + gamma M_Gamma,BB,

solved by CG preconditioned with -B_BB = M_BB + gamma M_Gamma,BB; each
product with H costs two solves with the K_II factors.  Z follows from
the interior rows, K_II Z = G_I - (B Y)_I.  direct-lu factors the whole
coupled matrix and is the small-N reference.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite
from scipy.sparse.linalg import LinearOperator, cg, splu

METHODS = ("reduced-pcg", "direct-lu")


class SolverError(RuntimeError):
    """Factorization failure or residual above the configured tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    method: str = "reduced-pcg"
    tolerance: float = 1e-12
    max_iterations: int = 200

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError("unknown solver method %r (expected one of %s)"
                             % (self.method, ", ".join(METHODS)))
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must lie in (0, 1), got %r"
                             % (self.tolerance,))
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


def _residual_vector(full, rhs, x):
    """rhs - full·x accumulated in 80-bit precision.

    In plain double arithmetic the computed residual of a good solution
    is dominated by rounding in the matrix-vector product itself, about
    eps·|full|·|x| per row.  On the largest reference meshes with a
    load vector much smaller than |full|·|x| (zero volume force), that
    floor sits near 1e-11 relative, above the default gate; extended
    accumulation pushes it out of the way.
    """
    r = rhs.astype(np.longdouble)
    r -= full.astype(np.longdouble) @ x.astype(np.longdouble)
    return r


def _refine(full, rhs, x, apply_inverse, tolerance):
    """Up to three refinement sweeps, until the residual clears the gate
    or a sweep does not lower it; returns the iterate with the smallest
    residual.  A solution at the double-precision floor cannot improve,
    so sweeps past that point would only repeat the same work.
    """
    bnorm = np.linalg.norm(rhs)
    r = _residual_vector(full, rhs, x)
    rnorm = float(np.linalg.norm(r.astype(np.float64)))
    for _ in range(3):
        if rnorm <= 0.25 * tolerance * bnorm:
            break
        x_new = x + apply_inverse(r.astype(np.float64))
        r_new = _residual_vector(full, rhs, x_new)
        rnorm_new = float(np.linalg.norm(r_new.astype(np.float64)))
        if not rnorm_new < rnorm:
            break
        x, r, rnorm = x_new, r_new, rnorm_new
    return x


def _factor(matrix, what):
    try:
        return splu(matrix.tocsc())
    except RuntimeError as err:
        raise SolverError("factorization of the %s failed (%s); for gamma "
                          "> 0 it should never be singular" % (what, err))


def _reduced_solver(system, max_iterations, atol, iterations):
    """apply_inverse of the full system through the reduced problem; CG
    stops once the reduced residual (= the boundary-row residual of the
    full system) is below atol, and appends its count to iterations.
    """
    I, Bnd, B = system.interior, system.boundary, system.B
    n, ni, nb = system.num_dofs, len(I), len(Bnd)
    K_IB, K_BI = system.A[:, Bnd].tocsr(), system.C[Bnd, :].tocsr()
    K_II = _factor(system.C[I, :], "interior stiffness")
    precond = _factor(-B[Bnd][:, Bnd], "boundary mass")

    def extend(yB, Y):           # Y + E·yB, in place
        Y[I] -= K_II.solve(K_IB @ yB)
        Y[Bnd] += yB
        return Y

    def restrict(w):             # Eᵀ·w
        return w[Bnd] - K_BI @ K_II.solve(w[I])

    H = LinearOperator((nb, nb), dtype=float,
                       matvec=lambda v: -restrict(B @ extend(v, np.zeros(n))))
    M = LinearOperator((nb, nb), dtype=float, matvec=precond.solve)

    def apply_inverse(rhs):
        F, G = rhs[:ni], rhs[ni:]
        Y = np.zeros(n)
        Y[I] = K_II.solve(F)
        steps = []
        yB, info = cg(H, restrict(B @ Y - G), rtol=0.0, atol=atol, M=M,
                      maxiter=max_iterations, callback=steps.append)
        iterations.append(len(steps))
        if info > 0:
            raise SolverError("conjugate gradients did not converge in %d "
                              "iterations" % len(steps))
        Y = extend(yB, Y)
        return np.concatenate([Y, K_II.solve(G[I] - (B @ Y)[I])])

    return apply_inverse


def solve_block(system, config=None, stats=None):
    """Solve the coupled system; returns (Y, Z).

    Keyword arguments:
        config -- SolverConfig; default is reduced-pcg with a 1e-12
                  relative residual tolerance
        stats  -- dict that receives "iterations": the CG count of the
                  first solve and of each refinement sweep (direct-lu:
                  []), and "residual": the relative residual of the gate

    Raises SolverError if a factorization fails, CG runs out of
    iterations, or the relative residual exceeds the tolerance.
    """
    if config is None:
        config = SolverConfig()
    n = system.num_dofs
    if system.A.shape[1] != n or system.C.shape[0] != n:
        raise ValueError("inconsistent block dimensions")

    b = system.rhs()
    iterations = [] if stats is None else stats.setdefault("iterations", [])
    full = system.full().tocsc()
    if config.method == "direct-lu":
        apply_inverse = _factor(full, "coupled system").solve
    else:
        apply_inverse = _reduced_solver(  # atol: where _refine stops
            system, config.max_iterations,
            0.25 * config.tolerance * np.linalg.norm(b), iterations)
    x = _refine(full, b, apply_inverse(b), apply_inverse, config.tolerance)

    rel = residual(system, x[:n], x[n:])
    if stats is not None:
        stats["residual"] = rel
    if not rel <= config.tolerance:
        raise SolverError("relative residual %.3e exceeds tolerance %.1e"
                          % (rel, config.tolerance))
    return x[:n], x[n:]


def residual(system, Y, Z):
    """Relative residual of the full coupled system at (Y, Z)."""
    x = np.concatenate([Y, Z])
    rhs = system.rhs()
    r = _residual_vector(system.full().tocsr(), rhs, x)
    rnorm = float(np.linalg.norm(r.astype(np.float64)))
    denom = np.linalg.norm(rhs)
    return rnorm / denom if denom != 0.0 else rnorm


def save_matrix_market(path, matrix):
    """Dump a sparse matrix in Matrix Market coordinate format."""
    mmwrite(str(path), sp.coo_matrix(matrix))
