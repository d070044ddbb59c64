"""The solver for the coupled block system.

The coupled matrix [[A, 0], [B, C]] is nonsymmetric but uniquely
solvable for any gamma > 0.  The solver uses that the control is the
trace of the state and never forms that matrix: with K_II the interior
stiffness block (SPD), the first block row gives Y = Y0 + E Y_B with
Y0 = [K_II^-1 F; 0] and the discrete harmonic extension
E = [-K_II^-1 K_IB; I].  Testing the second row with E cancels Z and
leaves one system for Y_B alone,

    H Y_B = E^T (B Y0 - G),   H = -E^T B E = E^T M E + gamma M_Gamma,BB,

solved by CG preconditioned with -B_BB = M_BB + gamma M_Gamma,BB; each
product with H costs two solves with K_II.  Z follows from the interior
rows, K_II Z = G_I - (B Y)_I = G_I + (M Y)_I.  B itself is never
formed: -B·v is M·v + gamma·(M_Gamma·v), where M_Gamma acts through its
boundary block alone, since it has no interior entries.  When the
interior nodes fill a uniform grid (P1 and P2 on the rectangle meshes),
K_II is solved by type-I sine transforms: in their basis it is block
diagonal with blocks of at most 4 x 4, which are probed one quadrant of
the modes at a time, inverted plane by plane through their 2 x 2-block
Schur complement and confirmed by a fixed-seed solve.  Every other K_II
is factored once with splu.  A solve sets up once the K_II solve, the
stop threshold of CG and the sweeps, and their 80-bit residual map,
which keeps no 80-bit matrix: each call casts the entries of K, M and
M_Gamma one block of rows at a time.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg, splu

_MAX_CG_ITERATIONS = 200
_ROW_BLOCK = 2 ** 13      # rows per block of the 80-bit residual


class SolverError(RuntimeError):
    """Factorization failure or residual above the configured tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must lie in (0, 1), got %r"
                             % (self.tolerance,))


def _extended_residual(system):
    """The map x = [Y; Z] -> [F - A·Y; G - B·Y - C·Z], accumulated in
    80-bit precision, so the coupled matrix is never formed.  A·Y =
    (K·Y)[I], C·Z = K·Z with Z zero-extended to N dofs, and -B·Y = M·Y +
    (gamma·M_Gamma)·Y, so B is not formed either.  Nothing is cast when
    the map is built: each call walks the rows in blocks of at most
    _ROW_BLOCK and casts each block's entries of K, M and M_Gamma once
    (M_Gamma scaled by gamma in 80 bits), beside the block's own slice
    of the column indices and row pointers, so neither an 80-bit copy
    of a whole matrix nor a copy of its index arrays is made.  K·Y
    and K·Z come from the same cast block of K, and the adjoint rows are
    summed in place into the output.  Each row is summed in stored
    order, as by one product with the whole matrix, so the blocks do not
    change the result.

    In plain double arithmetic the computed residual of a good solution
    is dominated by rounding in the matrix-vector products themselves,
    about eps·|matrix|·|x| per row.  On the largest reference meshes
    with a load vector much smaller than |matrix|·|x| (zero volume
    force), that floor sits near 1e-11 relative, above the default gate;
    extended accumulation pushes it out of the way.
    """
    ld = np.longdouble
    I, n, ni = system.interior, system.num_dofs, len(system.interior)
    F, G, gamma = system.F, system.G, ld(system.gamma)
    # the state rows of a block are found in I sorted: a BlockSystem may
    # order its unknowns otherwise
    order = np.argsort(I)
    I_sorted = I[order]

    def rows(A, start, stop):    # rows start:stop of A, 80-bit entries
        lo, hi = A.indptr[start], A.indptr[stop]
        return sp.csr_matrix((A.data[lo:hi].astype(ld), A.indices[lo:hi],
                              A.indptr[start:stop + 1] - lo),
                             shape=(stop - start, A.shape[1]))

    def residual_of(x):
        Y, Z = x[:n].astype(ld), np.zeros(n, dtype=ld)
        Z[I] = x[n:]
        out = np.empty(ni + n, dtype=ld)
        for start in range(0, n, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, n)
            s = out[ni + start:ni + stop]    # G - B·Y - C·Z, in place
            s[:] = rows(system.M, start, stop) @ Y
            s += G[start:stop]
            gM_Gamma = rows(system.M_Gamma, start, stop)
            gM_Gamma.data *= gamma
            s += gM_Gamma @ Y
            K = rows(system.K, start, stop)
            s -= K @ Z
            a, b = np.searchsorted(I_sorted, (start, stop))
            at = order[a:b]
            out[at] = F[at] - (K @ Y)[I_sorted[a:b] - start]
        return out

    return residual_of


def _norm(v):
    """‖v‖ of v rounded to double, summed by np.sum: BLAS, under
    np.linalg.norm, rounds a long sum differently per thread count."""
    return float(np.sqrt(np.sum(np.square(v, dtype=np.float64))))


def _norm_ratio(r, b):
    """‖r‖/‖b‖ in double precision, or ‖r‖ when b = 0."""
    rnorm, bnorm = _norm(r), _norm(b)
    return rnorm / bnorm if bnorm != 0.0 else rnorm


def _refine(x, residual_of, apply_inverse, atol):
    """Up to three refinement sweeps, until the residual norm is at most
    atol; returns the best iterate and its residual vector.  A sweep's
    iterate is kept if it lowers the residual norm, and the sweeps stop
    unless it at least halved it: a solution near the floor of double
    precision improves by little or not at all, so further sweeps would
    repeat the work (the stagnation test of Demmel et al., 2006).
    """
    r = residual_of(x)
    rnorm = _norm(r)
    for _ in range(3):
        if rnorm <= atol:
            break
        x_new = x + apply_inverse(r.astype(np.float64))
        r_new = residual_of(x_new)
        rnorm_new = _norm(r_new)
        if rnorm_new < rnorm:
            x, r = x_new, r_new
        if not rnorm_new <= 0.5 * rnorm:
            break
        rnorm = rnorm_new
    return x, r


def _factor(matrix, what):
    try:
        return splu(matrix.tocsc())
    except RuntimeError as err:
        raise SolverError("factorization of the %s failed (%s); for gamma "
                          "> 0 it should never be singular" % (what, err))


def _uniform_grid(xy):
    """(cell, (m, n)) when the points xy fill a uniformly spaced m x n
    grid, m, n >= 2, once each; otherwise None.  cell is the row-major
    grid position of each point, x index first.
    """
    xs, ix = np.unique(xy[:, 0], return_inverse=True)
    ys, iy = np.unique(xy[:, 1], return_inverse=True)
    m, n = len(xs), len(ys)
    if m < 2 or n < 2 or m * n != len(xy):
        return None
    cell = ix * n + iy
    hx, hy = (xs[-1] - xs[0]) / (m - 1), (ys[-1] - ys[0]) / (n - 1)
    if (np.bincount(cell, minlength=m * n).max() > 1
            or np.abs(np.diff(xs) - hx).max() > 1e-10 * hx
            or np.abs(np.diff(ys) - hy).max() > 1e-10 * hy):
        return None
    return cell, (m, n)


def _plane_inverse(a):
    """The inverse of every 4 x 4 matrix a[:, :, ...] of the (4, 4, ...)
    planes a, elementwise over the trailing axes, through the Schur
    complement X = S - R·P⁻¹·Q of a = [[P, Q], [R, S]] in 2 x 2 blocks:

        a⁻¹ = [[P⁻¹ + P⁻¹Q·X⁻¹·RP⁻¹, -P⁻¹Q·X⁻¹], [-X⁻¹·RP⁻¹, X⁻¹]].

    There is no pivoting: a zero pivot gives inf or nan entries.
    """
    def inv(p):                  # 2 x 2 planes, by their adjugate
        return np.array([[p[1, 1], -p[0, 1]], [-p[1, 0], p[0, 0]]]) / (
            p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0])

    def mul(p, q):               # 2 x 2 plane products
        return np.einsum("ik...,kj...->ij...", p, q)

    out = np.empty_like(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        P_inv = inv(a[:2, :2])
        P_inv_Q, R_P_inv = mul(P_inv, a[:2, 2:]), mul(a[2:, :2], P_inv)
        out[2:, 2:] = inv(a[2:, 2:] - mul(a[2:, :2], P_inv_Q))
        out[:2, 2:] = -mul(P_inv_Q, out[2:, 2:])
        out[2:, :2] = -mul(out[2:, 2:], R_P_inv)
        out[:2, :2] = P_inv - mul(out[:2, 2:], R_P_inv)
    return out


def _sine_solver(K_II, cell, shape):
    """solve(f) = K_II^-1 f through the orthonormal 2D type-I DST Q of
    the grid that _uniform_grid found (cell and shape are its result),
    or None when K_II fails the check of _interior_solver.

    Four products with K_II, each between two DSTs, probe the four
    quadrants of the modes one at a time, so one probe plane is live
    beside the blocks, and the blocks and their inverses are each
    dropped once read.  The 4 x 4 blocks are stored as (4, 4, m2, n2)
    planes and inverted by _plane_inverse, without pivoting: each is a
    principal block of the SPD Q·K_II·Q, or one whose duplicate rows
    are unit rows.
    """
    from scipy.fft import dstn  # only the grid paths need scipy.fft
    m, n = shape
    # ‖K_II‖∞ for the check below, taken before the probe planes exist:
    # one sum per nonempty row, and an empty row's 0 is never above it
    rows = K_II.indptr[:-1][np.diff(K_II.indptr) > 0]
    inf_norm = (float(np.add.reduceat(np.abs(K_II.data), rows).max())
                if len(rows) else 0.0)

    def grid(f):                 # node values as (..., m, n) arrays
        u = np.empty(f.shape[:-1] + (m * n,))
        u[..., cell] = f
        return u.reshape(f.shape[:-1] + (m, n))

    def Q(u):                    # Q = Qᵀ = Q⁻¹, on the last two axes
        return dstn(u, type=1, norm="ortho", axes=(-2, -1))

    # T = Q·K_II·Q couples mode (i, j) only to its flips (m-1-i, j),
    # (i, n-1-j) and (m-1-i, n-1-j).  The probe of quadrant c is T times
    # the indicator of the quadrant c = 2·(high in x) + (high in y) of
    # the modes, high meaning i > m-1-i; it holds each mode's coupling
    # to its one flip in that quadrant.
    def flip(u, s):              # u mirrored in x if s & 2, in y if s & 1
        return u[..., ::-1 if s & 2 else 1, ::-1 if s & 1 else 1]

    # the 4 x 4 block of each low mode p and its flips, as (4, 4, m2,
    # n2) planes: row r, column c is T's coupling of flip(p, r) to
    # flip(p, c).  One quadrant is probed at a time, so only one
    # probe plane is live beside the blocks.
    high = [np.arange(k) > (k - 1) / 2 for k in (m, n)]
    m2, n2 = (m + 1) // 2, (n + 1) // 2
    block = np.empty((4, 4, m2, n2))
    for c in range(4):
        e = np.outer(high[0] == c >> 1, high[1] == c & 1).astype(float)
        probe = Q(grid(K_II @ Q(e).ravel()[cell]))
        for r in range(4):
            block[r, c] = flip(probe, r)[:m2, :n2]
        del e, probe
    # a middle mode of an odd axis is its own flip: the columns of that
    # flip are 0 and its rows repeat the mode's own, so unit rows stand
    # in for them
    unit = np.eye(4)[:, :, None]
    if m % 2:
        block[2:, :, -1] = unit[2:]
    if n % 2:
        block[1::2, :, :, -1] = unit[1::2]
    W = _plane_inverse(block)
    del block
    # (T⁻¹v)(q) = Σ_k D[k](q)·v(flip(q, k)); a mode q = flip(p, s) reads
    # row s of p's inverse.  Lower s is written later, so a middle mode
    # keeps its own row, not the unit row of its duplicate.
    D = np.empty((4, m, n))
    for s in (3, 2, 1, 0):
        flip(D, s)[:, :m2, :n2] = W[s, np.arange(4) ^ s]
    del W

    def probed_solve(f):
        v = Q(grid(f))
        return Q(sum(d * flip(v, k) for k, d in enumerate(D))).ravel()[cell]

    # the backward error of one fixed-seed solve; the inf or nan of a
    # zero pivot fails it
    f = np.random.default_rng(0).standard_normal(K_II.shape[0])
    with np.errstate(invalid="ignore"):
        x = probed_solve(f)
    scale = _norm(f) + inf_norm * _norm(x)
    return probed_solve if _norm(K_II @ x - f) <= 1e-12 * scale else None


def _interior_solver(K_II, xy):
    """(solve, record) for the interior stiffness K_II, whose rows
    belong to the interior node coordinates xy: solve(f) = K_II^-1 f,
    and record is {"interior": "dst"} or {"interior": "splu", "fill":
    the entries SuperLU stores for the L and U factors}.

    When the nodes fill a uniform m x n grid, K_II is solved with the
    orthonormal type-I DST Q of that grid (Buzbee, Golub & Nielson,
    1970; Lynch, Rice & Thomas, 1964).  On the rectangle meshes
    Q·K_II·Q couples each mode only to its mirror images in x, in y and
    in both: it is diagonal for the 5-point Laplacian of P1, and for P2,
    whose nodes alternate vertex and midpoint and whose mesh is
    mirror-symmetric about every grid line, it has blocks of at most
    4 x 4.  One product with K_II per quadrant of the modes probes
    those blocks, which are inverted once.  This solve is taken only if
    a fixed-seed one has ‖K_II x - f‖ <= 1e-12·(‖f‖ + ‖K_II‖∞·‖x‖),
    checked on every call.
    Every other K_II is factored once by splu in its default order.
    """
    grid = _uniform_grid(xy)
    solve = _sine_solver(K_II, *grid) if grid is not None else None
    if solve is not None:
        return solve, {"interior": "dst"}
    lu = _factor(K_II, "interior stiffness")
    return lu.solve, {"interior": "splu", "fill": lu.nnz}


def _reduced_solver(system, atol, stats):
    """apply_inverse of the full system through the reduced problem; CG
    stops once the reduced residual (= the boundary-row residual of the
    full system) is below atol.  Copies the record of _interior_solver
    into stats and appends each CG count to stats["iterations"].
    """
    I, Bnd, K, M = system.interior, system.boundary, system.K, system.M
    n, ni, nb, gamma = system.num_dofs, len(I), len(Bnd), system.gamma
    # K_BI is not K_IB.T: the P2 stiffness is symmetric only to rounding.
    # K[I] is dropped before the K_II set-up, whose probe planes set the
    # peak of the solve.
    K_I = K[I]
    K_IB, K_II, K_BI = K_I[:, Bnd], K_I[:, I], K[Bnd][:, I]
    del K_I
    solve_II, record = _interior_solver(K_II, system.coords[I])
    stats.update(record)
    # M_Gamma has entries only in the boundary rows and columns
    M_Gamma_BB = system.M_Gamma[Bnd][:, Bnd]
    precond = _factor(M[Bnd][:, Bnd] + gamma * M_Gamma_BB, "boundary mass")

    def mass(Y):                 # -B·Y = M·Y + gamma·(M_Gamma·Y)
        w = M @ Y
        w[Bnd] += gamma * (M_Gamma_BB @ Y[Bnd])
        return w

    def extend(yB, Y):           # Y + E·yB, in place
        Y[I] -= solve_II(K_IB @ yB)
        Y[Bnd] += yB
        return Y

    def restrict(w):             # Eᵀ·w
        return w[Bnd] - K_BI @ solve_II(w[I])

    H = LinearOperator((nb, nb), dtype=float,
                       matvec=lambda v: restrict(mass(extend(v, np.zeros(n)))))
    P = LinearOperator((nb, nb), dtype=float, matvec=precond.solve)

    def apply_inverse(rhs):
        F, G = rhs[:ni], rhs[ni:]
        Y = np.zeros(n)
        Y[I] = solve_II(F)
        steps = []
        yB, info = cg(H, -restrict(mass(Y) + G), rtol=0.0, atol=atol, M=P,
                      maxiter=_MAX_CG_ITERATIONS, callback=steps.append)
        stats["iterations"].append(len(steps))
        if info > 0:
            raise SolverError("conjugate gradients did not converge in %d "
                              "iterations" % len(steps))
        Y = extend(yB, Y)
        return np.concatenate([Y, solve_II(G[I] + (M @ Y)[I])])

    return apply_inverse


def solve_block(system, config=None, stats=None):
    """Solve the coupled system; returns (Y, Z).

    The refinement sweeps and the gate share one stop threshold and
    evaluate the residual in 80-bit precision; each evaluation casts the
    entries of K, M and M_Gamma one block of rows at a time, so the
    solve holds no 80-bit copy of a whole matrix.

    Keyword arguments:
        config -- SolverConfig; default is a 1e-12 relative residual
                  tolerance
        stats  -- dict that receives the solve record, which
                  LevelSolution.stats and the run records carry whole:
                  "iterations": the CG count of the first solve and of
                  each refinement sweep, "interior": the K_II solver,
                  "dst" (sine transforms, P1 and P2 on the rectangle
                  meshes) or "splu" (one factor, in splu's default
                  order; on the presets only the 1 x 1 K_II of P1
                  level 0), "fill": the entries SuperLU stores for the
                  L and U factors of K_II (written only with "splu"),
                  "residual": the relative residual of the gate, and
                  "galerkin" and "adjoint": its state-row block over
                  ‖F‖ and adjoint-row block over ‖G‖ (unscaled when F
                  or G is zero); the finished record is logged at
                  DEBUG level to the "dbcfem" logger

    Raises SolverError if the norm of the right-hand side overflows;
    if the right-hand side is nonzero but the stop threshold is below
    sqrt(tiny) ≈ 1.5e-154, the least value whose square is a normal
    double; if a factorization fails or CG runs out of iterations; or
    if the relative residual exceeds the tolerance.  There is no
    ValueError for inconsistent blocks: A and C are both read off K, so
    they cannot disagree.
    """
    if config is None:
        config = SolverConfig()
    n = system.num_dofs
    b = system.rhs()
    stats = {} if stats is None else stats
    stats.setdefault("iterations", [])
    with np.errstate(over="ignore", invalid="ignore"):
        bnorm = _norm(b)
    if not np.isfinite(bnorm):
        raise SolverError("the norm of the right-hand side is not finite: "
                          "the data f or y_d overflow double precision")
    atol = 0.25 * config.tolerance * bnorm  # CG and _refine
    if atol < np.sqrt(np.finfo(float).tiny) and b.any():
        raise SolverError("the right-hand side is too small to gate: the "
                          "data f and y_d underflow double precision")
    apply_inverse = _reduced_solver(system, atol, stats)
    x, r = _refine(apply_inverse(b), _extended_residual(system),
                   apply_inverse, atol)
    ni = len(system.F)
    stats["galerkin"] = _norm_ratio(r[:ni], system.F)
    stats["adjoint"] = _norm_ratio(r[ni:], system.G)

    rel = residual(system, x[:n], x[n:])
    stats["residual"] = rel
    logging.getLogger("dbcfem").debug("solve record %s", stats)
    if not rel <= config.tolerance:
        raise SolverError("relative residual %.3e exceeds tolerance %.1e"
                          % (rel, config.tolerance))
    return x[:n], x[n:]


def residual(system, Y, Z):
    """Relative residual of the full coupled system at (Y, Z)."""
    return _norm_ratio(_extended_residual(system)(np.concatenate([Y, Z])),
                       system.rhs())
