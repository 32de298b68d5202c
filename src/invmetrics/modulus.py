"""Conformal modulus of doubly-connected grid domains.

The harmonic potential with value 1 on the bounded complement component
and 0 on the unbounded one is solved with the 5-point Laplacian; the
modulus is the reciprocal Dirichlet energy, normalized so the round
annulus r < |z| < 1 gives log(1/r) / (2 pi).

Boundary values are imposed on the complement cells adjacent to the
domain, with doubled conductance on the cut edges so the effective
boundary sits at the edge midpoints; pinning values on domain cells
instead shifts every boundary half a cell inward, which already costs
about 2% of the modulus at a spacing of 0.01.

The linear system is solved by conjugate gradients preconditioned with
one V-cycle of smoothed-aggregation multigrid (Vanek, Mandel & Brezina,
Computing 56, 1996).  Each aggregate is a 3x3 block of cells, a node's
whole 5-point neighbourhood, so each level has about a ninth of the
unknowns of the one above and the stored level matrices hold 1.2 times
the fine matrix's nonzeros (Stueben's operator complexity).  The V-cycle
runs in float32 under a float64 CG: a preconditioner needs only a few
digits, and CG, its residual and the solution stay in double (Goeddeke,
Strzodka & Turek, IJPEDS 22, 2007).  The coarsest level is factored in
float64.  CG converges in 15 / 14 / 14 iterations at spacings 0.01 /
0.005 / 0.0025 on the round annulus of inner radius 0.25, where plain
CG needs hundreds.  A solution is returned only when its true residual
||b - Ax|| is at most _CG_RTOL times ||b||; otherwise SolverDivergence
reports the iterations and the residual.

A grid has one such system, since validation fixes which component is
inner and which outer.  Everything the grid fixes is kept per grid, for
as long as the grid lives: the matrix, right-hand side and
preconditioner, the frame of ghost values and the cell indices of the
energy's edge groups.  A repeat call validates its labels, runs CG from
zero, checks its residual, scatters the solution into a copy of the
ghost values and sums the energy.
"""

from __future__ import annotations

import math
import numbers
import weakref
from functools import partial

import numpy as np

from .domains import STRUCT_4, GridDomain, cell_pairs
from .errors import NonPositive, SolverDivergence, ValidationError, WrongConnectivity

_CG_RTOL = 1e-10
_CG_MAXITER = 200
# smoothed-aggregation multigrid: cells per aggregate side, the damped-Jacobi
# weight (of the prolongator smoothing and of the V-cycle's sweep before and
# after each coarse correction), and the size at which a level is factored.
# 4/5 is the Jacobi weight that damps the 5-point Laplacian's oscillatory
# modes best; with 3x3 aggregates it takes CG from 18-19 iterations at 2/3
# to 14-15 on round annuli.  2x2 aggregates take 9 iterations in about the
# same time (within 5% at 0.01 to 0.0025) but store more levels.  One sweep
# each way solves about 8% faster than two, which take 12 iterations.
_AGGREGATE = 3
_JACOBI_OMEGA = 0.8
_COARSEST_UNKNOWNS = 1500

# scipy.sparse costs about 10 MB at import and only the solver needs it
coo_matrix = csr_matrix = diags = LinearOperator = cg = splu = None


# grid -> (matrix, rhs, preconditioner, ghost values, energy groups); no
# entry refers to its grid, so it goes with the grid
_SYSTEMS: "weakref.WeakKeyDictionary[GridDomain, tuple]" = weakref.WeakKeyDictionary()


def _load_sparse():
    global coo_matrix, csr_matrix, diags, LinearOperator, cg, splu
    if cg is None:
        from scipy.sparse import coo_matrix, csr_matrix, diags
        from scipy.sparse.linalg import LinearOperator, cg, splu


def _multigrid(matrix, iy, ix):
    """Smoothed-aggregation multigrid for CG: one V-cycle per application.

    Each level aggregates its unknowns into square blocks of cells, keyed by
    (iy // _AGGREGATE, ix // _AGGREGATE), smooths the piecewise-constant
    prolongator once with damped Jacobi, P = (I - w D^-1 A) P0, and passes
    P^T A P down until at most _COARSEST_UNKNOWNS remain; that level is
    factored once, in float64.  The other levels are stored in float32, the
    fine one as a copy of the matrix's data on its index arrays.
    """
    levels = []
    a = matrix
    while a.shape[0] > _COARSEST_UNKNOWNS:
        iy, ix = iy // _AGGREGATE, ix // _AGGREGATE
        width = int(ix.max()) + 1
        blocks, aggregate = np.unique(iy * width + ix, return_inverse=True)
        n = a.shape[0]
        p0 = coo_matrix((np.ones(n), (np.arange(n), aggregate)),
                        shape=(n, len(blocks))).tocsr()
        smoother = _JACOBI_OMEGA / a.diagonal()
        p = (p0 - diags(smoother) @ (a @ p0)).tocsr()
        # the restriction is a transposed view of p, sharing its arrays
        p32 = _single(p)
        levels.append((_single(a), smoother.astype(np.float32), p32, p32.T))
        a = p.T.tocsr() @ (a @ p)
        iy, ix = np.divmod(blocks, width)
    coarsest = splu(a.tocsc())
    # a partial, not a closure over itself, so the hierarchy is freed by
    # reference counting as soon as its grid is; a grid with no level above
    # the coarsest keeps the exact solve, which a float32 round trip of the
    # residual would cost an iteration of CG
    matvec = partial(_precondition, levels, coarsest) if levels else coarsest.solve
    return LinearOperator(matrix.shape, dtype=float, matvec=matvec)


def _single(a):
    """The float32 copy of the CSR matrix a's data, on a's index arrays."""
    return csr_matrix((a.data.astype(np.float32), a.indices, a.indptr), shape=a.shape)


def _precondition(levels, coarsest, r):
    """One float32 V-cycle on the float64 residual r, returned in float64."""
    return _v_cycle(levels, coarsest, r.astype(np.float32)).astype(float)


def _v_cycle(levels, coarsest, r):
    """Apply one V-cycle to the residual r.

    One damped-Jacobi sweep runs before each coarse correction (from x = 0)
    and the same sweep after it, so the cycle is, up to rounding, a
    symmetric positive definite operator, as CG requires.
    """
    if not levels:
        return coarsest.solve(r)
    a, smoother, p, pt = levels[0]
    x = smoother * r
    x += p @ _v_cycle(levels[1:], coarsest, pt @ (r - a @ x))
    x += smoother * (r - a @ x)
    return x


def _assemble(mask, inner, outer):
    """A grid's kept system: the 5-point matrix on the domain cells, its
    right-hand side and preconditioner, the flat frame of ghost values, and
    the energy's edge groups.

    The ghost cells are the cells of the inner and outer complement
    components (boolean frames ``inner`` and ``outer``) 4-adjacent to the
    domain, valued 1 and 0.  Domain-domain edges have conductance 1 and
    domain-ghost cut edges conductance 2, which puts the boundary at the
    cut-edge midpoints.  Each energy group is (i, step, conductance): the
    int32 flat numbers i of the first cells of its edges, whose second
    cells are i + step, as ``cell_pairs`` pairs them.
    """
    from scipy import ndimage

    near_domain = ndimage.binary_dilation(mask, STRUCT_4)
    inner_ghost = inner & near_domain
    ghost = inner_ghost | (outer & near_domain)
    # flat array, indexed by the cell numbers cell_pairs returns
    values = inner_ghost.ravel().astype(float)
    values.flags.writeable = False
    h, w = mask.shape
    index = -np.ones(h * w, dtype=np.int64)
    n_unknown = int(mask.sum())
    index[mask.ravel()] = np.arange(n_unknown)
    rows, cols, cut_rows, cut_values = [], [], [], []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        i, j = cell_pairs(mask, mask, dx, dy)
        rows.append(index[i])
        cols.append(index[j])
        i, j = cell_pairs(mask, ghost, dx, dy)
        cut_rows.append(index[i])
        cut_values.append(values[j])
    rows, cols, cut_rows = (np.concatenate(x) for x in (rows, cols, cut_rows))
    degree = (np.bincount(rows, minlength=n_unknown)
              + 2.0 * np.bincount(cut_rows, minlength=n_unknown))
    rhs = 2.0 * np.bincount(cut_rows, np.concatenate(cut_values), n_unknown)
    diagonal = np.arange(n_unknown)
    matrix = coo_matrix(
        (np.concatenate([-np.ones(len(rows)), degree]),
         (np.concatenate([rows, diagonal]), np.concatenate([cols, diagonal]))),
        shape=(n_unknown, n_unknown)).tocsr()
    groups = tuple((cell_pairs(a, b, dx, dy)[0].astype(np.int32), dy * w + dx, conductance)
                   for dx, dy in ((1, 0), (0, 1))
                   for a, b, conductance in ((mask, mask, 1.0), (mask, ghost, 2.0),
                                             (ghost, mask, 2.0)))
    return matrix, rhs, _multigrid(matrix, *np.nonzero(mask)), values, groups


def conformal_modulus(grid: GridDomain, inner_label: int, outer_label: int) -> float:
    """Modulus of a grid domain whose complement has exactly two components."""
    labels, holes = grid.complement
    if len(holes) != 1:
        raise WrongConnectivity(
            f"domain complement has {len(holes) + 1} components, need exactly 2")
    if {inner_label, outer_label} != {1, 2}:
        raise ValidationError(
            f"labels must identify the two complement components, got "
            f"{inner_label} and {outer_label}")
    if outer_label in holes:
        raise ValidationError(f"label {outer_label} is not the unbounded component")

    _load_sparse()
    system = _SYSTEMS.get(grid)
    if system is None:
        system = _SYSTEMS[grid] = _assemble(grid.mask, labels == inner_label,
                                            labels == outer_label)
    matrix, rhs, preconditioner, ghost_values, groups = system
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    solution, info = cg(matrix, rhs, rtol=_CG_RTOL, maxiter=_CG_MAXITER,
                        M=preconditioner, callback=count)
    # the recurrence residual CG stops on can drift from the true one
    residual = float(np.linalg.norm(rhs - matrix @ solution) / np.linalg.norm(rhs))
    if info != 0 or not residual <= _CG_RTOL:
        raise SolverDivergence(f"conjugate gradients stopped with code {info}",
                               iterations, residual)
    values = ghost_values.copy()
    values[grid.mask.ravel()] = solution

    energy = 0.0
    for i, step, conductance in groups:
        diff = values[i] - values[i + step]
        energy += conductance * float((diff * diff).sum())
    if energy <= 0:
        raise SolverDivergence("Dirichlet energy vanished; degenerate input")
    return 1.0 / energy


def canonical_annulus_radius(modulus: float) -> float:
    """Inner radius of the round annulus with the given modulus."""
    if not isinstance(modulus, numbers.Real):
        raise ValidationError(f"modulus must be a real number: {modulus!r}")
    if not (modulus > 0) or not math.isfinite(modulus):
        raise NonPositive(f"modulus must be positive and finite: {modulus!r}")
    return math.exp(-2.0 * math.pi * modulus)


def bounded_complement_label(grid: GridDomain) -> int:
    """Label of the single bounded complement component of a ring domain."""
    holes = grid.complement[1]
    if len(holes) != 1:
        raise WrongConnectivity(
            f"domain complement has {len(holes) + 1} components, need exactly 2")
    return holes[0]
