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
Computing 56, 1996), which converges in about 8 iterations at any
spacing where plain CG needs hundreds. A solution is returned only when
its true residual ||b - Ax|| is at most _CG_RTOL times ||b||; otherwise
SolverDivergence reports the iterations and the residual.

A grid has one such system, since validation fixes which component is
inner and which outer.  Its matrix, right-hand side and preconditioner
are kept per grid, for as long as the grid lives, so a repeat call pays
only the solve; the ghost cells, boundary values and energy are
recomputed on every call, and every call validates its labels, runs CG
from zero and checks its residual.
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
# smoothed-aggregation multigrid: damped-Jacobi weight, sweeps before and
# after each coarse correction, and the size at which a level is factored
_JACOBI_OMEGA = 2.0 / 3.0
_SMOOTHING_SWEEPS = 2
_COARSEST_UNKNOWNS = 1500

# scipy.sparse costs about 10 MB at import and only the solver needs it
coo_matrix = diags = LinearOperator = cg = splu = None


# grid -> (matrix, rhs, preconditioner); no entry refers to its grid, so it
# goes with the grid
_SYSTEMS: "weakref.WeakKeyDictionary[GridDomain, tuple]" = weakref.WeakKeyDictionary()


def _load_sparse():
    global coo_matrix, diags, LinearOperator, cg, splu
    if cg is None:
        from scipy.sparse import coo_matrix, diags
        from scipy.sparse.linalg import LinearOperator, cg, splu


def _multigrid(matrix, iy, ix):
    """Smoothed-aggregation multigrid for CG: one V-cycle per application.

    Each level aggregates its unknowns into 2x2 blocks of cells, keyed by
    (iy // 2, ix // 2), smooths the piecewise-constant prolongator once with
    damped Jacobi, P = (I - w D^-1 A) P0, and passes P^T A P down until at
    most _COARSEST_UNKNOWNS remain; that level is factored once.
    """
    levels = []
    a = matrix
    while a.shape[0] > _COARSEST_UNKNOWNS:
        iy, ix = iy // 2, ix // 2
        width = int(ix.max()) + 1
        blocks, aggregate = np.unique(iy * width + ix, return_inverse=True)
        n = a.shape[0]
        p0 = coo_matrix((np.ones(n), (np.arange(n), aggregate)),
                        shape=(n, len(blocks))).tocsr()
        smoother = _JACOBI_OMEGA / a.diagonal()
        p = (p0 - diags(smoother) @ (a @ p0)).tocsr()
        # the restriction is a transposed view of p, sharing its arrays
        levels.append((a, smoother, p, p.T))
        a = p.T.tocsr() @ (a @ p)
        iy, ix = np.divmod(blocks, width)
    # a partial, not a closure over itself, so the hierarchy is freed by
    # reference counting as soon as its grid is
    return LinearOperator(matrix.shape, dtype=float,
                          matvec=partial(_v_cycle, levels, splu(a.tocsc())))


def _v_cycle(levels, coarsest, r):
    """Apply one V-cycle to the residual r.

    The same damped-Jacobi sweeps run before and after each coarse
    correction, so the cycle is a symmetric positive definite operator,
    as CG requires.
    """
    if not levels:
        return coarsest.solve(r)
    a, smoother, p, pt = levels[0]
    x = smoother * r
    for _ in range(_SMOOTHING_SWEEPS - 1):
        x += smoother * (r - a @ x)
    x += p @ _v_cycle(levels[1:], coarsest, pt @ (r - a @ x))
    for _ in range(_SMOOTHING_SWEEPS):
        x += smoother * (r - a @ x)
    return x


def _assemble(mask, ghost, values):
    """The 5-point system on the domain cells and its preconditioner.

    Domain-domain edges have conductance 1 and domain-ghost cut edges
    conductance 2, which puts the boundary at the cut-edge midpoints;
    ``values`` holds the ghost values by flat cell number.
    """
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
    return matrix, rhs, _multigrid(matrix, *np.nonzero(mask))


def conformal_modulus(grid: GridDomain, inner_label: int, outer_label: int) -> float:
    """Modulus of a grid domain whose complement has exactly two components."""
    labels, count, unbounded = grid.complement_labels
    if count != 2:
        raise WrongConnectivity(
            f"domain complement has {count} components, need exactly 2")
    if {inner_label, outer_label} != {1, 2}:
        raise ValidationError(
            f"labels must identify the two complement components, got "
            f"{inner_label} and {outer_label}")
    if outer_label != unbounded:
        raise ValidationError(f"label {outer_label} is not the unbounded component")

    _load_sparse()
    from scipy import ndimage

    mask = grid.mask
    near_domain = ndimage.binary_dilation(mask, STRUCT_4)
    inner_ghost = (labels == inner_label) & near_domain
    ghost = inner_ghost | ((labels == outer_label) & near_domain)
    # flat array, indexed by the cell numbers cell_pairs returns
    values = inner_ghost.ravel().astype(float)
    system = _SYSTEMS.get(grid)
    if system is None:
        system = _SYSTEMS[grid] = _assemble(mask, ghost, values)
    matrix, rhs, preconditioner = system
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
    values[mask.ravel()] = solution

    energy = 0.0
    for dx, dy in ((1, 0), (0, 1)):
        for a, b, conductance in ((mask, mask, 1.0), (mask, ghost, 2.0), (ghost, mask, 2.0)):
            i, j = cell_pairs(a, b, dx, dy)
            diff = values[i] - values[j]
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
