import gc
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import invmetrics
from invmetrics import modulus
from invmetrics.domains import grid_annulus, grid_from_predicate
from invmetrics.errors import (
    NonPositive,
    SolverDivergence,
    ValidationError,
    WrongConnectivity,
)
from invmetrics.modulus import (
    bounded_complement_label,
    canonical_annulus_radius,
    conformal_modulus,
)

LOG4_OVER_TAU = 0.2206356001526516   # log 4 / (2 pi)
LOG2_OVER_TAU = 0.1103178000763258   # log 2 / (2 pi)


def ring_modulus(grid):
    inner = bounded_complement_label(grid)
    return conformal_modulus(grid, inner, 3 - inner)


class TestConcentricAnnulus:
    def test_quarter_at_medium_spacing(self):
        value = ring_modulus(grid_annulus(0.25, 0.02))
        assert value == pytest.approx(LOG4_OVER_TAU, rel=0.02)

    def test_quarter_at_fine_spacing(self):
        value = ring_modulus(grid_annulus(0.25, 0.01))
        assert value == pytest.approx(LOG4_OVER_TAU, rel=0.005)

    def test_half(self):
        value = ring_modulus(grid_annulus(0.5, 0.01))
        assert value == pytest.approx(LOG2_OVER_TAU, rel=0.02)


def square_frame(spacing):
    def pred(z):
        return ((np.abs(z.real) < 1) & (np.abs(z.imag) < 1)
                & ~((np.abs(z.real) <= 0.5) & (np.abs(z.imag) <= 0.5)))

    return grid_from_predicate(pred, 1.0, spacing)


def moved_annulus(spacing):
    """The rotated, scaled, off-centre ring of acceptance criterion 11."""
    def pred(z):
        w = (z - (0.11 + 0.06j)) * np.exp(-0.5j) / 0.9
        return (np.abs(w) > 0.25) & (np.abs(w) < 1.0)

    return grid_from_predicate(pred, 0.9, spacing * 0.9, center=0.11 + 0.06j)


def off_centre_ring(spacing):
    """The unit disk less the disk of radius 0.25 about 0.3."""
    def pred(z):
        return (np.abs(z) < 1.0) & (np.abs(z - 0.3) > 0.25)

    return grid_from_predicate(pred, 1.0, spacing)


@pytest.fixture
def patch_cg(monkeypatch):
    """Replace the solver's ``cg`` with ``fake(real_cg, matrix, rhs, **kwargs)``."""
    modulus._load_sparse()
    real = modulus.cg

    def install(fake):
        monkeypatch.setattr(modulus, "cg", lambda a, b, **kw: fake(real, a, b, **kw))
    return install


class TestSquareFrame:
    def test_positive_and_resolution_stable(self):
        coarse = ring_modulus(square_frame(0.02))
        fine = ring_modulus(square_frame(0.01))
        assert coarse > 0
        assert abs(fine - coarse) / coarse <= 0.01


class TestInvariance:
    def test_rigid_motions_and_scaling(self):
        base = ring_modulus(grid_annulus(0.25, 0.01))
        for center, scale, rot in ((0.13 + 0.07j, 1.0, 0.0),
                                   (0j, 0.77, 0.0),
                                   (0.05 - 0.1j, 0.9, 0.6)):
            def pred(z, c=center, s=scale, a=rot):
                w = (z - c) * np.exp(-1j * a) / s
                return (np.abs(w) > 0.25) & (np.abs(w) < 1.0)

            grid = grid_from_predicate(pred, scale, 0.01 * scale, center=center)
            moved = ring_modulus(grid)
            assert abs(moved - base) / base <= 0.01


class TestCanonicalRadius:
    def test_inverse_pair(self):
        assert canonical_annulus_radius(LOG4_OVER_TAU) == pytest.approx(0.25, abs=1e-12)

    def test_large_modulus_degenerates(self):
        assert canonical_annulus_radius(50.0) < 1e-100

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositive):
            canonical_annulus_radius(0.0)
        with pytest.raises(NonPositive):
            canonical_annulus_radius(-1.0)

    def test_pipeline_recovers_inner_radius(self):
        value = ring_modulus(grid_annulus(0.25, 0.01))
        assert canonical_annulus_radius(value) == pytest.approx(0.25, rel=0.02)


class TestGuards:
    def test_simply_connected_rejected(self):
        def pred(z):
            return np.abs(z) < 1.0

        grid = grid_from_predicate(pred, 1.0, 0.05)
        with pytest.raises(WrongConnectivity):
            bounded_complement_label(grid)
        with pytest.raises(WrongConnectivity):
            conformal_modulus(grid, 1, 2)

    def test_bad_labels_rejected(self, pants_grid):
        with pytest.raises(WrongConnectivity):
            conformal_modulus(pants_grid, 1, 2)

    def test_swapped_labels_rejected(self):
        grid = grid_annulus(0.25, 0.05)
        inner = bounded_complement_label(grid)
        with pytest.raises(ValidationError):
            conformal_modulus(grid, 3 - inner, inner)


class TestSolver:
    @pytest.mark.parametrize("grid", [
        lambda: grid_annulus(0.25, 0.01),
        lambda: grid_annulus(0.25, 0.005),
        lambda: moved_annulus(0.01),
        lambda: square_frame(0.01),
        lambda: grid_annulus(0.96, 0.01),    # four cells wide
        lambda: grid_annulus(0.25, 0.05),    # below the coarsest multigrid level
        lambda: off_centre_ring(0.01),
        lambda: grid_annulus(0.96, 0.005),   # eight cells wide
    ], ids=["ring-0.01", "ring-0.005", "moved-ring", "square-frame",
            "thin-ring", "coarse-ring", "off-centre-ring", "thin-band"])
    def test_matches_direct_solve(self, grid, patch_cg):
        grid = grid()
        value = ring_modulus(grid)
        patch_cg(lambda real, a, b, **kw: (splu(a.tocsc()).solve(b), 0))
        assert value == pytest.approx(ring_modulus(grid), rel=1e-12, abs=0)

    def test_iterations_bounded_at_fine_spacing(self, patch_cg):
        steps = []

        def counted(real, a, b, callback=None, **kw):
            def step(x):
                steps.append(1)
                if callback is not None:
                    callback(x)
            return real(a, b, callback=step, **kw)
        patch_cg(counted)
        ring_modulus(grid_annulus(0.25, 0.005))
        # the measured count: a preconditioner that loses precision costs
        # iterations here first
        assert 0 < len(steps) <= 14

    def test_operator_complexity(self, monkeypatch):
        # Stueben's operator complexity: the nonzeros of the stored level
        # matrices over those of the fine matrix
        hierarchies = []
        v_cycle = modulus._v_cycle
        monkeypatch.setattr(modulus, "_v_cycle", lambda levels, *args: (
            hierarchies.append(levels) or v_cycle(levels, *args)))
        grid = grid_annulus(0.25, 0.005)
        ring_modulus(grid)
        levels, matrix = hierarchies[0], modulus._SYSTEMS[grid][0]
        # the fine level is a float32 copy of the system matrix's data only
        assert np.shares_memory(levels[0][0].indices, matrix.indices)
        assert np.shares_memory(levels[0][0].indptr, matrix.indptr)
        for a, smoother, p, pt in levels:
            assert a.dtype == smoother.dtype == p.dtype == pt.dtype == np.float32
        assert sum(a.nnz for a, *_ in levels) / matrix.nnz <= 1.3

    def test_hierarchy_freed_without_cycle_collector(self):
        # a hierarchy kept alive by a reference cycle waits for a full
        # collection, and grows peak memory across repeated solves
        grid = grid_annulus(0.25, 0.02)
        ring_modulus(grid)
        gc.collect()
        gc.disable()
        try:
            ring_modulus(grid)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_second_call_reuses_the_system(self, monkeypatch):
        grid = grid_annulus(0.25, 0.02)
        first = ring_modulus(grid)
        builds = []
        build = modulus._multigrid
        monkeypatch.setattr(modulus, "_multigrid",
                            lambda *args: builds.append(1) or build(*args))
        assert ring_modulus(grid) == first
        assert builds == []
        # an equal grid is another grid, with its own system
        assert ring_modulus(grid_annulus(0.25, 0.02)) == first
        assert builds == [1]

    def test_system_goes_with_its_grid(self):
        # the cached system holds no reference to its grid, so reference
        # counting alone drops the entry
        gc.collect()
        gc.disable()
        try:
            grid = grid_annulus(0.25, 0.02)
            before = len(modulus._SYSTEMS)
            ring_modulus(grid)
            assert len(modulus._SYSTEMS) == before + 1
            del grid
            assert len(modulus._SYSTEMS) == before
        finally:
            gc.enable()

    def test_failed_solve_leaves_a_usable_system(self, patch_cg, monkeypatch):
        expected = ring_modulus(grid_annulus(0.25, 0.05))
        grid = grid_annulus(0.25, 0.05)
        patch_cg(lambda real, a, b, **kw: (np.zeros_like(b), 0))
        with pytest.raises(SolverDivergence):
            ring_modulus(grid)
        monkeypatch.undo()
        assert ring_modulus(grid) == expected

    def test_unconverged_vector_rejected(self, patch_cg):
        def perturbed(real, a, b, callback, **kw):
            x, info = real(a, b, callback=callback, **kw)
            for _ in range(3):
                callback(x)
            return x + 1e-6, info
        patch_cg(perturbed)
        with pytest.raises(SolverDivergence) as caught:
            ring_modulus(grid_annulus(0.25, 0.05))
        err = caught.value
        assert err.iterations >= 3
        assert err.residual > modulus._CG_RTOL
        assert f"after {err.iterations} iterations" in str(err)
        assert f"relative residual {err.residual:.3e}" in str(err)

    def test_exhausted_budget_rejected(self, patch_cg):
        def stalled(real, a, b, callback, maxiter, **kw):
            x = np.zeros_like(b)
            for _ in range(maxiter):
                callback(x)
            return x, maxiter
        patch_cg(stalled)
        with pytest.raises(SolverDivergence) as caught:
            ring_modulus(grid_annulus(0.25, 0.05))
        err = caught.value
        assert err.iterations == modulus._CG_MAXITER
        assert err.residual == 1.0
        assert f"code {modulus._CG_MAXITER} after {err.iterations} iterations" in str(err)


def test_import_leaves_sparse_unloaded():
    src = os.path.dirname(os.path.dirname(invmetrics.__file__))
    code = ("import sys, invmetrics; "
            "print(sorted(m for m in ('scipy.sparse', 'scipy.sparse.linalg') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
