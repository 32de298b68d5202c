"""The package and its scalar paths load no scipy in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r'''
import contextlib
import io
import sys


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


import invmetrics as im
assert not scipy_modules(), scipy_modules()

from invmetrics import cli
from invmetrics.conformal import AutomorphismGroupDesc, HoloSelfMap

annulus = im.Annulus(0.25)
for domain, p, q in ((im.Disk(), 0.5 + 0.1j, -0.3 + 0.5j),
                     (im.HalfPlane(), -0.5 + 0.1j, -0.3 + 0.5j),
                     (im.PuncturedDisk(), 0.5 + 0.1j, -0.3 + 0.5j),
                     (annulus, 0.5 + 0.1j, -0.3 + 0.5j)):
    im.kob_distance(domain, p, q)
    im.geodesic(domain, p, q)
im.car_interval(im.Annulus(0.1), 0.5, -0.5)
im.cartan_check(im.Disk(), im.blaschke_product([0.3]), 0)
g = AutomorphismGroupDesc(annulus).inversion(0.0)
im.watt_check(annulus, HoloSelfMap(annulus, g, dfunc=g.derivative, tag=g.tag), 0.5, 0.6)
assert im.isotropy_group(0.25, 0.5).order == 2
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["dist", "--domain", "annulus:0.1", "--p", "0.5,0", "--q", "-0.5,0"],
                 ["dist", "--domain", "annulus:0.1", "--metric", "caratheodory",
                  "--p", "0.5,0", "--q", "-0.5,0"],
                 ["cartan", "--domain", "disk", "--map", "square", "--a", "0,0"],
                 ["watt", "--domain", "annulus:0.25", "--map", "annulus-inv:0",
                  "--a", "0.5,0", "--b", "0.6,0"],
                 ["isotropy", "--r", "0.25", "--p", "0.5,0"]):
        assert cli.main(argv) == 0, argv
assert "scipy.ndimage" not in sys.modules and "scipy.sparse" not in sys.modules, \
    scipy_modules()

# the raster paths load what they need on first use
grid = im.rasterize(im.Disk(), 0.05)
assert im.connectivity_number(grid.mask) == 0
assert im.connectivity_number(im.grid_annulus(0.25, 0.05).mask) == 1
'''


def test_scalar_paths_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                            env=env, timeout=300)
    assert result.returncode == 0, result.stderr


def test_exports_resolve():
    import invmetrics

    assert [name for name in invmetrics.__all__ if not hasattr(invmetrics, name)] == []
    # wrappers deleted in favour of the code they wrapped
    gone = {"annulus_automorphisms", "injectivity_lower_bound", "poincare_geodesic",
            "winding_number"}
    assert not gone & set(invmetrics.__all__)
    assert not [name for name in gone if hasattr(invmetrics, name)]
