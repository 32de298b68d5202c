#!/usr/bin/env python3
"""Render a small gallery of metric-ball rasters as SVG files.

Shows the wrapping transition of annulus balls: below the half-core
length the ball is a disk-like blob, above it the ball surrounds the
hole and picks up connectivity.  A punctured-disk ball and a half-plane
ball (on the frame around it) close the gallery.

Each ball is also checked against its uncropped reference: the distance
on every domain cell of a new frame equal to the ball's, each cell lifted
here, below the radius, with the centre's own cell in.
``kob_ball_raster`` evaluates the distance only inside the ball's
closed-form hull, on wall gaps read from the table it keeps with its
frame, so the two must agree bit for bit, with the same origin, spacing
and shape.  The script prints each mismatch and exits 1 on any.

Usage: python scripts/ball_gallery.py [OUTDIR]
"""

import math
import sys
from pathlib import Path

import numpy as np

from invmetrics.domains import Annulus, Disk, HalfPlane, PuncturedDisk, rasterize
from invmetrics.kobayashi import ball_frame, kob_ball_raster
from invmetrics.render import render_ball_svg
from invmetrics.topology import connectivity_number

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("gallery")
SPACING = 0.02


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    s = math.sqrt(0.1)
    jobs = [
        ("disk_r1.0", Disk(), 0.2 + 0.1j, 1.0),
        ("annulus_r0.5", Annulus(0.1), s, 0.5),
        ("annulus_r1.5", Annulus(0.1), s, 1.5),
        ("annulus_r2.5_wrapping", Annulus(0.1), s, 2.5),
        ("punctured_r0.8", PuncturedDisk(), 0.5 + 0.2j, 0.8),
        ("halfplane_r1.0", HalfPlane(), -0.5 + 0.3j, 1.0),
    ]
    mismatches = 0
    for name, domain, center, radius in jobs:
        ball = kob_ball_raster(domain, center, radius, SPACING)
        if isinstance(domain, HalfPlane):
            frame = ball_frame(domain, center, radius, SPACING)
        else:
            frame = rasterize(domain, SPACING)
        want = np.zeros(frame.mask.shape, dtype=bool)
        want[frame.mask] = domain.distance(domain.lift(center),
                                           domain.lift(frame.centers[frame.mask])) < radius
        ix, iy = frame.cell_index(center)
        want[iy, ix] = True
        if (ball.bits != np.packbits(want).tobytes()
                or (ball.origin, ball.spacing, ball.shape) != (frame.origin, SPACING, want.shape)):
            mismatches += 1
            print(f"MISMATCH {name}: the raster differs from its uncropped reference "
                  f"({ball.cell_count()} cells against {np.count_nonzero(want)})")
        conn = connectivity_number(ball.mask)
        path = OUT / f"{name}.svg"
        path.write_text(render_ball_svg(frame.mask, ball.mask))
        print(f"{path}  cells={ball.cell_count()}  connectivity={conn}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
