"""Static SVG rendering of ball rasters and their complement components."""

from __future__ import annotations

import numpy as np

from .domains import complement_holes
from .errors import ValidationError

_BALL_COLOR = "#3b6fd4"
_DOMAIN_COLOR = "#d9d9d9"
_HOLE_PALETTE = ["#e4572e", "#76b041", "#ffc914", "#a26da6", "#17bebb",
                 "#b86b2b", "#df5e88"]


def _runs(mask: np.ndarray):
    """(row, start, stop) of the True runs of a boolean raster, row by row
    and left to right within a row."""
    h, w = mask.shape
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = mask
    # each row flips an even number of times: a run's start, then its stop
    rows, flips = np.nonzero(padded[:, 1:] != padded[:, :-1])
    return zip(rows[0::2].tolist(), flips[0::2].tolist(), flips[1::2].tolist())


def render_ball_svg(domain_mask: np.ndarray, ball_mask: np.ndarray) -> str:
    """Cells as unit squares: domain, ball, and complement components.

    Complement components are colored by index so the holes a ball wraps
    are visible at a glance; the unbounded component stays white.
    """
    domain_mask, ball_mask = np.asarray(domain_mask), np.asarray(ball_mask)
    if domain_mask.ndim != 2 or domain_mask.shape != ball_mask.shape:
        raise ValidationError(f"the domain and ball masks must be 2-D and of one shape: "
                              f"{domain_mask.shape} and {ball_mask.shape}")
    h, w = domain_mask.shape
    labels, holes = complement_holes(domain_mask)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {w} {h}" width="{4 * w}" height="{4 * h}">',
        f'<rect width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    layers = [(domain_mask & ~ball_mask, _DOMAIN_COLOR),
              (ball_mask, _BALL_COLOR)]
    for i, lab in enumerate(holes):
        layers.append((labels == lab, _HOLE_PALETTE[i % len(_HOLE_PALETTE)]))
    for mask, color in layers:
        # row 0 is the minimal-imaginary row, drawn at the bottom
        parts += [f'<rect x="{x0}" y="{h - 1 - iy}" width="{x1 - x0}" height="1" '
                  f'fill="{color}"/>' for iy, x0, x1 in _runs(mask)]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
