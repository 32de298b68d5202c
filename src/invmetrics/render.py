"""Static SVG rendering of ball rasters and their complement components."""

from __future__ import annotations

import numpy as np

from .domains import complement_holes

_BALL_COLOR = "#3b6fd4"
_DOMAIN_COLOR = "#d9d9d9"
_HOLE_PALETTE = ["#e4572e", "#76b041", "#ffc914", "#a26da6", "#17bebb",
                 "#b86b2b", "#df5e88"]


def _runs(row: np.ndarray):
    """(start, stop) index pairs of the True runs of a boolean row."""
    padded = np.concatenate([[False], row, [False]])
    flips = np.flatnonzero(padded[1:] != padded[:-1])
    return zip(flips[0::2], flips[1::2])


def render_ball_svg(domain_mask: np.ndarray, ball_mask: np.ndarray) -> str:
    """Cells as unit squares: domain, ball, and complement components.

    Complement components are colored by index so the holes a ball wraps
    are visible at a glance; the unbounded component stays white.
    """
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
        for iy in range(h):
            for x0, x1 in _runs(mask[iy]):
                y = h - 1 - iy  # row 0 is the minimal-imaginary row
                parts.append(
                    f'<rect x="{x0}" y="{y}" width="{x1 - x0}" height="1" '
                    f'fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
