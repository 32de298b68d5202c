"""Batch command-line front end.

Outputs are deterministic: floats are printed with nine significant
digits and every random fixture is seeded.  Exit codes: 0 success, 1
usage or domain error, 2 a mathematically guaranteed property failed
(always a bug report trigger).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from . import caratheodory as car
from . import conformal as conf
from . import kobayashi as kob
from . import modulus as mod
from . import topology as top
from .domains import (
    Annulus,
    Disk,
    GridDomain,
    HalfPlane,
    PuncturedDisk,
    grid_load,
    rasterize,
)
from .errors import InvMetricsError, TheoremViolation
from .render import render_ball_svg


def fmt(x: float) -> str:
    return format(float(x), ".9g")


def _parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected RE,IM (e.g. 0.3,-0.1), got {text!r}") from exc


def _positive_finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _parse_domain(text: str):
    name, _, arg = text.partition(":")
    name = name.lower()
    if name == "disk":
        return Disk()
    if name in ("halfplane", "half-plane"):
        return HalfPlane()
    if name in ("punctured", "punctured-disk"):
        return PuncturedDisk()
    if name == "annulus":
        try:
            return Annulus(float(arg))
        except (ValueError, InvMetricsError) as exc:
            raise argparse.ArgumentTypeError(
                f"annulus needs an inner radius, e.g. annulus:0.1 ({exc})")
    if name == "grid":
        try:
            return grid_load(Path(arg).read_bytes())
        except (OSError, ValueError, InvMetricsError) as exc:
            raise argparse.ArgumentTypeError(f"cannot load grid file: {exc}")
    raise argparse.ArgumentTypeError(
        f"unknown domain {text!r}; use disk, halfplane, punctured, "
        "annulus:R, or grid:PATH")


def _parse_grid(text: str) -> GridDomain:
    domain = _parse_domain(text)
    if not isinstance(domain, GridDomain):
        raise argparse.ArgumentTypeError(f"expected grid:PATH, got {text!r}")
    return domain


def _parse_selfmap(text: str, domain):
    """The self-map ``text`` names on ``domain``.  Its command reads it, once
    --domain is known; a malformed ``text`` raises ArgumentTypeError."""
    name, _, arg = text.partition(":")
    name = name.lower()

    def number() -> float:
        try:
            return float(arg)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"map {text!r} needs a number after the colon") from None
    if name == "identity":
        return conf.HoloSelfMap(domain, lambda z: np.asarray(z, complex),
                                dfunc=lambda z: 1.0, tag="identity")
    if name == "square":
        return conf.HoloSelfMap(domain, lambda z: np.asarray(z, complex) ** 2,
                                tag="square")
    if name == "rot":
        theta = number()
        phase = complex(math.cos(theta), math.sin(theta))
        return conf.HoloSelfMap(domain, lambda z: phase * np.asarray(z, complex),
                                dfunc=lambda z: phase, tag=f"rot:{arg}")
    if name == "blaschke":
        a = _parse_complex(arg)
        return conf.blaschke_product([a])
    if name == "annulus-rot":
        if not isinstance(domain, Annulus):
            raise argparse.ArgumentTypeError(f"map {text!r} needs --domain annulus:R")
        g = conf.AutomorphismGroupDesc(domain).rotation(number())
        return conf.HoloSelfMap(domain, g, dfunc=g.derivative, tag=g.tag)
    if name == "annulus-inv":
        if not isinstance(domain, Annulus):
            raise argparse.ArgumentTypeError(f"map {text!r} needs --domain annulus:R")
        g = conf.AutomorphismGroupDesc(domain).inversion(number())
        return conf.HoloSelfMap(domain, g, dfunc=g.derivative, tag=g.tag)
    raise argparse.ArgumentTypeError(
        f"unknown map {text!r}; use identity, square, rot:THETA, "
        "blaschke:RE,IM, annulus-rot:THETA, or annulus-inv:THETA")


class _Removed(argparse.Action):
    """An option that is gone: any use of it is a usage error that says why."""

    def __init__(self, option_strings, dest, reason, **kwargs):
        super().__init__(option_strings, dest, default=argparse.SUPPRESS,
                         help=argparse.SUPPRESS, **kwargs)
        self.reason = reason

    def __call__(self, parser, namespace, values, option_string=None):
        raise argparse.ArgumentError(self, self.reason)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit(self.usage_error(message))

    def usage_error(self, message) -> int:
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        return 1


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_dist(args) -> int:
    domain = args.domain
    if args.metric == "kobayashi":
        interval = kob.kob_distance(domain, args.p, args.q)
    else:
        interval = car.car_interval(domain, args.p, args.q)
    if args.format == "csv":
        text = ("metric,lower,upper,certified\n"
                f"{args.metric},{fmt(interval.lower)},{fmt(interval.upper)},"
                f"{str(interval.certified).lower()}\n")
    else:
        text = (f"metric: {args.metric}\n"
                f"lower: {fmt(interval.lower)}\n"
                f"upper: {fmt(interval.upper)}\n"
                f"certified: {str(interval.certified).lower()}\n")
    _emit(text, args.out)
    return 0


def _cmd_ball(args) -> int:
    domain = args.domain
    if args.metric == "kobayashi":
        ball = kob.kob_ball_raster(domain, args.center, args.radius, args.spacing)
        # the svg's domain layer: the half-plane ball's own frame, otherwise
        # the domain's raster, made only for svg output
        grid = ball if isinstance(domain, HalfPlane) else None
    else:
        report = car.car_ball_components(domain, args.center, args.radius,
                                         spacing=args.spacing)
        grid = domain if isinstance(domain, GridDomain) \
            else rasterize(domain, args.spacing)
        ball = kob.MetricBall(domain=domain, center=args.center,
                              radius=args.radius,
                              metric="caratheodory-approximant",
                              origin=grid.origin, spacing=grid.spacing,
                              mask=report.ball_mask)
    conn = top.connectivity_number(ball.mask)
    lines = [f"metric: {ball.metric}",
             f"cells: {ball.cell_count()}",
             f"connectivity_number: {conn}"]
    text = "\n".join(lines) + "\n"
    if args.format == "svg":
        if grid is None:
            grid = rasterize(domain, args.spacing)
        _emit(render_ball_svg(grid.mask, ball.mask), args.out)
        sys.stdout.write(text)
    elif args.format == "grid":
        _emit(kob.ball_save(ball).decode("utf-8"), args.out)
        sys.stdout.write(text)
    else:
        _emit(text, args.out)
    return 0


def _cmd_separate(args) -> int:
    grid = args.grid
    labels, holes = grid.complement
    k1, k2 = args.k1, args.k2
    if k1 is None or k2 is None:
        if not holes:
            raise InvMetricsError("the grid has no bounded complement component")
        k1 = k1 if k1 is not None else holes[0]
        k2 = k2 if k2 is not None else (holes[1] if len(holes) > 1 else int(labels[0, 0]))
    poly = top.separating_cycle(grid, k1, k2)
    lines = [f"k1: {k1}", f"k2: {k2}", f"vertices: {len(poly)}"]
    field = poly.winding_field(labels.shape)
    for lab, name in ((k1, "k1"), (k2, "k2")):
        values = np.unique(field[labels == lab]).tolist()
        lines.append(f"winding_{name}: {' '.join(str(v) for v in values)}")
    text = "\n".join(lines) + "\n" + poly.to_text()
    _emit(text, args.out)
    return 0


def _cmd_nerve(args) -> int:
    domain = args.domain
    ball = kob.kob_ball_raster(domain, args.center, args.radius, args.spacing)
    nerve = top.nerve_cover(domain, ball, args.cover_radius)
    conn = top.connectivity_number(ball.mask)
    text = (f"connectivity_number: {conn}\n"
            f"cycle_rank: {nerve.cycle_rank}\n"
            f"graph_cycle_rank: {nerve.graph_cycle_rank}\n"
            f"vertices: {nerve.vertex_count}\n"
            f"edges: {nerve.edge_count}\n"
            f"match: {str(conn == nerve.cycle_rank).lower()}\n")
    _emit(text, args.out)
    return 0


def _cmd_modulus(args) -> int:
    if isinstance(args.domain, GridDomain):
        grid = args.domain
    else:
        if args.spacing is None:
            raise InvMetricsError("catalog domains need --spacing")
        grid = rasterize(args.domain, args.spacing)
    inner = mod.bounded_complement_label(grid)
    modulus = mod.conformal_modulus(grid, inner, 3 - inner)
    rhat = mod.canonical_annulus_radius(modulus)
    text = (f"modulus: {fmt(modulus)}\n"
            f"canonical_inner_radius: {fmt(rhat)}\n")
    _emit(text, args.out)
    return 0


def _cmd_isotropy(args) -> int:
    report = conf.isotropy_group(args.r, args.p)
    _emit(report.to_text(), args.out)
    return 0


def _cmd_watt(args) -> int:
    f = _parse_selfmap(args.map, args.domain)
    verdict = conf.watt_check(args.domain, f, args.a, args.b, args.tol)
    _emit(verdict.to_text(), args.out)
    return 0


def _cmd_cartan(args) -> int:
    f = _parse_selfmap(args.map, args.domain)
    report = conf.cartan_check(args.domain, f, args.a, args.tol)
    _emit(report.to_text(), args.out)
    return 0


def _cmd_verify_all(args) -> int:
    results, code = acceptance.run_all(quick=args.quick)
    if args.out:
        Path(args.out).write_text(
            "".join(r.line() + "\n" for r in results), encoding="utf-8")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="invmetrics",
                     description="Invariant metrics on hyperbolic planar domains")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write the report to a file")

    p = sub.add_parser("dist", help="distance interval between two points")
    p.add_argument("--domain", type=_parse_domain, required=True)
    p.add_argument("--metric", choices=["kobayashi", "caratheodory"],
                   default="kobayashi")
    p.add_argument("--p", type=_parse_complex, required=True)
    p.add_argument("--q", type=_parse_complex, required=True)
    p.add_argument("--tol", action=_Removed,
                   reason="dist takes no tolerance; the interval's width comes "
                          "from the kernel's error bound")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    add_common(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("ball", help="rasterize a metric ball")
    p.add_argument("--domain", type=_parse_domain, required=True)
    p.add_argument("--center", type=_parse_complex, required=True)
    p.add_argument("--radius", type=_positive_finite, required=True)
    p.add_argument("--spacing", type=_positive_finite, required=True)
    p.add_argument("--metric", choices=["kobayashi", "caratheodory"],
                   default="kobayashi")
    p.add_argument("--format", choices=["text", "svg", "grid"], default="text")
    add_common(p)
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("separate", help="separating polygon with winding table")
    p.add_argument("--grid", type=_parse_grid, required=True,
                   help="grid:PATH domain descriptor")
    p.add_argument("--k1", type=int, default=None)
    p.add_argument("--k2", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("nerve", help="nerve cycle rank vs ball connectivity")
    p.add_argument("--domain", type=_parse_domain, required=True)
    p.add_argument("--center", type=_parse_complex, required=True)
    p.add_argument("--radius", type=_positive_finite, required=True)
    p.add_argument("--spacing", type=_positive_finite, required=True)
    p.add_argument("--cover-radius", type=_positive_finite, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_nerve)

    p = sub.add_parser("modulus", help="doubly-connected canonical radius")
    p.add_argument("--domain", type=_parse_domain, required=True)
    p.add_argument("--spacing", type=_positive_finite, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_modulus)

    p = sub.add_parser("isotropy", help="annulus isotropy group of a point")
    p.add_argument("--r", type=_positive_finite, required=True)
    p.add_argument("--p", type=_parse_complex, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_isotropy)

    p = sub.add_parser("watt", help="equal-distance automorphism criterion")
    p.add_argument("--domain", type=_parse_domain, required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--a", type=_parse_complex, required=True)
    p.add_argument("--b", type=_parse_complex, required=True)
    p.add_argument("--tol", type=_positive_finite, default=1e-6)
    add_common(p)
    p.set_defaults(func=_cmd_watt)

    p = sub.add_parser("cartan", help="fixed-point derivative bound")
    p.add_argument("--domain", type=_parse_domain, required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--a", type=_parse_complex, required=True)
    p.add_argument("--tol", type=_positive_finite, default=1e-6)
    add_common(p)
    p.set_defaults(func=_cmd_cartan)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true",
                   help="smaller samples and rasters")
    add_common(p)
    p.set_defaults(func=_cmd_verify_all)

    return parser


_COMPLEX_FLAGS = {"--p", "--q", "--center", "--a", "--b"}
_COMPLEX_LITERAL = __import__("re").compile(
    r"^-?\d*\.?\d+(?:[eE][-+]?\d+)?,-?\d*\.?\d+(?:[eE][-+]?\d+)?$")


def _join_complex_literals(argv):
    """Merge '--p -0.3,0' into '--p=-0.3,0' so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _COMPLEX_FLAGS and i + 1 < len(argv) \
                and _COMPLEX_LITERAL.match(argv[i + 1]):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_complex_literals(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        # from --map, which its command reads once --domain is known
        return parser.usage_error(f"argument --map: {exc}")
    except TheoremViolation as exc:
        print(f"TheoremViolation: {exc}", file=sys.stderr)
        return 2
    except InvMetricsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
