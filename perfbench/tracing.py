"""Spans and counters for the traced run, installed from outside the library.

``instrument(tracer, lib)`` rebinds the library's module functions (in
every ``invmetrics`` module that imported them), a few class attributes,
and the scipy entry points the library calls (``cg``, ``dijkstra``) to
wrappers that record one span per call: op id, span id, parent span id,
name, start and end.  The wrappers also count work at the same
boundaries: elements, cells, sources, CG iterations (through a CG
callback), nerve sizes, graph-cache hits.

Five kernels run far too often for one span per call (``rho_vec``,
``contains_vec`` and the atlas's ``model_distance``, ``model_distance_vec``
and ``tail_bound``: the scalar deck loop calls them tens of thousands of
times in one failing call).  They are timed and counted in aggregate, and
their time is charged to the enclosing span so that its self time still
excludes them.

A name that no longer exists in the library is skipped and reported as
absent.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from functools import cached_property

import numpy as np

DOMAIN_SUFFIX = {"Disk": "disk", "HalfPlane": "halfplane", "PuncturedDisk": "punctured",
                 "Annulus": "annulus", "GridDomain": "grid"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: op, id, parent, name id, start ns, end ns, child ns
        self.spans: list[tuple] = []
        self.stack: list[list] = []      # [span id, child ns]
        self.op_id = -1
        self.next_id = 0
        self.counts = defaultdict(float)
        self.kernel_depth = 0
        self.lift_depth = 0
        self.absent: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, after=None, label=None):
        """Wrap ``fn`` so each call records a span; ``after(args, kwargs,
        result)`` counts work; ``label(args)`` refines the span name."""
        tracer = self
        fixed_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = tracer.name_id(f"{name}.{label(args)}") if label else fixed_id
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [tracer.next_id, 0]
            tracer.next_id += 1
            tracer.stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                if parent is not None:
                    parent[1] += end - start
                tracer.spans.append((tracer.op_id, frame[0],
                                     parent[0] if parent else -1, nid, start, end, frame[1]))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def kernel(self, name: str, fn, elems):
        """Wrap a hot kernel: aggregate calls, time and elements, no span."""
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.kernel_depth += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter_ns() - start
                tracer.kernel_depth -= 1
                if tracer.kernel_depth == 0 and tracer.stack:
                    tracer.stack[-1][1] += spent
            n = elems(args, result)
            counts[f"{name}.calls"] += 1
            counts[f"{name}.ns"] += spent
            counts[f"{name}.elems"] += n
            if tracer.lift_depth:
                counts[f"{name}.in_lift.calls"] += 1
                counts[f"{name}.in_lift.elems"] += n
            return result

        return wrapper


def _rebind(lib_modules, original, replacement):
    """Point every library module name bound to ``original`` at ``replacement``."""
    for module in lib_modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(tracer: Tracer, lib) -> None:
    mods = [m for name, m in sys.modules.items()
            if name == "invmetrics" or name.startswith("invmetrics.")]
    counts = tracer.counts

    def fn(module, attr, name, after=None, label=None):
        original = getattr(module, attr, None)
        if original is None:
            tracer.absent.append(name)
            return
        _rebind(mods, original, tracer.span(name, original, after, label))

    def method(cls, attr, wrap):
        original = cls.__dict__.get(attr)
        if original is None:
            tracer.absent.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, wrap(original))

    def size(x):
        return int(np.size(x))

    # domains
    d = lib.domains
    fn(d, "rasterize", "domains.rasterize")
    fn(d, "grid_load", "domains.grid_load")
    prop = d.GridDomain.__dict__.get("dist_to_complement_cells")
    if isinstance(prop, cached_property):
        new = cached_property(tracer.span("domains.dist_transform", prop.func))
        new.__set_name__(d.GridDomain, "dist_to_complement_cells")
        d.GridDomain.dist_to_complement_cells = new
    else:
        tracer.absent.append("domains.dist_transform")
    if hasattr(d, "contains_vec"):
        _rebind(mods, d.contains_vec, tracer.kernel(
            "domains.contains_vec", d.contains_vec, lambda a, r: size(r)))
    else:
        tracer.absent.append("domains.contains_vec")

    # poincare kernel and the atlas methods around it
    p = lib.poincare
    if hasattr(p, "rho_vec"):
        _rebind(mods, p.rho_vec, tracer.kernel(
            "poincare.rho_vec", p.rho_vec, lambda a, r: size(r)))
    else:
        tracer.absent.append("poincare.rho_vec")
    atlas = getattr(d, "CoveringAtlas", None)
    for attr in ("model_distance", "model_distance_vec", "tail_bound"):
        if atlas is None or attr not in atlas.__dict__:
            tracer.absent.append(f"CoveringAtlas.{attr}")
            continue
        setattr(atlas, attr, tracer.kernel(
            f"kobayashi.{attr}", atlas.__dict__[attr],
            (lambda a, r: 1) if attr == "tail_bound" else (lambda a, r: size(r))))

    # kobayashi
    k = lib.kobayashi

    def enter_lift(original):
        def lifted(*args, **kwargs):
            counts["kobayashi.lift.calls"] += 1
            tracer.lift_depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                tracer.lift_depth -= 1
        return functools.wraps(original)(lifted)

    def lift_rows(args, kwargs, result):
        counts["kobayashi.lift.rows"] += size(result)

    for attr in ("lift_infimum", "lift_infimum_vec"):
        if hasattr(k, attr):
            _rebind(mods, getattr(k, attr), tracer.span(
                f"kobayashi.{attr}", enter_lift(getattr(k, attr)), lift_rows))
        else:
            tracer.absent.append(f"kobayashi.{attr}")

    fn(k, "kob_distance", "kobayashi.kob_distance",
       label=lambda a: DOMAIN_SUFFIX.get(type(a[0]).__name__, "other"))

    def cells(args, kwargs, result):
        counts["kobayashi.distance_field.cells"] += size(result)
    fn(k, "distance_field", "kobayashi.distance_field", cells)
    fn(k, "ball_save", "kobayashi.ball_save")
    fn(k, "inner_distance_many", "kobayashi.inner_distance_many")
    cache = getattr(k, "_GRID_GRAPH_CACHE", None)
    graph = getattr(k, "_grid_graph", None)
    if graph is not None and cache is not None:
        spanned = tracer.span("kobayashi.grid_graph", graph)

        def grid_graph(grid):
            counts["kobayashi.grid_graph.hits"] += grid in cache
            return spanned(grid)
        _rebind(mods, graph, functools.wraps(graph)(grid_graph))
    else:
        tracer.absent.append("kobayashi.grid_graph")

    def sources(args, kwargs, result):
        indices = kwargs.get("indices", args[3] if len(args) > 3 else None)
        counts["kobayashi.dijkstra.sources"] += size(indices) if indices is not None \
            else args[0].shape[0]
    fn(k, "_csgraph_dijkstra", "kobayashi.dijkstra", sources)

    # caratheodory
    c = lib.caratheodory
    fn(c, "default_dictionary", "caratheodory.default_dictionary")

    def entry_points(args, kwargs, result):
        counts["caratheodory.car_lower_field.entry_pts"] += len(args[0].entries) * size(result)
    fn(c, "car_lower_field", "caratheodory.car_lower_field", entry_points)
    fn(c, "car_ball_components", "caratheodory.car_ball_components")

    # topology
    t = lib.topology

    def nerve_sizes(args, kwargs, result):
        counts["topology.nerve_cover.centers"] += len(result.centers)
        counts["topology.nerve_cover.edges"] += len(result.edges)
        counts["topology.nerve_cover.triangles"] += len(result.triangles)
    fn(t, "nerve_cover", "topology.nerve_cover", nerve_sizes)
    fn(t, "separating_cycle", "topology.separating_cycle")
    fn(t, "connectivity_number", "topology.connectivity_number")

    # modulus, with CG iterations counted through its callback
    m = lib.modulus
    fn(m, "conformal_modulus", "modulus.conformal_modulus")
    cg = getattr(m, "cg", None)
    if cg is not None:
        def counted_cg(a, b, *args, callback=None, **kwargs):
            counts["modulus.unknowns"] += a.shape[0]

            def step(xk):
                counts["modulus.cg.iters"] += 1
                if callback is not None:
                    callback(xk)
            return cg(a, b, *args, callback=step, **kwargs)
        _rebind(mods, cg, tracer.span("modulus.cg", functools.wraps(cg)(counted_cg)))
    else:
        tracer.absent.append("modulus.cg")

    # conformal: construction includes the 0.04 validation raster
    conf = lib.conformal
    method(conf.HoloSelfMap, "__post_init__",
           lambda f: tracer.span("conformal.HoloSelfMap", f))
    fn(conf, "cartan_check", "conformal.check")
    fn(conf, "watt_check", "conformal.check")

    fn(lib.render, "render_ball_svg", "render.render_ball_svg")
    fn(lib.cli, "main", "cli.main")


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, total and self nanoseconds."""
    stats = defaultdict(lambda: [0, 0, 0])
    for _op, _sid, _parent, nid, start, end, child in tracer.spans:
        s = stats[tracer.names[nid]]
        s[0] += 1
        s[1] += end - start
        s[2] += end - start - child
    return {name: {"calls": c, "ns": ns, "self_ns": self_ns}
            for name, (c, ns, self_ns) in stats.items()}


def layer_metrics(tracer: Tracer, import_s: float, ops: int) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from spans and counters.

    Times are means per call of the named function (self time where the
    name says so); counts are per call of the function that produces them,
    except ``rho_vec.elems``, which is per op.  A metric whose function was
    not called in this workload reads 0.
    """
    spans = summarize(tracer)
    c = tracer.counts

    def per_call(name, scale, key="ns"):
        s = spans.get(name)
        return s[key] / s["calls"] / scale if s and s["calls"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    calls = lambda name: spans.get(name, {}).get("calls", 0)  # noqa: E731
    lift_calls = c["kobayashi.lift.calls"]
    evaluated = (c["kobayashi.model_distance.in_lift.elems"]
                 + c["kobayashi.model_distance_vec.in_lift.elems"])
    out = {
        "import.s": import_s,
        "domains.rasterize.ms": per_call("domains.rasterize", 1e6),
        "domains.grid_load.ms": per_call("domains.grid_load", 1e6),
        "domains.dist_transform.ms": per_call("domains.dist_transform", 1e6),
        "domains.contains_vec.ns_per_pt": ratio(c["domains.contains_vec.ns"],
                                                c["domains.contains_vec.elems"]),
        "poincare.rho_vec.elems": ratio(c["poincare.rho_vec.elems"], ops),
        "poincare.rho_vec.ns_per_elem": ratio(c["poincare.rho_vec.ns"],
                                              c["poincare.rho_vec.elems"]),
        "kobayashi.distance_field.ns_per_cell": ratio(
            spans.get("kobayashi.distance_field", {}).get("ns", 0),
            c["kobayashi.distance_field.cells"]),
        "kobayashi.lift_infimum_vec.ms": per_call("kobayashi.lift_infimum_vec", 1e6),
        "kobayashi.deck_levels": ratio(c["kobayashi.tail_bound.in_lift.calls"], lift_calls),
        "kobayashi.deck_useful_ratio": ratio(c["kobayashi.lift.rows"], evaluated),
    }
    for suffix in ("disk", "halfplane", "punctured", "annulus", "grid"):
        out[f"kobayashi.kob_distance.us.{suffix}"] = per_call(
            f"kobayashi.kob_distance.{suffix}", 1e3)
    out.update({
        "kobayashi.grid_graph.ms": per_call("kobayashi.grid_graph", 1e6),
        "kobayashi.grid_graph.hit_ratio": ratio(c["kobayashi.grid_graph.hits"],
                                                calls("kobayashi.grid_graph")),
        "kobayashi.dijkstra.ms": per_call("kobayashi.dijkstra", 1e6),
        "kobayashi.dijkstra.sources": ratio(c["kobayashi.dijkstra.sources"],
                                            calls("kobayashi.dijkstra")),
        "kobayashi.inner_distance_many.ms": per_call("kobayashi.inner_distance_many", 1e6),
        "kobayashi.ball_save.ms": per_call("kobayashi.ball_save", 1e6),
        "caratheodory.default_dictionary.ms": per_call("caratheodory.default_dictionary", 1e6),
        "caratheodory.car_lower_field.ns_per_entry_pt": ratio(
            spans.get("caratheodory.car_lower_field", {}).get("ns", 0),
            c["caratheodory.car_lower_field.entry_pts"]),
        "caratheodory.car_ball_components.ms": per_call("caratheodory.car_ball_components", 1e6),
        "topology.nerve_cover.self_ms": per_call("topology.nerve_cover", 1e6, "self_ns"),
    })
    nerves = calls("topology.nerve_cover")
    for part in ("centers", "edges", "triangles"):
        out[f"topology.nerve_cover.{part}"] = ratio(c[f"topology.nerve_cover.{part}"], nerves)
    cgs = calls("modulus.cg")
    out.update({
        "topology.separating_cycle.ms": per_call("topology.separating_cycle", 1e6),
        "topology.connectivity_number.ms": per_call("topology.connectivity_number", 1e6),
        "modulus.conformal_modulus.ms": per_call("modulus.conformal_modulus", 1e6),
        "modulus.cg.ms": per_call("modulus.cg", 1e6),
        "modulus.cg.iters": ratio(c["modulus.cg.iters"], cgs),
        "modulus.unknowns": ratio(c["modulus.unknowns"], cgs),
        "conformal.HoloSelfMap.us": per_call("conformal.HoloSelfMap", 1e3),
        "conformal.check.us": per_call("conformal.check", 1e3),
        "render.render_ball_svg.ms": per_call("render.render_ball_svg", 1e6),
        "cli.main.us": per_call("cli.main", 1e3, "self_ns"),
    })
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Spans as columns (names interned), for offline analysis."""
    import json

    cols = list(zip(*tracer.spans)) if tracer.spans else [()] * 7
    keys = ("op", "id", "parent", "name", "start_ns", "end_ns", "child_ns")
    payload = {"names": tracer.names, "absent": tracer.absent,
               "counts": dict(tracer.counts),
               **{k: list(v) for k, v in zip(keys, cols)}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
