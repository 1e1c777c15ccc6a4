"""Spans around the lab's module boundaries, recorded from outside the program.

`Tracer.install` replaces the names through which one module calls another
(for example `lab_cli.assemble`, `navier.assemble`, `DiffeoField.physical_y`)
by wrappers that open a span, call the original and close the span.  Calls
inside a module are not split, so a layer's self time includes its own
private helpers.  `superlu` is the program's calls into
`scipy.sparse.linalg.splu` and into the returned factor's `solve`.

Each span records its name, start, end, parent, the process's RSS
high-water mark at both ends and a few counts.  Spans stay in memory until
the run ends; `layer_metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import time

# (module, attribute, span name); every module that calls into another layer
# gets its own wrapper, so a layer is timed wherever it is used
_SITES = (
    ("steklov_lab.lab_cli", "assemble", "assembly.assemble"),
    ("steklov_lab.navier", "assemble", "assembly.assemble"),
    ("steklov_lab.lab_cli", "assemble_boundary_factor", "assembly.boundary_factor"),
    ("steklov_lab.lab_cli", "assemble_navier_load", "assembly.navier_load"),
    ("steklov_lab.navier", "assemble_navier_load", "assembly.navier_load"),
    ("steklov_lab.lab_cli", "sobolev_forms", "assembly.sobolev_forms"),
    ("steklov_lab.lab_cli", "build_diffeo", "profile_geometry.build_diffeo"),
    ("steklov_lab.lab_cli", "fit_kappa_layer", "profile_geometry.fit_kappa_layer"),
    ("steklov_lab.profile_geometry", "DiffeoField.physical_y",
     "profile_geometry.physical_y"),
    ("steklov_lab.lab_cli", "solve_steklov", "spectral.solve_steklov"),
    ("steklov_lab.lab_cli", "solve_navier", "navier.solve_navier"),
    ("steklov_lab.lab_cli", "solve_cell", "cell_problem.solve_cell"),
    ("steklov_lab.lab_cli", "build_mesh", "mesh"),
    ("steklov_lab.lab_cli", "mark_essential", "mesh"),
    ("steklov_lab.navier", "mark_essential", "mesh"),
    ("steklov_lab.mesh", "DofMap.unconstrained", "mesh"),
    ("steklov_lab.lab_cli", "emit", "lab_cli.emit"),
    ("scipy.sparse.linalg", "splu", "superlu.factor"),
)

ROOT = "lab_cli"

# layers whose RSS high-water growth is reported, by span-name prefix
RSS_LAYERS = ("assembly", "spectral", "superlu")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "rss_start", "rss_end",
                 "count")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.count = 0
        self.rss_start = _maxrss_mb()
        self.end = self.rss_end = None
        self.start = time.perf_counter()


class _TracedFactor:
    """A SuperLU factor whose `solve` is spanned; other attributes pass
    through to the factor."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        span = self._tracer.open("superlu.solve")
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            self._tracer.close(span)
            span.count = 1 if getattr(rhs, "ndim", 1) == 1 else rhs.shape[1]

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans; `on_call` hooks see every wrapped call's arguments and
    result after its span closed, so what they do is not timed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.on_call = {}

    def open(self, name) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        span.rss_end = _maxrss_mb()
        self._stack.pop()

    def _wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if name == "superlu.factor":
                span.count = out.nnz
                out = _TracedFactor(out, tracer)
            elif name == "profile_geometry.physical_y":
                span.count = getattr(args[1], "size", 1)
            hook = tracer.on_call.get(name)
            if hook is not None:
                hook(args, kwargs, out)
            return out
        return traced

    def install(self):
        for module, path, name in _SITES:
            owner = importlib.import_module(module)
            *inner, attr = path.split(".")
            for part in inner:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            new = self._wrapper(fn, name)
            setattr(owner, attr, staticmethod(new)
                    if isinstance(raw, staticmethod) else new)
            self._undo.append((owner, attr, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans) -> dict:
    """Aggregate spans into `<span>.s` (self seconds), `<span>.calls`, the
    counts and `<layer>.rss_rise_mb`; the root's self time is
    `lab_cli.self_s`."""
    own = self_times(spans)
    out = {}
    for s, t in zip(spans, own):
        key = "lab_cli.self_s" if s.name == ROOT else f"{s.name}.s"
        out[key] = out.get(key, 0.0) + t
        if s.name != ROOT:
            out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
    for s in spans:
        if s.name == "superlu.solve":
            out["superlu.solve.rhs"] = out.get("superlu.solve.rhs", 0) + s.count
        elif s.name == "superlu.factor":
            out["superlu.factor.fill_nnz_max"] = max(
                out.get("superlu.factor.fill_nnz_max", 0), s.count)
        elif s.name == "profile_geometry.physical_y":
            out["profile_geometry.physical_y.points"] = out.get(
                "profile_geometry.physical_y.points", 0) + s.count
    # a layer's RSS rise counts each outermost span of that layer once
    for layer in RSS_LAYERS:
        rise = 0.0
        for s in spans:
            if _layer(s.name) != layer:
                continue
            p = s.parent
            while p >= 0 and _layer(spans[p].name) != layer:
                p = spans[p].parent
            if p < 0:
                rise += s.rss_end - s.rss_start
        out[f"{layer}.rss_rise_mb"] = rise
    return out
