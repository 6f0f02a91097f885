"""In-memory span tracing around the calls into each maxsurf layer.

`install(tracer)` replaces every public function the benchmark measures at
every binding where maxsurf looks it up: the defining module, every module
that imported it with ``from ... import``, and the package namespace.
Methods are wrapped on their class.  Nothing under ``src/`` is edited; the
wrappers live only in this process and `uninstall` puts the originals back.

A span records (job, name, start, end, parent).  A group's self time is the
sum of its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _size(x) -> int:
    try:
        return int(getattr(x, "size", None) or len(x))
    except TypeError:
        return 1


def _path_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Span stack, per-group self time and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [job, name, start, end, parent index]
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.job = -1
        self.enabled = False

    def enter(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append([self.job, name, perf_counter(), None, parent])
        self._stack.append([index, 0.0])
        return index

    def leave(self, index: int):
        end = perf_counter()
        top, child = self._stack.pop()
        if top != index:
            raise RuntimeError("span stack out of order")
        span = self.spans[index]
        span[3] = end
        duration = end - span[2]
        self.self_s[span[1]] += duration - child
        self.counts[span[1] + ".calls"] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def write(self, path: str):
        """Dump every span as one JSON line: job, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for job, name, start, end, parent in self.spans:
                fh.write(json.dumps([job, name, start, end, parent]) + "\n")


# Extra counters, computed from a wrapped call's arguments and result.


def _points(args, kwargs, result):
    return {"points": _size(args[1])}


def _rays(args, kwargs, result):
    return {"rays": _size(args[1]), "points": len(result)}


def _targets(args, kwargs, result):
    return {"targets": _size(args[3])}


def _roots(args, kwargs, result):
    return {"roots": len(result)}


def _ok(args, kwargs, result):
    return {"ok": 1}


def _bytes_at(i):
    def count(args, kwargs, result):
        return {"bytes": _path_bytes(args[i])}

    return count


# (module, attribute, group, counter).  A dotted attribute is a method,
# wrapped on its class.  Bytes are the size of the file read or written.
TARGETS = [
    ("annulus", "HarmonicOnAnnulus.eval", "annulus.eval", _points),
    ("annulus", "HarmonicOnAnnulus.d_z", "annulus.deriv", _points),
    ("annulus", "HarmonicOnAnnulus.d_zbar", "annulus.deriv", _points),
    ("annulus", "CircleFunction.from_samples", "annulus.circle", None),
    ("annulus", "CircleFunction.sample", "annulus.circle", None),
    ("annulus", "CircleFunction.derivative", "annulus.circle", None),
    ("annulus", "estimate_annulus", "annulus.estimate", None),
    ("surface", "conformality_residual", "surface.checks", None),
    ("surface", "is_degenerate", "surface.checks", None),
    ("surface", "special_singularity_check", "surface.checks", None),
    ("surface", "grid_points", "surface.checks", None),
    ("surface", "singular_set", "surface.singular_set", _rays),
    ("surface", "gauss_map", "surface.gauss_map", None),
    ("surface", "normal", "surface.normal", None),
    ("surface", "classify_point", "surface.classify", None),
    ("surface", "w_from_h", "surface.w_from_h", _targets),
    ("interpolation", "scalar_residual", "interpolation.residual", None),
    ("interpolation", "series_residuals", "interpolation.residual", None),
    ("interpolation", "modified_coeffs", "interpolation.residual", None),
    ("interpolation", "search_r0", "interpolation.search", _roots),
    ("interpolation", "build_surface", "interpolation.build", _ok),
    ("interpolation", "surface_from_modified", "interpolation.assemble", None),
    ("interpolation", "spacelike_margin", "interpolation.margin", None),
    ("bjorling", "validate", "bjorling.validate", None),
    ("bjorling", "solve", "bjorling.solve", None),
    ("bjorling", "assemble_harmonics", "bjorling.solve", None),
    ("bjorling", "circle_identities_report", "bjorling.reports", None),
    ("bjorling", "boundary_reproduction_errors", "bjorling.reports", None),
    ("fileio", "load_curve_spec", "fileio.read", _bytes_at(0)),
    ("fileio", "load_surface", "fileio.read", _bytes_at(0)),
    ("fileio", "save_surface", "fileio.write", _bytes_at(1)),
    ("fileio", "write_report", "fileio.write", _bytes_at(0)),
    ("fileio", "export_mesh", "fileio.write", _bytes_at(1)),
    ("fileio", "export_point_cloud", "fileio.write", _bytes_at(1)),
    ("fileio", "write_singular_csv", "fileio.write", _bytes_at(0)),
    ("cli", "main", "cli", None),
]


def _make_wrapper(tracer: Tracer, fn, group: str, key: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.counts[key] += 1
        index = tracer.enter(group)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(index)
        if counter is not None:
            for name, value in counter(args, kwargs, result).items():
                tracer.counts[f"{group}.{name}"] += value
        return result

    return wrapper


def _maxsurf_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "maxsurf" or name.startswith("maxsurf."))]


def install(tracer: Tracer) -> list:
    """Wrap every target at every binding; return what `uninstall` needs.

    A target the program no longer defines is skipped; its `fn:` count then
    stays 0, which the `info` line of a traced run shows.
    """
    modules = _maxsurf_modules()
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    undo = []
    for mod_name, attr, group, counter in TARGETS:
        home = by_name[mod_name]
        key = f"fn:{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            raw = vars(getattr(home, cls_name, object)).get(meth)
            if raw is None:
                continue
            cls = getattr(home, cls_name)
            if isinstance(raw, classmethod):
                # Argument 0 of the wrapped function is then the class.
                new = classmethod(_make_wrapper(tracer, raw.__func__, group, key, counter))
            else:
                new = _make_wrapper(tracer, raw, group, key, counter)
            setattr(cls, meth, new)
            undo.append((cls, meth, raw))
            continue
        original = getattr(home, attr, None)
        if original is None:
            continue
        wrapper = _make_wrapper(tracer, original, group, key, counter)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    undo.append((module, name, original))
    return undo


def uninstall(undo: list):
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def wrapped_keys() -> list[str]:
    return sorted({f"fn:{m}.{a}" for m, a, _, _ in TARGETS})
