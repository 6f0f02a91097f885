"""On-disk formats: curve specs, surface coefficient files, reports, meshes.

All outputs are deterministic text: identical inputs and configuration yield
byte-identical files.  Floats are written with 17 significant digits so that
save/load round-trips are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .annulus import COEFF_FLOOR, MAX_MODE, CircleFunction, HarmonicOnAnnulus, circle_angles
from .bjorling import BjorlingData
from .interpolation import SpacelikeCurve
from .surface import MaximalSurface, SingularPoint

TOOL_VERSION = "0.1.0"
COEFF_MAGIC = "maxsurf-coefficients 1"


class SpecParseError(ValueError):
    """The input file is not a well-formed curve specification."""


def format_rows(row: str, *columns) -> str:
    """``row % cells`` for each row of the columns, as one %-operation.

    ``row`` is a %-template ending in a newline; ``"%.17g" % x`` equals
    ``format(x, ".17g")``.  A column is a sequence or a 1-d array.
    """
    width = len(columns)
    count = len(columns[0])
    cells = [None] * (width * count)
    for j, column in enumerate(columns):
        cells[j::width] = column.tolist() if isinstance(column, np.ndarray) else column
    return (row * count) % tuple(cells)


def write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# -- curve specifications ---------------------------------------------------


def _component_from_spec(obj, name: str) -> CircleFunction:
    if not isinstance(obj, dict):
        raise SpecParseError(f"component {name!r} must be an object")
    if "fourier" in obj:
        entries = obj["fourier"]
        if not isinstance(entries, list):
            raise SpecParseError(f"{name}.fourier must be a list of [n, re, im]")
        modes = {}
        for row in entries:
            if not (isinstance(row, list) and len(row) == 3
                    and type(row[0]) is int and abs(row[0]) <= MAX_MODE):
                raise SpecParseError(f"{name}.fourier rows must be [n, re, im], "
                                     f"n an integer in [-{MAX_MODE}, {MAX_MODE}]")
            try:
                modes[row[0]] = complex(float(row[1]), float(row[2]))
            except (TypeError, ValueError, OverflowError) as exc:
                raise SpecParseError(f"bad fourier row in {name}: {exc}") from exc
        cf = CircleFunction.from_dict(modes)
    elif "samples" in obj:
        rows = obj["samples"]
        if not (isinstance(rows, list) and 0 < len(rows) <= 2 * MAX_MODE):
            raise SpecParseError(f"{name}.samples must be a list of 1 to {2 * MAX_MODE} rows")
        try:
            values = np.array([complex(float(r), float(i)) for r, i in rows])
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecParseError(f"bad sample row in {name}: {exc}") from exc
        if len(values) & (len(values) - 1):
            raise SpecParseError(f"{name}: sample count must be a power of two")
        cf = CircleFunction.from_samples(values)
    else:
        raise SpecParseError(f"component {name!r} needs 'fourier' or 'samples'")
    if not np.all(np.isfinite(cf.coeffs)):
        raise SpecParseError(f"{name}: non-finite value")
    return cf


@dataclass(frozen=True)
class CurveSpec:
    kind: str  # "curve" or "bjorling"
    label: str
    components: dict
    expected_r0: float | None = None

    def as_curve(self) -> SpacelikeCurve:
        if self.kind != "curve":
            raise SpecParseError("spec kind is not 'curve'")
        return SpacelikeCurve(self.components["planar"], self.components["height"])

    def as_bjorling(self) -> BjorlingData:
        if self.kind != "bjorling":
            raise SpecParseError("spec kind is not 'bjorling'")
        c = self.components
        return BjorlingData(
            c["curve_planar"], c["curve_height"],
            c["radial_planar"], c["radial_height"],
        )


_CURVE_FIELDS = {"curve": ("planar", "height"),
                 "bjorling": ("curve_planar", "curve_height",
                              "radial_planar", "radial_height")}


def load_curve_spec(path: str) -> CurveSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: deep nesting
        raise SpecParseError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"{path} is not UTF-8 text: {exc}") from exc
    if not isinstance(raw, dict):
        raise SpecParseError("top level must be an object")
    kind = raw.get("kind")
    if type(kind) is not str or kind not in _CURVE_FIELDS:
        raise SpecParseError(f"unknown or missing kind: {kind!r}")
    components = {}
    for name in _CURVE_FIELDS[kind]:
        if name not in raw:
            raise SpecParseError(f"missing component {name!r}")
        components[name] = _component_from_spec(raw[name], name)
    expected = raw.get("expected_r0")
    if expected is not None:
        try:
            expected = float(expected)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecParseError(f"bad expected_r0: {exc}") from exc
    return CurveSpec(
        kind=kind,
        label=str(raw.get("label", "")),
        components=components,
        expected_r0=expected,
    )


# -- surface coefficient files ----------------------------------------------


def save_surface(surface: MaximalSurface, path: str):
    """Exact-decimal text dump of both harmonic functions."""
    text = COEFF_MAGIC + "\n"
    for tag, h in (("planar", surface.planar), ("height", surface.height)):
        text += "%s.annulus %.17g %.17g\n" % (tag, h.inner_radius, h.outer_radius)
        text += "%s.log %.17g %.17g\n" % (tag, h.log_coeff.real, h.log_coeff.imag)
        a, b = h.holo, h.antiholo
        kept = (np.abs(a) > COEFF_FLOOR) | (np.abs(b) > COEFF_FLOOR)
        text += format_rows(
            tag + " %d %.17g %.17g %.17g %.17g\n",
            np.arange(-h.truncation, h.truncation + 1)[kept],
            a.real[kept], a.imag[kept], b.real[kept], b.imag[kept])
    write_text(path, text)


def load_surface(path: str) -> MaximalSurface:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, 1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"{path} is not UTF-8 text: {exc}") from exc
    if not lines or lines[0][1] != COEFF_MAGIC:
        raise SpecParseError(f"{path}: not a surface coefficient file")
    parts: dict[str, dict] = {
        "planar": {"modes": {}, "anti": {}, "log": 0j, "annulus": (0.0, np.inf)},
        "height": {"modes": {}, "anti": {}, "log": 0j, "annulus": (0.0, np.inf)},
    }
    for lineno, ln in lines[1:]:
        where = f"{path}:{lineno}"
        key, *fields = ln.split()
        tag = key.partition(".")[0]
        if tag not in parts or key not in (tag, f"{tag}.annulus", f"{tag}.log"):
            raise SpecParseError(f"{where}: unknown tag {key!r}")
        width = 5 if key == tag else 2
        if len(fields) != width:
            raise SpecParseError(f"{where}: {key!r} needs {width} fields")
        try:
            n = int(fields.pop(0)) if key == tag else None
            values = [float(x) for x in fields]
        except ValueError as exc:
            raise SpecParseError(f"{where}: {exc}") from exc
        if key == tag and abs(n) > MAX_MODE:
            raise SpecParseError(f"{where}: mode index {n} exceeds {MAX_MODE}")
        # save_surface writes an unbounded outer radius as inf.
        unbounded = key.endswith(".annulus") and values[1] == np.inf
        if not np.all(np.isfinite(values[:1] if unbounded else values)):
            raise SpecParseError(f"{where}: non-finite value")
        if key.endswith(".annulus"):
            parts[tag]["annulus"] = (values[0], values[1])
        elif key.endswith(".log"):
            parts[tag]["log"] = complex(values[0], values[1])
        else:
            parts[tag]["modes"][n] = complex(values[0], values[1])
            parts[tag]["anti"][n] = complex(values[2], values[3])

    def build(tag: str) -> HarmonicOnAnnulus:
        p = parts[tag]
        try:
            return HarmonicOnAnnulus.from_modes(
                holo=p["modes"], antiholo=p["anti"],
                log_coeff=p["log"], annulus=p["annulus"],
            )
        except ValueError as exc:
            raise SpecParseError(f"{path}: {tag}: {exc}") from exc

    return MaximalSurface(build("planar"), build("height"))


# -- reports ----------------------------------------------------------------


def write_report(path: str, payload: dict):
    body = {"tool_version": TOOL_VERSION, **payload}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- mesh / point-cloud export ---------------------------------------------


def export_grid(surface: MaximalSurface, n_theta: int, n_rho: int, rho_range):
    """Angles and log-spaced radii of the export grid, whose rows are radii."""
    lo, hi = rho_range
    if not (surface.inner_radius < lo < hi < surface.outer_radius):
        raise ValueError("rho range must lie inside the annulus")
    return circle_angles(n_theta), np.geomspace(lo, hi, n_rho)


def grid_labels(thetas, radii) -> tuple[list, list]:
    """The theta and rho columns of a radius-major grid table, as text.

    Each angle and radius is formatted once, not once per grid point.
    """
    th = ["%.17g" % t for t in thetas.tolist()]
    rh = ["%.17g" % r for r in radii.tolist()]
    return th * len(rh), [r for r in rh for _ in th]


def _sample_grid(surface: MaximalSurface, n_theta: int, n_rho: int, rho_range):
    """Angles, radii, and the flat x, y, t over the export grid, radius-major."""
    thetas, radii = export_grid(surface, n_theta, n_rho, rho_range)
    p = surface.planar.eval_polar(radii, n_theta).ravel()
    t = surface.height.eval_polar(radii, n_theta).real.ravel()
    return thetas, radii, p.real, p.imag, t


def export_mesh(
    surface: MaximalSurface,
    path: str,
    n_theta: int = 64,
    n_rho: int = 32,
    rho_range: tuple[float, float] = (0.4, 2.5),
):
    """Triangle mesh over the (rho, theta) grid in plain text.

    Vertex lines are "v x y t", faces "f i j k" with 1-based indices; the
    mesh closes in the angular direction.
    """
    _, _, xs, ys, ts = _sample_grid(surface, n_theta, n_rho, rho_range)
    # Cell (i, j) joins radii i, i+1 and angles j, j+1 (mod n_theta).
    row = np.arange(n_rho - 1)[:, None] * n_theta + 1
    j = np.arange(n_theta)
    v00, v01 = row + j, row + (j + 1) % n_theta
    v10, v11 = v00 + n_theta, v01 + n_theta
    faces = np.stack([v00, v01, v11, v00, v11, v10], axis=-1).reshape(-1, 3)
    write_text(path, format_rows("v %.17g %.17g %.17g\n", xs, ys, ts)
               + format_rows("f %d %d %d\n", *faces.T))


def export_point_cloud(
    surface: MaximalSurface,
    path: str,
    n_theta: int = 64,
    n_rho: int = 32,
    rho_range: tuple[float, float] = (0.4, 2.5),
):
    """CSV point cloud: theta,rho,x,y,t — one row per grid point."""
    thetas, radii, xs, ys, ts = _sample_grid(surface, n_theta, n_rho, rho_range)
    write_text(path, "theta,rho,x,y,t\n" + format_rows(
        "%s,%s,%.17g,%.17g,%.17g\n", *grid_labels(thetas, radii), xs, ys, ts))


def write_singular_csv(path: str, points: list[SingularPoint]):
    write_text(path, "theta,rho,residual,tangential\n" + format_rows(
        "%.17g,%.17g,%.17g,%d\n",
        [p.theta for p in points], [p.rho for p in points],
        [p.residual for p in points], [int(p.tangential) for p in points]))
