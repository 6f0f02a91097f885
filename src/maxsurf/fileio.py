"""On-disk formats: curve specs, surface coefficient files, reports, meshes.

All outputs are deterministic text: identical inputs and configuration yield
byte-identical files.  Floats are written with 17 significant digits so that
save/load round-trips are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .annulus import COEFF_FLOOR, CircleFunction, HarmonicOnAnnulus
from .bjorling import BjorlingData
from .interpolation import SpacelikeCurve
from .surface import MaximalSurface, SingularPoint

TOOL_VERSION = "0.1.0"
COEFF_MAGIC = "maxsurf-coefficients 1"


class SpecParseError(ValueError):
    """The input file is not a well-formed curve specification."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
            if not (isinstance(row, list) and len(row) == 3):
                raise SpecParseError(f"{name}.fourier rows must be [n, re, im]")
            try:
                modes[int(row[0])] = complex(float(row[1]), float(row[2]))
            except (TypeError, ValueError, OverflowError) as exc:
                raise SpecParseError(f"bad fourier row in {name}: {exc}") from exc
        cf = CircleFunction.from_dict(modes)
    elif "samples" in obj:
        rows = obj["samples"]
        if not isinstance(rows, list) or not rows:
            raise SpecParseError(f"{name}.samples must be a non-empty list")
        try:
            values = np.array([complex(float(r), float(i)) for r, i in rows])
        except (TypeError, ValueError) as exc:
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
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SpecParseError("top level must be an object")
    kind = raw.get("kind")
    if kind not in _CURVE_FIELDS:
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
        except (TypeError, ValueError) as exc:
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
    lines = [COEFF_MAGIC]
    for tag, h in (("planar", surface.planar), ("height", surface.height)):
        outer = "inf" if not np.isfinite(h.outer_radius) else _fmt(h.outer_radius)
        lines.append(f"{tag}.annulus {_fmt(h.inner_radius)} {outer}")
        lines.append(f"{tag}.log {_fmt(h.log_coeff.real)} {_fmt(h.log_coeff.imag)}")
        n0 = h.truncation
        for i, (a, b) in enumerate(zip(h.holo, h.antiholo)):
            if abs(a) <= COEFF_FLOOR and abs(b) <= COEFF_FLOOR:
                continue
            lines.append(
                f"{tag} {i - n0} {_fmt(a.real)} {_fmt(a.imag)} "
                f"{_fmt(b.real)} {_fmt(b.imag)}"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_surface(path: str) -> MaximalSurface:
    with open(path, encoding="utf-8") as fh:
        lines = [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, 1) if ln.strip()]
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
    lo, hi = rho_range
    if not (surface.inner_radius < lo < hi < surface.outer_radius):
        raise ValueError("rho range must lie inside the annulus")
    radii = np.geomspace(lo, hi, n_rho)
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    grid = np.outer(radii, np.exp(1j * thetas))
    p = surface.planar.eval(grid.ravel())
    t = np.real(surface.height.eval(grid.ravel()))
    lines = []
    for x, y, h in zip(np.real(p), np.imag(p), t):
        lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(h)}")
    for i in range(n_rho - 1):
        for j in range(n_theta):
            j2 = (j + 1) % n_theta
            v00 = i * n_theta + j + 1
            v01 = i * n_theta + j2 + 1
            v10 = (i + 1) * n_theta + j + 1
            v11 = (i + 1) * n_theta + j2 + 1
            lines.append(f"f {v00} {v01} {v11}")
            lines.append(f"f {v00} {v11} {v10}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def export_point_cloud(
    surface: MaximalSurface,
    path: str,
    n_theta: int = 64,
    n_rho: int = 32,
    rho_range: tuple[float, float] = (0.4, 2.5),
):
    """CSV point cloud: theta,rho,x,y,t — one row per grid point."""
    lo, hi = rho_range
    if not (surface.inner_radius < lo < hi < surface.outer_radius):
        raise ValueError("rho range must lie inside the annulus")
    radii = np.geomspace(lo, hi, n_rho)
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    lines = ["theta,rho,x,y,t"]
    for rho in radii:
        z = rho * np.exp(1j * thetas)
        p = surface.planar.eval(z)
        t = np.real(surface.height.eval(z))
        for th, x, y, h in zip(thetas, np.real(p), np.imag(p), t):
            lines.append(f"{_fmt(th)},{_fmt(rho)},{_fmt(x)},{_fmt(y)},{_fmt(h)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_singular_csv(path: str, points: list[SingularPoint]):
    lines = ["theta,rho,residual,tangential"]
    for p in points:
        lines.append(
            f"{_fmt(p.theta)},{_fmt(p.rho)},{_fmt(p.residual)},"
            f"{int(p.tangential)}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
