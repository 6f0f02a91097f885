"""On-disk formats: curve specs, surface coefficient files, reports, meshes.

All outputs are deterministic text: identical inputs and configuration yield
byte-identical files.  Floats are written with 17 significant digits so that
save/load round-trips are exact.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
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


def finite_number(value) -> bool:
    """A finite JSON number; a bool is not one, and a huge int is not finite."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def format_rows(row: str, *columns) -> str:
    """``row % cells`` for each row of the columns, as one %-operation.

    ``row`` is a %-template ending in a newline; ``"%.17g" % x`` equals
    ``format(x, ".17g")``.  A column is a sequence or a 1-d array; a bytes
    array (as from grid_labels) holds ASCII text for %s.
    """
    width = len(columns)
    count = len(columns[0])
    cells = [None] * (width * count)
    for j, column in enumerate(columns):
        if isinstance(column, np.ndarray):
            column = column.astype(str) if column.dtype.kind == "S" else column
            column = column.tolist()
        cells[j::width] = column
    return (row * count) % tuple(cells)


# Tables of at least this many rows are formatted by the kernels; smaller
# ones by %.  For %.17g tables the two cost the same at about 256 rows
# (2-core Linux VM, lower quartile of 300 calls: mesh vertices 0.49 against
# 0.51 ms, point-cloud CSV 0.55 against 0.59 ms, Gauss-map CSV 0.49 against
# 0.47 ms); at 512 rows the kernel takes 0.56-0.66 of the time of %, at 128
# rows 1.1-1.9 times it.  Int-only tables ("f %d %d %d\n") cross later, at
# about 384 rows: the kernel takes 1.29 times the time of % at 256 rows
# (0.074 against 0.057 ms), 1.02 at 384, 0.88 at 512 and 0.40 at 65,024.
# The singular-set CSV, whose residuals are mostly below 1e-6 and so take
# format_g17's fallback, crosses at about 1,024 rows: 1.48 times at 256,
# 0.95 at 1,024.  Neither costs more than 0.2 ms at 256 rows.
KERNEL_ROWS = 256
# Rows per block that write_rows formats and writes at once.  Whole 256 x 128
# tables made megabyte strings whose release let the heap shrink, so that the
# next job faulted its pages back in (about 700 minor faults, 1 ms).
BLOCK_ROWS = 4096

_CONVERSION = re.compile(r"%(?:\.17g|[ds])")
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_POW10 = 10.0 ** np.arange(23)  # every power up to 1e22 is an exact double


def _lanes(texts) -> np.ndarray:
    """Each ASCII text NUL-padded to 8 bytes, as one uint64."""
    return np.array([t.ljust(8, b"\0") for t in texts], dtype="S8").view(np.uint64)


@functools.cache  # built on first use: 0.8 MB that runs without a large table never need
def _g17_tables():
    """The byte layouts of format_g17, one per exponent X in [-6, 16].

    X of -6 and -5 take the exponent form; the others the fixed form,
    with the decimal point after digit X (X >= 0) or "0." and -1 - X zeros
    before the digits (X < 0).  A lane may hold NULs anywhere.
    """
    exps = range(-6, 17)
    fixed = [x >= -4 for x in exps]
    # The digit after which the point goes; 0 also stands for "before the
    # digits", which the lead lane of X < 0 writes.
    dot = np.maximum(exps, 0)
    # The exponent shares the last group's lane, whose digits (with no point
    # in the exponent form) fill bytes 0-3.
    suffix = _lanes([b"" if f else b"\0\0\0\0e%+03d" % x for x, f in zip(exps, fixed)])
    # Lead lane: sign, "0.00..." of X < 0, the leading digit, and the point if
    # it follows that digit and some fraction digit is not 0.
    lead = _lanes([(b"-" if neg else b"") + (b"0." + b"0" * (-1 - x) if f and x < 0 else b"")
                   + b"%d" % d + (b"." if point and (x >= 0 or not f) else b"")
                   for x, f in zip(exps, fixed) for neg in (0, 1) for d in range(10)
                   for point in (0, 1)])
    # Group lanes, (2k + s) * 10000 + g: the four digits of g with the point
    # after the first k (k = 0: no point); with s, the zeros that end the
    # number are NUL, and so is the point when no digit follows it.
    digits = (np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + 48).astype(np.uint8)
    groups = np.zeros((5, 2, 10000, 8), np.uint8)
    # Digits that are 0 and followed only by 0s.
    ending = ~np.logical_or.accumulate((digits != 48)[:, ::-1], axis=1)[:, ::-1]
    for k in range(5):
        at = np.arange(4) + (np.arange(4) >= k) * (k > 0)  # each digit's byte
        groups[k][:, :, at] = digits
        if k:
            groups[k][:, :, k] = ord(".")
        stripped = ending & (np.arange(4) >= k)  # digits before the point stay
        groups[k, 1][:, at] = np.where(stripped, 0, digits)
        if k:
            groups[k, 1, stripped[:, k:].all(axis=1), k] = 0
    # Each group j's variant offset, by X and by the count of zero groups
    # that end the digits: s where every later group is 0 and the group is
    # not wholly before the point.
    variant = np.zeros((len(dot), 4, 4), np.int64)
    for i, d in enumerate(dot):
        for zeros in range(4):
            for j in range(4):
                first = 4 * j + 1  # the group's first digit
                k = d - first + 1 if first <= d < first + 4 else 0
                s = j >= 3 - zeros and d < first + 4
                variant[i, zeros, j] = (2 * k + s) * 10000
    groups = groups.reshape(-1, 8).view(np.uint64).ravel()
    return suffix, lead, groups, variant.reshape(-1, 4).T.copy()


_G17_LANES = 5


def format_g17(values) -> np.ndarray:
    """``"%.17g" % x`` for each float64 x, as a row of NUL-padded uint64 lanes.

    The bytes of each row, NULs removed, are exactly ``"%.17g" % x``.  For
    1e-6 < |x| < 1e17 the 17 digits are round-half-even of the exact product
    |x| 10^(16 - X), which Dekker's two-product gives as hi + lo (hi an even
    integer, |lo| <= 8) since 10^(16 - X) is exact for X >= -6.  Zero,
    subnormals, inf, nan and values outside that range go through %.
    """
    suffix, leads, groups, variants = _g17_tables()
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e17)  # the double 1e-6 is below 10^-6
    if not fast.all():
        a = np.where(fast, a, 1.0)
    # X = floor(log10 |x|), off by at most one near a power of ten until the
    # exact test 1e16 <= hi + lo < 1e17 corrects it.
    X = np.clip(np.floor(np.log10(a)).astype(np.int64), -6, 16)
    hi, lo = _two_product(a, np.take(_POW10, 16 - X))
    off = np.flatnonzero((hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
                         | (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0)))
    if off.size:
        X[off] += np.where(hi[off] <= 1e16, -1, 1)
        hi[off], lo[off] = _two_product(a[off], np.take(_POW10, 16 - X[off]))
    # rint rounds half to even.  The digits never round up to 10^17: below
    # each power of ten the nearest double in range is at least 4.5 units of
    # the 17th digit away (1e-6's is; the others are farther).
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    lead, rest = np.divmod(digits, 10**16)
    g0, rest = np.divmod(rest, 10**12)
    g1, rest = np.divmod(rest, 10**8)
    g2, g3 = np.divmod(rest, 10**4)
    # The count of zero groups that end the digits.
    zeros = (g3 == 0).view(np.int8)
    zeros += zeros & (g2 == 0)
    zeros += (zeros == 2) & (g1 == 0)
    ix = X + 6
    point = (X <= 0) & ((g0 != 0) | (zeros < 3))  # for the lead lane
    cells = np.empty((len(x), _G17_LANES), np.uint64)
    cells[:, 0] = np.take(leads, ((ix * 2 + (x < 0)) * 10 + lead) * 2 + point)
    row = ix * 4 + zeros
    for j, group in enumerate((g0, g1, g2, g3)):
        cells[:, 1 + j] = np.take(groups, np.take(variants[j], row) + group)
    cells[:, 4] |= np.take(suffix, ix)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype="S%d" % (8 * _G17_LANES))
        cells[slow] = text.view(np.uint64).reshape(-1, _G17_LANES)
    return cells


@functools.cache
def _int_tables():
    """The lanes of "%d" % g and "%04d" % g for g < 10^4, and 8 x the digits of "%d" % g."""
    padded = _g17_tables()[2][:10000]  # the group lanes with no point and no stripping
    shift = 8 * (1 + (np.arange(10000)[:, None] >= [10, 100, 1000]).sum(axis=1)).astype(np.uint64)
    return padded >> (32 - shift), padded, shift


def format_int(values) -> np.ndarray:
    """``"%d" % v`` for each integer v, as a column of NUL-padded uint64 lanes.

    For 0 <= v < 10^8 (an integer dtype) the lane is that of "%d" % hi and
    then "%04d" % lo, hi, lo = divmod(v, 10^4), or "%d" % lo when hi is 0.
    Any other column goes through %.
    """
    v = np.asarray(values)
    if v.dtype.kind not in "iu" or not ((v >= 0) & (v < 10**8)).all():
        return _percent_cells("%d", values)
    bare, padded, shift = _int_tables()
    hi, lo = np.divmod(v, 10**4)
    top = hi > 0
    lane = np.take(bare, np.where(top, hi, lo))
    lane |= (np.take(padded, lo) << np.take(shift, hi)) * top
    return lane[:, None]


def _two_product(a, b):
    """hi + lo = a * b exactly, hi = fl(a * b) (Dekker 1971)."""
    hi = a * b
    t = a * _SPLIT
    a1 = t - (t - a)
    a2 = a - a1
    t = b * _SPLIT
    b1 = t - (t - b)
    b2 = b - b1
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _percent_cells(spec: str, column) -> np.ndarray:
    """``spec % v`` for each value (a bytes array is the text of %s), as
    NUL-padded uint64 lanes."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "S":
        text = column
    else:
        values = column.tolist() if isinstance(column, np.ndarray) else column
        text = np.array([spec % v for v in values], dtype="S")
    width = -(-max(text.itemsize, 1) // 8)
    return text.astype("S%d" % (8 * width)).view(np.uint64).reshape(-1, width)


def write_rows(fh, row: str, *columns):
    """Write ``format_rows(row, *columns)`` to ``fh``, a binary file, as UTF-8.

    The table is written in blocks of BLOCK_ROWS rows.  A table of fewer
    than KERNEL_ROWS rows takes one %-operation per block; the row count
    alone decides.  In a larger one the %.17g cells come from format_g17,
    the %d cells from format_int and the %s cells from % per value (a
    bytes array is copied), all NUL-padded, joined with the template's
    literals and compacted; neither the literals nor the cells hold a NUL.
    """
    count = len(columns[0])
    specs = _CONVERSION.findall(row)
    if count >= KERNEL_ROWS:
        literals = [_lanes([text[i:i + 8] for i in range(0, len(text), 8)])
                    for text in (part.encode() for part in _CONVERSION.split(row))]
    for start in range(0, count, BLOCK_ROWS):
        blocks = [column[start:start + BLOCK_ROWS] for column in columns]
        if count < KERNEL_ROWS:
            fh.write(format_rows(row, *blocks).encode())
            continue
        parts = [literals[0]]
        for spec, block, literal in zip(specs, blocks, literals[1:]):
            kernel = {"%.17g": format_g17, "%d": format_int}.get(spec)
            parts += [kernel(block) if kernel else _percent_cells(spec, block), literal]
        lanes = np.cumsum([0] + [part.shape[-1] for part in parts])
        table = np.empty((len(blocks[0]), lanes[-1]), np.uint64)
        for part, lo, hi in zip(parts, lanes, lanes[1:]):
            table[:, lo:hi] = part
        fh.write(table.tobytes().translate(None, b"\0"))


def write_text(path: str, *parts):
    """Write the parts to ``path`` as UTF-8, in order: a str as it is, a
    ``(row, *columns)`` table by `write_rows`."""
    with open(path, "wb") as fh:
        for part in parts:
            if isinstance(part, str):
                fh.write(part.encode())
            else:
                write_rows(fh, *part)


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
            if row[0] in modes:
                raise SpecParseError(f"{name}.fourier repeats mode {row[0]}")
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
    if expected is not None and not (finite_number(expected) and expected > 0):
        raise SpecParseError("expected_r0 must be a finite positive number")
    return CurveSpec(
        kind=kind,
        label=str(raw.get("label", "")),
        components=components,
        expected_r0=None if expected is None else float(expected),
    )


# -- surface coefficient files ----------------------------------------------


def save_surface(surface: MaximalSurface, path: str):
    """Exact-decimal text dump of both harmonic functions."""
    parts = [COEFF_MAGIC + "\n"]
    for tag, h in (("planar", surface.planar), ("height", surface.height)):
        a, b = h.holo, h.antiholo
        kept = (np.abs(a) > COEFF_FLOOR) | (np.abs(b) > COEFF_FLOOR)
        parts += ["%s.annulus %.17g %.17g\n" % (tag, h.inner_radius, h.outer_radius),
                  "%s.log %.17g %.17g\n" % (tag, h.log_coeff.real, h.log_coeff.imag),
                  (tag + " %d %.17g %.17g %.17g %.17g\n",
                   np.arange(-h.truncation, h.truncation + 1)[kept],
                   a.real[kept], a.imag[kept], b.real[kept], b.imag[kept])]
    write_text(path, *parts)


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
        elif n in parts[tag]["modes"]:
            raise SpecParseError(f"{where}: mode {n} of {tag} is repeated")
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


def _fields(value, name: str = ""):
    """(dotted name, value) of every leaf of a report payload."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _fields(item, f"{name}.{key}" if name else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _fields(item, f"{name}[{i}]")
    else:
        yield name, value


def check_report(payload: dict):
    """Raise ValueError naming the first field of a report that is a float
    but not finite: JSON has no NaN or Infinity."""
    for name, value in _fields(payload):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"report field {name} is {value}, not a finite number")


def write_report(path: str, payload: dict):
    """The payload as JSON, after `check_report`: no file for a non-finite value."""
    check_report(payload)
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


def grid_labels(thetas, radii) -> tuple[np.ndarray, np.ndarray]:
    """The theta and rho columns of a radius-major grid table, as %.17g text
    in bytes arrays.  Each angle and radius is formatted once, not once per
    grid point.
    """
    th = np.array(["%.17g" % t for t in thetas.tolist()], dtype="S")
    rh = np.array(["%.17g" % r for r in radii.tolist()], dtype="S")
    return np.tile(th, len(rh)), np.repeat(rh, len(th))


def _sample_grid(surface: MaximalSurface, n_theta: int, n_rho: int, rho_range):
    """Angles, radii, and the flat x, y, t over the export grid, radius-major."""
    thetas, radii = export_grid(surface, n_theta, n_rho, rho_range)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        p = surface.planar.eval_polar(radii, n_theta).ravel()
        t = surface.height.eval_polar(radii, n_theta).real.ravel()
    bad = np.flatnonzero(~(np.isfinite(p) & np.isfinite(t)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"the surface is not finite at grid point theta = "
                         f"{thetas[i % n_theta]:.17g}, rho = {radii[i // n_theta]:.17g}")
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
    write_text(path, ("v %.17g %.17g %.17g\n", xs, ys, ts), ("f %d %d %d\n", *faces.T))


def export_point_cloud(
    surface: MaximalSurface,
    path: str,
    n_theta: int = 64,
    n_rho: int = 32,
    rho_range: tuple[float, float] = (0.4, 2.5),
):
    """CSV point cloud: theta,rho,x,y,t — one row per grid point."""
    thetas, radii, xs, ys, ts = _sample_grid(surface, n_theta, n_rho, rho_range)
    write_text(path, "theta,rho,x,y,t\n", ("%s,%s,%.17g,%.17g,%.17g\n",
                                           *grid_labels(thetas, radii), xs, ys, ts))


def write_singular_csv(path: str, points: list[SingularPoint]):
    write_text(path, "theta,rho,residual,tangential\n", (
        "%.17g,%.17g,%.17g,%d\n",
        [p.theta for p in points], [p.rho for p in points],
        [p.residual for p in points], [int(p.tangential) for p in points]))
