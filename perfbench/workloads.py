"""The benchmark's workloads: seeded inputs, jobs, and the checks on each job.

A workload is a fixed pattern of job kinds (the job mix, the same for every
seed) filled with inputs drawn from the seed.  Every job is timed around the
call into maxsurf only; its check runs afterwards, untimed, and raises
`JobFailure` when an output breaks a property the mathematics requires.  A
check also returns facts for the run's fingerprint, which records the
program's answers (roots found and built, worst residuals, singular points
per ray) so that no speed-up can buy a different answer unnoticed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re

import numpy as np

from maxsurf import cli, fileio, interpolation, surface
from maxsurf.annulus import CircleFunction

# -- sizes ------------------------------------------------------------------

LIST_LENGTH = 200  # distinct jobs per workload; a timed run cycles the list
SEARCH_SCAN_POINTS = 64  # the CLI default is 512; see README.md
GENERIC_MODES = 16  # K of the generic seeded spacelike curves
GENERIC_SIZE = 0.05  # their perturbation's tangent, relative to the circle's
SAMPLE_GRID = (256, 128)  # sample: n_theta x n_rho
SINGULAR_ANGLES = 128
GAUSS_GRID = (16, 8)
NORMAL_POINTS = 64
W_TARGETS = 8
BOUNDARY_POOL = 10  # null data sets solved in set-up, in both forms
POINTWISE_POOL = 8  # surfaces solved in set-up from fourier-form null data
WARMUP_SEED = 0  # warm-up inputs are the same for every seed

# Job mixes.  Each pattern repeats until the list is LIST_LENGTH long, so any
# prefix of the list holds the kinds in (nearly) these proportions.
PATTERNS = {
    "search": ["catenoid", "family", "catenoid", "generic", "catenoid",
               "catenoid", "family", "catenoid", "generic", "catenoid"],
    "boundary": ["solve-samples", "sample-mesh", "solve-fourier", "singular-set",
                 "sample-csv", "solve-samples", "sample-mesh", "solve-fourier",
                 "singular-set", "sample-csv"],
    "pointwise": ["w-from-h", "normal", "gauss-map", "w-from-h", "normal",
                  "w-from-h", "normal", "gauss-map", "w-from-h", "normal"],
}
WORKLOADS = tuple(PATTERNS)

# -- tolerances of the checks -----------------------------------------------

IDENTITY_TOL = 1e-9  # circle identities and boundary/radial errors
UNIT_CIRCLE_TOL = 1e-8  # a singular point on |z| = 1, per ray
# singular_set scans each ray at these radii (the CLI's default --rho-range,
# its default 256 subdivisions) and bisects only cells whose ends differ in
# sign.  When the cell holding |z| = 1 holds another zero as well, the scan
# cannot isolate the point on the circle; a ray missing it for that reason
# goes to the fingerprint, any other missing ray fails the job.
SINGULAR_SCAN = np.linspace(0.4, 2.5, 257)
MINKOWSKI_TOL = 1e-9  # | |N_planar|^2 - N_height^2 + 1 |
HEIGHT_TOL = 1e-8  # w_from_h against the surface's own height
GAUSS_TOL = 1e-9  # nu^2 against the closed-form ratio of derivatives
ROOT_TOL = 1e-6  # relative distance of a known root to a found one
EVAL_TOL = 1e-12  # exported vertex against direct evaluation, x condition
REGULAR_MARGIN = 1e-2  # relative | |h_z| - |h_zbar| | of a "regular" point
# w_from_h is checked strictly on paths where |h_z conj(h_zbar)| stays above
# this share of its maximum; closer to a zero of the integrand its branch
# tracking can flip sign, and those errors go to the fingerprint instead.
BRANCH_MARGIN = 1e-3


class JobFailure(Exception):
    """An output broke a property the mathematics requires."""


def run_cli(argv: list[str]):
    """Call maxsurf.cli.main in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _require(ok: bool, message: str):
    if not ok:
        raise JobFailure(message)


def _digest(*paths: str) -> str:
    """SHA-256 over the bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _fourier_rows(cf: CircleFunction) -> list:
    k = cf.max_mode
    return [[i - k, float(c.real), float(c.imag)] for i, c in enumerate(cf.coeffs)]


def _write_json(path: str, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _log_uniform_off_one(rng, lo=0.15, hi=math.log(4.0)) -> float:
    """A radius in [1/4, 4] at least e^0.15 away from 1, either side."""
    return float(math.exp(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi)))


def _annulus_point(rng, lo=0.5, hi=2.0) -> complex:
    rho = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return complex(rho * np.exp(2j * np.pi * rng.uniform()))


def _regular_points(surf, rng, count: int) -> np.ndarray:
    """Points in 0.5 <= |z| <= 2 away from the singular set."""
    chosen = []
    while len(chosen) < count:
        z = np.array([_annulus_point(rng) for _ in range(4 * count)])
        hz = np.abs(surf.planar.d_z(z))
        hzb = np.abs(surf.planar.d_zbar(z))
        keep = np.abs(hz - hzb) > REGULAR_MARGIN * (hz + hzb)
        chosen.extend(z[keep].tolist())
    return np.array(chosen[:count])


def _eval_scale(h, z: complex) -> float:
    """Sum of the magnitudes of the series terms at z (the condition scale)."""
    n = np.arange(-h.truncation, h.truncation + 1)
    rho = abs(z)
    return float(np.sum(np.abs(h.holo) * rho**n) + np.sum(np.abs(h.antiholo) * rho ** (-n))
                 + abs(h.log_coeff) * abs(math.log(rho)))


def _spot_check_vertices(surf, rows, radii, thetas, rng, tag):
    """Exported (x, y, t) at 8 seeded grid points against direct evaluation."""
    n_theta = len(thetas)
    for index in rng.integers(0, len(rows), 8):
        i, j = divmod(int(index), n_theta)
        z = complex(radii[i] * np.exp(1j * thetas[j]))
        p = complex(surf.planar.eval(z))
        t = float(np.real(surf.height.eval(z)))
        x, y, h = rows[index]
        tol_p = EVAL_TOL * (1.0 + _eval_scale(surf.planar, z))
        tol_h = EVAL_TOL * (1.0 + _eval_scale(surf.height, z))
        _require(abs(x - p.real) <= tol_p and abs(y - p.imag) <= tol_p
                 and abs(h - t) <= tol_h, f"{tag}: vertex {index} disagrees with eval")


# -- null boundary data -----------------------------------------------------


def null_data(rng, deg: int = 3):
    """Seeded null boundary data as (samples-form spec, fourier-form spec).

    Draws exactly as tests/conftest.py::random_valid_data does: a constant
    curve and the radial field (Q^2, |Q|^2) of a random trigonometric
    polynomial Q, which is null by construction.  The samples form gives the
    radial field as 256 samples, as random_valid_data does; the fourier form
    gives the same field as its exact coefficients.
    """
    q = np.array([0.5 * complex(rng.normal(), rng.normal()) for _ in range(-deg, deg + 1)])
    curve_planar = {"fourier": [[0, rng.normal(), rng.normal()]]}
    curve_height = {"fourier": [[0, rng.normal(), 0.0]]}
    thetas = 2.0 * np.pi * np.arange(256) / 256
    values = CircleFunction(q).sample(thetas)
    square = CircleFunction(np.convolve(q, q))
    modulus = CircleFunction(np.convolve(q, np.conj(q[::-1])))
    common = {"kind": "bjorling", "curve_planar": curve_planar, "curve_height": curve_height}
    samples = dict(
        common, label="null data, samples form",
        radial_planar={"samples": [[v.real, v.imag] for v in values**2]},
        radial_height={"samples": [[v, 0.0] for v in np.abs(values) ** 2]},
    )
    fourier = dict(
        common, label="null data, fourier form",
        radial_planar={"fourier": _fourier_rows(square)},
        radial_height={"fourier": _fourier_rows(modulus)},
    )
    return samples, fourier


# -- curves for the radius search -------------------------------------------


def _curve_spec(curve: interpolation.SpacelikeCurve, label: str) -> dict:
    return {"kind": "curve", "label": label,
            "planar": {"fourier": _fourier_rows(curve.planar)},
            "height": {"fourier": _fourier_rows(curve.height)}}


def catenoid_circle(r: float, phase: float) -> interpolation.SpacelikeCurve:
    """Image of |z| = r under the (rotated) catenoid; its roots are r, 1/r."""
    return interpolation.SpacelikeCurve(
        CircleFunction.from_dict({1: 0.5 * (r - 1.0 / r) * np.exp(1j * phase)}),
        CircleFunction.from_dict({0: math.log(r)}),
    )


def generic_curve(rng, k: int = GENERIC_MODES):
    """A strictly spacelike curve with every mode up to k populated.

    A catenoid circle (radius r drawn as for the other curves) plus a random
    perturbation of every planar and height mode, decaying as 0.6^|n| and
    scaled so that each perturbation's tangent is at most 5 % of the
    circle's: the spacelike margin stays above 0.9 of the circle's.  The
    residual keeps one local minimum on each side of 1, near r and 1/r, but
    no longer vanishes there, so exit 4 is the expected answer.
    Returns (curve, r).
    """
    r = _log_uniform_off_one(rng)
    circle = catenoid_circle(r, rng.uniform(0.0, 2.0 * np.pi))
    n = np.arange(-k, k + 1)
    a = 0.5 * abs(r - 1.0 / r)  # |tangent| of the circle
    decay = 0.6 ** np.abs(n)
    planar = (rng.normal(size=n.size) + 1j * rng.normal(size=n.size)) * decay
    planar *= GENERIC_SIZE * a / np.sum(np.abs(n) * np.abs(planar))
    half = (rng.normal(size=k) + 1j * rng.normal(size=k)) * decay[k + 1:]
    half *= GENERIC_SIZE * a / (2.0 * np.sum(np.arange(1, k + 1) * np.abs(half)))
    height = np.concatenate([np.conj(half[::-1]), [0.0], half])  # real-valued
    return interpolation.SpacelikeCurve(
        CircleFunction(circle.planar.coeff_array(k) + planar),
        CircleFunction(circle.height.coeff_array(k) + height),
    ), r


# -- jobs -------------------------------------------------------------------


class Job:
    """One unit of work: `run` is timed, `check` is not."""

    kind = ""

    def run(self):
        raise NotImplementedError

    def check(self, result) -> tuple[str, dict]:
        """Raise JobFailure on a wrong output; else return (digest, facts)."""
        raise NotImplementedError


_REJECTED = re.compile(r"^r0 = (\S+): (.*)$", re.MULTILINE)


class SearchJob(Job):
    """validate, then interpolate with a full radius search, on one curve."""

    def __init__(self, kind, curve, param, known_roots, spec, out, config):
        self.kind, self.curve, self.param = kind, curve, param
        self.known_roots, self.spec, self.out, self.config = known_roots, spec, out, config
        self.allowed = {0, 4} if kind == "generic" else {0}

    def run(self):
        validated = run_cli(["--config", self.config, "validate", "--spec", self.spec])
        interpolated = run_cli(["--config", self.config, "interpolate",
                                "--spec", self.spec, "--out", self.out])
        return validated, interpolated

    def check(self, result):
        (code_v, out_v, _), (code_i, _, err_i) = result
        _require(code_v == 0, f"validate exit {code_v}")
        validation = json.loads(out_v)
        _require(validation["passed"] and validation["spacelike_margin"] > 0.0,
                 "curve reported as not strictly spacelike")
        _require(code_i in self.allowed, f"interpolate exit {code_i}")
        report_path = self.out + ".report.json"
        report = _read_json(report_path)
        _require(_all_finite(report), "non-finite value in the report")
        tol = cli.DEFAULT_CONFIG["residual_tol"]
        built = []
        files = [report_path]
        for entry in report["surfaces"]:
            r0 = entry["r0"]
            residual = interpolation.scalar_residual(self.curve, r0)
            _require(residual < tol, f"reported r0 = {r0} has residual {residual:.3g}")
            built.append(r0)
            files.append(os.path.join(os.path.dirname(self.out), entry["surface_file"]))
        rejected = [(float(r), why) for r, why in _REJECTED.findall(err_i)]
        found = built + [r for r, _ in rejected]
        for root in self.known_roots:
            _require(any(abs(f - root) <= ROOT_TOL * root for f in found),
                     f"known root {root} missing from the search result {found}")
        facts = {
            "kind": self.kind, "param": self.param, "exit": code_i,
            "found": len(found), "built": len(built),
            "worst_residual": max((e["residual"] for e in report["surfaces"]), default=0.0),
            "rejected": [{"param": self.param, "r0": r, "reason": why} for r, why in rejected],
        }
        return _digest(*files), facts


class SolveJob(Job):
    def __init__(self, form, spec, out):
        self.kind, self.form, self.spec, self.out = f"solve-{form}", form, spec, out

    def run(self):
        return run_cli(["solve-bjorling", "--spec", self.spec, "--out", self.out])

    def check(self, result):
        code, _, err = result
        _require(code == 0, f"solve-bjorling exit {code}: {err.strip()}")
        report_path = self.out + ".report.json"
        report = _read_json(report_path)
        _require(_all_finite(report), "non-finite value in the report")
        _require(report["passed"] is True, "report not passed")
        identities = max(report["circle_identities"].values())
        _require(identities <= IDENTITY_TOL, f"circle identity residual {identities:.3g}")
        for key in ("boundary_error", "radial_error"):
            _require(report[key] <= IDENTITY_TOL, f"{key} {report[key]:.3g}")
        facts = {"form": self.form, "conformality_max": report["conformality_max"],
                 "identities": identities}
        return _digest(report_path, self.out + ".surface.txt"), facts


class SampleJob(Job):
    def __init__(self, fmt, surface_file, surf, tag, out, rng):
        self.kind, self.fmt = f"sample-{fmt}", fmt
        self.surface_file, self.surf, self.tag, self.out = surface_file, surf, tag, out
        self.spot_seed = int(rng.integers(2**31))

    def run(self):
        n_theta, n_rho = SAMPLE_GRID
        return run_cli(["sample", "--surface", self.surface_file, "--out", self.out,
                        "--grid", str(n_theta), str(n_rho), "--format", self.fmt])

    def check(self, result):
        code, _, err = result
        _require(code == 0, f"sample exit {code}: {err.strip()}")
        n_theta, n_rho = SAMPLE_GRID
        radii = np.geomspace(0.4, 2.5, n_rho)  # the CLI's default --rho-range
        thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
        with open(self.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if self.fmt == "mesh":
            vertices = [ln[2:] for ln in lines if ln.startswith("v ")]
            faces = [ln for ln in lines if ln.startswith("f ")]
            _require(len(vertices) == n_theta * n_rho
                     and len(faces) == 2 * (n_rho - 1) * n_theta
                     and len(lines) == len(vertices) + len(faces), "mesh has the wrong shape")
            rows = np.array(" ".join(vertices).split(), dtype=float).reshape(-1, 3)
        else:
            _require(lines[0] == "theta,rho,x,y,t" and len(lines) == 1 + n_theta * n_rho,
                     "point cloud has the wrong shape")
            table = np.array(",".join(lines[1:]).split(","), dtype=float).reshape(-1, 5)
            rows = table[:, 2:]
        _require(bool(np.all(np.isfinite(rows))), "non-finite vertex")
        _spot_check_vertices(self.surf, rows, radii, thetas,
                             np.random.default_rng(self.spot_seed), self.kind)
        return _digest(self.out), {"surface": self.tag, "bytes": os.path.getsize(self.out)}


def _unit_cell_zeros(planar, theta: float, points: int = 4001) -> int:
    """Sign changes of |h_z|^2 - |h_zbar|^2 along the ray at theta, within
    the scan cell of singular_set that holds |z| = 1."""
    i = int(np.searchsorted(SINGULAR_SCAN, 1.0)) - 1
    z = np.linspace(SINGULAR_SCAN[i], SINGULAR_SCAN[i + 1], points) * np.exp(1j * theta)
    f = np.abs(planar.d_z(z)) ** 2 - np.abs(planar.d_zbar(z)) ** 2
    signs = np.sign(f[f != 0.0])
    return int(np.sum(signs[:-1] != signs[1:]))


class SingularSetJob(Job):
    kind = "singular-set"

    def __init__(self, surface_file, surf, tag, is_bjorling, out):
        self.surface_file, self.surf, self.tag, self.is_bjorling, self.out = (
            surface_file, surf, tag, is_bjorling, out)

    def run(self):
        return run_cli(["singular-set", "--surface", self.surface_file, "--out", self.out,
                        "--angles", str(SINGULAR_ANGLES)])

    def check(self, result):
        code, _, err = result
        _require(code == 0, f"singular-set exit {code}: {err.strip()}")
        with open(self.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        _require(lines[0] == "theta,rho,residual,tangential", "bad singular-set header")
        table = np.array([ln.split(",") for ln in lines[1:]], dtype=float).reshape(-1, 4)
        _require(bool(np.all(np.isfinite(table))), "non-finite singular point")
        thetas = 2.0 * np.pi * np.arange(SINGULAR_ANGLES) / SINGULAR_ANGLES
        crowded = []
        if self.is_bjorling:
            on_circle = set(table[np.abs(table[:, 1] - 1.0) <= UNIT_CIRCLE_TOL, 0])
            missing = [t for t in thetas if t not in on_circle]
            crowded = [t for t in missing if _unit_cell_zeros(self.surf.planar, t) >= 2]
            _require(len(crowded) == len(missing),
                     f"{len(missing) - len(crowded)} rays without a point on |z| = 1")
        facts = {"surface": self.tag, "rays": SINGULAR_ANGLES, "points": len(table),
                 "missed_crowded": len(crowded)}
        return _digest(self.out), facts


class GaussMapJob(Job):
    kind = "gauss-map"

    def __init__(self, surface_file, surf, tag, out):
        self.surface_file, self.surf, self.tag, self.out = surface_file, surf, tag, out

    def run(self):
        n_theta, n_rho = GAUSS_GRID
        return run_cli(["gauss-map", "--surface", self.surface_file, "--out", self.out,
                        "--grid", str(n_theta), str(n_rho)])

    def check(self, result):
        code, _, err = result
        _require(code == 0, f"gauss-map exit {code}: {err.strip()}")
        with open(self.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        n_theta, n_rho = GAUSS_GRID
        _require(lines[0] == "theta,rho,region,nu_re,nu_im"
                 and len(lines) == 1 + n_theta * n_rho, "gauss map has the wrong shape")
        regions = {"holo": 0, "anti": 0, "singular": 0}
        worst = 0.0
        for ln in lines[1:]:
            th, rho, region, re_, im_ = ln.split(",")
            regions[region] += 1
            if region == "singular":
                continue
            nu = complex(float(re_), float(im_))
            z = float(rho) * np.exp(1j * float(th))
            hz, hzb = self.surf.planar.d_z(z), self.surf.planar.d_zbar(z)
            ratio = hz / np.conj(hzb) if region == "holo" else hzb / np.conj(hz)
            if math.isinf(nu.real):
                continue  # the documented point at infinity
            _require(math.isfinite(nu.real) and math.isfinite(nu.imag), "non-finite nu")
            worst = max(worst, abs(nu * nu - ratio) / (1.0 + abs(ratio)))
        _require(worst <= GAUSS_TOL, f"nu^2 off the derivative ratio by {worst:.3g}")
        return _digest(self.out), {"surface": self.tag, "regions": regions, "worst": worst}


class NormalJob(Job):
    kind = "normal"

    def __init__(self, surf, tag, points):
        self.surf, self.tag, self.points = surf, tag, points

    def run(self):
        return [surface.normal(self.surf, z) for z in self.points]

    def check(self, result):
        values = np.array([[complex(planar), float(height)] for planar, height in result],
                          dtype=complex)
        _require(bool(np.all(np.isfinite(values))), "non-finite normal")
        defect = float(np.max(np.abs(np.abs(values[:, 0]) ** 2 - values[:, 1].real ** 2 + 1.0)))
        _require(defect <= MINKOWSKI_TOL, f"Minkowski norm defect {defect:.3g}")
        return hashlib.sha256(values.tobytes()).hexdigest(), {"surface": self.tag,
                                                              "defect": defect}


def _min_share_on_path(planar, z0: complex, z1: complex, per_leg: int = 400) -> float:
    """min / max of |h_z conj(h_zbar)| along the radial-then-arc path z0 -> z1.

    This is the default polyline w_from_h integrates along: a radial leg at
    arg z0, then the shorter arc at |z1|.
    """
    t0 = math.atan2(z0.imag, z0.real)
    dt = (math.atan2(z1.imag, z1.real) - t0 + math.pi) % (2.0 * math.pi) - math.pi
    radial = np.geomspace(abs(z0), abs(z1), per_leg) * np.exp(1j * t0)
    arc = abs(z1) * np.exp(1j * (t0 + dt * np.linspace(0.0, 1.0, per_leg)))
    path = np.concatenate([radial, arc])
    q = np.abs(planar.d_z(path) * np.conj(planar.d_zbar(path)))
    return float(np.min(q) / np.max(q))


class WFromHJob(Job):
    kind = "w-from-h"

    def __init__(self, surf, tag, z0, targets):
        self.surf, self.tag, self.z0, self.targets = surf, tag, z0, targets
        self.w0 = float(np.real(surf.height.eval(z0)))
        self.clear = np.array([_min_share_on_path(surf.planar, z0, complex(t)) >= BRANCH_MARGIN
                               for t in targets])

    def run(self):
        return surface.w_from_h(self.surf.planar, self.z0, self.w0, self.targets)

    def check(self, result):
        got = np.array(result, dtype=float)
        _require(got.shape == (len(self.targets),) and bool(np.all(np.isfinite(got))),
                 "non-finite or missing heights")
        true = np.real(self.surf.height.eval(self.targets))
        # The branch at z0 fixes w - w0 only up to one sign.
        err = np.minimum(np.abs(got - true), np.abs(got - (2.0 * self.w0 - true)))
        err = err / (1.0 + np.abs(true))
        worst = float(np.max(err[self.clear], initial=0.0))
        _require(worst <= HEIGHT_TOL, f"height off by {worst:.3g}")
        near = err[~self.clear]
        facts = {"surface": self.tag, "error": worst, "near_branch": int(near.size),
                 "near_branch_wrong": int(np.sum(near > HEIGHT_TOL)),
                 "near_branch_error": float(np.max(near, initial=0.0))}
        return hashlib.sha256(got.tobytes()).hexdigest(), facts


# -- building a workload ----------------------------------------------------


def _search_jobs(rng, work: str, length: int, _pool: int) -> list[Job]:
    config = _write_json(os.path.join(work, "search.config.json"),
                         {"scan_points": SEARCH_SCAN_POINTS})
    jobs = []
    for i, kind in enumerate(_kinds("search", length)):
        if kind == "family":
            c = _log_uniform_off_one(rng)
            curve, known = interpolation.family_curve(c), [c, 1.0 / c]
            param = c
        elif kind == "catenoid":
            r = _log_uniform_off_one(rng)
            curve, known = catenoid_circle(r, rng.uniform(0.0, 2.0 * np.pi)), [r, 1.0 / r]
            param = r
        else:
            curve, param = generic_curve(rng)
            known = []
        spec = _write_json(os.path.join(work, f"curve{i}.json"), _curve_spec(curve, kind))
        jobs.append(SearchJob(kind, curve, param, known, spec,
                              os.path.join(work, f"job{i}"), config))
    return jobs


def _solve_surface(spec_path: str, out: str):
    code, _, err = run_cli(["solve-bjorling", "--spec", spec_path, "--out", out])
    if code != 0:
        raise RuntimeError(f"set-up surface {spec_path} failed: {err.strip()}")
    return out + ".surface.txt"


def _family_surface(rng, work: str, name: str):
    c = float(rng.uniform(1.5, 3.0))
    path = os.path.join(work, name + ".surface.txt")
    fileio.save_surface(interpolation.build_surface(interpolation.family_curve(c), c), path)
    return path


def _boundary_jobs(rng, work: str, length: int, pool_sets: int) -> list[Job]:
    pool = []  # (file, loaded surface, tag, is_bjorling)
    for k in range(pool_sets):
        samples, fourier = null_data(rng)
        for form, spec in (("samples", samples), ("fourier", fourier)):
            spec_path = _write_json(os.path.join(work, f"pool{k}-{form}.json"), spec)
            path = _solve_surface(spec_path, os.path.join(work, f"pool{k}-{form}"))
            pool.append((path, fileio.load_surface(path), f"bjorling-{form}", True))
    for k in range(min(2, pool_sets)):
        path = _family_surface(rng, work, f"pool{k}-family")
        pool.append((path, fileio.load_surface(path), "family", False))
    jobs: list[Job] = []
    counters = {"sample": 0, "singular": 0}
    for i, kind in enumerate(_kinds("boundary", length)):
        out = os.path.join(work, f"job{i}")
        if kind.startswith("solve-"):
            form = kind.split("-")[1]
            specs = dict(zip(("samples", "fourier"), null_data(rng)))
            spec = _write_json(out + ".json", specs[form])
            jobs.append(SolveJob(form, spec, out))
        elif kind.startswith("sample-"):
            path, surf, tag, _ = pool[counters["sample"] % len(pool)]
            counters["sample"] += 1
            fmt = kind.split("-")[1]
            jobs.append(SampleJob(fmt, path, surf, tag, f"{out}.{fmt}", rng))
        else:
            path, surf, tag, is_bj = pool[counters["singular"] % len(pool)]
            counters["singular"] += 1
            jobs.append(SingularSetJob(path, surf, tag, is_bj, out + ".csv"))
    return jobs


def _pointwise_jobs(rng, work: str, length: int, pool_size: int) -> list[Job]:
    pool = []  # (file, loaded surface, tag)
    for k in range(pool_size):
        _, fourier = null_data(rng)
        spec_path = _write_json(os.path.join(work, f"pool{k}-fourier.json"), fourier)
        path = _solve_surface(spec_path, os.path.join(work, f"pool{k}-fourier"))
        pool.append((path, fileio.load_surface(path), "bjorling-fourier"))
    jobs: list[Job] = []
    for i, kind in enumerate(_kinds("pointwise", length)):
        path, surf, tag = pool[i % len(pool)]
        if kind == "gauss-map":
            jobs.append(GaussMapJob(path, surf, tag, os.path.join(work, f"job{i}.csv")))
        elif kind == "normal":
            jobs.append(NormalJob(surf, tag, _regular_points(surf, rng, NORMAL_POINTS)))
        else:
            points = _regular_points(surf, rng, W_TARGETS + 1)
            jobs.append(WFromHJob(surf, tag, complex(points[0]), points[1:]))
    return jobs


def _kinds(workload: str, length: int) -> list[str]:
    pattern = PATTERNS[workload]
    return [pattern[i % len(pattern)] for i in range(length)]


_BUILDERS = {"search": (_search_jobs, 0), "boundary": (_boundary_jobs, BOUNDARY_POOL),
             "pointwise": (_pointwise_jobs, POINTWISE_POOL)}


def build_jobs(workload: str, seed: int, work: str) -> list[Job]:
    """The workload's job list for this seed; files go under ``work``."""
    build, pool = _BUILDERS[workload]
    return build(np.random.default_rng(seed), work, LIST_LENGTH, pool)


def warmup_jobs(workload: str, work: str) -> list[Job]:
    """One job of each kind on fixed inputs, so that warm-up costs the same
    for every seed; files go under ``work``."""
    build, _ = _BUILDERS[workload]
    jobs = build(np.random.default_rng(WARMUP_SEED), work, len(PATTERNS[workload]), 1)
    first_of_kind: dict[str, Job] = {}
    for job in jobs:
        first_of_kind.setdefault(job.kind, job)
    return list(first_of_kind.values())


# -- fingerprint ------------------------------------------------------------


def fingerprint(workload: str, facts: dict[int, dict]) -> dict:
    """Summarise per-job facts (one entry per distinct job) for the run."""
    items = [facts[i] for i in sorted(facts)]
    if workload == "search":
        out = {}
        for kind in PATTERNS["search"]:
            mine = [f for f in items if f["kind"] == kind]
            if not mine:
                continue
            out[kind] = {
                "curves": len(mine),
                "roots_found": sum(f["found"] for f in mine),
                "roots_built": sum(f["built"] for f in mine),
                "exit_4": sum(f["exit"] == 4 for f in mine),
                "worst_residual": max(f["worst_residual"] for f in mine),
            }
        rejected = [r for f in items for r in f["rejected"]]
        out["rejected_roots"] = len(rejected)
        out["rejected"] = rejected[:8]
        found = sum(f["found"] for f in items)
        out["build_ok_ratio"] = sum(f["built"] for f in items) / found if found else 0.0
        return out
    if workload == "boundary":
        out = {}
        for form in ("samples", "fourier"):
            conf = [f["conformality_max"] for f in items if f.get("form") == form]
            if conf:
                out[f"solve_{form}"] = {"jobs": len(conf), "conformality_max_min": min(conf),
                                        "conformality_max_max": max(conf)}
        ident = [f["identities"] for f in items if "identities" in f]
        out["worst_circle_identity"] = max(ident, default=0.0)
        per_ray: dict[str, list] = {}
        for f in items:
            if "rays" in f:
                per_ray.setdefault(f["surface"], []).append(f["points"] / f["rays"])
        out["singular_points_per_ray"] = {k: [min(v), max(v)] for k, v in sorted(per_ray.items())}
        missed = [f["missed_crowded"] for f in items if "rays" in f]
        out["singular_set_missed_unit_circle"] = {
            "jobs": sum(m > 0 for m in missed), "rays": sum(missed)}
        out["bytes_written_by_sample"] = sum(f.get("bytes", 0) for f in items)
        return out
    out = {}
    defects = [f["defect"] for f in items if "defect" in f]
    errors = [f["error"] for f in items if "error" in f]
    worst_nu = [f["worst"] for f in items if "worst" in f]
    regions = {"holo": 0, "anti": 0, "singular": 0}
    for f in items:
        for key, value in f.get("regions", {}).items():
            regions[key] += value
    out["worst_minkowski_defect"] = max(defects, default=0.0)
    out["worst_height_error"] = max(errors, default=0.0)
    out["w_from_h_near_branch"] = {
        "targets": sum(f.get("near_branch", 0) for f in items),
        "wrong": sum(f.get("near_branch_wrong", 0) for f in items),
        "worst_error": max((f.get("near_branch_error", 0.0) for f in items), default=0.0),
    }
    out["worst_gauss_nu2_error"] = max(worst_nu, default=0.0)
    out["gauss_map_regions"] = regions
    return out
