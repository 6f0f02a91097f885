"""Shared fixtures: reference surfaces and boundary-data builders."""

import math

import numpy as np
import pytest

from maxsurf.annulus import CircleFunction, HarmonicOnAnnulus
from maxsurf.bjorling import BjorlingData
from maxsurf.interpolation import SpacelikeCurve
from maxsurf.surface import (
    BRANCH_FLOOR,
    SINGULAR_TOL,
    BranchPointError,
    MaximalSurface,
    Region,
    SingularPointError,
    classify_point,
    grid_points,
    grid_radii,
)


@pytest.fixture
def catenoid():
    """h = (z - 1/zbar)/2, w = ln|z|: the rotational surface with a point
    singularity at the origin and singular set |z| = 1."""
    planar = HarmonicOnAnnulus.from_modes(holo={1: 0.5}, antiholo={1: -0.5})
    height = HarmonicOnAnnulus.from_modes(log_coeff=1.0)
    return MaximalSurface(planar, height)


@pytest.fixture
def lobe():
    """h = z + (c^2/13) zbar^13, w = (c/7)(z^7 + zbar^7), c = 2^-6: conformal,
    singular on |z| = 2, anti-dominant only outside it (past the 0.5-2 radii
    of the default grids)."""
    c = 2.0**-6
    planar = HarmonicOnAnnulus.from_modes(holo={1: 1.0}, antiholo={-13: c * c / 13})
    height = HarmonicOnAnnulus.from_modes(holo={7: c / 7}, antiholo={-7: c / 7})
    return MaximalSurface(planar, height)


@pytest.fixture
def catenoid_data():
    """Boundary data whose solution is the catenoid: constant curve at the
    origin, radial field (e^{i theta}, 1)."""
    zero = CircleFunction.from_dict({})
    return BjorlingData(
        curve_planar=zero,
        curve_height=zero,
        radial_planar=CircleFunction.from_dict({1: 1.0}),
        radial_height=CircleFunction.from_dict({0: 1.0}),
    )


@pytest.fixture
def catenoid_curve():
    """The circle (-3/4 e^{i theta}, ln 1/2): image of |z| = 1/2 under the
    catenoid, and the standard positive interpolation example."""
    return SpacelikeCurve(
        CircleFunction.from_dict({1: -0.75}),
        CircleFunction.from_dict({0: math.log(0.5)}),
    )


@pytest.fixture
def exp_planar():
    """h = e^z + zbar, truncated: |h_z| = e^x so the singular set is the
    imaginary axis."""
    holo = {n: 1.0 / math.factorial(n) for n in range(41)}
    return HarmonicOnAnnulus.from_modes(holo=holo, antiholo={-1: 1.0})


@pytest.fixture
def sin_planar():
    """h = sin z + sin zbar, truncated: |h_z| = |h_zbar| identically."""
    holo = {2 * k + 1: (-1.0) ** k / math.factorial(2 * k + 1) for k in range(10)}
    anti = {-(2 * k + 1): (-1.0) ** k / math.factorial(2 * k + 1) for k in range(10)}
    return HarmonicOnAnnulus.from_modes(holo=holo, antiholo=anti)


def random_valid_data(rng, deg=3, fourier=False):
    """Random boundary data satisfying every constraint exactly.

    The curve is a constant point, so orthogonality to the (zero) tangent is
    automatic; the radial field (Q^2, |Q|^2) built from a random trigonometric
    polynomial Q is null by construction.  It is given as 256 samples, or with
    ``fourier`` as the exact coefficients of Q^2 and |Q|^2 (the same draws).
    """
    q = {n: 0.5 * complex(rng.normal(), rng.normal()) for n in range(-deg, deg + 1)}
    curve_planar = CircleFunction.from_dict({0: complex(rng.normal(), rng.normal())})
    curve_height = CircleFunction.from_dict({0: rng.normal()})
    if fourier:
        c = np.array(list(q.values()))
        radial_planar = CircleFunction(np.convolve(c, c))
        radial_height = CircleFunction(np.convolve(c, np.conj(c[::-1])))
    else:
        thetas = 2.0 * np.pi * np.arange(256) / 256
        samples = CircleFunction.from_dict(q).sample(thetas)
        radial_planar = CircleFunction.from_samples(samples**2)
        radial_height = CircleFunction.from_samples(np.abs(samples) ** 2)
    return BjorlingData(curve_planar, curve_height, radial_planar, radial_height)


def annulus_points(rng, count, lo=0.5, hi=2.0):
    """Random points in the closed-annulus sampling range [lo, hi]."""
    radii = np.exp(rng.uniform(np.log(lo), np.log(hi), count))
    return radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def loop_track_signs(values: np.ndarray, start: complex) -> np.ndarray:
    """The scalar loop that surface._track_signs replaced: the reference."""
    roots = np.sqrt(values)
    if np.any(np.abs(values) < BRANCH_FLOOR):
        raise BranchPointError("square-root argument vanishes on the path")
    out = np.empty_like(roots)
    prev = start
    for i, w in enumerate(roots):
        if abs(w - prev) > abs(-w - prev):
            w = -w
        out[i] = w
        prev = w
    return out


# -- the branch-tracked normal and Gauss map that surface.normal and
# surface.gauss_map replaced: the reference ---------------------------------


def path_nodes(z_from: complex, z_to: complex, per_leg: int) -> np.ndarray:
    """Radial-then-arc discrete path between two annulus points."""
    r0, r1 = abs(z_from), abs(z_to)
    t0 = float(np.angle(z_from))
    t1 = float(np.angle(z_to))
    dt = (t1 - t0 + np.pi) % (2.0 * np.pi) - np.pi
    radial = np.geomspace(r0, r1, per_leg) * np.exp(1j * t0)
    arc = r1 * np.exp(1j * (t0 + dt * np.linspace(0.0, 1.0, per_leg)))
    return np.concatenate([radial, arc[1:]])


def tracked_sqrt(surface, fn, anchor: complex, z: complex, per_leg: int = 96) -> complex:
    """sqrt(fn) at z, continued continuously from the root at anchor that is
    aligned with the guide h_z conj(w_z) there."""
    start = np.sqrt(complex(fn(anchor)))
    if (start * np.conj(surface.planar.d_z(anchor)) * surface.height.d_z(anchor)).real < 0.0:
        start = -start
    prev_val = None
    n = per_leg
    for _ in range(6):
        path = path_nodes(anchor, z, n)
        vals = np.asarray(fn(path))
        tracked = loop_track_signs(vals, start)
        end = complex(tracked[-1])
        if prev_val is not None and abs(end - prev_val) <= 1e-11 * (1.0 + abs(end)):
            return end
        prev_val = end
        n *= 2
    raise BranchPointError(f"square-root branch at {z} did not settle by {n // 2} nodes per leg")


def regular_anchor(surface, region=None) -> complex:
    """A fixed representative point for branch continuation."""

    def best_margin(candidates):
        hz = np.abs(surface.planar.d_z(candidates))
        hzb = np.abs(surface.planar.d_zbar(candidates))
        if region is Region.HOLO_DOMINANT:
            margin = hz - hzb
        elif region is Region.ANTI_DOMINANT:
            margin = hzb - hz
        else:
            margin = np.abs(hz - hzb)
        i = int(np.argmax(margin))
        return complex(candidates[i]), float(margin[i])

    ray = grid_radii(surface, 33).astype(complex)
    anchor, margin = best_margin(ray)
    if margin > 100.0 * SINGULAR_TOL:
        return anchor
    anchor, margin = best_margin(grid_points(surface, 16, 8))
    if margin <= SINGULAR_TOL:
        raise SingularPointError("no regular anchor found for the requested region")
    return anchor


def normal_argument(surface):
    """The function whose tracked square root the reference normal takes."""
    return lambda p: surface.planar.d_z(p) * surface.planar.d_zbar(p)


def gauss_argument(surface, region):
    """The function whose tracked square root the reference Gauss map takes."""
    top, bottom = surface.planar.d_z, surface.planar.d_zbar
    if region is Region.ANTI_DOMINANT:
        top, bottom = bottom, top
    return lambda p: top(p) / np.conj(bottom(p))


def tracked_normal(surface, z, tol=SINGULAR_TOL):
    """The normal with its branch tracked from the anchor along a path."""
    z = complex(z)
    hz = surface.planar.d_z(z)
    hzb = surface.planar.d_zbar(z)
    denom = abs(hzb) - abs(hz)
    if abs(denom) <= tol * (1.0 + abs(hz) + abs(hzb)):
        raise SingularPointError(f"{z} is a singular point")
    root = tracked_sqrt(surface, normal_argument(surface), regular_anchor(surface), z)
    root *= np.sqrt(abs(hz) * abs(hzb)) / abs(root)
    return 2.0 * root / denom, (abs(hzb) + abs(hz)) / denom


def tracked_gauss_map(surface, z, tol=SINGULAR_TOL) -> complex:
    """The Gauss map with its branch tracked from a per-region anchor."""
    z = complex(z)
    region = classify_point(surface, z, tol)
    if region is Region.SINGULAR:
        raise SingularPointError(f"{z} is a singular point")
    top, bottom, sign = surface.planar.d_z, surface.planar.d_zbar, 1.0
    if region is Region.ANTI_DOMINANT:
        top, bottom, sign = bottom, top, -1.0
    num, den = top(z), np.conj(bottom(z))
    if abs(den) < BRANCH_FLOOR * (1.0 + abs(num)):
        return complex(np.inf, 0.0)
    return sign * tracked_sqrt(surface, gauss_argument(surface, region),
                              regular_anchor(surface, region), z)


# -- the per-line writers that fileio's one-%-operation tables replaced: the
# reference (each returns the file's text) -----------------------------------


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def reference_mesh_text(xs, ys, ts, n_theta: int, n_rho: int) -> str:
    lines = [f"v {_fmt(x)} {_fmt(y)} {_fmt(t)}" for x, y, t in zip(xs, ys, ts)]
    for i in range(n_rho - 1):
        for j in range(n_theta):
            j2 = (j + 1) % n_theta
            v00 = i * n_theta + j + 1
            v01 = i * n_theta + j2 + 1
            v10 = (i + 1) * n_theta + j + 1
            v11 = (i + 1) * n_theta + j2 + 1
            lines.append(f"f {v00} {v01} {v11}")
            lines.append(f"f {v00} {v11} {v10}")
    return _lines(lines)


def reference_csv_text(thetas, rhos, xs, ys, ts) -> str:
    """Point-cloud CSV; thetas and rhos are flat, one per grid point."""
    lines = ["theta,rho,x,y,t"]
    for row in zip(thetas, rhos, xs, ys, ts):
        lines.append(",".join(map(_fmt, row)))
    return _lines(lines)


def reference_gauss_text(thetas, rhos, regions, nus) -> str:
    lines = ["theta,rho,region,nu_re,nu_im"]
    for th, rho, region, nu in zip(thetas, rhos, regions, nus):
        lines.append(f"{th:.17g},{rho:.17g},{region.value},{nu.real:.17g},{nu.imag:.17g}")
    return _lines(lines)


def reference_singular_text(points) -> str:
    lines = ["theta,rho,residual,tangential"]
    for p in points:
        lines.append(f"{_fmt(p.theta)},{_fmt(p.rho)},{_fmt(p.residual)},{int(p.tangential)}")
    return _lines(lines)


def reference_surface_text(surface, magic: str, floor: float) -> str:
    lines = [magic]
    for tag, h in (("planar", surface.planar), ("height", surface.height)):
        outer = "inf" if not np.isfinite(h.outer_radius) else _fmt(h.outer_radius)
        lines.append(f"{tag}.annulus {_fmt(h.inner_radius)} {outer}")
        lines.append(f"{tag}.log {_fmt(h.log_coeff.real)} {_fmt(h.log_coeff.imag)}")
        n0 = h.truncation
        for i, (a, b) in enumerate(zip(h.holo, h.antiholo)):
            if abs(a) <= floor and abs(b) <= floor:
                continue
            lines.append(
                f"{tag} {i - n0} {_fmt(a.real)} {_fmt(a.imag)} {_fmt(b.real)} {_fmt(b.imag)}"
            )
    return _lines(lines)


def series_scale(h: HarmonicOnAnnulus, radii) -> np.ndarray:
    """1 + sum |a_n| rho^n + |b_n| rho^-n + |c| |ln rho| per radius: the size
    against which a value of h on the circle |z| = rho is rounded."""
    rho = np.asarray(radii, dtype=float)[:, None]
    n = np.arange(-h.truncation, h.truncation + 1)
    terms = np.abs(h.holo) * rho**n + np.abs(h.antiholo) * rho ** (-n)
    return 1.0 + terms.sum(axis=1) + abs(h.log_coeff) * np.abs(np.log(rho[:, 0]))


def derivative_scale(h: HarmonicOnAnnulus, radii) -> np.ndarray:
    """(1 + sum |n| (|a_n| rho^n + |b_n| rho^-n) + |c|) / rho per radius: the
    size against which h_z and h_zbar on the circle |z| = rho are rounded."""
    rho = np.asarray(radii, dtype=float)[:, None]
    n = np.arange(-h.truncation, h.truncation + 1)
    terms = np.abs(n) * (np.abs(h.holo) * rho**n + np.abs(h.antiholo) * rho ** (-n))
    return (1.0 + terms.sum(axis=1) + abs(h.log_coeff)) / rho[:, 0]
