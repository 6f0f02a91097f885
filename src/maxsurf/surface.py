"""Surface calculus for generalized maximal surfaces in Lorentz-Minkowski space.

A surface is a pair (planar, height) of harmonic functions on a common
annulus: the planar part is the complex coordinate, the height part must be
real-valued.  The conformality relation

    planar_z * conj(planar_zbar) - height_z^2 = 0

together with non-degeneracy (|planar_z| not identically |planar_zbar|)
characterizes a valid surface; the set where |planar_z| = |planar_zbar| is
its singular set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect

from .annulus import DomainError, HarmonicOnAnnulus

SINGULAR_TOL = 1e-9
DEGENERACY_TOL = 1e-10
BRANCH_FLOOR = 1e-14
QUAD_TOL = 1e-12

# Radii used for default grids on sentinel (0, inf) domains.
FALLBACK_INNER = 0.5
FALLBACK_OUTER = 2.0


class SingularPointError(ValueError):
    """Operation requires a regular point but got a singular one."""


class BranchPointError(ValueError):
    """Square-root integrand vanishes on the integration path."""


class DegenerateSurfaceError(ValueError):
    """|planar_z| and |planar_zbar| agree identically on the test grid."""


class Region(enum.Enum):
    """Which derivative dominates at a point."""

    HOLO_DOMINANT = "holo"  # |planar_zbar| < |planar_z|
    SINGULAR = "singular"  # equal within tolerance
    ANTI_DOMINANT = "anti"  # |planar_zbar| > |planar_z|


@dataclass(frozen=True)
class SingularPoint:
    theta: float
    rho: float
    residual: float
    tangential: bool = False


@dataclass(frozen=True)
class MaximalSurface:
    planar: HarmonicOnAnnulus
    height: HarmonicOnAnnulus

    @property
    def inner_radius(self) -> float:
        return max(self.planar.inner_radius, self.height.inner_radius)

    @property
    def outer_radius(self) -> float:
        return min(self.planar.outer_radius, self.height.outer_radius)


def evaluate(surface: MaximalSurface, z):
    """Map a parameter point to (complex coordinate, real height)."""
    p = surface.planar.eval(z)
    w = surface.height.eval(z)
    if np.isscalar(p) or isinstance(p, complex):
        return p, float(np.real(w))
    return p, np.real(w)


def conformality_residual(surface: MaximalSurface, z):
    hz = surface.planar.d_z(z)
    hzb = surface.planar.d_zbar(z)
    wz = surface.height.d_z(z)
    return hz * np.conj(hzb) - wz**2


def singularity_residual(surface: MaximalSurface, z):
    """|planar_z|^2 - |planar_zbar|^2; zero exactly on the singular set."""
    hz = surface.planar.d_z(z)
    hzb = surface.planar.d_zbar(z)
    return np.abs(hz) ** 2 - np.abs(hzb) ** 2


def metric_factor(surface: MaximalSurface, z):
    hz = surface.planar.d_z(z)
    hzb = surface.planar.d_zbar(z)
    return (np.abs(hz) - np.abs(hzb)) ** 2


def classify_point(surface: MaximalSurface, z, tol: float = SINGULAR_TOL) -> Region:
    hz = abs(surface.planar.d_z(z))
    hzb = abs(surface.planar.d_zbar(z))
    if hzb < hz - tol:
        return Region.HOLO_DOMINANT
    if hzb > hz + tol:
        return Region.ANTI_DOMINANT
    return Region.SINGULAR


# -- grids ------------------------------------------------------------------


def grid_radii(surface_or_harmonic, count: int = 16) -> np.ndarray:
    """Log-spaced radii strictly inside the (possibly sentinel) annulus."""
    inner = surface_or_harmonic.inner_radius
    outer = surface_or_harmonic.outer_radius
    lo = inner * 1.02 if inner > 0.0 else FALLBACK_INNER
    hi = outer / 1.02 if np.isfinite(outer) else FALLBACK_OUTER
    hi = max(hi, lo * 1.01)
    return np.geomspace(lo, hi, count)

def grid_points(surface_or_harmonic, n_theta: int = 64, n_rho: int = 16) -> np.ndarray:
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    radii = grid_radii(surface_or_harmonic, n_rho)
    return np.outer(radii, np.exp(1j * thetas)).ravel()


# -- degeneracy -------------------------------------------------------------


def is_degenerate(planar: HarmonicOnAnnulus, grid=None, tol: float = DEGENERACY_TOL) -> bool:
    """True iff |planar_z| and |planar_zbar| agree on the whole test grid."""
    if grid is None:
        grid = grid_points(planar)
    gap = np.abs(np.abs(planar.d_z(grid)) - np.abs(planar.d_zbar(grid)))
    return bool(np.max(gap) < tol)


# -- singular set -----------------------------------------------------------


def singular_set(
    surface: MaximalSurface,
    thetas,
    rho_bracket: tuple[float, float],
    subdivisions: int = 256,
    xtol: float = 1e-10,
    residual_tol: float = SINGULAR_TOL,
) -> list[SingularPoint]:
    """Roots of rho -> |planar_z|^2 - |planar_zbar|^2 along each ray.

    Sign changes are refined by bisection; zeros the scan cannot bracket
    (the residual touches zero without crossing, or vanishes on a whole
    sub-interval) are reported once per below-tolerance run with the
    ``tangential`` flag set.
    """
    lo, hi = rho_bracket
    if not (surface.inner_radius < lo < hi < surface.outer_radius):
        raise DomainError("rho bracket must lie inside the annulus")
    rhos = np.linspace(lo, hi, subdivisions + 1)
    found: list[SingularPoint] = []
    for theta in np.atleast_1d(np.asarray(thetas, dtype=float)):
        ray = rhos * np.exp(1j * theta)
        f = np.asarray(singularity_residual(surface, ray), dtype=float)

        def f_at(rho, _theta=theta):
            return float(singularity_residual(surface, rho * np.exp(1j * _theta)))

        roots = []
        for i in range(subdivisions):
            if f[i] * f[i + 1] < 0.0:
                # Near-tangential zeros can flip sign between the vectorized
                # scan and scalar re-evaluation; only a confirmed straddle is
                # worth bisecting, the run detector below catches the rest.
                if f_at(rhos[i]) * f_at(rhos[i + 1]) < 0.0:
                    roots.append(bisect(f_at, rhos[i], rhos[i + 1], xtol=xtol))
        for rho in roots:
            found.append(SingularPoint(float(theta), float(rho), abs(f_at(rho)), False))

        # Tangential zeros: maximal runs of |f| below tolerance that contain
        # no bracketed root get one flagged representative at the run center.
        below = np.abs(f) < residual_tol
        i = 0
        while i <= subdivisions:
            if not below[i]:
                i += 1
                continue
            j = i
            while j + 1 <= subdivisions and below[j + 1]:
                j += 1
            run_lo, run_hi = rhos[i], rhos[j]
            if not any(run_lo - xtol <= r <= run_hi + xtol for r in roots):
                mid = 0.5 * (run_lo + run_hi)
                found.append(SingularPoint(float(theta), float(mid), abs(f_at(mid)), True))
            i = j + 1
    found.sort(key=lambda p: (p.theta, p.rho))
    return found


# -- branch-tracked square roots -------------------------------------------


def _path_nodes(z_from: complex, z_to: complex, per_leg: int) -> np.ndarray:
    """Radial-then-arc discrete path between two annulus points."""
    r0, r1 = abs(z_from), abs(z_to)
    t0 = float(np.angle(z_from))
    t1 = float(np.angle(z_to))
    dt = (t1 - t0 + np.pi) % (2.0 * np.pi) - np.pi
    radial = np.geomspace(r0, r1, per_leg) * np.exp(1j * t0)
    arc = r1 * np.exp(1j * (t0 + dt * np.linspace(0.0, 1.0, per_leg)))
    return np.concatenate([radial, arc[1:]])


def _track_signs(values: np.ndarray, start: complex) -> np.ndarray:
    """Choose +/- sqrt along a path so the branch varies continuously."""
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


def _tracked_sqrt(fn, anchor: complex, z: complex, per_leg: int = 96) -> complex:
    """sqrt(fn) at z, continued continuously from the principal root at anchor."""
    start = np.sqrt(complex(fn(anchor)))
    prev_val = None
    n = per_leg
    for _ in range(6):
        path = _path_nodes(anchor, z, n)
        vals = np.asarray(fn(path))
        tracked = _track_signs(vals, start)
        end = complex(tracked[-1])
        if prev_val is not None and abs(end - prev_val) <= 1e-11 * (1.0 + abs(end)):
            return end
        prev_val = end
        n *= 2
    return prev_val


def _regular_anchor(surface: MaximalSurface, region: Region | None = None) -> complex:
    """A fixed representative point for branch continuation.

    The theta = 0 ray is scanned first so that, whenever the region meets the
    positive real axis, the anchor (and with it the square-root branch) sits
    there; a full grid is the fallback for regions that avoid the axis.
    """

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


# -- normal and Gauss map ---------------------------------------------------

POINT_AT_INFINITY = complex(np.inf, 0.0)


def normal(surface: MaximalSurface, z, tol: float = SINGULAR_TOL):
    """Unit Minkowski normal (planar part, height part) at a regular point.

    The square root of planar_z * planar_zbar is continued continuously from
    a fixed regular anchor; the result has Minkowski norm -1.
    """
    z = complex(z)
    hz = surface.planar.d_z(z)
    hzb = surface.planar.d_zbar(z)
    denom = abs(hzb) - abs(hz)
    if abs(denom) <= tol * (1.0 + abs(hz) + abs(hzb)):
        raise SingularPointError(f"{z} is a singular point")
    anchor = _regular_anchor(surface)

    def product(p):
        return surface.planar.d_z(p) * surface.planar.d_zbar(p)

    root = _tracked_sqrt(product, anchor, z)
    # The tracked value settles the phase; its magnitude is known in closed
    # form, which keeps the Minkowski norm exact even near the singular set.
    root *= np.sqrt(abs(hz) * abs(hzb)) / abs(root)
    return 2.0 * root / denom, (abs(hzb) + abs(hz)) / denom


def gauss_map(surface: MaximalSurface, z, tol: float = SINGULAR_TOL) -> complex:
    """Stereographically projected normal at a regular point.

    Returns POINT_AT_INFINITY when the relevant denominator derivative
    vanishes.  The branch is continued from a per-region anchor, so the map
    is continuous on each region component containing its anchor.
    """
    z = complex(z)
    region = classify_point(surface, z, tol)
    if region is Region.SINGULAR:
        raise SingularPointError(f"{z} is a singular point")
    planar = surface.planar
    if region is Region.HOLO_DOMINANT:
        num, den = planar.d_z(z), np.conj(planar.d_zbar(z))
        sign = 1.0

        def ratio(p):
            return planar.d_z(p) / np.conj(planar.d_zbar(p))

    else:
        num, den = planar.d_zbar(z), np.conj(planar.d_z(z))
        sign = -1.0

        def ratio(p):
            return planar.d_zbar(p) / np.conj(planar.d_z(p))

    if abs(den) < BRANCH_FLOOR * (1.0 + abs(num)):
        return POINT_AT_INFINITY
    anchor = _regular_anchor(surface, region)
    return sign * _tracked_sqrt(ratio, anchor, z)


# -- height recovery (line-integral representation) -------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)


def _panel(qfn, za: complex, zb: complex, s_start: complex):
    """One Gauss-Legendre panel with branch tracking; returns (value, s_end)."""
    mid = 0.5 * (za + zb)
    half = 0.5 * (zb - za)
    nodes = mid + half * _GL_X
    vals = np.asarray(qfn(np.append(nodes, zb)))
    tracked = _track_signs(vals, s_start)
    integral = half * np.sum(_GL_W * tracked[:-1])
    return integral, complex(tracked[-1])


def _integrate_sqrt_segment(qfn, za, zb, s_start, tol=QUAD_TOL, max_depth=40):
    """Adaptive integral of the tracked sqrt along one straight segment."""
    total = 0j
    stack = [(za, zb, s_start, 0)]
    while stack:
        a, b, s0, depth = stack.pop()
        coarse, _ = _panel(qfn, a, b, s0)
        m = 0.5 * (a + b)
        left, s_mid = _panel(qfn, a, m, s0)
        right, s_end = _panel(qfn, m, b, s_mid)
        if abs(coarse - (left + right)) <= tol or depth >= max_depth:
            total += left + right
            s_start = s_end
        else:
            # Right half goes first onto the stack so the left half is
            # processed next, keeping the branch state in path order.
            stack.append((m, b, s_mid, depth + 1))
            stack.append((a, m, s0, depth + 1))
    return total, s_start


def _polyline(z0: complex, z1: complex) -> list[complex]:
    """Annulus-safe default polyline: radial leg then a chorded arc."""
    nodes = _path_nodes(z0, z1, 17)
    keep = [complex(nodes[0])]
    for p in nodes[1:]:
        if abs(p - keep[-1]) > 1e-13:
            keep.append(complex(p))
    return keep


def w_from_h(
    planar: HarmonicOnAnnulus,
    z0: complex,
    w0: float,
    targets,
    via=None,
    tol: float = QUAD_TOL,
):
    """Recover the real height function from the complex coordinate.

    Computes 2 Re integral of the continuously-tracked square root of
    planar_z * conj(planar_zbar) along a polyline from z0 to each target,
    plus w0.  The branch starts at the principal root at z0.  ``via`` may
    list explicit intermediate polyline vertices (applied to every target);
    by default an annulus-safe radial-plus-arc polyline is used.
    """
    z0 = complex(z0)

    def q(p):
        return planar.d_z(p) * np.conj(planar.d_zbar(p))

    q0 = complex(q(np.array([z0]))[0])
    if abs(q0) < BRANCH_FLOOR:
        raise BranchPointError("integrand vanishes at the base point")
    results = []
    for target in np.atleast_1d(np.asarray(targets, dtype=complex)):
        if via is None:
            vertices = _polyline(z0, complex(target))
        else:
            vertices = [z0, *map(complex, via), complex(target)]
        state = np.sqrt(q0)
        total = 0j
        for a, b in zip(vertices[:-1], vertices[1:]):
            piece, state = _integrate_sqrt_segment(q, a, b, state, tol)
            total += piece
        results.append(2.0 * float(np.real(total)) + w0)
    return results


# -- special singularities --------------------------------------------------


def special_singularity_check(
    surface: MaximalSurface, radius: float, tol: float = 1e-8, samples: int = 256
) -> bool:
    """True iff the circle |z| = radius maps to a single point and is singular."""
    thetas = 2.0 * np.pi * np.arange(samples) / samples
    circle = radius * np.exp(1j * thetas)
    p = surface.planar.eval(circle)
    w = np.real(surface.height.eval(circle))
    spread = max(
        float(np.max(np.abs(p - p[0]))),
        float(np.max(np.abs(w - w[0]))),
    )
    eta_max = float(np.max(metric_factor(surface, circle)))
    return spread < tol and eta_max < tol
