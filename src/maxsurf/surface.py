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

from .annulus import COEFF_FLOOR, DomainError, HarmonicOnAnnulus, circle_angles, polar_grid

SINGULAR_TOL = 1e-9
DEGENERACY_TOL = 1e-10
BRANCH_FLOOR = 1e-14
# Most samples on w_from_h's ring.
RING_LIMIT = 1 << 16
# Largest |w_z^2 - h_z conj(h_zbar)| / (|h_z| |h_zbar|) at which the normal
# and the Gauss map take their sign from w_z.
CONFORMAL_TOL = 1e-6

SPECIAL_TOL = 1e-8  # special_singularity_check's bound on spread and metric
SPECIAL_SAMPLES = 256  # points on special_singularity_check's circle

# Radii used for default grids on sentinel (0, inf) domains.
FALLBACK_INNER = 0.5
FALLBACK_OUTER = 2.0


class SingularPointError(ValueError):
    """Operation requires a regular point but got a singular one."""


class BranchPointError(ValueError):
    """A square root of h_z conj(h_zbar) vanishes where it is needed, is not
    single-valued around the annulus, or differs from w_z (not conformal)."""


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
    if np.isscalar(p):
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


_REGIONS = np.array([Region.ANTI_DOMINANT, Region.SINGULAR, Region.HOLO_DOMINANT])


def _sides(hz, hzb, tol: float) -> np.ndarray:
    """1 where |hzb| < |hz| - tol, -1 where |hzb| > |hz| + tol, else 0."""
    ahz, ahzb = np.abs(hz), np.abs(hzb)
    return (ahzb < ahz - tol).astype(int) - (ahzb > ahz + tol)


def _planar_derivatives(surface: MaximalSurface, z):
    """(h_z, h_zbar) at z.  The surface keeps the last call's points and values,
    so that `classify_point` and then `gauss_map` on one grid evaluate it once."""
    last = surface.__dict__.get("_last_derivatives")
    if last is None or not np.array_equal(last[0], z):
        last = surface.__dict__["_last_derivatives"] = (
            np.array(z), surface.planar.d_z(z), surface.planar.d_zbar(z))
    return last[1:]


def classify_point(surface: MaximalSurface, z, tol: float = SINGULAR_TOL):
    """The Region of a point; an array of Regions for an array of points."""
    return _REGIONS[_sides(*_planar_derivatives(surface, z), tol) + 1]


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
    return polar_grid(grid_radii(surface_or_harmonic, n_rho), n_theta).ravel()


# -- degeneracy -------------------------------------------------------------


def is_degenerate(planar: HarmonicOnAnnulus) -> bool:
    """True iff |planar_z| and |planar_zbar| agree within DEGENERACY_TOL on
    the 16 x 64 `grid_radii` grid."""
    hz, hzb = planar.d_polar(grid_radii(planar), 64)
    return bool(np.max(np.abs(np.abs(hz) - np.abs(hzb))) < DEGENERACY_TOL)


# -- singular set -----------------------------------------------------------

# scipy.optimize.bisect's relative tolerance.
_BISECT_RTOL = 4.0 * np.finfo(float).eps

# Points x modes per batched derivative call; bounds the mode matrices.
_BATCH_ENTRIES = 1 << 20

SCAN_SUBDIVISIONS = 256  # radius cells per ray of the singular-set scan
SCAN_XTOL = 1e-10  # absolute tolerance in rho of its bisection

# A scan value at most this many eps of |h_z|^2 + |h_zbar|^2 is a zero.
_SCAN_ZERO_ULPS = 8.0


def _bisect_brackets(f, a, b, fa, xtol: float, maxiter: int = 100, sections: int = 2) -> np.ndarray:
    """Refine every bracket [a[k], b[k]] (f(a) f(b) < 0) at once.

    ``f(x, k)`` is bracket k[j]'s function at x[j], called once per step on
    the open brackets; ``fa`` = f(a).  A step cuts each bracket into
    ``sections`` parts of width dm, tries x_j = a + j dm for j < sections,
    and moves a to the last x_j of the leading run with f(x_j) f(a) >= 0.
    It returns the run's first zero, or else x_max(run,1) once
    |dm| < xtol + 4 eps |x_max(run,1)|.  With two sections these are the
    steps of scipy.optimize.bisect.  A NaN value, or a bracket open after
    ``maxiter`` steps, raises ValueError.
    """
    xa = np.array(a, dtype=float)
    dm = np.asarray(b, dtype=float) - xa
    fa = np.asarray(fa, dtype=float)
    live = np.arange(len(xa))
    roots = np.empty(len(xa))
    for _ in range(maxiter):
        if not len(live):
            break
        dm = dm / sections
        x = xa[:, None] + np.arange(1.0, sections) * dm[:, None]
        fx = np.asarray(f(x.ravel(), np.repeat(live, sections - 1)), dtype=float).reshape(x.shape)
        if np.any(np.isnan(fx)):
            raise ValueError(f"the function value at x={x[np.isnan(fx)][0]} is NaN")
        lead = np.logical_and.accumulate(fx * fa[:, None] >= 0.0, axis=1)
        run, zero, row = lead.sum(axis=1), lead & (fx == 0.0), np.arange(len(live))
        xa = np.where(run > 0, x[row, run - 1], xa)
        hit = zero.any(axis=1)
        xm = x[row, np.where(hit, zero.argmax(axis=1), np.maximum(run, 1) - 1)]
        done = hit | (np.abs(dm) < xtol + _BISECT_RTOL * np.abs(xm))
        roots[live[done]] = xm[done]
        xa, dm, fa, live = xa[~done], dm[~done], fa[~done], live[~done]
    if len(live):
        raise ValueError(f"bisection did not converge after {maxiter} steps")
    return roots


def point_blocks(surface: MaximalSurface, z: np.ndarray) -> list[np.ndarray]:
    """The points z in consecutive blocks, each small enough that its
    points x modes derivative matrices keep to _BATCH_ENTRIES entries."""
    modes = 2 * max(surface.planar.truncation, surface.height.truncation) + 1
    step = max(1, _BATCH_ENTRIES // modes)
    return [z[i : i + step] for i in range(0, len(z), step)]


def _residual_at(surface: MaximalSurface, z: np.ndarray) -> np.ndarray:
    """singularity_residual at many points, each point as its own row.

    A column of points makes each series value a row-by-coefficients
    product, rounded as in a one-point call and not as in the scan's
    synthesis; the confirm step relies on that.  Calls are of bounded size.
    """
    parts = [singularity_residual(surface, block[:, None]).ravel()
             for block in point_blocks(surface, z)]
    return np.concatenate(parts) if parts else np.empty(0)


def _scan(surface: MaximalSurface, n_theta: int, rhos: np.ndarray) -> np.ndarray:
    """singularity_residual on the rays at ``circle_angles(n_theta)`` (rows) and
    the radii ``rhos`` (columns), by one inverse FFT per circle.

    A value within rounding of zero, |f| <= 8 eps (|h_z|^2 + |h_zbar|^2), is
    set to 0: on a ray that lies in the singular set up to rounding, the scan
    then sees no sign change, and the run detector reports the ray once.
    """
    hz, hzb = surface.planar.d_polar(rhos, n_theta)
    holo, anti = np.abs(hz) ** 2, np.abs(hzb) ** 2
    f = holo - anti
    return np.where(np.abs(f) <= _SCAN_ZERO_ULPS * np.finfo(float).eps * (holo + anti), 0.0, f).T


def singular_set(surface: MaximalSurface, thetas,
                 rho_bracket: tuple[float, float]) -> list[SingularPoint]:
    """Roots of rho -> |planar_z|^2 - |planar_zbar|^2 along each ray.

    ``thetas`` must be ``circle_angles(n)``: the rays at SCAN_SUBDIVISIONS + 1
    radii form a polar grid, scanned by `_scan`.  The ends of every
    sign-change cell of every ray are re-evaluated together; the cells that
    still straddle zero are refined by one batched bisection, which takes
    scipy.optimize.bisect's steps on each bracket (xtol SCAN_XTOL) and
    evaluates all open midpoints in one call per halving.  A node that the
    scan reads as 0 between opposite signs is itself a root.

    Zeros the scan cannot bracket (the residual touches zero without
    crossing, or vanishes on a whole sub-interval) are reported once per
    run below SINGULAR_TOL with the ``tangential`` flag set.
    """
    lo, hi = rho_bracket
    if not (surface.inner_radius < lo < hi < surface.outer_radius):
        raise DomainError("rho bracket must lie inside the annulus")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if not (len(thetas) and np.array_equal(thetas, circle_angles(len(thetas)))):
        raise ValueError("the rays must be at circle_angles(n) for some n >= 1")
    spins = np.exp(1j * thetas)
    rhos = np.linspace(lo, hi, SCAN_SUBDIVISIONS + 1)
    scan = _scan(surface, len(thetas), rhos)

    # Near-tangential zeros can flip sign between the scan and a second
    # evaluation; only a confirmed straddle is worth bisecting, the run
    # detector below catches the rest.
    ray, cell = np.nonzero(scan[:, :-1] * scan[:, 1:] < 0.0)
    ends = np.concatenate([rhos[cell], rhos[cell + 1]]) * np.tile(spins[ray], 2)
    fa, fb = np.split(_residual_at(surface, ends), 2)
    straddle = fa * fb < 0.0
    ray, cell, fa = ray[straddle], cell[straddle], fa[straddle]
    roots = _bisect_brackets(
        lambda x, k: _residual_at(surface, x * spins[ray[k]]),
        rhos[cell], rhos[cell + 1], fa, SCAN_XTOL,
    )
    # A crossing that lands on a node leaves a zero between opposite signs:
    # the node is the root.
    node_ray, node = np.nonzero((scan[:, 1:-1] == 0.0) & (scan[:, :-2] * scan[:, 2:] < 0.0))
    ray, roots = np.concatenate([ray, node_ray]), np.concatenate([roots, rhos[node + 1]])
    order = np.lexsort((roots, ray))
    ray, roots = ray[order], roots[order]

    # Tangential zeros: maximal runs of |f| below tolerance that contain no
    # bracketed root get one flagged representative at the run center.
    below = np.abs(scan) < SINGULAR_TOL
    edge = np.diff(np.pad(below, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    run_ray, first = np.nonzero(edge == 1)
    last = np.nonzero(edge == -1)[1] - 1
    # Roots come out ordered by ray, then radius.
    ray_lo = np.searchsorted(ray, run_ray, side="left")
    ray_hi = np.searchsorted(ray, run_ray, side="right")
    bare = np.array(
        [
            not np.any((rhos[i] - SCAN_XTOL <= roots[s:e]) & (roots[s:e] <= rhos[j] + SCAN_XTOL))
            for i, j, s, e in zip(first, last, ray_lo, ray_hi)
        ],
        dtype=bool,
    )
    mids = 0.5 * (rhos[first[bare]] + rhos[last[bare]])

    point_ray = np.concatenate([ray, run_ray[bare]])
    point_rho = np.concatenate([roots, mids])
    residual = np.abs(_residual_at(surface, point_rho * spins[point_ray]))
    found = [
        SingularPoint(float(thetas[r]), float(rho), float(res), k >= len(roots))
        for k, (r, rho, res) in enumerate(zip(point_ray, point_rho, residual))
    ]
    found.sort(key=lambda p: (p.theta, p.rho))
    return found


# -- normal and Gauss map ---------------------------------------------------


def _guided_root(surface: MaximalSurface, z, hz, hzb, region: Region | None):
    """The normal's (region None) or the Gauss map's square root at the points
    z of that region, on the branch of the guide h_z conj(w_z).

    By w_z^2 = h_z conj(h_zbar), the guide's square is a positive multiple of
    each root's argument, so w_z picks the branch: the principal root, negated
    where it points away from the guide.  Raises BranchPointError where the
    relation misses by more than CONFORMAL_TOL relative to |h_z||h_zbar|.
    """
    wz = surface.height.d_z(z)
    bad = np.abs(wz**2 - hz * np.conj(hzb)) > CONFORMAL_TOL * np.abs(hz) * np.abs(hzb)
    if np.any(bad):
        raise BranchPointError(
            f"w_z^2 differs from h_z conj(h_zbar) at {complex(z[bad][0])}: "
            "the surface is not conformal there"
        )
    if region is None:
        root = np.sqrt(hz * hzb)
    elif region is Region.HOLO_DOMINANT:
        root = np.sqrt(hz / np.conj(hzb))
    else:
        root = np.sqrt(hzb / np.conj(hz))
    # root * conj(guide) = root * conj(h_z) * w_z
    return root * np.where((root * np.conj(hz) * wz).real < 0.0, -1.0, 1.0)


POINT_AT_INFINITY = complex(np.inf, 0.0)


def normal(surface: MaximalSurface, z):
    """Unit Minkowski normal (planar part, height part) at regular points.

    N = (2 s, |h_zbar| + |h_z|) / (|h_zbar| - |h_z|) with s the square root
    of h_z h_zbar whose phase is that of h_z conj(w_z) (`_guided_root`),
    rescaled to |s| = sqrt(|h_z| |h_zbar|) so that N has Minkowski norm -1
    exactly.  This sign makes N Minkowski-orthogonal to the tangents
    X_x = (h_z + h_zbar, 2 Re w_z) and X_y = (i (h_z - h_zbar), -2 Im w_z).

    z may be a point or an array.  A singular point (within SINGULAR_TOL)
    raises SingularPointError; in an array, singular points give NaN.  A
    point where the surface is not conformal (see `_guided_root`) raises
    BranchPointError.
    """
    zz = np.asarray(z, dtype=complex)
    flat = zz.ravel()
    hz, hzb = surface.planar.d_z(flat), surface.planar.d_zbar(flat)
    ahz, ahzb = np.abs(hz), np.abs(hzb)
    denom = ahzb - ahz
    ok = np.abs(denom) > SINGULAR_TOL * (1.0 + ahz + ahzb)
    if zz.ndim == 0 and not ok[0]:
        raise SingularPointError(f"{complex(zz)} is a singular point")
    root = _guided_root(surface, flat[ok], hz[ok], hzb[ok], None)
    # The magnitude is known in closed form, which keeps the Minkowski norm
    # exact even near the singular set.
    size = np.abs(root)
    root = root * (np.sqrt(ahz[ok] * ahzb[ok]) / np.where(size > 0.0, size, 1.0))
    planar = np.full(flat.shape, complex(np.nan, np.nan))
    height = np.full(flat.shape, np.nan)
    planar[ok] = 2.0 * root / denom[ok]
    height[ok] = (ahzb[ok] + ahz[ok]) / denom[ok]
    if zz.ndim == 0:
        return complex(planar[0]), float(height[0])
    return planar.reshape(zz.shape), height.reshape(zz.shape)


def gauss_map(surface: MaximalSurface, z):
    """Stereographically projected normal at regular points.

    nu^2 is h_z / conj(h_zbar) where |h_zbar| < |h_z| (holo-dominant) and
    h_zbar / conj(h_z) where |h_zbar| > |h_z| (anti-dominant).  The sign is
    the one of `normal`: nu = h_z / w_z on holo points and -conj(w_z / h_z)
    on anti points, so that nu = N_planar / (1 + N_height) and
    N_planar / (1 - N_height) there.  It is computed as the principal root
    of the ratio on the branch of `_guided_root`, negated on anti points.

    Returns POINT_AT_INFINITY where the denominator derivative vanishes.  z
    may be a point or an array.  A singular point (within SINGULAR_TOL)
    raises SingularPointError; in an array, singular points give NaN.  A
    point where the surface is not conformal (see `_guided_root`) raises
    BranchPointError.
    """
    zz = np.asarray(z, dtype=complex)
    flat = zz.ravel()
    hz, hzb = _planar_derivatives(surface, flat)
    side = _sides(hz, hzb, SINGULAR_TOL)
    if zz.ndim == 0 and side[0] == 0:
        raise SingularPointError(f"{complex(zz)} is a singular point")
    num = np.where(side < 0, hzb, hz)
    den = np.conj(np.where(side < 0, hz, hzb))
    finite = np.abs(den) >= BRANCH_FLOOR * (1.0 + np.abs(num))
    nu = np.where(side == 0, complex(np.nan, np.nan), POINT_AT_INFINITY)
    holo, anti = (side > 0) & finite, (side < 0) & finite
    if np.any(holo):
        nu[holo] = _guided_root(surface, flat[holo], hz[holo], hzb[holo], Region.HOLO_DOMINANT)
    if np.any(anti):
        nu[anti] = -_guided_root(surface, flat[anti], hz[anti], hzb[anti], Region.ANTI_DOMINANT)
    return complex(nu[0]) if zz.ndim == 0 else nu.reshape(zz.shape)


# -- height recovery (one spectral fit on one circle) -----------------------


def _track_signs(values: np.ndarray, start: complex) -> np.ndarray:
    """Choose +/- sqrt along a path so the branch varies continuously.

    The sign flips where Re(root_i conj(root_{i-1})) < 0, root_{-1} = start;
    root i is negated when the flips up to i are odd in number.
    """
    roots = np.sqrt(values)
    if np.abs(values).min() < BRANCH_FLOOR:
        raise BranchPointError("square-root argument vanishes on the path")
    before = np.concatenate(([start], roots[:-1]))
    odd = np.logical_xor.accumulate((roots * before.conj()).real < 0.0)
    return np.where(odd, -roots, roots)


def w_from_h(planar: HarmonicOnAnnulus, z0: complex, w0: float, targets, via=None):
    """Recover the real height function from the complex coordinate.

    A real harmonic w with w_z^2 = q = planar_z conj(planar_zbar) has
    z w_z = sum d_n (z/rho)^n with d_0 real, so w = 2 Re sum_{n != 0}
    (d_n / n) (z/rho)^n + 2 d_0 ln|z| + const.  One trapezoidal FFT of
    z sqrt(q), tracked around the circle of `grid_radii` where min |q| is
    largest, gives every d_n; modes below COEFF_FLOOR times the largest are
    dropped.  The ring has 16N points or more, doubled until each step of
    arg q is below pi/4 (at most RING_LIMIT points).  w_z(z0) is the
    principal root of q(z0), and w(z0) = w0.  The result depends on no path:
    ``via`` is only checked, like the targets, to lie in the domain.

    Raises BranchPointError where q(z0) = 0, where sqrt(q) vanishes or
    changes sign around the circle, where RING_LIMIT points do not resolve
    arg q, and where Im d_0 != 0 (w has a period).
    """
    z0 = complex(z0)
    targets = np.atleast_1d(np.asarray(targets, dtype=complex))
    planar._check_domain(np.append(targets, [] if via is None else via))

    q0 = complex(planar.d_z(z0) * np.conj(planar.d_zbar(z0)))
    if abs(q0) < BRANCH_FLOOR:
        raise BranchPointError("integrand vanishes at the base point")
    radii = grid_radii(planar)
    hz, hzb = planar.d_polar(radii, 64)
    rho = radii[np.argmax(np.abs(hz * np.conj(hzb)).min(axis=1))]
    # q winds at most 2N + 2 times around a circle.  From 16N samples, the
    # ring doubles until arg q moves by less than an eighth turn per step,
    # well inside the quarter turn of its root that _track_signs allows.
    size = min(1 << (16 * planar.truncation).bit_length(), RING_LIMIT)
    while True:
        hz, hzb = planar.d_polar([rho], size)
        values = hz[0] * np.conj(hzb[0])
        if np.abs(np.angle(np.roll(values, -1) * np.conj(values))).max() < np.pi / 4:
            break
        if size == RING_LIMIT:
            raise BranchPointError(
                f"arg(h_z conj(h_zbar)) is not resolved by {size} samples on |z| = {rho:.6g}")
        size *= 2
    ring = polar_grid([rho], size)[0]
    start = int(np.argmax(np.abs(values)))
    roots = _track_signs(np.roll(values, -start), np.sqrt(values[start]))
    if (roots[-1] * np.conj(roots[0])).real < 0.0:
        raise BranchPointError("sqrt(h_z conj(h_zbar)) changes sign around a circle")
    d = np.fft.fft(ring * np.roll(roots, start)) / len(ring)
    floor = COEFF_FLOOR * np.abs(d).max()
    keep = np.abs(d) >= floor
    d0 = d[0] * keep[0]
    keep[0] = False
    # Only the kept modes are raised to powers: (z/rho)^n overflows at the
    # ring's largest |n|.
    n, d = np.fft.fftfreq(len(ring), 1.0 / len(ring))[keep], d[keep]
    wz0 = (np.power(z0 / rho, n) @ d + d0) / z0
    sign = -1.0 if (wz0 * np.conj(np.sqrt(q0))).real < 0.0 else 1.0
    if abs(d0.imag) > floor:  # the period of the branch with w_z(z0) = sqrt(q(z0))
        raise BranchPointError(f"the height changes by {-4 * np.pi * sign * d0.imag:.3g} around 0")
    d0 = d0.real

    def w(z):  # up to the sign and the constant
        return 2.0 * ((np.power(z[:, None] / rho, n) @ (d / n)).real + d0 * np.log(np.abs(z)))

    return (w0 + sign * (w(targets) - w(np.array([z0]))[0])).tolist()


# -- special singularities --------------------------------------------------


def special_singularity_check(surface: MaximalSurface, radius: float) -> bool:
    """True iff the circle |z| = radius maps to a single point and is singular,
    both within SPECIAL_TOL on SPECIAL_SAMPLES points."""
    circle = radius * np.exp(1j * circle_angles(SPECIAL_SAMPLES))
    p = surface.planar.eval(circle)
    w = np.real(surface.height.eval(circle))
    spread = max(
        float(np.max(np.abs(p - p[0]))),
        float(np.max(np.abs(w - w[0]))),
    )
    eta_max = float(np.max(metric_factor(surface, circle)))
    return spread < SPECIAL_TOL and eta_max < SPECIAL_TOL
