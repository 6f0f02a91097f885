"""Surfaces through a prescribed spacelike curve with a point singularity.

Given a closed real-analytic spacelike curve, we ask for a radius r0 != 1 and
a maximal surface that maps |z| = r0 onto the curve while collapsing the unit
circle to a single point of Lorentz-Minkowski space.  Encoding the curve in
the (z^n - 1/zbar^n) + log|z| basis turns the question into an algebraic
condition on the weighted Fourier coefficients: the radial derivative of the
candidate surface must be a null field along the unit circle.  The search for
admissible r0 scans that condition's aggregate residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annulus import COEFF_FLOOR, CircleFunction, HarmonicOnAnnulus, estimate_annulus
from .surface import (
    MaximalSurface,
    conformality_residual,
    grid_points,
    is_degenerate,
    special_singularity_check,
)

RESIDUAL_TOL = 1e-8
SPACELIKE_MARGIN = 1e-10
DEFAULT_BRACKET = (0.01, 100.0)
SCAN_POINTS = 512
GOLDEN_WIDTH = 1e-10
UNIT_GAP = 1e-6  # relative exclusion zone around r0 = 1


class InterpolationError(ValueError):
    """The curve does not admit the requested surface."""


@dataclass(frozen=True)
class SpacelikeCurve:
    """A closed curve (planar complex component, real height component)."""

    planar: CircleFunction
    height: CircleFunction

    def translated(self, planar_shift: complex, height_shift: float) -> "SpacelikeCurve":
        p = self.planar.coeffs.copy()
        p[self.planar.max_mode] -= planar_shift
        h = self.height.coeffs.copy()
        h[self.height.max_mode] -= height_shift
        return SpacelikeCurve(
            CircleFunction(p, self.planar.radius),
            CircleFunction(h, self.height.radius),
        )


def spacelike_margin(curve: SpacelikeCurve, n_samples: int = 256) -> float:
    """min over the curve of |planar tangent|^2 - (height tangent)^2."""
    thetas = 2.0 * np.pi * np.arange(n_samples) / n_samples
    dp = curve.planar.derivative().sample(thetas)
    dh = np.real(curve.height.derivative().sample(thetas))
    return float(np.min(np.abs(dp) ** 2 - dh**2))


@dataclass(frozen=True)
class ModifiedCoefficients:
    """Radius-weighted Fourier coefficients of a curve at candidate radius r0.

    ``planar[k]``/``height[k]`` hold the weights of (z^n - 1/zbar^n) for
    n = k - truncation; ``log_planar``/``log_height`` weight ln|z|.  The
    weights are exactly the inverse of evaluating that basis on |z| = r0, so
    synthesis at r0 reproduces the curve.
    """

    r0: float
    log_planar: complex
    log_height: float
    planar: np.ndarray
    height: np.ndarray
    truncation: int


def modified_coeffs(
    curve: SpacelikeCurve, r0: float, truncation: int | None = None
) -> ModifiedCoefficients:
    if r0 <= 0.0 or r0 == 1.0:
        raise InterpolationError("the candidate radius must be positive and != 1")
    if curve.height.realness_error() > 1e-9 * (1.0 + curve.height.max_abs()):
        raise InterpolationError("height component of the curve is not real")
    if truncation is None:
        truncation = max(curve.planar.max_mode, curve.height.max_mode, 1)
    n = np.arange(-truncation, truncation + 1)
    # r0^n / (r0^{2n} - 1) = 1 / (2 sinh(n ln r0)); the sinh form keeps full
    # relative accuracy near r0 = 1, where r0^n - r0^{-n} cancels.
    with np.errstate(over="ignore"):
        gap = 2.0 * np.sinh(n * np.log(float(r0)))
    weight = np.divide(1.0, gap, out=np.zeros_like(gap), where=n != 0)
    f = curve.planar.coeff_array(truncation)
    g = curve.height.coeff_array(truncation)
    return ModifiedCoefficients(
        r0=float(r0),
        log_planar=complex(f[truncation]) / np.log(r0),
        log_height=g[truncation].real / np.log(r0),
        planar=np.where(n != 0, f * weight, 0.0),
        height=np.where(n != 0, g * weight, 0.0),
        truncation=truncation,
    )


def series_residuals(mc: ModifiedCoefficients) -> tuple[dict[int, complex], float]:
    """Fourier residuals of the nullity of the radial field on |z| = 1.

    The candidate surface has radial derivative P_r = sum 2 n c_n e^{i n theta}
    + c (planar) and the analogous real H_r (height); nullity means
    |P_r|^2 - H_r^2 = 0.  Residual k is the k-th Fourier coefficient of that
    difference, for 0 < |k| <= 2K; k = 0 is returned separately as a real
    scalar.  The product has degree 2K, so M >= 4K + 1 samples on the circle
    give every coefficient without aliasing.
    """
    K = mc.truncation
    M = 1 << (4 * K).bit_length()
    n = np.arange(-K, K + 1)

    def radial(coeffs: np.ndarray, log_coeff: complex) -> np.ndarray:
        spectrum = np.zeros(M, dtype=complex)
        spectrum[n % M] = 2.0 * n * coeffs
        spectrum[0] += log_coeff
        return np.fft.ifft(spectrum, norm="forward")

    p = radial(mc.planar, mc.log_planar)
    h = radial(mc.height, mc.log_height)
    modes = np.fft.fft(np.abs(p) ** 2 - np.abs(h) ** 2, norm="forward")
    out = {k: complex(modes[k % M]) for k in range(-2 * K, 2 * K + 1) if k}
    return out, float(modes[0].real)


def scalar_residual(curve: SpacelikeCurve, r0: float) -> float:
    """Sup-norm over all Fourier modes of the nullity residual at r0."""
    mc = modified_coeffs(curve, r0)
    residuals, zero_mode = series_residuals(mc)
    return max(abs(zero_mode), max(abs(v) for v in residuals.values()))


def _golden_minimize(fn, lo: float, hi: float, width: float = GOLDEN_WIDTH):
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > width:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def search_r0(
    curve: SpacelikeCurve,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    scan_points: int = SCAN_POINTS,
    residual_tol: float = RESIDUAL_TOL,
) -> list[float]:
    """All radii in the bracket where the nullity residual vanishes.

    The bracket is split at 1 (where the weights blow up); each sub-bracket
    is scanned on a log-spaced grid, local minima of the residual are refined
    by golden section, and minima below ``residual_tol`` are kept.  An empty
    list is the negative answer.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")
    sub: list[tuple[float, float]] = []
    if lo < 1.0:
        sub.append((lo, min(hi, 1.0 - UNIT_GAP)))
    if hi > 1.0:
        sub.append((max(lo, 1.0 + UNIT_GAP), hi))

    def fn(r):
        return scalar_residual(curve, r)

    roots: list[float] = []
    for a, b in sub:
        if b <= a:
            continue
        grid = np.geomspace(a, b, scan_points)
        vals = np.array([fn(r) for r in grid])
        for i in range(1, scan_points - 1):
            if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
                x, fx = _golden_minimize(fn, grid[i - 1], grid[i + 1])
                if fx < residual_tol:
                    roots.append(x)
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 1e-7 * max(1.0, r):
            merged.append(r)
    return merged


def surface_from_modified(mc: ModifiedCoefficients) -> MaximalSurface:
    """Assemble the (z^n - 1/zbar^n) + log surface from modified coefficients."""

    def build(coeffs: np.ndarray, log_coeff: complex) -> HarmonicOnAnnulus:
        a = coeffs.copy()
        b = -coeffs.copy()
        b[mc.truncation] = 0.0
        inner, outer = estimate_annulus(a, b)
        if not (inner < 1.0 < outer):
            raise InterpolationError(
                "coefficient decay excludes the unit circle from the annulus"
            )
        return HarmonicOnAnnulus(a, b, complex(log_coeff), inner, outer)

    return MaximalSurface(
        build(mc.planar, mc.log_planar), build(mc.height, mc.log_height)
    )


def build_surface(
    curve: SpacelikeCurve,
    r0: float,
    residual_tol: float = RESIDUAL_TOL,
    verify_tol: float = 1e-9,
) -> MaximalSurface:
    """The maximal surface through the curve at radius r0, fully verified.

    Raises when the nullity residual at r0 is too large, the curve is not
    strictly spacelike, or any postcondition (unit circle collapsing to the
    origin, curve reproduction at r0, conformality, non-degeneracy) fails.
    """
    margin = spacelike_margin(curve)
    if margin <= SPACELIKE_MARGIN:
        raise InterpolationError(
            f"curve is not strictly spacelike (margin {margin:.3g})"
        )
    residual = scalar_residual(curve, r0)
    if residual >= residual_tol:
        raise InterpolationError(
            f"nullity residual {residual:.3g} at r0 = {r0} exceeds {residual_tol:.3g}; "
            "no surface with the prescribed singularity exists at this radius"
        )
    surface = surface_from_modified(modified_coeffs(curve, r0))

    thetas = 2.0 * np.pi * np.arange(256) / 256
    circle = np.exp(1j * thetas)
    origin_spread = max(
        float(np.max(np.abs(surface.planar.eval(circle)))),
        float(np.max(np.abs(surface.height.eval(circle)))),
    )
    if origin_spread > 1e-10:
        raise InterpolationError("unit circle does not collapse to the origin")
    ring = r0 * circle
    curve_err = max(
        float(np.max(np.abs(surface.planar.eval(ring) - curve.planar.sample(thetas)))),
        float(np.max(np.abs(surface.height.eval(ring) - curve.height.sample(thetas)))),
    )
    if curve_err > verify_tol:
        raise InterpolationError(f"curve reproduction error {curve_err:.3g} at r0")
    grid = grid_points(surface)
    conf = float(np.max(np.abs(conformality_residual(surface, grid))))
    if conf > 1e-10:
        raise InterpolationError(f"conformality residual {conf:.3g} on grid")
    if not special_singularity_check(surface, 1.0):
        raise InterpolationError("unit circle is not a special singularity")
    if is_degenerate(surface.planar):
        raise InterpolationError("resulting surface is degenerate")
    return surface


def build_surface_through_point(
    curve: SpacelikeCurve,
    r0: float,
    point: tuple[complex, float],
    residual_tol: float = RESIDUAL_TOL,
) -> MaximalSurface:
    """Like build_surface, but the singular image point may be anywhere.

    The curve is translated so the point moves to the origin, the origin
    machinery runs, and the translation is undone on the result.
    """
    planar_shift, height_shift = complex(point[0]), float(point[1])
    moved = curve.translated(planar_shift, height_shift)
    surface = build_surface(moved, r0, residual_tol)
    return MaximalSurface(
        surface.planar.shifted(planar_shift),
        surface.height.shifted(height_shift),
    )


def family_curve(cparam: float) -> SpacelikeCurve:
    """A one-parameter family of spacelike curves with a known solution.

    For any positive cparam != 1 the curve admits a surface with a special
    singularity at the origin at radius r0 = cparam.
    """
    if cparam <= 0.0 or cparam == 1.0:
        raise ValueError("cparam must be positive and != 1")
    c = float(cparam)
    a1 = 0.5 * (c - 1.0 / c)
    a3 = (c**3 - c**-3) / 6.0
    b2 = 0.25 * (c**2 - c**-2)
    planar = CircleFunction.from_dict({-1: a1, 3: a3})
    height = CircleFunction.from_dict({2: b2, -2: b2})
    return SpacelikeCurve(planar, height)
