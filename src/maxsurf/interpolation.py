"""Surfaces through a prescribed spacelike curve with a point singularity.

Given a closed real-analytic spacelike curve, we ask for a radius r0 != 1 and
a maximal surface that maps |z| = r0 onto the curve while collapsing the unit
circle to a single point of Lorentz-Minkowski space.  Encoding the curve in
the (z^n - 1/zbar^n) + log|z| basis turns the question into an algebraic
condition on the weighted Fourier coefficients: the radial derivative of the
candidate surface must be a null field along the unit circle.  The search for
admissible r0 bisects the slope of that condition's squared residual, odd in
t = ln r0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annulus import CIRCLE_SAMPLES, CircleFunction, circle_angles, fourier_synthesize
from .bjorling import BjorlingData, assemble_harmonics
from .surface import (
    _BATCH_ENTRIES,
    MaximalSurface,
    _bisect_brackets,
    conformality_residual,
    grid_points,
    is_degenerate,
    special_singularity_check,
)

RESIDUAL_TOL = 1e-8
SPACELIKE_MARGIN = 1e-10
DEFAULT_BRACKET = (0.01, 100.0)
SCAN_POINTS = 512
SEARCH_SECTIONS = 8  # bracket sections per kernel call in the radius search
UNIT_GAP = 1e-6  # relative exclusion zone around r0 = 1
VERIFY_TOL = 1e-9  # build_surface's curve reproduction error at r0


class InterpolationError(ValueError):
    """The curve does not admit the requested surface."""


@dataclass(frozen=True)
class SpacelikeCurve:
    """A closed curve (planar complex component, real height component)."""

    planar: CircleFunction
    height: CircleFunction


def _check_real_height(curve: SpacelikeCurve) -> None:
    """Raise InterpolationError unless the height component is real to
    1e-9 (1 + max |coefficient|)."""
    if curve.height.realness_error() > 1e-9 * (1.0 + curve.height.max_abs()):
        raise InterpolationError("height component of the curve is not real")


def spacelike_margin(curve: SpacelikeCurve) -> float:
    """min over CIRCLE_SAMPLES points of the curve of |planar tangent|^2 -
    (height tangent)^2; a height that is not real raises InterpolationError
    (`_check_real_height`); inf or NaN where the tangent overflows."""
    _check_real_height(curve)
    with np.errstate(over="ignore", invalid="ignore"):
        dp = fourier_synthesize(curve.planar.derivative(), CIRCLE_SAMPLES)
        dh = np.real(fourier_synthesize(curve.height.derivative(), CIRCLE_SAMPLES))
        return float(np.min(np.abs(dp) ** 2 - dh**2))


@dataclass(frozen=True)
class ModifiedCoefficients:
    """Radius-weighted Fourier coefficients of a curve at candidate radius r0.

    ``planar[k]``/``height[k]`` hold the weights of (z^n - 1/zbar^n) for
    n = k - truncation; ``log_planar``/``log_height`` weight ln|z|.  The
    weights are exactly the inverse of evaluating that basis on |z| = r0, so
    synthesis at r0 reproduces the curve.  For an array of radii every field
    gains a leading axis, one row per radius.
    """

    r0: float | np.ndarray
    log_planar: complex | np.ndarray
    log_height: float | np.ndarray
    planar: np.ndarray
    height: np.ndarray
    truncation: int


def _curve_arrays(curve: SpacelikeCurve) -> tuple[int, np.ndarray, np.ndarray]:
    """K and the planar and height coefficients of modes -K..K, checked."""
    _check_real_height(curve)
    K = max(curve.planar.max_mode, curve.height.max_mode, 1)
    return K, curve.planar.coeff_array(K), curve.height.coeff_array(K)


def modified_coeffs(curve: SpacelikeCurve, r0) -> ModifiedCoefficients:
    """The weights at radius r0, or one row per radius of an array r0."""
    r = np.asarray(r0, dtype=float)
    if not np.all(np.isfinite(r) & (r > 0.0) & (r != 1.0)):
        raise InterpolationError("the candidate radius must be finite, positive and != 1")
    K, f, g = _curve_arrays(curve)
    n = np.arange(-K, K + 1)
    log_r = np.log(r)
    # r0^n / (r0^{2n} - 1) = 1 / (2 sinh(n ln r0)); the sinh form keeps full
    # relative accuracy near r0 = 1, where r0^n - r0^{-n} cancels.
    with np.errstate(over="ignore"):
        gap = 2.0 * np.sinh(np.multiply.outer(log_r, n))
    weight = np.divide(1.0, gap, out=np.zeros_like(gap), where=n != 0)
    return ModifiedCoefficients(
        r0=r[()],
        # Part by part: numpy's complex / float would round unlike Python's.
        log_planar=f[K].real / log_r + 1j * (f[K].imag / log_r),
        log_height=g[K].real / log_r,
        planar=np.where(n != 0, f * weight, 0.0),
        height=np.where(n != 0, g * weight, 0.0),
        truncation=K,
    )


def _radial_spectrum(coeffs: np.ndarray, log_coeff) -> np.ndarray:
    """Modes -K..K of the radial field on |z| = 1: 2 n coeffs[n + K], and
    log_coeff at n = 0; per leading index."""
    n = np.arange(-(coeffs.shape[-1] // 2), coeffs.shape[-1] // 2 + 1)
    return np.where(n != 0, 2.0 * n * coeffs, np.asarray(log_coeff)[..., None])


def _radial_nodes(coeffs: np.ndarray, log_coeff, M: int) -> np.ndarray:
    """`_radial_spectrum` on M > 2K nodes, per leading index."""
    K = coeffs.shape[-1] // 2
    spectrum = np.zeros(np.shape(log_coeff) + (M,), dtype=complex)
    spectrum[..., np.arange(-K, K + 1) % M] = _radial_spectrum(coeffs, log_coeff)
    return np.fft.ifft(spectrum, norm="forward")


def _residual_modes(mc: ModifiedCoefficients) -> np.ndarray:
    """Fourier modes -2K..2K of the nullity of the radial field on |z| = 1.

    The candidate surface has radial derivative P_r = sum 2 n c_n e^{i n theta}
    + c (planar) and the analogous real H_r (height); nullity means
    |P_r|^2 - H_r^2 = 0.  The product has degree 2K, so M >= 4K + 1 samples
    on the circle give every mode without aliasing.  One row per radius of mc.
    """
    K = mc.truncation
    M = 1 << (4 * K).bit_length()
    p = _radial_nodes(mc.planar, mc.log_planar, M)
    h = _radial_nodes(mc.height, mc.log_height, M)
    with np.errstate(over="ignore", invalid="ignore"):  # scalar_residual checks
        modes = np.fft.fft(np.abs(p) ** 2 - np.abs(h) ** 2, norm="forward")
    return modes[..., np.arange(-2 * K, 2 * K + 1) % M]


def series_residuals(mc: ModifiedCoefficients) -> tuple[dict[int, complex], float]:
    """`_residual_modes` at one radius: modes 0 < |k| <= 2K, and mode 0 as a real."""
    modes, top = _residual_modes(mc), 2 * mc.truncation
    return {k - top: complex(v) for k, v in enumerate(modes) if k != top}, float(modes[top].real)


def scalar_residual(curve: SpacelikeCurve, r0: float) -> float:
    """Sup-norm over all Fourier modes of the nullity residual at r0, finite."""
    mc = modified_coeffs(curve, r0)
    residuals, zero_mode = series_residuals(mc)
    value = max(abs(zero_mode), max(abs(v) for v in residuals.values()))
    if not np.isfinite(value):
        raise ValueError(f"the nullity residual at r0 = {r0} is {value}, not a finite number")
    return value


def _slope_kernel(curve: SpacelikeCurve):
    """t -> g(t) = Re<F'(t), F(t)> = (d/dt ||F||^2) / 2 at each t = ln r0 of an
    array, F the modes of `_residual_modes`; the curve is checked once, here.

    P, H and their t-derivatives (of the weights 1/(2 sinh(n t)) and 1/t) share
    one inverse FFT.  f f', f = |P|^2 - |H|^2, has band 4K < M, so by Parseval
    g = mean(f f') exactly; odd weights give g(-t) = -g(t) bit for bit.
    """
    K, f, h = _curve_arrays(curve)
    n, M = np.arange(-K, K + 1), 1 << (4 * K).bit_length()
    coeffs, logs = np.array([f, f, h, h])[:, None], np.array([f[K], f[K], h[K].real, h[K].real])
    rows = max(1, _BATCH_ENTRIES // (4 * M))  # 4 rows x M nodes per t

    def slope(t: np.ndarray) -> np.ndarray:
        g = np.empty(len(t))
        for i in range(0, len(t), rows):
            x = t[i : i + rows]
            nx = np.multiply.outer(x, n)
            # sinh overflows to a zero weight; the caller checks g's finiteness.
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                w = np.where(n != 0, 0.5 / np.sinh(nx), 0.0)
                dw = np.where(n != 0, -n * w / np.tanh(nx), 0.0)  # -n cosh / (2 sinh^2)
                weights = np.array([1.0 / x, -1.0 / (x * x)] * 2)
                p, dp, q, dq = _radial_nodes(coeffs * np.array([w, dw, w, dw]), logs[:, None] * weights, M)
                rate = 2.0 * (np.conj(p) * dp - np.conj(q) * dq).real
                g[i : i + rows] = np.mean((np.abs(p) ** 2 - np.abs(q) ** 2) * rate, axis=1)
        return g

    return slope


def search_r0(
    curve: SpacelikeCurve,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    scan_points: int = SCAN_POINTS,
    residual_tol: float = RESIDUAL_TOL,
) -> list[float]:
    """All radii in the bracket where the nullity residual vanishes.

    The residual is even in t = ln r0, so only tau = |t| is scanned, at
    ``scan_points`` values evenly spaced over the bracket's range of tau
    outside UNIT_GAP of r0 = 1.  Every scan cell where `_slope_kernel` rises
    from negative to non-negative holds a residual minimum; all are refined
    to rounding together, SEARCH_SECTIONS sections per kernel call.  A
    minimum with residual below ``residual_tol`` yields whichever of e^-tau
    and e^tau lie in the bracket.  An empty list is the negative answer; a
    scan that overflows raises ValueError.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi < np.inf):
        raise ValueError("bracket must satisfy 0 < lo < hi < inf")
    ends = np.abs(np.log([lo, hi]))  # tau at the bracket's ends
    start = max(ends.min() if lo > 1.0 or hi < 1.0 else 0.0, np.log(1.0 + UNIT_GAP))
    if not start < ends.max():
        return []
    tau = np.linspace(start, ends.max(), scan_points)
    slope = _slope_kernel(curve)
    g = slope(tau)
    if not np.all(np.isfinite(g)):
        raise ValueError("the slope of the nullity residual overflows on the radius scan")
    cell = np.flatnonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))
    found = _bisect_brackets(lambda x, k: slope(x), tau[cell], tau[cell + 1], g[cell],
                             xtol=0.0, sections=SEARCH_SECTIONS)
    kept = [x for x in found if scalar_residual(curve, float(np.exp(x))) < residual_tol]
    pairs = np.exp(np.concatenate([-np.array(kept), kept]))
    return sorted(float(r) for r in pairs if lo <= r <= hi and abs(r - 1.0) >= UNIT_GAP)


def surface_from_modified(mc: ModifiedCoefficients) -> MaximalSurface:
    """The singular Björling solution whose curve is the origin and whose radial
    field on |z| = 1 is `_radial_spectrum`, the field whose nullity the search
    measures: the (z^n - 1/zbar^n) + log surface of the modified coefficients.
    An annulus that excludes |z| = 1 raises `bjorling.SolverError`."""
    origin = CircleFunction(np.zeros(2 * mc.truncation + 1))
    planar, height = (CircleFunction(_radial_spectrum(c, log)) for c, log in
                      ((mc.planar, mc.log_planar), (mc.height, mc.log_height)))
    return MaximalSurface(*assemble_harmonics(BjorlingData(origin, origin, planar, height),
                                              mc.truncation))


@dataclass(frozen=True)
class _CheckedSurface(MaximalSurface):
    residual: float = 0.0  # the `scalar_residual` that `build_surface` checked


def build_surface(
    curve: SpacelikeCurve,
    r0: float,
    residual_tol: float = RESIDUAL_TOL,
) -> MaximalSurface:
    """The maximal surface through the curve at radius r0, fully verified;
    its ``residual`` is `scalar_residual` at r0.

    Raises InterpolationError when the nullity residual at r0 is too large,
    the curve is not strictly spacelike, or any postcondition (unit circle
    collapsing to the origin, curve reproduction at r0, conformality,
    non-degeneracy) fails, and `bjorling.SolverError` when the coefficients'
    annulus excludes |z| = 1 (`surface_from_modified`).
    """
    margin = spacelike_margin(curve)
    if not margin > SPACELIKE_MARGIN:  # NaN too
        raise InterpolationError(
            f"curve is not strictly spacelike (margin {margin:.3g})"
        )
    residual = scalar_residual(curve, r0)
    if not residual < residual_tol:
        raise InterpolationError(
            f"nullity residual {residual:.3g} at r0 = {r0} exceeds {residual_tol:.3g}; "
            "no surface with the prescribed singularity exists at this radius"
        )
    built = surface_from_modified(modified_coeffs(curve, r0))
    surface = _CheckedSurface(built.planar, built.height, residual)

    thetas = circle_angles(CIRCLE_SAMPLES)
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
    if curve_err > VERIFY_TOL:
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
