"""Construction of maximal surfaces from closed singular boundary data.

The input is a closed null real-analytic curve together with a null vector
field along it, prescribed on the unit circle and orthogonal to the curve's
tangent.  Matching Fourier coefficients of the boundary values and of the
prescribed radial derivative determines every series coefficient of a unique
harmonic pair whose singular set contains the unit circle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .annulus import (CIRCLE_SAMPLES, DEFAULT_TRUNCATION, CircleFunction, HarmonicOnAnnulus,
                      circle_angles, estimate_annulus, fourier_synthesize)
from .surface import DegenerateSurfaceError, MaximalSurface, is_degenerate

CONSTRAINT_TOL = 1e-10


class BjorlingDataError(ValueError):
    """Boundary data violates the nullity/orthogonality constraints."""


class SolverError(ValueError):
    """Coefficient solve cannot produce a valid surface."""


@dataclass(frozen=True)
class BjorlingData:
    """Closed curve and vector field on the unit circle, as Fourier data.

    ``curve_planar`` carries the first two curve components as one complex
    function, ``curve_height`` the third (real).  ``radial_planar`` and
    ``radial_height`` prescribe the radial derivative of the surface on the
    unit circle the same way.
    """

    curve_planar: CircleFunction
    curve_height: CircleFunction
    radial_planar: CircleFunction
    radial_height: CircleFunction

    def __add__(self, other: "BjorlingData") -> "BjorlingData":
        return BjorlingData(
            self.curve_planar + other.curve_planar,
            self.curve_height + other.curve_height,
            self.radial_planar + other.radial_planar,
            self.radial_height + other.radial_height,
        )


@dataclass(frozen=True)
class ValidationReport:
    curve_nullity: float
    radial_nullity: float
    orthogonality: float
    curve_height_realness: float
    radial_height_realness: float
    both_identically_zero: bool
    max_tail: float
    tolerance: float = CONSTRAINT_TOL

    @property
    def passed(self) -> bool:
        return (
            self.curve_nullity < self.tolerance
            and self.radial_nullity < self.tolerance
            and self.orthogonality < self.tolerance
            and self.curve_height_realness < self.tolerance
            and self.radial_height_realness < self.tolerance
            and not self.both_identically_zero
        )

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), "passed": self.passed}


def _boundary_fields(data: BjorlingData):
    """Angles, then planar and height tangent and radial field, at the
    CIRCLE_SAMPLES circle angles."""
    tp, th, rp, rh = (fourier_synthesize(cf, CIRCLE_SAMPLES) for cf in (
        data.curve_planar.derivative(), data.curve_height.derivative(),
        data.radial_planar, data.radial_height))
    return circle_angles(CIRCLE_SAMPLES), tp, th.real, rp, rh.real


def validate(data: BjorlingData, tol: float = CONSTRAINT_TOL) -> ValidationReport:
    """Pointwise residuals of nullity, orthogonality, and realness."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails `passed`
        _, tp, th, rp, rh = _boundary_fields(data)
        curve_null = float(np.max(np.abs(np.abs(tp) ** 2 - th**2)))
        radial_null = float(np.max(np.abs(np.abs(rp) ** 2 - rh**2)))
        ortho = float(np.max(np.abs(np.real(tp * np.conj(rp)) - th * rh)))
        both_zero = (
            max(data.curve_planar.derivative().max_abs(),
                data.curve_height.derivative().max_abs()) < tol
            and max(data.radial_planar.max_abs(), data.radial_height.max_abs()) < tol
        )
    tails = [
        cf.tail_magnitude(DEFAULT_TRUNCATION)
        for cf in (
            data.curve_planar,
            data.curve_height,
            data.radial_planar,
            data.radial_height,
        )
    ]
    return ValidationReport(
        curve_nullity=curve_null,
        radial_nullity=radial_null,
        orthogonality=ortho,
        curve_height_realness=data.curve_height.realness_error(),
        radial_height_realness=data.radial_height.realness_error(),
        both_identically_zero=both_zero,
        max_tail=float(max(tails)),
        tolerance=tol,
    )


def assemble_harmonics(
    data: BjorlingData, truncation: int = DEFAULT_TRUNCATION
) -> tuple[HarmonicOnAnnulus, HarmonicOnAnnulus]:
    """The raw linear coefficient solve, without validity checks.

    With boundary coefficients g_n and radial coefficients l_n, each harmonic
    gets a_n = (g_n + l_n/n)/2 and b_n = (g_n - l_n/n)/2 for n != 0, the
    constant a_0 = g_0 (b_0 = 0), and log coefficient l_0.
    """

    def build(boundary: CircleFunction, radial: CircleFunction) -> HarmonicOnAnnulus:
        n = np.arange(-truncation, truncation + 1)
        g = boundary.coeff_array(truncation)
        ell = radial.coeff_array(truncation)
        ratio = np.divide(ell, n, out=np.zeros_like(ell), where=n != 0)
        a = np.where(n != 0, 0.5 * (g + ratio), 0.0)
        b = np.where(n != 0, 0.5 * (g - ratio), 0.0)
        a[truncation] = g[truncation]
        b[truncation] = 0.0
        inner, outer = estimate_annulus(a, b)
        if not (inner < 1.0 < outer):
            raise SolverError(
                f"coefficient tail does not converge: estimated annulus "
                f"({inner:.3g}, {outer:.3g}) excludes the unit circle"
            )
        return HarmonicOnAnnulus(a, b, complex(ell[truncation]), inner, outer)

    planar = build(data.curve_planar, data.radial_planar)
    height = build(data.curve_height, data.radial_height)
    return planar, height


def solve(
    data: BjorlingData,
    truncation: int = DEFAULT_TRUNCATION,
    tol: float = CONSTRAINT_TOL,
) -> MaximalSurface:
    """The unique surface matching the boundary data, singular on |z| = 1."""
    report = validate(data, tol=tol)
    if not report.passed:
        raise BjorlingDataError(f"invalid boundary data: {report.as_dict()}")
    planar, height = assemble_harmonics(data, truncation)
    if is_degenerate(planar):
        raise DegenerateSurfaceError(
            "the two Wirtinger derivative magnitudes agree identically on the "
            "verification grid; the data does not define a surface"
        )
    return MaximalSurface(planar, height)


@dataclass(frozen=True)
class CircleIdentityReport:
    """Max residuals of the circle identities satisfied by any solution.

    On the unit circle, 4 planar_z conj(planar_zbar) e^{2 i theta} must equal
    V3^2 - T3^2 - 2 i V3 T3 (V3 the radial height component, T3 the height
    tangent), 4 height_z^2 e^{2 i theta} must equal the same quantity, and
    |planar_z|^2 - |planar_zbar|^2 must equal V1 T2 - V2 T1.
    """

    planar_conformality: float
    height_conformality: float
    singularity: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def circle_identities_report(surface: MaximalSurface, data: BjorlingData) -> CircleIdentityReport:
    thetas, tp, th, rp, rh = _boundary_fields(data)
    (hz,), (hzb,) = surface.planar.d_polar([1.0], CIRCLE_SAMPLES)
    wz = surface.height.d_polar([1.0], CIRCLE_SAMPLES)[0][0]
    target = rh**2 - th**2 - 2j * rh * th
    phase = np.exp(2j * thetas)
    res_h = np.max(np.abs(4.0 * hz * np.conj(hzb) * phase - target))
    res_w = np.max(np.abs(4.0 * wz**2 * phase - target))
    cross = np.real(rp) * np.imag(tp) - np.imag(rp) * np.real(tp)
    res_s = np.max(np.abs(np.abs(hz) ** 2 - np.abs(hzb) ** 2 - cross))
    return CircleIdentityReport(float(res_h), float(res_w), float(res_s))


def boundary_reproduction_errors(surface: MaximalSurface,
                                 data: BjorlingData) -> tuple[float, float]:
    """Sup errors of the surface and its radial derivative at the CIRCLE_SAMPLES
    points of the unit circle."""

    def error(got, want: CircleFunction) -> float:
        return float(np.max(np.abs(got[0] - fourier_synthesize(want, CIRCLE_SAMPLES))))

    pairs = ((surface.planar, data.curve_planar, data.radial_planar),
             (surface.height, data.curve_height, data.radial_height))
    curve_err = max(error(h.eval_polar([1.0], CIRCLE_SAMPLES), curve) for h, curve, _ in pairs)
    radial_err = max(error(h.radial_polar([1.0], CIRCLE_SAMPLES), radial) for h, _, radial in pairs)
    return curve_err, radial_err
