"""Harmonic functions on annuli in Laurent-plus-logarithm form.

A harmonic function on an annulus A(r, R) = {r < |z| < R} is stored as a
truncated series

    H(z) = sum_{n=-N..N} a_n z^n  +  sum_{n=-N..N} b_n / zbar^n  +  c ln|z|

with b_0 fixed to zero (the constant term lives entirely in a_0).  The module
also provides spectral Fourier analysis of equispaced samples on circles,
which is how all curve data enters the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TRUNCATION = 64

CIRCLE_SAMPLES = 256  # points on every check circle (Björling checks, margin, build_surface)

# Largest mode index, half sample count, truncation, or grid, angle or scan
# count read from a file, a config or a flag; it keeps the arrays built from
# those inputs small.
MAX_MODE = 4096

# A mode with magnitude below this is treated as absent.
COEFF_FLOOR = 1e-13

# Smallest magnitude we accept as a "deliberate" mode of an exact
# trigonometric polynomial; a tail decaying below this is taken as evidence
# of an infinite series and triggers decay-based radius estimation.
POLY_FLOOR = 1e-8

RADIUS_SAFETY = 1.05


class DomainError(ValueError):
    """Evaluation point lies outside the annulus of definition."""


def _centered(coeffs: np.ndarray, kmax: int) -> np.ndarray:
    """Modes -kmax..kmax of a centered coefficient array, zero-padded or truncated."""
    k = (len(coeffs) - 1) // 2
    lo = min(kmax, k)
    out = np.zeros(2 * kmax + 1, dtype=complex)
    out[kmax - lo : kmax + lo + 1] = coeffs[k - lo : k + lo + 1]
    return out


def circle_angles(n: int) -> np.ndarray:
    """The n equispaced angles 2 pi k / n, k = 0..n-1: the trapezoidal nodes."""
    return 2.0 * np.pi * np.arange(n) / n


def polar_grid(radii, n_theta: int) -> np.ndarray:
    """Points rho e^{i theta}: one row per radius, one column per circle angle."""
    return np.outer(radii, np.exp(1j * circle_angles(n_theta)))


def _synthesize(spectra: np.ndarray, n_theta: int) -> np.ndarray:
    """sum_n s_n e^{i n theta} at the n_theta circle angles, for each row s of
    ``spectra`` (modes -K..K).  Modes are folded mod n_theta, which is exact at
    the nodes, and one inverse FFT synthesises every row."""
    spectra = np.atleast_2d(spectra)
    k = (spectra.shape[1] - 1) // 2
    folded = np.zeros((len(spectra), n_theta), dtype=complex)
    np.add.at(folded.T, np.arange(-k, k + 1) % n_theta, spectra.T)
    return n_theta * np.fft.ifft(folded, axis=1)


@dataclass(frozen=True)
class CircleFunction:
    """A periodic function of the angle, held as Fourier coefficients.

    ``coeffs[k]`` is the coefficient of exp(i*n*theta) with n = k - K and
    K = (len(coeffs) - 1) // 2.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or len(c) % 2 == 0:
            raise ValueError("coefficient array must be 1-d with odd length")
        object.__setattr__(self, "coeffs", c)

    @property
    def max_mode(self) -> int:
        return (len(self.coeffs) - 1) // 2

    @classmethod
    def from_samples(cls, samples) -> "CircleFunction":
        """Fourier-analyze M equispaced samples; M must be a power of two."""
        s = np.asarray(samples, dtype=complex)
        m = len(s)
        if m < 1 or m & (m - 1):
            raise ValueError(f"sample count {m} is not a power of two")
        if m == 1:  # a constant; the Nyquist split below needs m >= 2
            return cls(s)
        t = np.fft.fft(s) / m
        half = m // 2
        coeffs = np.zeros(m + 1, dtype=complex)  # modes -half .. half
        k = np.arange(m)
        n = np.where(k < half, k, k - m)
        coeffs[n + half] = t
        # Modes -half and half alias on the nodes; an even split keeps real
        # samples real and the interpolant accurate between the nodes.
        coeffs[0] = coeffs[m] = 0.5 * t[half]
        return cls(coeffs)

    @classmethod
    def from_dict(cls, modes: dict) -> "CircleFunction":
        if modes:
            kmax = max(abs(int(n)) for n in modes)
        else:
            kmax = 0
        coeffs = np.zeros(2 * kmax + 1, dtype=complex)
        for n, v in modes.items():
            coeffs[int(n) + kmax] = v
        return cls(coeffs)

    def coeff(self, n: int) -> complex:
        if abs(n) > self.max_mode:
            return 0j
        return complex(self.coeffs[n + self.max_mode])

    def coeff_array(self, kmax: int) -> np.ndarray:
        """Coefficients for modes -kmax..kmax, zero-padded or truncated."""
        return _centered(self.coeffs, kmax)

    def sample(self, thetas) -> np.ndarray:
        th = np.atleast_1d(np.asarray(thetas, dtype=float))
        n = np.arange(-self.max_mode, self.max_mode + 1)
        return np.exp(1j * np.outer(th, n)) @ self.coeffs

    def derivative(self) -> "CircleFunction":
        n = np.arange(-self.max_mode, self.max_mode + 1)
        return CircleFunction(self.coeffs * (1j * n))

    def realness_error(self) -> float:
        """Max |t_{-n} - conj(t_n)|; zero iff the function is real-valued."""
        return float(np.max(np.abs(self.coeffs[::-1] - np.conj(self.coeffs))))

    def tail_magnitude(self, keep: int) -> float:
        """Largest coefficient magnitude beyond mode index ``keep``."""
        k = self.max_mode
        if keep >= k:
            return 0.0
        head = np.abs(self.coeffs)
        return float(max(np.max(head[: k - keep]), np.max(head[k + keep + 1 :])))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if len(self.coeffs) else 0.0

    def __add__(self, other: "CircleFunction") -> "CircleFunction":
        kmax = max(self.max_mode, other.max_mode)
        return CircleFunction(self.coeff_array(kmax) + other.coeff_array(kmax))


def fourier_synthesize(cf: CircleFunction, count: int) -> np.ndarray:
    """Evaluate a coefficient-form function on ``count`` equispaced angles."""
    return _synthesize(cf.coeffs, count)[0]


def _side_decay_radius(mags: np.ndarray) -> float | None:
    """Geometric decay rate of one coefficient side, or None for a sharp cutoff.

    ``mags[m-1]`` is the magnitude governing the mode with |n| = m.  Returns
    q = |t_m*|^(1/m*) read off the outermost significant mode; a side whose
    significant modes never decay below POLY_FLOOR is an exact trigonometric
    polynomial and imposes no radius bound.
    """
    sig = np.nonzero(mags > COEFF_FLOOR)[0]
    if len(sig) == 0:
        return None
    if float(np.min(mags[sig])) > POLY_FLOOR:
        return None
    m = int(sig[-1]) + 1
    return float(np.abs(mags[m - 1]) ** (1.0 / m))


def estimate_annulus(holo: np.ndarray, antiholo: np.ndarray) -> tuple[float, float]:
    """Estimate the annulus of validity from coefficient decay.

    Growth toward the outer boundary comes from a_n (n > 0) and b_n (n < 0);
    growth toward the inner boundary from a_n (n < 0) and b_n (n > 0).  Sides
    that are exact trigonometric polynomials give the sentinel bounds 0 and
    inf.  The returned pair is not clamped; callers decide whether a collapsed
    estimate (r >= 1 or R <= 1) is an error.
    """
    holo = np.asarray(holo, dtype=complex)
    antiholo = np.asarray(antiholo, dtype=complex)
    n_max = (len(holo) - 1) // 2
    if n_max == 0:
        return 0.0, np.inf
    a_pos = np.abs(holo[n_max + 1 :])
    a_neg = np.abs(holo[n_max - 1 :: -1])
    b_pos = np.abs(antiholo[n_max + 1 :])
    b_neg = np.abs(antiholo[n_max - 1 :: -1])

    q_outer = _side_decay_radius(np.maximum(a_pos, b_neg))
    q_inner = _side_decay_radius(np.maximum(a_neg, b_pos))

    outer = np.inf if q_outer is None else (1.0 / q_outer) / RADIUS_SAFETY
    inner = 0.0 if q_inner is None else q_inner * RADIUS_SAFETY
    return inner, outer


@dataclass(frozen=True)
class HarmonicOnAnnulus:
    """Truncated Laurent-plus-log representation of a harmonic function."""

    holo: np.ndarray  # a_n, coefficient of z^n, n in [-N, N]
    antiholo: np.ndarray  # b_n, coefficient of 1/zbar^n, n in [-N, N]; b_0 = 0
    log_coeff: complex
    inner_radius: float
    outer_radius: float
    _modes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.holo, dtype=complex)
        b = np.asarray(self.antiholo, dtype=complex)
        if a.shape != b.shape or a.ndim != 1 or len(a) % 2 == 0:
            raise ValueError("coefficient arrays must be 1-d, odd, equal length")
        n = (len(a) - 1) // 2
        if b[n] != 0:
            raise ValueError("b_0 must be zero; the constant lives in a_0")
        if not (0.0 <= self.inner_radius < 1.0 < self.outer_radius):
            raise ValueError(
                f"annulus ({self.inner_radius}, {self.outer_radius}) does not "
                "contain the unit circle"
            )
        object.__setattr__(self, "holo", a)
        object.__setattr__(self, "antiholo", b)
        object.__setattr__(self, "log_coeff", complex(self.log_coeff))
        object.__setattr__(self, "_modes", np.arange(-n, n + 1))

    @property
    def truncation(self) -> int:
        return (len(self.holo) - 1) // 2

    @classmethod
    def from_modes(
        cls,
        holo: dict | None = None,
        antiholo: dict | None = None,
        log_coeff: complex = 0j,
        annulus: tuple[float, float] | None = None,
    ) -> "HarmonicOnAnnulus":
        """Build from sparse mode dictionaries; annulus estimated if absent."""
        holo = holo or {}
        antiholo = antiholo or {}
        n = max([abs(int(k)) for k in (*holo, *antiholo)] + [1])
        a = np.zeros(2 * n + 1, dtype=complex)
        b = np.zeros(2 * n + 1, dtype=complex)
        for k, v in holo.items():
            a[int(k) + n] = v
        for k, v in antiholo.items():
            b[int(k) + n] = v
        if annulus is None:
            annulus = estimate_annulus(a, b)
        return cls(a, b, complex(log_coeff), annulus[0], annulus[1])

    # -- evaluation ---------------------------------------------------------

    def _check_domain(self, z: np.ndarray):
        az = np.abs(z)
        # One reduction; NaN fails both comparisons, and inner >= 0 keeps
        # the origin out.
        if not np.all((az > self.inner_radius) & (az < self.outer_radius)):
            if np.any(az == 0.0):
                raise DomainError("the origin is never in the domain")
            raise DomainError(
                f"point outside annulus ({self.inner_radius}, {self.outer_radius})"
            )

    def _prepare(self, z):
        arr = np.asarray(z, dtype=complex)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        self._check_domain(arr)
        return arr, scalar

    @staticmethod
    def _finish(values: np.ndarray, scalar: bool):
        return complex(values[0]) if scalar else values

    def eval(self, z):
        """sum a_n z^n + sum b_n zbar^{-n} + c ln|z|."""
        zz, scalar = self._prepare(z)
        zp = np.power(zz[..., None], self._modes)
        zbp = np.power(np.conj(zz)[..., None], -self._modes)
        out = zp @ self.holo + zbp @ self.antiholo
        out = out + self.log_coeff * np.log(np.abs(zz))
        return self._finish(out, scalar)

    def eval_polar(self, radii, n_theta: int) -> np.ndarray:
        """``eval(polar_grid(radii, n_theta))`` by one inverse FFT per circle.

        On |z| = rho the series is sum (a_n rho^n + b_n rho^-n) e^{i n theta}
        + c ln rho.  Modes are folded mod n_theta, which is exact at the nodes.
        """
        return _synthesize(self._circle_spectra(radii)[0], n_theta)

    def d_polar(self, radii, n_theta: int) -> tuple[np.ndarray, np.ndarray]:
        """``(d_z, d_zbar)`` on ``polar_grid(radii, n_theta)``, as ``eval_polar``: on
        |z| = rho, z h_z has the spectrum n a_n rho^n + c/2 [n = 0] and zbar h_zbar
        the spectrum -n b_n rho^-n + c/2 [n = 0]; one synthesis each, over z and zbar."""
        _, zhz, zbhzb = self._circle_spectra(radii)
        z = polar_grid(radii, n_theta)
        return _synthesize(zhz, n_theta) / z, _synthesize(zbhzb, n_theta) / np.conj(z)

    def radial_polar(self, radii, n_theta: int) -> np.ndarray:
        """rho d/drho = z h_z + zbar h_zbar on ``polar_grid(radii, n_theta)``:
        one synthesis of the summed spectrum, with no division by z."""
        return _synthesize(sum(self._circle_spectra(radii)[1:]), n_theta)

    def _circle_spectra(self, radii):
        """Spectra of h, of z h_z and of zbar h_zbar on each circle |z| = rho."""
        rho = np.atleast_1d(np.asarray(radii, dtype=float))
        self._check_domain(rho)
        powers = rho[:, None] ** self._modes
        holo, anti = powers * self.holo, self.antiholo / powers
        values = holo + anti
        values[:, self.truncation] += self.log_coeff * np.log(np.abs(rho))
        half_log = np.where(self._modes == 0, 0.5 * self.log_coeff, 0.0)
        return values, self._modes * holo + half_log, -self._modes * anti + half_log

    def d_z(self, z):
        """Wirtinger d/dz: sum n a_n z^{n-1} + c/(2z)."""
        zz, scalar = self._prepare(z)
        zp = np.power(zz[..., None], self._modes - 1)
        out = zp @ (self._modes * self.holo) + self.log_coeff / (2.0 * zz)
        return self._finish(out, scalar)

    def d_zbar(self, z):
        """Wirtinger d/dzbar: sum (-n) b_n zbar^{-n-1} + c/(2 zbar)."""
        zz, scalar = self._prepare(z)
        zb = np.conj(zz)
        zbp = np.power(zb[..., None], -self._modes - 1)
        out = zbp @ (-self._modes * self.antiholo) + self.log_coeff / (2.0 * zb)
        return self._finish(out, scalar)

