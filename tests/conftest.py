"""Shared fixtures: reference surfaces and boundary-data builders."""

import math

import numpy as np
import pytest

from maxsurf.annulus import CircleFunction, HarmonicOnAnnulus
from maxsurf.bjorling import BjorlingData
from maxsurf.interpolation import SpacelikeCurve
from maxsurf.surface import BRANCH_FLOOR, BranchPointError, MaximalSurface


@pytest.fixture
def catenoid():
    """h = (z - 1/zbar)/2, w = ln|z|: the rotational surface with a point
    singularity at the origin and singular set |z| = 1."""
    planar = HarmonicOnAnnulus.from_modes(holo={1: 0.5}, antiholo={1: -0.5})
    height = HarmonicOnAnnulus.from_modes(log_coeff=1.0)
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


def random_valid_data(rng, deg=3):
    """Random boundary data satisfying every constraint exactly.

    The curve is a constant point, so orthogonality to the (zero) tangent is
    automatic; the radial field (Q^2, |Q|^2) built from a random trigonometric
    polynomial Q is null by construction.
    """
    q = {n: 0.5 * complex(rng.normal(), rng.normal()) for n in range(-deg, deg + 1)}
    thetas = 2.0 * np.pi * np.arange(256) / 256
    samples = CircleFunction.from_dict(q).sample(thetas)
    return BjorlingData(
        curve_planar=CircleFunction.from_dict({0: complex(rng.normal(), rng.normal())}),
        curve_height=CircleFunction.from_dict({0: rng.normal()}),
        radial_planar=CircleFunction.from_samples(samples**2),
        radial_height=CircleFunction.from_samples(np.abs(samples) ** 2),
    )


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
