"""Boundary-data validation and the coefficient-matching solver."""

import numpy as np
import pytest

from maxsurf.annulus import CircleFunction, circle_angles
from maxsurf.bjorling import (
    BjorlingData,
    BjorlingDataError,
    SolverError,
    assemble_harmonics,
    boundary_reproduction_errors,
    circle_identities_report,
    solve,
    validate,
)
from maxsurf.surface import DegenerateSurfaceError, MaximalSurface

from conftest import random_valid_data


class TestValidate:
    def test_catenoid_data_passes(self, catenoid_data):
        report = validate(catenoid_data)
        assert report.passed
        assert report.curve_nullity < 1e-14
        assert report.radial_nullity < 1e-14
        assert report.orthogonality < 1e-14

    def test_non_null_radial_field_fails(self, catenoid_data):
        bad = BjorlingData(
            catenoid_data.curve_planar,
            catenoid_data.curve_height,
            catenoid_data.radial_planar,
            CircleFunction.from_dict({0: 2.0}),
        )
        report = validate(bad)
        assert not report.passed
        assert report.radial_nullity == pytest.approx(3.0)

    def test_orthogonality_violation_fails(self):
        # Null closed curve (planar tangent sin(theta) e^{2 i theta}, height
        # cos(theta)) paired with a radial field that is null but not
        # orthogonal to the tangent.
        data = BjorlingData(
            curve_planar=CircleFunction.from_dict({3: -1.0 / 6.0, 1: 0.5}),
            curve_height=CircleFunction.from_dict({1: 0.5, -1: 0.5}),
            radial_planar=CircleFunction.from_dict({1: 1.0}),
            radial_height=CircleFunction.from_dict({0: 1.0}),
        )
        report = validate(data)
        assert report.curve_nullity < 1e-14
        assert report.radial_nullity < 1e-14
        assert report.orthogonality > 0.1

    def test_complex_height_fails(self, catenoid_data):
        bad = BjorlingData(
            catenoid_data.curve_planar,
            catenoid_data.curve_height,
            catenoid_data.radial_planar,
            CircleFunction.from_dict({1: 1.0}),
        )
        assert validate(bad).radial_height_realness > 0.5

    def test_everything_zero_fails(self):
        zero = CircleFunction.from_dict({})
        report = validate(BjorlingData(zero, zero, zero, zero))
        assert report.both_identically_zero
        assert not report.passed


class TestSolve:
    def test_catenoid_coefficients(self, catenoid_data):
        surface = solve(catenoid_data)
        n = surface.planar.truncation
        assert surface.planar.holo[n + 1] == pytest.approx(0.5)
        assert surface.planar.antiholo[n + 1] == pytest.approx(-0.5)
        assert surface.height.log_coeff == pytest.approx(1.0)
        others = np.concatenate([surface.planar.holo, surface.planar.antiholo])
        others = np.delete(others, [n + 1, len(surface.planar.holo) + n + 1])
        assert np.max(np.abs(others)) < 1e-12

    def test_invalid_data_is_rejected(self, catenoid_data):
        bad = BjorlingData(
            catenoid_data.curve_planar,
            catenoid_data.curve_height,
            catenoid_data.radial_planar,
            CircleFunction.from_dict({0: 2.0}),
        )
        with pytest.raises(BjorlingDataError):
            solve(bad)

    def test_degenerate_data_is_rejected(self):
        # Radial field (1, 1): the solution would be (const, ln|z|), whose
        # derivative magnitudes agree everywhere.
        zero = CircleFunction.from_dict({})
        data = BjorlingData(
            zero, zero,
            CircleFunction.from_dict({0: 1.0}),
            CircleFunction.from_dict({0: 1.0}),
        )
        with pytest.raises(DegenerateSurfaceError):
            solve(data)

    def test_diverging_tail_is_rejected(self):
        # A tiny low mode plus a large high mode reads as a decaying series
        # whose annulus excludes the unit circle.
        zero = CircleFunction.from_dict({})
        data = BjorlingData(
            zero, zero,
            CircleFunction.from_dict({1: 2e-10, 2: 8.0}),
            zero,
        )
        with pytest.raises(SolverError):
            assemble_harmonics(data)

    def test_linearity_of_the_coefficient_map(self):
        rng = np.random.default_rng(3)
        d1 = random_valid_data(rng)
        d2 = random_valid_data(rng)
        p12, h12 = assemble_harmonics(d1 + d2, truncation=16)
        p1, h1 = assemble_harmonics(d1, truncation=16)
        p2, h2 = assemble_harmonics(d2, truncation=16)
        assert np.max(np.abs(p12.holo - p1.holo - p2.holo)) < 1e-12
        assert np.max(np.abs(p12.antiholo - p1.antiholo - p2.antiholo)) < 1e-12
        assert abs(h12.log_coeff - h1.log_coeff - h2.log_coeff) < 1e-12

    def test_boundary_reproduction(self):
        rng = np.random.default_rng(11)
        data = random_valid_data(rng)
        surface = solve(data)
        curve_err, radial_err = boundary_reproduction_errors(surface, data)
        assert curve_err < 1e-10
        assert radial_err < 1e-10


    def test_a_truncated_tail_still_shows_in_the_radial_error(self):
        # Q of degree 5 gives radial modes up to 10; truncation 8 drops two.
        data = random_valid_data(np.random.default_rng(3), deg=5, fourier=True)
        surface = solve(data, truncation=8)
        curve_err, radial_err = boundary_reproduction_errors(surface, data)
        # The pointwise series on the circle, sampled data: the matrix path.
        thetas = circle_angles(256)
        circle = np.exp(1j * thetas)
        want = max(
            np.max(np.abs(circle * h.d_z(circle) + np.conj(circle) * h.d_zbar(circle)
                          - cf.sample(thetas)))
            for h, cf in ((surface.planar, data.radial_planar),
                          (surface.height, data.radial_height)))
        assert radial_err > 1e-9
        assert radial_err == pytest.approx(4.80, abs=5e-3)
        assert abs(radial_err - want) <= 1e-12 * want
        assert curve_err < 1e-12


class TestCircleIdentities:
    def test_residuals_vanish_for_valid_data(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            data = random_valid_data(rng)
            report = circle_identities_report(solve(data), data)
            assert report.planar_conformality < 1e-10
            assert report.height_conformality < 1e-10
            assert report.singularity < 1e-10

    def test_orthogonality_defect_is_detected(self):
        # Perturbing the radial field by ~1e-3 off the constraint manifold
        # shows up at the same order in the singularity identity.
        rng = np.random.default_rng(8)
        data = random_valid_data(rng)
        surface = solve(data)
        eps = 1e-3
        perturbed = BjorlingData(
            data.curve_planar,
            data.curve_height,
            data.radial_planar,
            data.radial_height + CircleFunction.from_dict({1: eps, -1: eps}),
        )
        report = circle_identities_report(surface, perturbed)
        assert report.planar_conformality > 1e-5
        assert report.planar_conformality < 1.0

