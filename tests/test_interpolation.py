"""Prescribed-singularity interpolation: weighted coefficients and radius search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxsurf.annulus import CircleFunction
from maxsurf.interpolation import (
    InterpolationError,
    SpacelikeCurve,
    build_surface,
    build_surface_through_point,
    family_curve,
    modified_coeffs,
    scalar_residual,
    search_r0,
    series_residuals,
    spacelike_margin,
    surface_from_modified,
)
from maxsurf.surface import conformality_residual, special_singularity_check


def circle_curve(planar_coeff, height_const):
    return SpacelikeCurve(
        CircleFunction.from_dict({1: planar_coeff}),
        CircleFunction.from_dict({0: height_const}),
    )


class TestModifiedCoefficients:
    def test_family_values_at_its_radius(self):
        mc = modified_coeffs(family_curve(2.0), 2.0)
        k = mc.truncation
        assert mc.planar[k - 1] == pytest.approx(-0.5)
        assert mc.planar[k + 3] == pytest.approx(1.0 / 6.0)
        assert mc.height[k + 2] == pytest.approx(0.25)
        assert mc.height[k - 2] == pytest.approx(-0.25)
        assert mc.log_planar == 0.0
        assert mc.log_height == 0.0

    def test_log_weights(self):
        mc = modified_coeffs(circle_curve(-0.75, math.log(0.5)), 0.5)
        assert mc.log_height == pytest.approx(1.0)
        k = mc.truncation
        assert mc.planar[k + 1] == pytest.approx(0.5)

    def test_synthesis_reproduces_the_curve(self):
        rng = np.random.default_rng(17)
        curve = SpacelikeCurve(
            CircleFunction.from_dict(
                {n: complex(*rng.normal(size=2)) for n in (-2, 0, 1, 3)}
            ),
            CircleFunction.from_dict({0: 1.3, 2: 0.2, -2: 0.2}),
        )
        r0 = 1.7
        mc = modified_coeffs(curve, r0)
        th = 2.0 * np.pi * np.arange(64) / 64
        z = r0 * np.exp(1j * th)
        n = np.arange(-mc.truncation, mc.truncation + 1)
        basis = np.power(z[:, None], n) - np.power(np.conj(z[:, None]), -n)
        planar = basis @ mc.planar + mc.log_planar * np.log(r0)
        height = basis @ mc.height + mc.log_height * np.log(r0)
        assert np.max(np.abs(planar - curve.planar.sample(th))) < 1e-12
        assert np.max(np.abs(height - curve.height.sample(th))) < 1e-12

    def test_rejects_unit_radius(self):
        with pytest.raises(InterpolationError):
            modified_coeffs(family_curve(2.0), 1.0)

    def test_rejects_complex_height(self):
        for height in ({0: 1.0j}, {0: 1.0, 1: 0.1j}):
            curve = SpacelikeCurve(
                CircleFunction.from_dict({1: 1.0}),
                CircleFunction.from_dict(height),
            )
            with pytest.raises(InterpolationError, match="not real"):
                modified_coeffs(curve, 2.0)


class TestResiduals:
    def test_catenoid_curve_residual_vanishes_at_both_radii(self, catenoid_curve):
        assert scalar_residual(catenoid_curve, 2.0) < 1e-14
        assert scalar_residual(catenoid_curve, 0.5) < 1e-14
        assert scalar_residual(catenoid_curve, 1.5) > 1e-2

    def test_family_aggregates(self):
        mc = modified_coeffs(family_curve(2.0), 2.0)
        k = mc.truncation
        c_m1, c_3 = mc.planar[k - 1], mc.planar[k + 3]
        d_2, d_m2 = mc.height[k + 2], mc.height[k - 2]
        assert abs(4.0 * d_2 * d_m2 - 3.0 * c_3 * c_m1) < 1e-12
        assert abs(c_m1**2 + 9.0 * c_3**2 - 4.0 * (d_2**2 + d_m2**2)) < 1e-12
        residuals, zero_mode = series_residuals(mc)
        assert abs(zero_mode) < 1e-14
        assert max(abs(v) for v in residuals.values()) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 16), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    def test_modes_match_the_conformality_residual(self, K, r0, seed):
        # On |z| = 1 the candidate surface is constant, so its radial field is
        # P_r = 2 z h_z, H_r = 2 z w_z and |P_r|^2 - H_r^2 = 4 z^2 times the
        # conformality residual: an evaluation route independent of the FFT.
        rng = np.random.default_rng(seed)
        n = np.arange(-K, K + 1)

        def random_modes():
            return 10.0 ** rng.uniform(-6.0, 0.0, n.size) * np.exp(
                2j * np.pi * rng.uniform(size=n.size)
            )

        height = random_modes()
        height = 0.5 * (height + np.conj(height[::-1]))  # a real function
        # Modes at or above 1e-6 keep the estimated annulus around |z| = 1.
        height[np.abs(height) < 1e-6] = 1e-6
        curve = SpacelikeCurve(CircleFunction(random_modes()), CircleFunction(height))
        M = 1 << (4 * K).bit_length()
        z = np.exp(2j * np.pi * np.arange(M) / M)
        for r in (r0, 1.0 / r0):
            mc = modified_coeffs(curve, r)
            surface = surface_from_modified(mc)
            product = 4.0 * z**2 * conformality_residual(surface, z)
            expected = np.fft.fft(product, norm="forward")
            residuals, zero_mode = series_residuals(mc)
            scale = (
                np.sum(4.0 * n**2 * (np.abs(mc.planar) ** 2 + np.abs(mc.height) ** 2))
                + abs(mc.log_planar) ** 2
                + mc.log_height**2
            )
            assert sorted(residuals) == [k for k in range(-2 * K, 2 * K + 1) if k]
            assert abs(zero_mode - expected[0]) <= 1e-12 * scale
            for k, v in residuals.items():
                assert abs(v - expected[k % M]) <= 1e-12 * scale, k
            # Modes beyond 2K are absent from the product.
            assert np.all(np.abs(expected[2 * K + 1 : M - 2 * K]) <= 1e-12 * scale)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    def test_inversion_symmetry(self, r0, seed):
        # Replacing r0 by 1/r0 flips the sign of every weighted coefficient,
        # so the residuals are invariant.
        rng = np.random.default_rng(seed)
        curve = SpacelikeCurve(
            CircleFunction.from_dict({1: complex(*rng.normal(size=2)), -2: 0.3}),
            CircleFunction.from_dict({0: rng.normal(), 1: 0.1, -1: 0.1}),
        )
        a = scalar_residual(curve, r0)
        b = scalar_residual(curve, 1.0 / r0)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


class TestSearch:
    def test_catenoid_curve_roots(self, catenoid_curve):
        roots = search_r0(catenoid_curve, bracket=(0.05, 20.0))
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.5, abs=1e-6)
        assert roots[1] == pytest.approx(2.0, abs=1e-6)

    def test_family_corpus(self):
        # Every member admits its parameter (and its reciprocal) as a root.
        for c in (0.4, 0.7, 1.5, 2.0, 3.0):
            roots = search_r0(family_curve(c), bracket=(0.2, 5.0))
            assert any(abs(r - c) < 1e-6 for r in roots), (c, roots)
            assert any(abs(r - 1.0 / c) < 1e-6 for r in roots), (c, roots)

    def test_unit_circle_alone_has_no_root(self):
        assert search_r0(circle_curve(1.0, 1.0)) == []

    def test_widened_circle_has_two_roots(self):
        # The roots are an inversion pair r, 1/r.  At eps = 1e-6 they sit at
        # 1 -+ 2.45e-3, close enough to 1 to catch cancellation in the weights.
        prev = None
        for eps in (0.1, 0.05, 0.01, 1e-6):
            roots = search_r0(circle_curve(1.0 + eps, 1.0))
            assert len(roots) == 2, (eps, roots)
            assert roots[0] < 1.0 < roots[1]
            assert roots[0] * roots[1] == pytest.approx(1.0, abs=1e-9)
            spread = max(abs(r - 1.0) for r in roots)
            if prev is not None:
                assert spread < prev
            prev = spread

    def test_bad_bracket(self, catenoid_curve):
        with pytest.raises(ValueError):
            search_r0(catenoid_curve, bracket=(2.0, 1.0))


class TestBuildSurface:
    def test_catenoid_reconstruction(self, catenoid_curve, catenoid):
        surface = build_surface(catenoid_curve, 0.5)
        rng = np.random.default_rng(23)
        z = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 50)) * np.exp(
            2j * np.pi * rng.uniform(size=50)
        )
        assert np.max(np.abs(surface.planar.eval(z) - catenoid.planar.eval(z))) < 1e-12
        assert np.max(np.abs(surface.height.eval(z) - catenoid.height.eval(z))) < 1e-12
        assert special_singularity_check(surface, 1.0)

    def test_rejects_radius_without_solution(self, catenoid_curve):
        with pytest.raises(InterpolationError, match="residual"):
            build_surface(catenoid_curve, 1.5)

    def test_rejects_non_spacelike_curve(self):
        curve = SpacelikeCurve(
            CircleFunction.from_dict({1: 0.1}),
            CircleFunction.from_dict({1: 0.5, -1: 0.5}),
        )
        assert spacelike_margin(curve) < 0.0
        with pytest.raises(InterpolationError, match="spacelike"):
            build_surface(curve, 2.0)

    def test_translation_moves_the_singular_image(self, catenoid_curve):
        point = (1.0 - 2.0j, 3.0)
        moved_curve = SpacelikeCurve(
            CircleFunction.from_dict({1: -0.75, 0: point[0]}),
            CircleFunction.from_dict({0: math.log(0.5) + point[1]}),
        )
        surface = build_surface_through_point(moved_curve, 0.5, point)
        th = 2.0 * np.pi * np.arange(64) / 64
        circle = np.exp(1j * th)
        assert np.max(np.abs(surface.planar.eval(circle) - point[0])) < 1e-10
        assert np.max(np.abs(surface.height.eval(circle) - point[1])) < 1e-10
        ring = 0.5 * circle
        assert np.max(np.abs(surface.planar.eval(ring) - moved_curve.planar.sample(th))) < 1e-10


class TestFamilyCurve:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            family_curve(1.0)
        with pytest.raises(ValueError):
            family_curve(-2.0)

    def test_is_strictly_spacelike(self):
        for c in (0.5, 2.0, 3.0):
            assert spacelike_margin(family_curve(c)) > 0.0
