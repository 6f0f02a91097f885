"""Prescribed-singularity interpolation: weighted coefficients and radius search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxsurf.annulus import CIRCLE_SAMPLES, CircleFunction, HarmonicOnAnnulus
from maxsurf.bjorling import BjorlingData, solve, validate
from maxsurf.interpolation import (
    InterpolationError,
    ModifiedCoefficients,
    SpacelikeCurve,
    _residual_modes,
    _slope_kernel,
    build_surface,
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

    def test_rejects_non_finite_radii(self):
        for r0 in (math.nan, math.inf, -math.inf, [2.0, math.nan]):
            with pytest.raises(InterpolationError, match="finite"):
                modified_coeffs(family_curve(2.0), r0)

    @pytest.mark.parametrize("K", range(1, 17))
    def test_batched_rows_equal_per_radius_calls(self, K):
        rng = np.random.default_rng(K)
        n = np.arange(-K, K + 1)
        height = rng.normal(size=n.size) + 1j * rng.normal(size=n.size)
        curve = SpacelikeCurve(
            CircleFunction(rng.normal(size=n.size) + 1j * rng.normal(size=n.size)),
            CircleFunction(0.5 * (height + np.conj(height[::-1]))),
        )
        radii = np.concatenate(
            [np.exp(rng.uniform(-3.0, 3.0, 12)), [1.0 - 1e-6, 1.0 + 1e-6, 0.5, 2.0]]
        )
        batch = modified_coeffs(curve, radii)
        rows = _residual_modes(batch)
        for i, r0 in enumerate(radii):
            one = modified_coeffs(curve, r0)
            for field in ("r0", "log_planar", "log_height", "planar", "height"):
                assert np.array_equal(getattr(batch, field)[i], getattr(one, field)), field
            assert np.array_equal(rows[i], _residual_modes(one))

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


def random_curve(rng, K):
    """Every planar and height mode up to K populated, decaying as 0.6^|n|."""
    planar = {n: complex(*rng.normal(size=2)) * 0.6 ** abs(n) for n in range(-K, K + 1)}
    height = {0: rng.normal()}
    for n in range(1, K + 1):
        height[n] = complex(*rng.normal(size=2)) * 0.6**n
        height[-n] = height[n].conjugate()
    return SpacelikeCurve(CircleFunction.from_dict(planar), CircleFunction.from_dict(height))


def modes_at_t(curve, t):
    """`_residual_modes` with the weights taken from t = ln r0 itself."""
    K = max(curve.planar.max_mode, curve.height.max_mode, 1)
    n = np.arange(-K, K + 1)
    f, g = curve.planar.coeff_array(K), curve.height.coeff_array(K)
    gap = 2.0 * np.sinh(np.multiply.outer(t, n))
    weight = np.divide(1.0, gap, out=np.zeros_like(gap), where=n != 0)
    return _residual_modes(ModifiedCoefficients(np.exp(t), f[K] / t, g[K].real / t,
                                                f * weight, g * weight, K))


def central_difference_slope(curve, t):
    """The search's former slope: Re<F', F> with F' a central difference of
    step 1e-6 |t|, its three rows in one kernel call.  The rows are taken at
    t itself: through r0 = exp(t) and back, ln rounds by about 1e-16, which
    at |t| = 1e-6 is 1e-4 of the step.  Returns the slope and its
    Cauchy-Schwarz scale sum |F'| |F|."""
    step = 1e-6 * np.abs(t)
    below, mid, above = np.split(modes_at_t(curve, np.concatenate([t - step, t, t + step])), 3)
    diff = (above - below) / (2.0 * step)[:, None]
    return np.sum(np.conj(diff) * mid, axis=1).real, np.sum(np.abs(diff) * np.abs(mid), axis=1)


class TestSlopeKernel:
    def test_matches_the_central_difference(self):
        rng = np.random.default_rng(12)
        t = np.geomspace(1e-6, 4.0, 30)
        t = np.concatenate([t, -t])
        for K in range(1, 17):
            curve = random_curve(rng, K)
            want, scale = central_difference_slope(curve, t)
            got = _slope_kernel(curve)(t)
            assert np.all(np.abs(got - want) <= 1e-7 * scale), K

    def test_is_odd_bit_for_bit(self):
        rng = np.random.default_rng(20)
        t = np.exp(np.linspace(-13.0, 1.5, 200))
        for K in (1, 2, 3, 5, 8, 16):
            slope = _slope_kernel(random_curve(rng, K))
            assert np.array_equal(slope(-t), -slope(t))
        slope = _slope_kernel(family_curve(2.0))
        assert np.array_equal(slope(-t), -slope(t))

    def test_rejects_a_curve_with_complex_height(self):
        curve = SpacelikeCurve(CircleFunction.from_dict({1: 1.0}),
                               CircleFunction.from_dict({1: 0.5j}))
        with pytest.raises(InterpolationError, match="not real"):
            _slope_kernel(curve)


class TestSearch:
    @pytest.mark.parametrize("bracket", [(0.5, 20.0), (2.0, 5.0), (0.2, 0.5), (1.0 - 5e-7, 3.0)])
    def test_a_bracket_gets_its_share_of_the_roots(self, catenoid_curve, bracket):
        lo, hi = bracket
        for curve in (catenoid_curve, family_curve(2.5), circle_curve(1.05, 1.0)):
            share = [r for r in search_r0(curve, bracket=(0.05, 20.0)) if lo <= r <= hi]
            assert search_r0(curve, bracket=bracket) == pytest.approx(share, rel=1e-13, abs=0.0)

    def test_roots_are_reciprocal_pairs(self):
        rng = np.random.default_rng(8)
        for eps in np.exp(rng.uniform(np.log(1e-6), np.log(0.1), 12)):
            low, high = search_r0(circle_curve(1.0 + eps, 1.0))
            assert abs(low * high - 1.0) <= 4.0 * np.finfo(float).eps, eps

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

    @pytest.mark.parametrize("eps", [1.197e-5, 3e-6])
    def test_widened_circle_roots_near_one_on_a_coarse_scan(self, eps):
        # At 64 scan points the roots lie a few cells from r0 = 1, where the
        # residual is flat.
        roots = search_r0(circle_curve(1.0 + eps, 1.0), scan_points=64)
        assert len(roots) == 2, roots
        assert roots[0] * roots[1] == pytest.approx(1.0, abs=1e-12)

    def test_family_roots_are_exact_and_all_build(self):
        rng = np.random.default_rng(36)
        for _ in range(36):
            c = math.exp(rng.choice([-1.0, 1.0]) * rng.uniform(0.15, math.log(4.0)))
            curve = family_curve(c)
            roots = search_r0(curve)
            assert len(roots) == 2, (c, roots)
            for root, exact in zip(roots, sorted([c, 1.0 / c])):
                assert root == pytest.approx(exact, rel=1e-13, abs=0.0), c
                build_surface(curve, root)

    def test_bad_bracket(self, catenoid_curve):
        with pytest.raises(ValueError):
            search_r0(catenoid_curve, bracket=(2.0, 1.0))
        with pytest.raises(ValueError):
            search_r0(catenoid_curve, bracket=(0.5, math.inf))


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

    def test_evaluates_the_unit_circle_once(self, monkeypatch):
        # Two eval calls for the origin spread on |z| = 1 and two for the
        # curve at r0; special_singularity_check synthesises its circle.
        calls = []
        method = HarmonicOnAnnulus.eval
        monkeypatch.setattr(HarmonicOnAnnulus, "eval",
                            lambda self, z: calls.append(np.size(z)) or method(self, z))
        build_surface(family_curve(2.0), 2.0)
        assert calls == [CIRCLE_SAMPLES] * 4

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


class TestProofStructure:
    """The point-singularity surface is the singular Björling solution of its
    own data on |z| = 1: the curve g_n = a_n + b_n (the singular point) and the
    null radial field l_n = n (a_n - b_n), with the log coefficient at n = 0."""

    @staticmethod
    def read_back(surface):
        def data(h):
            n = np.arange(-h.truncation, h.truncation + 1)
            radial = n * (h.holo - h.antiholo)
            radial[h.truncation] = h.log_coeff
            return CircleFunction(h.holo + h.antiholo), CircleFunction(radial)

        (curve_p, radial_p), (curve_h, radial_h) = data(surface.planar), data(surface.height)
        return BjorlingData(curve_p, curve_h, radial_p, radial_h)

    @pytest.mark.parametrize("c", [0.3, 0.6, 1.5, 2.0, 3.0, "catenoid"])
    def test_bjorling_solve_returns_the_surface(self, c, catenoid_curve):
        curve = catenoid_curve if c == "catenoid" else family_curve(c)
        roots = search_r0(curve)
        assert len(roots) == 2
        for r0 in roots:
            surface = build_surface(curve, r0)
            data = self.read_back(surface)
            assert validate(data).passed
            solved = solve(data, truncation=surface.planar.truncation)
            for got, want in ((solved.planar, surface.planar), (solved.height, surface.height)):
                for x, y in ((got.holo, want.holo), (got.antiholo, want.antiholo),
                             (got.log_coeff, want.log_coeff)):
                    assert np.all(np.abs(x - y) <= 4.0 * np.finfo(float).eps * np.abs(y)), (c, r0)


class TestFamilyCurve:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            family_curve(1.0)
        with pytest.raises(ValueError):
            family_curve(-2.0)

    def test_is_strictly_spacelike(self):
        for c in (0.5, 2.0, 3.0):
            assert spacelike_margin(family_curve(c)) > 0.0
