"""Fourier analysis on circles and harmonic Laurent-plus-log series."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxsurf.annulus import (
    CircleFunction,
    DomainError,
    HarmonicOnAnnulus,
    circle_angles,
    estimate_annulus,
    fourier_analyze,
    fourier_synthesize,
    polar_grid,
)

from conftest import derivative_scale, series_scale


def thetas(count):
    return 2.0 * np.pi * np.arange(count) / count


class TestCircleFunction:
    def test_from_samples_single_mode(self):
        th = thetas(16)
        cf = CircleFunction.from_samples(np.exp(3j * th))
        assert abs(cf.coeff(3) - 1.0) < 1e-14
        mags = np.abs(cf.coeffs)
        mags[cf.max_mode + 3] = 0.0
        assert np.max(mags) < 1e-14

    def test_from_samples_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            CircleFunction.from_samples(np.zeros(12))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        modes = {
            int(n): complex(rng.normal(), rng.normal())
            for n in rng.integers(-7, 8, size=5)
        }
        cf = CircleFunction.from_dict(modes)
        back = fourier_analyze(fourier_synthesize(cf, 32))
        for n, v in modes.items():
            assert abs(back.coeff(n) - v) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(1, 300), top=st.integers(0, 64), seed=st.integers(0, 2**32 - 1))
    def test_synthesis_matches_sampling(self, count, top, seed):
        # Counts below 2 top + 1 fold modes onto each other at the nodes.
        rng = np.random.default_rng(seed)
        cf = CircleFunction(rng.normal(size=2 * top + 1) + 1j * rng.normal(size=2 * top + 1))
        got = fourier_synthesize(cf, count)
        want = cf.sample(circle_angles(count))
        assert got.shape == (count,)
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.sum(np.abs(cf.coeffs))))

    def test_one_sample_is_a_constant(self):
        cf = CircleFunction.from_samples([1.5 - 2.0j])
        assert cf.max_mode == 0
        assert cf.coeff(0) == 1.5 - 2.0j

    def test_derivative_is_spectral(self):
        cf = CircleFunction.from_dict({2: 1.0 + 1.0j, -3: 0.5})
        d = cf.derivative()
        assert abs(d.coeff(2) - 2j * (1.0 + 1.0j)) < 1e-15
        assert abs(d.coeff(-3) + 1.5j) < 1e-15

    def test_nyquist_mode_is_split_evenly(self):
        # 1 + 0.3 cos 4 theta on 8 nodes: mode 4 is the Nyquist mode, and the
        # real samples must give a real function that is exact between nodes.
        cf = CircleFunction.from_samples(1.0 + 0.3 * np.cos(4.0 * thetas(8)))
        assert cf.realness_error() < 1e-15
        assert abs(cf.sample(0.1)[0] - (1.0 + 0.3 * np.cos(0.4))) < 1e-15

    def test_realness_error(self):
        real = CircleFunction.from_dict({1: 1.0 + 2.0j, -1: 1.0 - 2.0j, 0: 3.0})
        assert real.realness_error() < 1e-15
        assert CircleFunction.from_dict({1: 1.0}).realness_error() > 0.5

    def test_coeff_array_pads_and_truncates(self):
        cf = CircleFunction.from_dict({2: 1.0})
        assert len(cf.coeff_array(5)) == 11
        assert abs(cf.coeff_array(5)[5 + 2] - 1.0) < 1e-15
        assert abs(cf.coeff_array(1)).max() == 0.0

    def test_addition_samples(self):
        a = CircleFunction.from_dict({1: 1.0})
        b = CircleFunction.from_dict({-2: 2.0, 0: 1.0})
        th = thetas(8)
        assert np.allclose((a + b).sample(th), a.sample(th) + b.sample(th))


class TestEstimateAnnulus:
    def test_trig_polynomial_gets_sentinels(self):
        h = HarmonicOnAnnulus.from_modes(holo={1: 0.5, -2: 1.0}, antiholo={1: -0.5})
        assert h.inner_radius == 0.0
        assert h.outer_radius == np.inf

    def test_geometric_decay_sets_outer_radius(self):
        q = 0.25
        holo = {n: q**n for n in range(1, 60)}
        a = HarmonicOnAnnulus.from_modes(holo=holo)
        assert a.inner_radius == 0.0
        assert a.outer_radius == pytest.approx(1.0 / q / 1.05, rel=1e-6)

    def test_inner_radius_from_negative_modes(self):
        q = 0.5
        holo = {-n: q**n for n in range(1, 60)}
        a = HarmonicOnAnnulus.from_modes(holo=holo)
        assert a.inner_radius == pytest.approx(q * 1.05, rel=1e-6)
        assert a.outer_radius == np.inf

    def test_antiholomorphic_side_mirrors(self):
        # b_n / zbar^n grows toward the outer boundary for n < 0.
        q = 0.25
        anti = {-n: q**n for n in range(1, 60)}
        inner, outer = estimate_annulus(
            np.zeros(119, complex),
            HarmonicOnAnnulus.from_modes(antiholo=anti).antiholo,
        )
        assert inner == 0.0
        assert outer == pytest.approx(1.0 / q / 1.05, rel=1e-6)


class TestHarmonicOnAnnulus:
    def test_b0_must_vanish(self):
        with pytest.raises(ValueError, match="b_0"):
            HarmonicOnAnnulus.from_modes(antiholo={0: 1.0})

    def test_annulus_must_contain_unit_circle(self):
        with pytest.raises(ValueError, match="unit circle"):
            HarmonicOnAnnulus.from_modes(holo={1: 1.0}, annulus=(1.2, 3.0))

    def test_domain_checks(self):
        h = HarmonicOnAnnulus.from_modes(holo={1: 1.0}, annulus=(0.5, 2.0))
        with pytest.raises(DomainError):
            h.eval(0.4)
        with pytest.raises(DomainError):
            h.d_z(2.5)
        with pytest.raises(DomainError):
            h.eval(0.0)

    def test_nan_points_and_the_origin_are_outside_the_domain(self):
        # The catenoid's planar part has the sentinel annulus (0, inf).
        h = HarmonicOnAnnulus.from_modes(holo={1: 0.5}, antiholo={1: -0.5})
        for z in (np.nan, complex(np.nan, 1.0), np.array([np.nan, 1.0])):
            for method in (h.eval, h.d_z, h.d_zbar):
                with pytest.raises(DomainError):
                    method(z)
        with pytest.raises(DomainError, match="origin"):
            h.d_z(np.array([1.0, 0.0]))

    def test_catenoid_values(self):
        h = HarmonicOnAnnulus.from_modes(holo={1: 0.5}, antiholo={1: -0.5})
        assert h.eval(2.0) == pytest.approx(0.75)
        assert h.d_z(2.0) == pytest.approx(0.5)
        assert h.d_zbar(2.0) == pytest.approx(0.125)
        w = HarmonicOnAnnulus.from_modes(log_coeff=1.0)
        assert w.eval(2.0) == pytest.approx(np.log(2.0))
        assert w.d_z(2.0) == pytest.approx(0.25)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_finite_difference_laplacian_vanishes(self, seed):
        rng = np.random.default_rng(seed)
        h = HarmonicOnAnnulus.from_modes(
            holo={1: complex(*rng.normal(size=2)), -2: complex(*rng.normal(size=2))},
            antiholo={2: complex(*rng.normal(size=2))},
            log_coeff=complex(*rng.normal(size=2)),
            annulus=(0.1, 10.0),
        )
        z = 1.3 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        eps = 1e-4
        stencil = h.eval(np.array([z + eps, z - eps, z + 1j * eps, z - 1j * eps, z]))
        lap = (np.sum(stencil[:4]) - 4.0 * stencil[4]) / eps**2
        assert abs(lap) < 1e-5

    def test_wirtinger_derivatives_match_finite_differences(self):
        h = HarmonicOnAnnulus.from_modes(
            holo={2: 0.3 - 0.1j}, antiholo={1: 0.7j}, log_coeff=0.4,
            annulus=(0.1, 10.0),
        )
        z = 1.2 + 0.4j
        eps = 1e-6
        dx = (h.eval(z + eps) - h.eval(z - eps)) / (2 * eps)
        dy = (h.eval(z + 1j * eps) - h.eval(z - 1j * eps)) / (2 * eps)
        assert abs(h.d_z(z) - 0.5 * (dx - 1j * dy)) < 1e-8
        assert abs(h.d_zbar(z) - 0.5 * (dx + 1j * dy)) < 1e-8

    def test_addition_and_shift(self):
        a = HarmonicOnAnnulus.from_modes(holo={1: 1.0})
        b = HarmonicOnAnnulus.from_modes(antiholo={1: 2.0}, log_coeff=1.0)
        z = 1.5 + 0.2j
        assert abs((a + b).eval(z) - a.eval(z) - b.eval(z)) < 1e-14
        assert abs(a.shifted(3.0 - 1.0j).eval(z) - a.eval(z) - (3.0 - 1.0j)) < 1e-14

    def test_scalar_and_array_evaluation_agree(self):
        h = HarmonicOnAnnulus.from_modes(holo={1: 0.5}, antiholo={1: -0.5})
        pts = np.array([0.7, 1.3 + 0.4j, 2.0j])
        vec = h.eval(pts)
        for z, v in zip(pts, vec):
            assert abs(h.eval(complex(z)) - v) < 1e-15
        assert isinstance(h.eval(1.5), complex)


class TestEvalPolar:
    """The per-circle FFT evaluator against the pointwise series."""

    @staticmethod
    def harmonic(rng, truncation, log_coeff, annulus=(0.5, 2.0)):
        # Coefficients sized so that no term outgrows the annulus.
        n = np.arange(-truncation, truncation + 1)
        decay = np.where(n > 0, annulus[1], 1.0 / annulus[0]) ** -np.abs(n)
        holo = decay * (rng.normal(size=n.size) + 1j * rng.normal(size=n.size))
        anti = decay[::-1] * (rng.normal(size=n.size) + 1j * rng.normal(size=n.size))
        anti[truncation] = 0.0
        return HarmonicOnAnnulus(holo, anti, log_coeff, *annulus)

    @settings(max_examples=60, deadline=None)
    @given(
        truncation=st.integers(1, 64),
        # The second branch keeps folding cases (n_theta < 2N + 1) common.
        n_theta=st.one_of(st.integers(1, 300), st.integers(1, 16)),
        log_coeff=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_eval_on_the_polar_grid(self, truncation, n_theta, log_coeff, seed):
        rng = np.random.default_rng(seed)
        h = self.harmonic(rng, truncation, log_coeff)
        edge = 1e-9
        radii = np.concatenate([
            [0.5 * (1 + edge), 2.0 * (1 - edge), 1.0],
            np.exp(rng.uniform(np.log(0.5), np.log(2.0), 3)),
        ])
        got = h.eval_polar(radii, n_theta)
        want = h.eval(polar_grid(radii, n_theta))
        assert got.shape == (len(radii), n_theta)
        assert np.all(np.abs(got - want) <= 1e-13 * series_scale(h, radii)[:, None])

    @settings(max_examples=60, deadline=None)
    @given(
        truncation=st.integers(1, 64),
        n_theta=st.one_of(st.integers(1, 300), st.integers(1, 16)),
        log_coeff=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_derivatives_match_d_z_and_d_zbar(self, truncation, n_theta, log_coeff, seed):
        rng = np.random.default_rng(seed)
        h = self.harmonic(rng, truncation, log_coeff)
        edge = 1e-9
        radii = np.concatenate([
            [0.5 * (1 + edge), 2.0 * (1 - edge), 1.0],
            np.exp(rng.uniform(np.log(0.5), np.log(2.0), 3)),
        ])
        grid = polar_grid(radii, n_theta)
        tol = 1e-13 * derivative_scale(h, radii)[:, None]
        hz, hzb = h.d_polar(radii, n_theta)
        assert hz.shape == hzb.shape == (len(radii), n_theta)
        assert np.all(np.abs(hz - h.d_z(grid)) <= tol)
        assert np.all(np.abs(hzb - h.d_zbar(grid)) <= tol)
        radial = grid * h.d_z(grid) + np.conj(grid) * h.d_zbar(grid)
        assert np.all(np.abs(h.radial_polar(radii, n_theta) - radial) <= tol * radii[:, None])

    @pytest.mark.parametrize("bad", [np.nan, 0.0, 0.4, 2.5, np.inf])
    def test_radii_outside_the_annulus_raise(self, bad):
        h = HarmonicOnAnnulus.from_modes(holo={1: 1.0}, log_coeff=0.5, annulus=(0.5, 2.0))
        with pytest.raises(DomainError):
            h.eval_polar([1.0, bad], 8)

    @pytest.mark.parametrize("method", ["d_polar", "radial_polar"])
    @pytest.mark.parametrize("bad", [np.nan, 0.0, 0.4, 2.5, np.inf])
    def test_derivative_radii_outside_the_annulus_raise(self, bad, method):
        h = HarmonicOnAnnulus.from_modes(holo={1: 1.0}, log_coeff=0.5, annulus=(0.5, 2.0))
        with pytest.raises(DomainError):
            getattr(h, method)([1.0, bad], 8)
