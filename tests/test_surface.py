"""Conformality, singular sets, normals, and height recovery."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect

import maxsurf.surface
from maxsurf.annulus import CIRCLE_SAMPLES, DomainError, HarmonicOnAnnulus, circle_angles, polar_grid
from maxsurf.bjorling import solve
from maxsurf.fileio import load_surface, save_surface
from maxsurf.interpolation import build_surface, family_curve
from maxsurf.surface import (
    POINT_AT_INFINITY,
    SINGULAR_TOL,
    SPECIAL_TOL,
    BranchPointError,
    MaximalSurface,
    Region,
    SingularPointError,
    classify_point,
    conformality_residual,
    evaluate,
    gauss_map,
    grid_points,
    grid_radii,
    is_degenerate,
    normal,
    singular_set,
    singularity_residual,
    special_singularity_check,
    w_from_h,
    _bisect_brackets,
    _track_signs,
)

import conftest
from conftest import annulus_points, loop_track_signs, random_valid_data


class TestPointwiseQuantities:
    def test_catenoid_is_conformal(self, catenoid):
        rng = np.random.default_rng(1)
        z = np.exp(rng.uniform(np.log(0.3), np.log(3.0), 200)) * np.exp(
            2j * np.pi * rng.uniform(size=200)
        )
        assert np.max(np.abs(conformality_residual(catenoid, z))) < 1e-15

    def test_catenoid_metric_and_residual(self, catenoid):
        assert singularity_residual(catenoid, 2.0) == pytest.approx(15.0 / 64.0)

    def test_classification(self, catenoid):
        assert classify_point(catenoid, 2.0) is Region.HOLO_DOMINANT
        assert classify_point(catenoid, 0.5j) is Region.ANTI_DOMINANT
        assert classify_point(catenoid, np.exp(0.7j)) is Region.SINGULAR

    def test_one_singular_test_for_all_three(self):
        # h = 50 (z - 1/zbar), w = 100 ln|z|: at z = 1 + d, |h_z| - |h_zbar| is
        # about 100 d, inside SINGULAR_TOL (1 + |h_z| + |h_zbar|) for d <= 1e-9.
        surface = MaximalSurface(HarmonicOnAnnulus.from_modes(holo={1: 50.0}, antiholo={1: -50.0}),
                                 HarmonicOnAnnulus.from_modes(log_coeff=100.0))
        z = 1.0 + np.logspace(-11, -9, 4)
        assert all(region is Region.SINGULAR for region in classify_point(surface, z))
        assert np.all(np.isnan(gauss_map(surface, z))) and np.all(np.isnan(normal(surface, z)[1]))
        for point in z:
            for fn in (gauss_map, normal):
                with pytest.raises(SingularPointError):
                    fn(surface, point)
        outside = np.array([1.0 + 3e-9])
        assert classify_point(surface, outside)[0] is Region.HOLO_DOMINANT
        assert np.isfinite(gauss_map(surface, outside)[0])
        assert np.isfinite(normal(surface, outside)[1][0])

    def test_evaluate_returns_complex_and_real(self, catenoid):
        p, w = evaluate(catenoid, 2.0)
        assert p == pytest.approx(0.75)
        assert isinstance(w, float)
        assert w == pytest.approx(np.log(2.0))


class TestGrids:
    def test_grid_respects_finite_annulus(self):
        h = HarmonicOnAnnulus.from_modes(holo={1: 1.0}, annulus=(0.25, 4.0))
        r = grid_radii(h)
        assert 0.25 < r[0] < r[-1] < 4.0

    def test_sentinel_annulus_uses_fallback(self, catenoid):
        r = grid_radii(catenoid)
        assert r[0] == pytest.approx(0.5)
        assert r[-1] == pytest.approx(2.0)
        assert len(grid_points(catenoid, 8, 4)) == 32


class TestDegeneracy:
    def test_sin_pair_is_degenerate(self, sin_planar):
        assert is_degenerate(sin_planar)

    def test_catenoid_is_not(self, catenoid):
        assert not is_degenerate(catenoid.planar)

    def test_exp_surface_is_not(self, exp_planar):
        assert not is_degenerate(exp_planar)


class TestSingularSet:
    def test_catenoid_unit_circle(self, catenoid):
        th = 2.0 * np.pi * np.arange(16) / 16
        pts = singular_set(catenoid, th, (0.4, 2.5))
        assert len(pts) == 16
        assert all(abs(p.rho - 1.0) < 1e-8 for p in pts)
        assert not any(p.tangential for p in pts)

    def test_bracket_must_be_inside_annulus(self):
        h = HarmonicOnAnnulus.from_modes(holo={1: 1.0}, annulus=(0.5, 2.0))
        surf = MaximalSurface(h, HarmonicOnAnnulus.from_modes())
        with pytest.raises(DomainError):
            singular_set(surf, [0.0], (0.4, 1.5))

    def test_imaginary_axis_rays(self, exp_planar):
        surf = MaximalSurface(exp_planar, HarmonicOnAnnulus.from_modes())
        th = 2.0 * np.pi * np.arange(16) / 16
        pts = singular_set(surf, th, (0.4, 2.5))
        hit_angles = {round(p.theta, 12) for p in pts}
        assert hit_angles == {round(np.pi / 2, 12), round(3 * np.pi / 2, 12)}
        assert all(p.residual < 1e-9 for p in pts)

    @pytest.mark.parametrize("n", [4, 16, 64, 128, 1024, 4096])
    def test_axis_rays_in_the_singular_set_give_one_tangential_point(self, exp_planar, n):
        # Along theta = pi/2 and 3 pi/2 the residual is rounding noise (about
        # 4e-16 against |h_z|^2 + |h_zbar|^2 = 2); each ray gives the centre
        # of its one below-tolerance run, and both rays the same radius.
        surf = MaximalSurface(exp_planar, HarmonicOnAnnulus.from_modes())
        pts = singular_set(surf, circle_angles(n), (0.4, 2.5))
        assert [(p.theta, p.tangential) for p in pts] == [(np.pi / 2, True), (3 * np.pi / 2, True)]
        assert pts[0].rho == pts[1].rho == 1.45

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_crossing_on_a_scan_node_is_a_root(self, seed):
        # The bracket (0.5, 1.5) puts scan node 128 at rho = 1, on the singular
        # circle of a closed singular Bjorling solution.  The scan reads 0
        # there, between opposite signs, and the node itself is the root.
        surface = solve(random_valid_data(np.random.default_rng(seed)))
        pts = singular_set(surface, circle_angles(16), (0.5, 1.5))
        on_circle = [p for p in pts if abs(p.rho - 1.0) < 1e-8]
        assert [(p.theta, p.rho, p.tangential) for p in on_circle] == [
            (theta, 1.0, False) for theta in circle_angles(16)]
        assert max(p.residual for p in on_circle) < 1e-12

    @pytest.mark.parametrize(
        "thetas",
        [[0.5], circle_angles(16)[::-1], np.linspace(0.0, 2.0 * np.pi, 16), circle_angles(8)[1:],
         []],
        ids=["off-node", "reversed", "closed-linspace", "missing-ray", "empty"],
    )
    def test_rays_off_the_circle_angles_raise(self, catenoid, thetas):
        with pytest.raises(ValueError, match="circle_angles"):
            singular_set(catenoid, thetas, (0.4, 2.5))

    @staticmethod
    def matrix_scan(surface, n_theta, rhos):
        """The scan that `surface._scan` replaced: one matrix product per ray."""
        return np.array([singularity_residual(surface, rhos * np.exp(1j * theta))
                         for theta in circle_angles(n_theta)])

    def test_fft_scan_matches_the_matrix_scan_bit_for_bit(self, monkeypatch):
        surfaces = [build_surface(family_curve(c), c) for c in (0.5, 3.0)]
        for seed in range(3):
            for fourier in (False, True):
                surfaces.append(solve(random_valid_data(np.random.default_rng(seed), fourier=fourier)))
        want = {}
        with monkeypatch.context() as patch:
            patch.setattr(maxsurf.surface, "_scan", self.matrix_scan)
            for k, surface in enumerate(surfaces):
                for n in (16, 128):
                    want[k, n] = singular_set(surface, circle_angles(n), (0.4, 2.5))
        for k, surface in enumerate(surfaces):
            for n in (16, 128):
                assert singular_set(surface, circle_angles(n), (0.4, 2.5)) == want[k, n]

    @staticmethod
    def scalar_singular_set(surface, thetas, rho_bracket, xtol=1e-10):
        """Reference: per-ray scan, scalar check of each cell's ends, scipy bisect.

        A scan value within 8 eps of |h_z|^2 + |h_zbar|^2 counts as 0.
        """
        rhos = np.linspace(*rho_bracket, 257)
        found = []
        for theta in thetas:
            def f_at(rho):
                return float(singularity_residual(surface, rho * np.exp(1j * theta)))

            ray = rhos * np.exp(1j * theta)
            scale = np.abs(surface.planar.d_z(ray)) ** 2 + np.abs(surface.planar.d_zbar(ray)) ** 2
            f = singularity_residual(surface, ray)
            f = np.where(np.abs(f) <= 8.0 * np.finfo(float).eps * scale, 0.0, f)
            roots = [bisect(f_at, rhos[i], rhos[i + 1], xtol=xtol) for i in range(256)
                     if f[i] * f[i + 1] < 0.0 and f_at(rhos[i]) * f_at(rhos[i + 1]) < 0.0]
            found += [(theta, rho, abs(f_at(rho)), False) for rho in roots]
            i = 0
            for below, run in itertools.groupby(np.abs(f) < SINGULAR_TOL):
                j = i + len(list(run)) - 1
                if below and not any(rhos[i] - xtol <= r <= rhos[j] + xtol for r in roots):
                    mid = 0.5 * (rhos[i] + rhos[j])
                    found.append((theta, mid, abs(f_at(mid)), True))
                i = j + 1
        return sorted(found, key=lambda p: p[:2])

    def test_batched_refinement_matches_scalar_bisection(self, catenoid, exp_planar):
        rng = np.random.default_rng(404)
        surfaces = [
            catenoid,
            MaximalSurface(exp_planar, HarmonicOnAnnulus.from_modes()),
            build_surface(family_curve(2.0), 2.0),
            *(solve(random_valid_data(rng)) for _ in range(20)),
        ]
        th = circle_angles(64)
        for surface in surfaces:
            got = singular_set(surface, th, (0.4, 2.5))
            want = self.scalar_singular_set(surface, th, (0.4, 2.5))
            assert len(got) == len(want)
            for p, (theta, rho, residual, tangential) in zip(got, want):
                assert (p.theta, p.tangential) == (theta, tangential)
                assert abs(p.rho - rho) <= 1e-9
                assert abs(p.residual - residual) <= 1e-9


class TestBatchedBisection:
    @staticmethod
    def cubic(x, root, scale):
        d = x - root
        return scale * d * (1.0 + d * d)

    def test_roots_match_scipy_bisect(self):
        rng = np.random.default_rng(505)
        count = 300
        a = rng.uniform(-2.0, 1.0, count)
        b = a + rng.uniform(1e-3, 3.0, count)
        root = a + rng.uniform(0.0, 1.0, count) * (b - a)
        scale = rng.choice([-1.0, 1.0], count) * np.exp(rng.uniform(-5.0, 5.0, count))
        # A root on the first midpoint stops with f(xm) == 0.
        a[0], b[0], root[0] = 0.0, 2.0, 1.0
        for xtol in (1e-10, 2e-12):
            got = _bisect_brackets(
                lambda x, k: self.cubic(x, root[k], scale[k]),
                a, b, self.cubic(a, root, scale), xtol,
            )
            want = [
                bisect(self.cubic, a[k], b[k], args=(root[k], scale[k]), xtol=xtol)
                for k in range(count)
            ]
            assert got.tolist() == want

    def test_eight_sections_match_two(self):
        # Both end in a bracket narrower than xtol + 4 eps |x| around the same
        # sign change, so they differ by less than two such widths (at most
        # 8 ulp, 6 eps |x|, at xtol = 0 here).
        rng = np.random.default_rng(505)
        count = 300
        a = rng.uniform(-2.0, 1.0, count)
        b = a + rng.uniform(1e-3, 3.0, count)
        root = a + rng.uniform(0.0, 1.0, count) * (b - a)
        scale = rng.choice([-1.0, 1.0], count) * np.exp(rng.uniform(-5.0, 5.0, count))
        a[0], b[0], root[0] = 0.0, 2.0, 1.0
        for xtol in (1e-10, 2e-12, 0.0):
            two, eight = (
                _bisect_brackets(
                    lambda x, k: self.cubic(x, root[k], scale[k]),
                    a, b, self.cubic(a, root, scale), xtol, sections=sections,
                )
                for sections in (2, 8)
            )
            eps = np.finfo(float).eps
            assert np.all(np.abs(eight - two) <= 2.0 * (xtol + 4.0 * eps * np.abs(two)))

    def test_a_zero_on_an_inner_point_is_returned(self):
        # 0.375 = 3/8 is the third of seven points; 0.875 lies past the sign change.
        def f(x, k):
            return np.where(x == 0.875, 0.0, x - 0.375)

        got = _bisect_brackets(f, [0.0], [1.0], [-0.375], 1e-10, sections=8)
        assert got.tolist() == [0.375]

    def test_nan_value_raises(self):
        def f(x, k):
            return np.where(k == 1, np.nan, x - 0.3)

        with pytest.raises(ValueError, match="NaN"):
            _bisect_brackets(f, [0.0, 0.0], [1.0, 1.0], [-0.3, -0.3], 1e-10)

    def test_open_bracket_after_maxiter_raises(self):
        def f(x, k):
            return x - 0.3

        with pytest.raises(ValueError, match="did not converge"):
            _bisect_brackets(f, [0.0], [1.0], [-0.3], 1e-10, maxiter=5)
        assert _bisect_brackets(f, [0.0], [1.0], [-0.3], 1e-10).tolist() == [
            bisect(lambda x: x - 0.3, 0.0, 1.0, xtol=1e-10)
        ]


class TestNormalAndGauss:
    def test_catenoid_normal(self, catenoid):
        planar, height = normal(catenoid, 2.0)
        assert abs(planar) == pytest.approx(4.0 / 3.0)
        assert height == pytest.approx(-5.0 / 3.0)
        assert abs(planar) ** 2 - height**2 == pytest.approx(-1.0)

    def test_normal_rejects_singular_point(self, catenoid):
        with pytest.raises(SingularPointError):
            normal(catenoid, 1.0)
        with pytest.raises(SingularPointError):
            gauss_map(catenoid, np.exp(2.3j))

    def test_catenoid_gauss_identity_outside(self, catenoid):
        for z in (2.0, 1.5j, -1.2 + 0.8j):
            assert abs(gauss_map(catenoid, z) - z) < 1e-10

    def test_catenoid_gauss_inside(self, catenoid):
        # Inside the unit circle the points are anti-dominant, and
        # nu = -conj(w_z / h_z) with h_z = 1/2, w_z = 1/(2z) is -1/zbar.
        for z in (0.5, 0.4 + 0.1j, 0.6j):
            assert abs(gauss_map(catenoid, z) + 1.0 / np.conj(z)) < 1e-10

    def test_gauss_continuity_on_loop(self, catenoid):
        th = np.linspace(0.0, 2.0 * np.pi, 200)
        vals = np.array([gauss_map(catenoid, 1.5 * np.exp(1j * t)) for t in th])
        assert np.max(np.abs(np.diff(vals))) < 0.1

    def test_point_at_infinity(self):
        # h = z has no antiholomorphic part, so the projected normal is the
        # pole of the sphere everywhere.
        h = HarmonicOnAnnulus.from_modes(holo={1: 1.0})
        surf = MaximalSurface(h, HarmonicOnAnnulus.from_modes())
        assert gauss_map(surf, 1.5) == POINT_AT_INFINITY

    def test_arrays_match_points_and_give_nan_at_singular_points(self, catenoid):
        z = polar_grid([0.6, 1.0, 1.7], 8)  # |z| = 1 is singular
        nu = gauss_map(catenoid, z)
        planar, height = normal(catenoid, z)
        assert nu.shape == planar.shape == height.shape == z.shape
        assert np.all(np.isnan(nu[1])) and np.all(np.isnan(planar[1]))
        assert np.all(np.isnan(height[1]))
        for i in (0, 2):
            for j, point in enumerate(z[i]):
                assert abs(nu[i, j] - gauss_map(catenoid, point)) <= 1e-14
                p, h = normal(catenoid, point)
                assert abs(planar[i, j] - p) <= 1e-14 and abs(height[i, j] - h) <= 1e-14
        assert isinstance(gauss_map(catenoid, 2.0), complex)
        p, h = normal(catenoid, 2.0)
        assert isinstance(p, complex) and isinstance(h, float)

    @pytest.mark.parametrize("height_scale", [0.0, 1.0 + 1e-6])
    def test_non_conformal_surface_raises(self, catenoid, height_scale):
        # w = s ln|z| gives w_z^2 = s^2 h_z conj(h_zbar): a relative defect
        # of |s^2 - 1|, which is 1 for s = 0 and 2e-6 for s = 1 + 1e-6.
        surface = MaximalSurface(
            catenoid.planar, HarmonicOnAnnulus.from_modes(log_coeff=height_scale))
        for z in (2.0, 0.5j):
            with pytest.raises(BranchPointError, match="not conformal"):
                normal(surface, z)
            with pytest.raises(BranchPointError, match="not conformal"):
                gauss_map(surface, z)

    def test_conformality_tolerance_admits_rounding(self, catenoid):
        # A relative defect of 2e-8, inside CONFORMAL_TOL.
        surface = MaximalSurface(
            catenoid.planar, HarmonicOnAnnulus.from_modes(log_coeff=1.0 + 1e-8))
        assert abs(gauss_map(surface, 2.0) - 2.0) < 1e-12
        assert normal(surface, 2.0) == normal(catenoid, 2.0)


@pytest.fixture(scope="module")
def branch_surfaces():
    """The catenoid, two family surfaces and 12 Fourier-form Björling ones."""
    catenoid = MaximalSurface(
        HarmonicOnAnnulus.from_modes(holo={1: 0.5}, antiholo={1: -0.5}),
        HarmonicOnAnnulus.from_modes(log_coeff=1.0),
    )
    return [
        ("catenoid", catenoid),
        ("family_curve(2)", build_surface(family_curve(2.0), 2.0)),
        ("family_curve(0.6)", build_surface(family_curve(0.6), 0.6)),
        *((f"fourier seed {s}", solve(random_valid_data(np.random.default_rng(s), fourier=True)))
          for s in range(12)),
    ]


class TestClosedFormBranches:
    """normal and gauss_map against the branch tracking they replaced."""

    @staticmethod
    def path_share(fn, anchor, z):
        """min / max of |fn| on the reference's radial-then-arc path."""
        q = np.abs(fn(conftest.path_nodes(anchor, z, 400)))
        return q.min() / q.max()

    def test_matches_the_tracked_path(self, branch_surfaces):
        # Only the sign may differ, and only where the reference's path
        # passes near a zero or a pole of the square root's argument.
        rng = np.random.default_rng(606)
        flipped = []
        for name, surface in branch_surfaces:
            for z in map(complex, annulus_points(rng, 40)):
                hz = abs(surface.planar.d_z(z))
                hzb = abs(surface.planar.d_zbar(z))
                if abs(hz - hzb) <= 1e-2 * (hz + hzb):
                    continue
                region = classify_point(surface, z)
                cases = [
                    ("normal", normal(surface, z)[0], conftest.tracked_normal(surface, z)[0],
                     conftest.normal_argument(surface), conftest.regular_anchor(surface)),
                    ("gauss", gauss_map(surface, z), conftest.tracked_gauss_map(surface, z),
                     conftest.gauss_argument(surface, region),
                     conftest.regular_anchor(surface, region)),
                ]
                for kind, new, ref, fn, anchor in cases:
                    scale = max(1.0, abs(ref))
                    if abs(new - ref) <= 1e-12 * scale:
                        continue
                    assert abs(new + ref) <= 1e-12 * scale, (name, kind, z)
                    assert self.path_share(fn, anchor, z) < 1e-3, (name, kind, z)
                    flipped.append((name, kind, z))
        assert len(flipped) == 6, flipped  # listed in CHANGES.md

    def test_normal_is_orthogonal_and_the_gauss_map_projects_it(self, branch_surfaces):
        # X_x = (h_z + h_zbar, 2 Re w_z) and X_y = (i (h_z - h_zbar), -2 Im w_z)
        # span the tangent plane; <a, b> = Re(a_planar conj(b_planar)) - a_h b_h.
        rng = np.random.default_rng(707)
        for name, surface in branch_surfaces:
            z = annulus_points(rng, 40)
            hz, hzb, wz = surface.planar.d_z(z), surface.planar.d_zbar(z), surface.height.d_z(z)
            keep = np.abs(np.abs(hz) - np.abs(hzb)) > 1e-2 * (np.abs(hz) + np.abs(hzb))
            z, hz, hzb, wz = z[keep], hz[keep], hzb[keep], wz[keep]
            tangents = [(hz + hzb, 2.0 * wz.real), (1j * (hz - hzb), -2.0 * wz.imag)]
            size = sum(np.hypot(np.abs(x_p), x_h) for x_p, x_h in tangents)
            n_p, n_h = normal(surface, z)
            for x_p, x_h in tangents:
                defect = (n_p * np.conj(x_p)).real - n_h * x_h
                assert np.all(np.abs(defect) <= 1e-9 * size), name
            want = n_p / np.where(np.abs(hzb) < np.abs(hz), 1.0 + n_h, 1.0 - n_h)
            nu = gauss_map(surface, z)
            assert np.all(np.abs(nu - want) <= 1e-9 * np.maximum(1.0, np.abs(want))), name

    def test_gauss_map_outside_the_default_grid(self, lobe):
        # At z = 2.2, anti-dominant: nu = -conj(w_z / h_z) = -c 2.2^6 = -1.1^6.
        assert abs(gauss_map(lobe, 2.2) + 1.1**6) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 14), st.floats(np.log(0.51), np.log(1.96)),
           st.floats(0.0, 2.0 * np.pi))
    def test_no_sign_jump_on_small_rings(self, branch_surfaces, index, log_rho, theta):
        _, surface = branch_surfaces[index]
        ring = np.exp(log_rho + 1j * theta) + 1e-3 * np.exp(1j * circle_angles(64))
        regions = classify_point(surface, ring, 1e-3)
        assume(len(set(regions)) == 1 and regions[0] is not Region.SINGULAR)
        nu = gauss_map(surface, ring)
        assume(np.all(np.isfinite(nu)))
        planar, _ = normal(surface, ring)
        for values in (nu, planar):
            assert np.all((values * np.conj(np.roll(values, 1))).real > 0.0)


class TestHeightRecovery:
    def test_catenoid_log_height(self, catenoid):
        rng = np.random.default_rng(7)
        targets = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 30)) * np.exp(
            2j * np.pi * rng.uniform(size=30)
        )
        w = w_from_h(catenoid.planar, 2.0, np.log(2.0), targets)
        assert np.max(np.abs(np.array(w) - np.log(np.abs(targets)))) < 1e-8

    def test_path_independence(self, catenoid):
        target = 0.9 * np.exp(2.1j)
        direct = w_from_h(catenoid.planar, 2.0, 0.0, [target])[0]
        detour = w_from_h(
            catenoid.planar, 2.0, 0.0, [target], via=[1.4 * np.exp(0.9j), 0.7]
        )[0]
        assert abs(direct - detour) < 1e-8

    def test_base_offset_is_additive(self, catenoid):
        a = w_from_h(catenoid.planar, 2.0, 0.0, [1.3j])[0]
        b = w_from_h(catenoid.planar, 2.0, 5.0, [1.3j])[0]
        assert b - a == pytest.approx(5.0)

    def test_vanishing_integrand_raises(self):
        # No antiholomorphic part: the square-root integrand is identically 0.
        h = HarmonicOnAnnulus.from_modes(holo={1: 1.0})
        with pytest.raises(BranchPointError):
            w_from_h(h, 1.5, 0.0, [2.0])

    def test_odd_winding_raises(self):
        # h = z^2/2 + zbar: q = z has no square root on any circle about 0.
        h = HarmonicOnAnnulus.from_modes(holo={2: 0.5}, antiholo={-1: 1.0})
        with pytest.raises(BranchPointError, match="changes sign around a circle"):
            w_from_h(h, 1.5, 0.0, [0.8j])

    def test_period_raises(self):
        # h = z - i/zbar: q = -i/z^2, so w_z has the residue e^{-i pi/4} and
        # w would change by 2 sqrt(2) pi around the annulus.
        h = HarmonicOnAnnulus.from_modes(holo={1: 1.0}, antiholo={1: -1j})
        with pytest.raises(BranchPointError, match="changes by 8.89 around 0"):
            w_from_h(h, 1.5, 0.0, [0.8j])

    @pytest.mark.parametrize(
        "targets, via",
        [([1.2, np.nan], None), ([1.2, 1e-3], None), ([1.2], [0.9, 1e3j])],
        ids=["nan-target", "target-outside", "via-outside"],
    )
    def test_points_outside_the_domain_raise(self, targets, via):
        planar = HarmonicOnAnnulus.from_modes(
            holo={1: 0.5}, antiholo={1: -0.5}, annulus=(0.1, 10.0)
        )
        with pytest.raises(DomainError):
            w_from_h(planar, 2.0, 0.0, targets, via=via)

    def test_matches_the_stored_height(self, tmp_path):
        # Björling surfaces at truncation 64, and the same ones read back from
        # their exact-decimal files (truncation 6); the base point's branch
        # fixes w - w0 only up to one sign.
        path = str(tmp_path / "s.surface.txt")
        worst = 0.0
        for seed in range(60):
            solved = solve(random_valid_data(np.random.default_rng(seed), fourier=True))
            save_surface(solved, path)
            points = annulus_points(np.random.default_rng(1000 + seed), 9)
            z0, targets = points[0], points[1:]
            for surface in (solved, load_surface(path)):
                w0 = float(np.real(surface.height.eval(z0)))
                true = np.real(surface.height.eval(targets))
                got = np.array(w_from_h(surface.planar, z0, w0, targets))
                err = np.minimum(np.abs(got - true), np.abs(got - (2.0 * w0 - true)))
                worst = max(worst, float(np.max(err / (1.0 + np.abs(true)))))
        assert worst < 1e-10

    @staticmethod
    def read_back(seed, tmp_path):
        path = str(tmp_path / f"{seed}.surface.txt")
        save_surface(solve(random_valid_data(np.random.default_rng(seed), fourier=True)), path)
        return load_surface(path)

    @pytest.mark.parametrize("seed", [111, 169, 190])
    def test_ring_resolves_a_fast_turning_q(self, tmp_path, seed):
        # Read back at truncation 6, these surfaces' q turns by up to 1.3-3.1
        # rad between neighbours of a 128-point (16N) ring, which then reads
        # an odd winding (-13, -11, -13 for -12, -12, -14); the ring doubles
        # until each step is below pi/4 (1024 to 4096 points here).
        surface = self.read_back(seed, tmp_path)
        z0, targets = 0.9 + 0.3j, np.array([1.3 - 0.2j, 0.6 + 0.1j])
        w0 = float(np.real(surface.height.eval(z0)))
        got = np.array(w_from_h(surface.planar, z0, w0, targets))
        assert np.max(np.abs(got - np.real(surface.height.eval(targets)))) < 1e-12

    def test_unresolved_ring_raises(self, tmp_path, monkeypatch):
        surface = self.read_back(111, tmp_path)
        monkeypatch.setattr(maxsurf.surface, "RING_LIMIT", 128)
        with pytest.raises(BranchPointError, match="not resolved by 128 samples"):
            w_from_h(surface.planar, 0.9 + 0.3j, 0.0, [1.3 - 0.2j])


class TestSignTracking:
    @pytest.mark.parametrize("n", [13, 191, 1535])
    def test_matches_the_loop_bit_for_bit(self, n):
        # Square roots turning by up to 1.25 rad per step are well resolved;
        # at up to 3 rad many steps are ambiguous and flip the sign.
        rng = np.random.default_rng(n)
        for turn in (2.5, 6.0):
            for _ in range(5):
                phase = np.cumsum(rng.uniform(-turn, turn, n))
                values = rng.uniform(0.5, 2.0, n) * np.exp(1j * phase)
                first = np.sqrt(values[0])
                for start in (first, -first, complex(rng.normal(), rng.normal())):
                    got = _track_signs(values, start)
                    assert got.tobytes() == loop_track_signs(values, start).tobytes()


class TestSpecialSingularity:
    def test_catenoid_unit_circle_collapses(self, catenoid):
        assert special_singularity_check(catenoid, 1.0)
        assert not special_singularity_check(catenoid, 0.5)

    def test_evaluates_no_point_matrices(self, catenoid, monkeypatch):
        # p, w and the metric factor come from one synthesis per circle.
        for name in ("eval", "d_z", "d_zbar"):
            monkeypatch.setattr(HarmonicOnAnnulus, name, lambda self, z, n=name: pytest.fail(n))
        assert special_singularity_check(catenoid, 1.0)
        assert not special_singularity_check(catenoid, 2.0)

    def test_verdicts_match_the_point_evaluation(self, catenoid):
        # The reference evaluates the same CIRCLE_SAMPLES points with the point
        # evaluators eval, d_z and d_zbar.
        def reference(surface, radius):
            circle = radius * np.exp(1j * circle_angles(CIRCLE_SAMPLES))
            p, w = surface.planar.eval(circle), surface.height.eval(circle).real
            spread = max(np.max(np.abs(p - p[0])), np.max(np.abs(w - w[0])))
            eta = np.max((np.abs(surface.planar.d_z(circle))
                          - np.abs(surface.planar.d_zbar(circle))) ** 2)
            return spread < SPECIAL_TOL and eta < SPECIAL_TOL

        rng = np.random.default_rng(22)
        surfaces = [catenoid, *(build_surface(family_curve(c), c) for c in (0.4, 2.0, 3.0)),
                    *(solve(random_valid_data(rng, fourier=True)) for _ in range(3))]
        verdicts = []
        for surface in surfaces:
            for radius in (0.9, 1.0, 1.1):
                if surface.inner_radius < radius < surface.outer_radius:
                    verdicts.append(special_singularity_check(surface, radius))
                    assert verdicts[-1] == reference(surface, radius), (surface, radius)
        assert True in verdicts and False in verdicts
