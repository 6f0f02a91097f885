"""File formats, the command-line interface, and determinism."""

import decimal
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
import maxsurf
from conftest import random_valid_data
from maxsurf import bjorling, cli, fileio
from maxsurf.annulus import COEFF_FLOOR, HarmonicOnAnnulus, _centered, circle_angles, polar_grid
from maxsurf.surface import MaximalSurface, Region, SingularPoint

# Values whose text is easy to get wrong: signed zero, the smallest
# subnormal, an integer-valued float past 2^53, a short decimal, nan and inf.
AWKWARD = [-0.0, 5e-324, 1e16, 2.5, np.nan, np.inf, -np.inf, 1.0 / 3.0]


# Curve and Björling specs whose tangents or radial fields are too large to square.
OVERFLOW_SPECS = {
    "curve-1e200": {"kind": "curve", "planar": {"fourier": [[1, 1e200, 0.0]]},
                    "height": {"fourier": [[0, 1.0, 0.0]]}},
    "curve-1e150": {"kind": "curve", "planar": {"fourier": [[1, 1e150, 0.0]]},
                    "height": {"fourier": [[0, 1.0, 0.0]]}},
    "curve-1e153": {"kind": "curve", "planar": {"fourier": [[1, 1e153, 0.0]]},
                    "height": {"fourier": [[0, 1.0, 0.0]]}},
    "radial-1e200": {"kind": "bjorling", "curve_planar": {"fourier": [[1, 1.0, 0.0]]},
                     "curve_height": {"fourier": [[0, 0.0, 0.0]]},
                     "radial_planar": {"fourier": [[0, 1e200, 0.0]]},
                     "radial_height": {"fourier": [[0, 1e200, 0.0]]}},
    "tangent-1e308": {"kind": "bjorling", "curve_planar": {"fourier": [[2, 1e308, 0.0]]},
                      "curve_height": {"fourier": [[0, 0.0, 0.0]]},
                      "radial_planar": {"fourier": [[0, 1.0, 0.0]]},
                      "radial_height": {"fourier": [[0, 1.0, 0.0]]}},
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def parse_text(loader, text: str):
    """``loader`` on a file holding ``text``: its result, or the SpecParseError."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            return loader(path)
        except fileio.SpecParseError as exc:
            return exc


def g17_text(values) -> list:
    """fileio.format_g17's cells as text, NULs removed."""
    cells = fileio.format_g17(np.asarray(values, dtype=np.float64))
    return [row.tobytes().replace(b"\0", b"").decode() for row in cells]


def int_text(values) -> list:
    """fileio.format_int's cells as text, NULs removed."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in fileio.format_int(values)]


def percent_text(values) -> list:
    """The reference: ``"%.17g" % x`` for each value."""
    return ["%.17g" % x for x in np.asarray(values, dtype=np.float64).tolist()]


def below_power_of_ten(p: int) -> float:
    """The largest double below 10^p."""
    x = float(f"1e{p}")
    return x if decimal.Decimal(x) < decimal.Decimal(10) ** p else math.nextafter(x, 0.0)


def src_env() -> dict:
    """The environment of a subprocess that imports this checkout's maxsurf."""
    src = os.path.dirname(os.path.dirname(maxsurf.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def seventeen_digit_ties() -> list:
    """Doubles m / 2^e, m odd, whose exact decimal has 18 significant digits:
    the last is 5, so rounding to 17 digits is an exact tie."""
    rng = np.random.default_rng(17)
    ties = []
    for e in range(1, 26):
        lo, hi = -(-10**17 // 5**e), min(10**18 // 5**e, 2**53)
        if lo >= hi:  # every such m exceeds 2^53
            continue
        for m in rng.integers(lo, hi, 8).tolist() + [lo, hi - 1]:
            x = (m | 1) / 2**e
            digits = decimal.Decimal(x).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties.append(x)
    return ties


# Text without lone surrogates, which no UTF-8 file can hold.
TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=40)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([10**12, -(10**400), 4097]),
    st.floats(), st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3), max_leaves=10)
ROWS = st.lists(st.lists(JSON_LEAVES, max_size=4), max_size=5)
COMPONENT = st.one_of(JSON_VALUES, st.fixed_dictionaries(
    {}, optional={"fourier": ROWS | JSON_VALUES, "samples": ROWS | JSON_VALUES}))
SPEC = st.fixed_dictionaries(
    {"kind": st.sampled_from(["curve", "bjorling"]) | JSON_VALUES},
    optional={name: COMPONENT for name in ("planar", "height", "curve_planar", "curve_height",
                                           "radial_planar", "radial_height")}
    | {"label": JSON_VALUES, "expected_r0": JSON_LEAVES})
SURFACE_LINE = st.builds(
    lambda key, fields: " ".join([key, *fields]),
    st.sampled_from(["planar", "height", "planar.annulus", "height.annulus", "planar.log",
                     "height.log", "planar.x", "shape"]) | TEXT,
    st.lists(st.sampled_from(["0", "1", "-1", "0.5", "-0", "inf", "nan", "1e400", "4097",
                              "-4096", "1000000000000", "1.5", "x"])
             | st.integers().map(str) | st.floats().map(repr) | TEXT, max_size=6))


@pytest.fixture
def catenoid_curve_spec(tmp_path):
    return write_json(
        tmp_path / "curve.json",
        {
            "kind": "curve",
            "label": "catenoid ring",
            "planar": {"fourier": [[1, -0.75, 0.0]]},
            "height": {"fourier": [[0, math.log(0.5), 0.0]]},
        },
    )


@pytest.fixture
def catenoid_bjorling_spec(tmp_path):
    return write_json(
        tmp_path / "bjorling.json",
        {
            "kind": "bjorling",
            "label": "catenoid",
            "curve_planar": {"fourier": []},
            "curve_height": {"fourier": []},
            "radial_planar": {"fourier": [[1, 1.0, 0.0]]},
            "radial_height": {"fourier": [[0, 1.0, 0.0]]},
        },
    )


class TestCurveSpecs:
    def test_fourier_and_sample_components(self, tmp_path):
        th = 2.0 * np.pi * np.arange(16) / 16
        samples = [[float(np.cos(t)), float(np.sin(t))] for t in th]
        path = write_json(
            tmp_path / "c.json",
            {
                "kind": "curve",
                "planar": {"samples": samples},
                "height": {"fourier": [[0, 1.0, 0.0]]},
            },
        )
        spec = fileio.load_curve_spec(path)
        curve = spec.as_curve()
        assert abs(curve.planar.coeff(1) - 1.0) < 1e-12
        assert curve.height.coeff(0) == 1.0

    def test_parse_errors(self, tmp_path):
        with pytest.raises(fileio.SpecParseError):
            fileio.load_curve_spec(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(fileio.SpecParseError):
            fileio.load_curve_spec(str(bad))
        with pytest.raises(fileio.SpecParseError):
            fileio.load_curve_spec(
                write_json(tmp_path / "kind.json", {"kind": "nope"})
            )
        with pytest.raises(fileio.SpecParseError):
            fileio.load_curve_spec(
                write_json(
                    tmp_path / "count.json",
                    {
                        "kind": "curve",
                        "planar": {"samples": [[1.0, 0.0]] * 12},
                        "height": {"fourier": []},
                    },
                )
            )

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(SPEC.map(json.dumps), TEXT))
    @example("[" * 100000)
    def test_any_text_parses_or_raises_a_parse_error(self, text):
        result = parse_text(fileio.load_curve_spec, text)
        assert isinstance(result, (fileio.CurveSpec, fileio.SpecParseError))


class TestSurfaceFiles:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(SURFACE_LINE, max_size=8).map(
            lambda lines: "\n".join([fileio.COEFF_MAGIC, *lines]) + "\n"),
        TEXT))
    def test_any_text_loads_or_raises_a_parse_error(self, text):
        result = parse_text(fileio.load_surface, text)
        assert isinstance(result, (MaximalSurface, fileio.SpecParseError))

    @staticmethod
    @st.composite
    def harmonics(draw):
        top = draw(st.integers(0, 6))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        # Magnitudes around COEFF_FLOOR, where save_surface starts dropping modes.
        value = finite | st.floats(-1e-12, 1e-12)
        parts = [np.array(draw(st.lists(value, min_size=2 * top + 1, max_size=2 * top + 1)))
                 for _ in range(4)]
        holo, anti = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
        anti[top] = 0.0
        inner = draw(st.floats(0.0, 1.0, exclude_max=True))
        outer = draw(st.floats(1.0, exclude_min=True) | st.just(np.inf))
        return HarmonicOnAnnulus(holo, anti, complex(draw(finite), draw(finite)), inner, outer)

    @settings(max_examples=100, deadline=None)
    @given(harmonics(), harmonics())
    def test_save_then_load_is_exact(self, planar, height):
        surface = MaximalSurface(planar, height)
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "s.surface.txt")
            fileio.save_surface(surface, path)
            with open(path, "rb") as fh:
                first = fh.read()
            loaded = fileio.load_surface(path)
            fileio.save_surface(loaded, path)
            with open(path, "rb") as fh:
                assert fh.read() == first
        for got, want in ((loaded.planar, planar), (loaded.height, height)):
            assert (got.inner_radius, got.outer_radius, got.log_coeff) == \
                (want.inner_radius, want.outer_radius, want.log_coeff)
            # Modes whose two coefficients are both within COEFF_FLOOR are not saved.
            kept = (np.abs(want.holo) > COEFF_FLOOR) | (np.abs(want.antiholo) > COEFF_FLOOR)
            top = max(got.truncation, want.truncation)
            for a, b in ((got.holo, want.holo), (got.antiholo, want.antiholo)):
                assert np.array_equal(_centered(a, top), _centered(np.where(kept, b, 0), top))

    def test_round_trip_is_exact(self, tmp_path, catenoid):
        first = tmp_path / "s1.txt"
        second = tmp_path / "s2.txt"
        fileio.save_surface(catenoid, str(first))
        loaded = fileio.load_surface(str(first))
        fileio.save_surface(loaded, str(second))
        assert first.read_bytes() == second.read_bytes()
        z = 1.3 + 0.4j
        assert loaded.planar.eval(z) == catenoid.planar.eval(z)
        assert loaded.height.eval(z) == catenoid.height.eval(z)

    def test_round_trip_random_coefficients(self, tmp_path):
        rng = np.random.default_rng(29)
        surface = MaximalSurface(
            HarmonicOnAnnulus.from_modes(
                holo={n: complex(*rng.normal(size=2)) for n in (-2, 1, 4)},
                antiholo={n: complex(*rng.normal(size=2)) for n in (-1, 3)},
                log_coeff=complex(*rng.normal(size=2)),
                annulus=(0.3, 3.5),
            ),
            HarmonicOnAnnulus.from_modes(log_coeff=0.7, annulus=(0.3, 3.5)),
        )
        path = tmp_path / "s.txt"
        fileio.save_surface(surface, str(path))
        loaded = fileio.load_surface(str(path))
        assert loaded.planar.inner_radius == surface.planar.inner_radius
        assert loaded.planar.outer_radius == surface.planar.outer_radius
        z = 1.1 - 0.6j
        assert loaded.planar.eval(z) == surface.planar.eval(z)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("something else\n")
        with pytest.raises(fileio.SpecParseError):
            fileio.load_surface(str(path))


class TestExports:
    WRITERS = [fileio.export_mesh, fileio.export_point_cloud]

    @pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__)
    @pytest.mark.parametrize("rho_range", [(0.4, 1.5), (0.6, 2.5), (1.5, 0.8)])
    def test_rho_range_outside_the_annulus_raises(self, tmp_path, writer, rho_range):
        annulus = (0.5, 2.0)
        surface = MaximalSurface(
            HarmonicOnAnnulus.from_modes(holo={1: 0.5}, antiholo={1: -0.5}, annulus=annulus),
            HarmonicOnAnnulus.from_modes(log_coeff=1.0, annulus=annulus),
        )
        out = tmp_path / "out.txt"
        with pytest.raises(ValueError, match="rho range"):
            writer(surface, str(out), 8, 4, rho_range)
        assert not out.exists()

    def test_csv_fields_equal_mesh_vertices(self, tmp_path):
        rng = np.random.default_rng(5)
        modes = {n: complex(rng.normal(), rng.normal()) / 4 ** abs(n) for n in range(-4, 5)}
        surface = MaximalSurface(
            HarmonicOnAnnulus.from_modes(holo=modes, antiholo={1: 0.3j}),
            HarmonicOnAnnulus.from_modes(holo={0: 1.0}, log_coeff=0.7),
        )
        mesh, csv = tmp_path / "s.mesh", tmp_path / "s.csv"
        fileio.export_mesh(surface, str(mesh), 16, 8, (0.8, 1.25))
        fileio.export_point_cloud(surface, str(csv), 16, 8, (0.8, 1.25))
        vertices = [ln.split()[1:] for ln in mesh.read_text().splitlines() if ln[0] == "v"]
        rows = [ln.split(",")[2:] for ln in csv.read_text().splitlines()[1:]]
        assert len(vertices) == 16 * 8
        assert rows == vertices


class TestCellFormatter:
    """fileio.format_g17 writes the bytes of "%.17g" % x for every double."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats() | st.floats(-1e17, 1e17), min_size=1, max_size=64))
    def test_any_double(self, values):
        assert g17_text(values) == percent_text(values)

    def test_zeros_and_bounds_of_the_kernel_range(self):
        bounds = [1e-6, 1e-5, 1e-4, 1e17]
        values = [0.0, -0.0, *bounds, *np.nextafter(bounds, 0.0), *np.nextafter(bounds, np.inf)]
        values += [-x for x in values]
        assert g17_text(values) == percent_text(values)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{p}") for p in range(-7, 19)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        assert g17_text(values) == percent_text(values)
        assert g17_text(-values) == percent_text(-values)

    def test_digits_below_a_power_of_ten_do_not_carry(self):
        # The largest doubles below 10^p, and the next ones below 10^17, stay
        # below 10^p in 17 digits: the rounding never carries to 10^p.
        powers = list(range(-6, 18)) + [17] * 8
        values = [below_power_of_ten(p) for p in range(-6, 18)]
        values += [1e17 - 16.0 * k for k in range(1, 9)]
        text = percent_text(values)
        assert g17_text(values) == text
        assert all(decimal.Decimal(t) < decimal.Decimal(10) ** p for t, p in zip(text, powers))

    def test_exact_ties_round_half_to_even(self):
        ties = seventeen_digit_ties()
        assert len(ties) > 100
        assert g17_text(ties) == percent_text(ties)
        assert g17_text(np.negative(ties)) == percent_text(np.negative(ties))

        def half_up(x):
            with decimal.localcontext() as ctx:
                ctx.prec, ctx.rounding = 17, decimal.ROUND_HALF_UP
                return +decimal.Decimal(x)

        # The cases tell the rules apart: half up gives other digits for many.
        differ = [x for x in ties if half_up(x) != decimal.Decimal("%.17g" % x)]
        assert len(differ) > len(ties) // 4


class TestIntFormatter:
    """fileio.format_int writes the bytes of "%d" % v for every value."""

    EDGES = [0, 9, 10, 999, 1000, 9999, 10000, 10001, 99999, 10**7, 10**8 - 1]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 10**8 - 1), min_size=1, max_size=64))
    def test_any_integer_below_10_to_the_8(self, values):
        assert int_text(np.array(values)) == ["%d" % v for v in values]

    def test_digit_count_edges_take_one_lane(self):
        cells = fileio.format_int(np.array(self.EDGES))
        assert cells.shape == (len(self.EDGES), 1)
        assert int_text(np.array(self.EDGES)) == ["%d" % v for v in self.EDGES]

    @pytest.mark.parametrize("column", [
        [-1], [10**8], [2**63 - 1], [2**64 + 7], [-1, 2**63], [1.0, 2.5],
        np.array([5, 10**5, -3], np.int32), np.array([7, 65535], np.uint16),
        np.array([True, False]), np.array([3, 2**70], dtype=object),
    ], ids=["minus-one", "10^8", "int64-max", "beyond-int64", "beyond-int64-mixed", "floats",
            "int32", "uint16", "bool", "object"])
    def test_fallbacks(self, column):
        if isinstance(column, list):  # the whole column takes %, the edges too
            column = column + self.EDGES
        values = column.tolist() if isinstance(column, np.ndarray) else column
        assert int_text(column) == ["%d" % v for v in values]

    def test_python_list(self):
        assert int_text(self.EDGES) == ["%d" % v for v in self.EDGES]

    def test_strided_column(self):
        faces = np.random.default_rng(18).integers(0, 10**6, (500, 3))
        assert not faces.T[1].flags.contiguous
        assert int_text(faces.T[1]) == ["%d" % v for v in faces[:, 1].tolist()]


class TestTableBytes:
    """fileio's tables, by % or by the kernels, write what the per-line writers wrote."""

    @staticmethod
    def awkward_grid(n_theta, n_rho):
        count = n_theta * n_rho
        values = np.resize(np.array(AWKWARD), 3 * count).reshape(3, count)
        return (np.resize(np.array(AWKWARD), n_theta),
                np.resize(np.array(AWKWARD[::-1]), n_rho), *values)

    @pytest.mark.parametrize("n_theta, n_rho", [(4, 3), (1, 1), (48, 16)])
    def test_exports_of_awkward_values(self, monkeypatch, tmp_path, catenoid, n_theta, n_rho):
        grid = self.awkward_grid(n_theta, n_rho)
        monkeypatch.setattr(fileio, "_sample_grid", lambda *args: grid)
        thetas, radii, xs, ys, ts = grid
        mesh, csv = tmp_path / "s.mesh", tmp_path / "s.csv"
        fileio.export_mesh(catenoid, str(mesh), n_theta, n_rho)
        fileio.export_point_cloud(catenoid, str(csv), n_theta, n_rho)
        assert mesh.read_text() == conftest.reference_mesh_text(xs, ys, ts, n_theta, n_rho)
        assert csv.read_text() == conftest.reference_csv_text(
            np.tile(thetas, n_rho), np.repeat(radii, n_theta), xs, ys, ts)

    @pytest.mark.parametrize("n_theta, n_rho", [(1, 2), (3, 2), (16, 8), (256, 128)])
    def test_mesh_of_a_surface(self, tmp_path, catenoid, n_theta, n_rho):
        mesh = tmp_path / "s.mesh"
        fileio.export_mesh(catenoid, str(mesh), n_theta, n_rho, (0.5, 2.0))
        _, _, xs, ys, ts = fileio._sample_grid(catenoid, n_theta, n_rho, (0.5, 2.0))
        assert mesh.read_bytes() == \
            conftest.reference_mesh_text(xs, ys, ts, n_theta, n_rho).encode()

    def test_singular_csv(self, tmp_path):
        points = [SingularPoint(x, y, z, bool(i % 2)) for i, (x, y, z)
                  in enumerate(zip(AWKWARD, AWKWARD[::-1], np.roll(AWKWARD, 3)))]
        for rows in (points, [], points * 40):
            out = tmp_path / "sing.csv"
            fileio.write_singular_csv(str(out), rows)
            assert out.read_bytes() == conftest.reference_singular_text(rows).encode()

    def test_gauss_map_csv(self, monkeypatch, tmp_path, catenoid):
        surface_file = str(tmp_path / "cat.surface.txt")
        fileio.save_surface(catenoid, surface_file)
        n_theta, n_rho = 4, 3
        count = n_theta * n_rho
        nus = np.empty(count, dtype=complex)
        nus.real, nus.imag = np.resize(AWKWARD, count), np.resize(AWKWARD[::-1], count)
        regions = np.resize(np.array(list(Region), dtype=object), count)
        monkeypatch.setattr(cli, "gauss_map", lambda surface, z: nus)
        monkeypatch.setattr(cli, "classify_point", lambda surface, z: regions)
        out = tmp_path / "gauss.csv"
        assert cli.main(["gauss-map", "--surface", surface_file, "--out", str(out),
                         "--grid", str(n_theta), str(n_rho), "--rho-range", "0.5", "2"]) == 0
        radii = np.geomspace(0.5, 2.0, n_rho)
        assert out.read_bytes() == conftest.reference_gauss_text(
            np.tile(circle_angles(n_theta), n_rho), np.repeat(radii, n_theta),
            regions, nus).encode()

    def test_surface_file(self, tmp_path):
        # Values at and just above COEFF_FLOOR (1e-13) test which modes are kept.
        values = np.resize(np.array(AWKWARD[:4] + [1e-13, 2e-13, -7.25]), 2 * 9)
        np.random.default_rng(11).shuffle(values)
        holo = {n: complex(values[n + 4], values[n + 13]) for n in range(-4, 5)}
        anti = {n: complex(values[n + 13], -values[n + 4]) for n in range(-4, 5) if n}
        surface = MaximalSurface(
            HarmonicOnAnnulus.from_modes(holo=holo, antiholo=anti, log_coeff=-0.0 + 2.5j,
                                         annulus=(0.0, np.inf)),
            HarmonicOnAnnulus.from_modes(holo={0: 5e-324}, annulus=(1.0 / 3.0, 1e16)),
        )
        # A table of 601 kept modes takes write_rows' kernel path.
        rng = np.random.default_rng(601)
        n = np.arange(-300, 301)
        coeffs = rng.normal(size=(4, n.size)) * 0.97 ** np.abs(n)
        coeffs[:, rng.integers(0, n.size, 40)] = np.resize(AWKWARD[:4] + [1e-13, -7.25], 40)
        coeffs[2:, 300] = 0.0
        wide = MaximalSurface(
            HarmonicOnAnnulus(coeffs[0] + 1j * coeffs[1], coeffs[2] + 1j * coeffs[3], 0.5, 0.9, 1.1),
            surface.height)
        assert np.count_nonzero(np.abs(wide.planar.holo) > COEFF_FLOOR) >= fileio.KERNEL_ROWS
        for surface in (surface, wide):
            out = tmp_path / "s.surface.txt"
            fileio.save_surface(surface, str(out))
            assert out.read_bytes() == conftest.reference_surface_text(
                surface, fileio.COEFF_MAGIC, fileio.COEFF_FLOOR).encode()

    # Whether format_g17 and format_int run: only mesh faces have %d cells;
    # a mesh of 64 x 3 has 192 vertices, below KERNEL_ROWS, and 256 faces.
    @pytest.mark.parametrize("argv, kernel, ints", [
        (["sample", "--grid", "256", "128", "--format", "mesh"], True, True),
        (["sample", "--grid", "256", "128", "--format", "csv"], True, False),
        (["gauss-map", "--grid", "32", "16"], True, False),
        (["sample", "--grid", str(fileio.KERNEL_ROWS - 1), "1", "--format", "csv"], False, False),
        (["sample", "--grid", str(fileio.KERNEL_ROWS), "1", "--format", "csv"], True, False),
        (["sample", "--grid", "127", "2", "--format", "mesh"], False, False),
        (["sample", "--grid", "128", "2", "--format", "mesh"], True, True),
        (["sample", "--grid", "64", "3", "--format", "mesh"], False, True),
    ], ids=["mesh", "csv", "gauss-map", "below-threshold", "at-threshold",
            "mesh-below-threshold", "mesh-at-threshold", "mesh-faces-only"])
    def test_cli_tables_equal_the_percent_path(self, monkeypatch, tmp_path, argv, kernel, ints):
        surface_file = str(tmp_path / "bj.surface.txt")
        data = random_valid_data(np.random.default_rng(3), fourier=True)
        fileio.save_surface(bjorling.solve(data), surface_file)
        argv = [*argv, "--surface", surface_file, "--out"]
        calls, int_calls = [], []
        g17, format_int = fileio.format_g17, fileio.format_int
        monkeypatch.setattr(fileio, "format_g17", lambda values: calls.append(1) or g17(values))
        monkeypatch.setattr(fileio, "format_int",
                            lambda values: int_calls.append(1) or format_int(values))
        assert cli.main([*argv, str(tmp_path / "kernel.out")]) == 0
        assert bool(calls) == kernel
        assert bool(int_calls) == ints
        monkeypatch.setattr(fileio, "KERNEL_ROWS", sys.maxsize)  # every table by %
        assert cli.main([*argv, str(tmp_path / "percent.out")]) == 0
        assert (tmp_path / "kernel.out").read_bytes() == (tmp_path / "percent.out").read_bytes()

    @pytest.mark.parametrize("count", [fileio.KERNEL_ROWS - 1, fileio.KERNEL_ROWS,
                                       fileio.BLOCK_ROWS + 1])
    def test_int_table(self, monkeypatch, count):
        # Digit-count edges, integers below 10^8, and a column of values that
        # take %: negative ones and ones of up to 13 digits.
        rng = np.random.default_rng(count)
        columns = (np.resize(np.array(TestIntFormatter.EDGES), count),
                   rng.integers(0, 10**8, count), rng.integers(-10**12, 10**12, count))
        calls = []
        format_int = fileio.format_int
        monkeypatch.setattr(fileio, "format_int",
                            lambda values: calls.append(1) or format_int(values))
        fh = io.BytesIO()
        fileio.write_rows(fh, "f %d %d %d\n", *columns)
        assert fh.getvalue() == fileio.format_rows("f %d %d %d\n", *columns).encode()
        assert bool(calls) == (count >= fileio.KERNEL_ROWS)

    @pytest.mark.parametrize("fmt", ["mesh", "csv"])
    def test_cli_sample_of_a_truncation_64_surface(self, tmp_path, fmt):
        rng = np.random.default_rng(64)
        n = np.arange(-64, 65)
        decay = 0.7 ** np.abs(n)  # mode 64 stays above COEFF_FLOOR in the file

        def harmonic(log_coeff):
            holo = decay * (rng.normal(size=n.size) + 1j * rng.normal(size=n.size))
            anti = decay * (rng.normal(size=n.size) + 1j * rng.normal(size=n.size))
            anti[64] = 0.0
            return HarmonicOnAnnulus(holo, anti, log_coeff, 0.75, 1.35)

        surface_file = str(tmp_path / "t64.surface.txt")
        fileio.save_surface(MaximalSurface(harmonic(0.4 - 0.3j), harmonic(0.9)), surface_file)
        surface = fileio.load_surface(surface_file)
        assert surface.planar.truncation == surface.height.truncation == 64
        out = tmp_path / f"t64.{fmt}"
        assert cli.main(["sample", "--surface", surface_file, "--out", str(out),
                         "--grid", "16", "8", "--rho-range", "0.8", "1.25",
                         "--format", fmt]) == 0
        lines = out.read_text().splitlines()
        if fmt == "mesh":
            table = [ln.split()[1:] for ln in lines if ln.startswith("v ")]
        else:
            table = [ln.split(",") for ln in lines[1:]]
            thetas, rhos = np.array(table, dtype=float)[:, :2].T
            assert np.array_equal(thetas, np.tile(circle_angles(16), 8))
            assert np.array_equal(rhos, np.repeat(np.geomspace(0.8, 1.25, 8), 16))
            table = [row[2:] for row in table]
        xs, ys, ts = np.array(table, dtype=float).T
        radii = np.geomspace(0.8, 1.25, 8)
        grid = polar_grid(radii, 16)
        for got, want, h in ((xs + 1j * ys, surface.planar.eval(grid), surface.planar),
                             (ts, surface.height.eval(grid).real, surface.height)):
            tol = 1e-13 * np.repeat(conftest.series_scale(h, radii), 16)
            assert np.all(np.abs(got - want.ravel()) <= tol)


class TestCli:
    def test_validate_curve(self, catenoid_curve_spec, capsys):
        assert cli.main(["validate", "--spec", catenoid_curve_spec]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["spacelike_margin"] > 0.0

    def test_validate_rejects_a_height_that_is_not_real(self, tmp_path, capsys):
        # The height ln(1/2) + 0.1 i (e^{i theta} + e^{-i theta}) is imaginary
        # in part; its real part alone would pass as spacelike.
        spec = write_json(tmp_path / "imag.json", {
            "kind": "curve",
            "planar": {"fourier": [[1, -0.75, 0]]},
            "height": {"fourier": [[0, math.log(0.5), 0], [1, 0, 0.1]]},
        })
        for argv in (["validate"], ["interpolate", "--out", str(tmp_path / "imag")]):
            assert cli.main([*argv, "--spec", spec]) == 2
            assert capsys.readouterr().err == "error: height component of the curve is not real\n"

    def test_validate_rejects_timelike_curve(self, tmp_path):
        spec = write_json(
            tmp_path / "t.json",
            {
                "kind": "curve",
                "planar": {"fourier": [[1, 0.1, 0.0]]},
                "height": {"fourier": [[1, 0.5, 0.0], [-1, 0.5, 0.0]]},
            },
        )
        assert cli.main(["validate", "--spec", spec]) == 2

    def test_parse_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        assert cli.main(["validate", "--spec", str(bad)]) == 3

    @pytest.mark.parametrize(
        "kind, defect, name",
        [
            pytest.param("surface", "shape 1 0.5 0 -0.5 0", "bad.surface.txt",
                         id="unknown-tag"),
            pytest.param("surface", "planar 2 0.5", "bad.surface.txt", id="short-line"),
            pytest.param("surface", "planar 2 0.5 zero 0 0", "bad.surface.txt",
                         id="non-numeric-field"),
            pytest.param("surface", "planar 2 nan 0 0 0", "bad.surface.txt",
                         id="nan-coefficient"),
            pytest.param("surface", "planar 0 0 0 1 0", "bad.surface.txt", id="nonzero-b0"),
            pytest.param("surface", "planar.annulus 2 3", "bad.surface.txt",
                         id="annulus-misses-unit-circle"),
            pytest.param("spec", {"planar": {"fourier": [["one", 1.0, 0.0]]}}, "planar",
                         id="non-numeric-mode"),
            pytest.param("spec", {"planar": {"fourier": [[1, "x", 0.0]]}}, "planar",
                         id="non-numeric-value"),
            pytest.param("spec", {"planar": {"fourier": [[1, float("nan"), 0.0]]}}, "planar",
                         id="nan-value"),
            pytest.param("spec", {"expected_r0": "x"}, "expected_r0",
                         id="non-numeric-expected-r0"),
            pytest.param("surface", "planar 1000000000000 0.5 0 -0.5 0", "bad.surface.txt",
                         id="huge-surface-mode"),
            pytest.param("spec", {"planar": {"fourier": [[1.5, 1.0, 0.0]]}}, "planar",
                         id="fractional-mode"),
            pytest.param("spec", {"planar": {"fourier": [[True, 1.0, 0.0]]}}, "planar",
                         id="bool-mode"),
            pytest.param("spec", {"planar": {"fourier": [[10**12, 1.0, 0.0]]}}, "planar",
                         id="huge-spec-mode"),
            pytest.param("spec", {"planar": {"samples": [[1.0, 0.0]] * 16384}}, "planar",
                         id="too-many-samples"),
            pytest.param("spec", {"planar": {"samples": [[10**400, 0.0]]}}, "planar",
                         id="sample-beyond-float"),
            pytest.param("spec", {"expected_r0": 10**400}, "expected_r0",
                         id="expected-r0-beyond-float"),
            pytest.param("spec", {"expected_r0": float("nan")}, "expected_r0",
                         id="expected-r0-nan"),
            pytest.param("spec", {"expected_r0": float("inf")}, "expected_r0",
                         id="expected-r0-infinity"),
            pytest.param("spec", {"expected_r0": True}, "expected_r0", id="expected-r0-bool"),
            pytest.param("spec", {"expected_r0": "2.5"}, "expected_r0",
                         id="expected-r0-string"),
            pytest.param("spec", {"expected_r0": -3}, "expected_r0", id="expected-r0-negative"),
            pytest.param("surface", b"\xff\xfe", "bad.surface.txt", id="surface-not-utf8"),
            pytest.param("spec", b"\xff\xfe", "c.json", id="spec-not-utf8"),
            pytest.param("surface", "planar 1 0.25 0 -0.5 0", "bad.surface.txt:5",
                         id="repeated-surface-mode"),
            pytest.param("spec", {"planar": {"fourier": [[1, -0.75, 0], [1, 5.0, 0]]}},
                         "planar", id="repeated-spec-mode"),
        ],
    )
    def test_malformed_inputs_exit_3(self, tmp_path, capsys, kind, defect, name):
        if kind == "surface":
            text = (
                "maxsurf-coefficients 1\n"
                "planar.annulus 0 inf\n"
                "planar 1 0.5 0 -0.5 0\n"
                "height.log 1 0\n"
            )
            good = tmp_path / "good.surface.txt"
            good.write_text(text)
            fileio.load_surface(str(good))
            path = tmp_path / "bad.surface.txt"
            if isinstance(defect, bytes):  # a file that is not UTF-8
                path.write_bytes(defect + text.encode())
            else:
                path.write_text(text + defect + "\n")
            argv = ["singular-set", "--surface", str(path),
                    "--out", str(tmp_path / "s.csv")]
        elif isinstance(defect, bytes):
            path = tmp_path / "c.json"
            path.write_bytes(defect + b'{"kind": "curve"}')
            argv = ["validate", "--spec", str(path)]
        else:
            spec = {
                "kind": "curve",
                "planar": {"fourier": [[1, 1.0, 0.0]]},
                "height": {"fourier": [[0, 1.0, 0.0]]},
                **defect,
            }
            argv = ["validate", "--spec", write_json(tmp_path / "c.json", spec)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error:")
        # The message names the file, component or key at fault.
        assert name in err

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--grid", "8", "4"], "grid point theta = 0, rho = 0.40000000000000002"),
        (["sample", "--grid", "8", "4", "--format", "csv"],
         "grid point theta = 0, rho = 0.40000000000000002"),
        (["sample", "--grid", "8", "4", "--singular-sidecar"], "singular point theta = 0, rho = "),
        (["singular-set", "--angles", "8"], "singular point theta = 0, rho = 1.7617187500000002"),
    ], ids=["mesh", "csv", "sidecar", "singular-set"])
    def test_non_finite_exports_exit_2(self, tmp_path, capsys, argv, message):
        # Mode 1000 overflows on the annulus: the grid gets NaN, the singular
        # points an infinite residual.
        surface = tmp_path / "overflow.surface.txt"
        surface.write_text("maxsurf-coefficients 1\nplanar.annulus 0.1 10\n"
                           "planar 1000 1e-20 0 0 0\nheight.log 1 0\n")
        if argv[-1] == "--singular-sidecar":
            argv = [*argv, str(tmp_path / "sidecar.csv")]
        with np.errstate(all="ignore"):
            code = cli.main([*argv, "--surface", str(surface), "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["overflow.surface.txt"]

    @pytest.mark.parametrize("command, spec, field", [
        ("validate", {"kind": "curve", "planar": {"fourier": [[1, 1e200, 0.0]]},
                      "height": {"fourier": [[0, 1.0, 0.0]]}}, "validation.spacelike_margin"),
        ("interpolate", {"kind": "curve", "planar": {"fourier": [[1, 1e200, 0.0]]},
                         "height": {"fourier": [[0, 1.0, 0.0]]}}, "spacelike_margin"),
        ("validate", {"kind": "bjorling", "curve_planar": {"fourier": [[1, 1e200, 0.0]]},
                      "curve_height": {"fourier": [[1, 1e200, 0.0], [-1, 1e200, 0.0]]},
                      "radial_planar": {"fourier": [[1, 1e200, 0.0]]},
                      "radial_height": {"fourier": [[0, 1e200, 0.0]]}}, "validation.curve_nullity"),
    ], ids=["curve-validate", "curve-interpolate", "bjorling-validate"])
    def test_non_finite_report_values_exit_2(self, tmp_path, capsys, command, spec, field):
        # The values overflow to inf, or to inf - inf = nan: JSON cannot hold them.
        path = write_json(tmp_path / "big.json", spec)
        with np.errstate(all="ignore"):
            code = cli.main([command, "--spec", path, "--out", str(tmp_path / "out")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"report field {field} is " in err
        assert sorted(os.listdir(tmp_path)) == ["big.json"]

    @pytest.mark.parametrize("argv, spec, message", [
        (["validate"], "curve-1e200", "report field validation.spacelike_margin is inf"),
        (["interpolate"], "curve-1e200", "report field spacelike_margin is inf"),
        (["interpolate"], "curve-1e150", "overflows on the radius scan"),
        (["interpolate", "--r0", "1.001"], "curve-1e153", "nullity residual at r0 = 1.001 is inf"),
        (["validate"], "radial-1e200", "report field validation.radial_nullity is nan"),
        (["solve-bjorling"], "radial-1e200", "solve failed: invalid boundary data"),
        (["validate"], "tangent-1e308", "report field validation.curve_nullity is nan"),
    ], ids=["curve-validate", "curve-interpolate", "curve-1e150-interpolate",
            "curve-1e153-explicit-radius", "bjorling-validate", "bjorling-solve",
            "bjorling-tangent-validate"])
    def test_overflowing_specs_exit_2_without_warnings(self, tmp_path, capsys, argv, spec,
                                                       message):
        # The margins of 1e150 and 1e153 are finite (1e300, 1e306), but the
        # radius scan's slope and the residual at r0 = 1.001 overflow: they
        # are refused, not read as "no radius".
        path = write_json(tmp_path / "big.json", OVERFLOW_SPECS[spec])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([*argv, "--spec", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and message in err

    @pytest.mark.parametrize("argv", [["sample", "--grid", "8", "4"],
                                      ["singular-set", "--angles", "8"]],
                             ids=["sample", "singular-set"])
    def test_overflow_prints_only_the_error(self, tmp_path, argv):
        surface = tmp_path / "overflow.surface.txt"
        surface.write_text("maxsurf-coefficients 1\nplanar.annulus 0.1 10\n"
                           "planar 1000 1e-20 0 0 0\nheight.log 1 0\n")
        code = "import sys\nfrom maxsurf import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
        result = subprocess.run(
            [sys.executable, "-W", "default", "-c", code, *argv, "--surface", str(surface),
             "--out", str(tmp_path / "out")], capture_output=True, text=True, env=src_env())
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")

    def test_one_sample_component_is_a_constant(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "one.json",
            {
                "kind": "bjorling",
                "curve_planar": {"samples": [[1.0, 0.0]]},
                "curve_height": {"samples": [[0.5, 0.0]]},
                "radial_planar": {"fourier": [[1, 1.0, 0.0]]},
                "radial_height": {"fourier": [[0, 1.0, 0.0]]},
            },
        )
        data = fileio.load_curve_spec(spec).as_bjorling()
        assert data.curve_planar.coeff(0) == 1.0 and data.curve_planar.max_mode == 0
        assert cli.main(["validate", "--spec", spec]) == 0
        out = str(tmp_path / "one")
        assert cli.main(["solve-bjorling", "--spec", spec, "--out", out]) == 0
        surface = fileio.load_surface(out + ".surface.txt")
        assert surface.planar.eval(1.0) == pytest.approx(1.0, abs=1e-15)
        assert surface.height.eval(1.0).real == pytest.approx(0.5, abs=1e-15)

    def test_solve_bjorling(self, catenoid_bjorling_spec, tmp_path):
        out = str(tmp_path / "cat")
        assert cli.main(
            ["solve-bjorling", "--spec", catenoid_bjorling_spec, "--out", out]
        ) == 0
        report = json.loads((tmp_path / "cat.report.json").read_text())
        assert report["passed"] is True
        assert report["conformality_max"] < 1e-10
        surface = fileio.load_surface(out + ".surface.txt")
        assert surface.planar.eval(2.0) == pytest.approx(0.75)

    def test_solve_bjorling_invalid_data(self, tmp_path):
        spec = write_json(
            tmp_path / "b.json",
            {
                "kind": "bjorling",
                "curve_planar": {"fourier": []},
                "curve_height": {"fourier": []},
                "radial_planar": {"fourier": [[1, 1.0, 0.0]]},
                "radial_height": {"fourier": [[0, 2.0, 0.0]]},
            },
        )
        assert cli.main(
            ["solve-bjorling", "--spec", spec, "--out", str(tmp_path / "x")]
        ) == 2

    def test_interpolate_finds_both_radii(self, catenoid_curve_spec, tmp_path):
        out = str(tmp_path / "ring")
        code = cli.main(
            ["interpolate", "--spec", catenoid_curve_spec, "--out", out,
             "--bracket", "0.05", "20"]
        )
        assert code == 0
        report = json.loads((tmp_path / "ring.report.json").read_text())
        assert len(report["roots"]) == 2
        assert report["roots"][0] == pytest.approx(0.5, abs=1e-6)
        assert report["roots"][1] == pytest.approx(2.0, abs=1e-6)
        surface = fileio.load_surface(str(tmp_path / "ring.r0_0.surface.txt"))
        assert abs(surface.planar.eval(1.0 + 0j)) < 1e-12

    def test_interpolate_no_root_exit_code(self, tmp_path):
        spec = write_json(
            tmp_path / "unit.json",
            {
                "kind": "curve",
                "planar": {"fourier": [[1, 1.0, 0.0]]},
                "height": {"fourier": [[0, 1.0, 0.0]]},
            },
        )
        code = cli.main(
            ["interpolate", "--spec", spec, "--out", str(tmp_path / "u"),
             "--bracket", "0.2", "5"]
        )
        assert code == 4
        report = json.loads((tmp_path / "u.report.json").read_text())
        assert report["roots"] == []

    def test_interpolate_explicit_radius(self, catenoid_curve_spec, tmp_path):
        out = str(tmp_path / "fixed")
        assert cli.main(
            ["interpolate", "--spec", catenoid_curve_spec, "--out", out,
             "--r0", "2.0"]
        ) == 0
        report = json.loads((tmp_path / "fixed.report.json").read_text())
        assert report["roots"] == [2.0]

    def test_interpolate_rejects_an_annulus_per_root(self, catenoid_curve_spec, tmp_path,
                                                     capsys, monkeypatch):
        # The first root's coefficient solve fails; the second root still builds.
        from maxsurf import bjorling, interpolation

        assemble, calls = interpolation.assemble_harmonics, []

        def fail_first(*args):
            calls.append(args)
            if len(calls) == 1:
                raise bjorling.SolverError("estimated annulus excludes the unit circle")
            return assemble(*args)

        monkeypatch.setattr(interpolation, "assemble_harmonics", fail_first)
        assert cli.main(["interpolate", "--spec", catenoid_curve_spec, "--out",
                         str(tmp_path / "ring"), "--bracket", "0.05", "20"]) == 0
        rejected = capsys.readouterr().err.partition(": ")
        assert rejected[0].startswith("r0 = ") and float(rejected[0][5:]) == pytest.approx(0.5)
        assert rejected[2] == "estimated annulus excludes the unit circle\n"
        report = json.loads((tmp_path / "ring.report.json").read_text())
        assert report["roots"] == [pytest.approx(2.0, abs=1e-6)]
        assert report["surfaces"][0]["surface_file"] == "ring.r0_1.surface.txt"

    @pytest.mark.parametrize("r0", ["nan", "inf", "-1"])
    def test_interpolate_rejects_a_bad_explicit_radius(self, catenoid_curve_spec, tmp_path,
                                                       capsys, r0):
        code = cli.main(["interpolate", "--spec", catenoid_curve_spec,
                         "--out", str(tmp_path / "bad"), "--r0", r0])
        assert code == 4
        assert capsys.readouterr().err.startswith(f"r0 = {float(r0)}: ")

    def test_sample_and_singular_set(self, catenoid_bjorling_spec, tmp_path):
        out = str(tmp_path / "cat")
        cli.main(["solve-bjorling", "--spec", catenoid_bjorling_spec, "--out", out])
        surface_file = out + ".surface.txt"

        mesh = str(tmp_path / "mesh.txt")
        assert cli.main(
            ["sample", "--surface", surface_file, "--out", mesh,
             "--grid", "16", "8", "--format", "mesh"]
        ) == 0
        lines = open(mesh).read().splitlines()
        assert sum(ln.startswith("v ") for ln in lines) == 16 * 8
        assert sum(ln.startswith("f ") for ln in lines) == 2 * 16 * 7

        csv = str(tmp_path / "cloud.csv")
        assert cli.main(
            ["sample", "--surface", surface_file, "--out", csv,
             "--grid", "16", "8", "--format", "csv"]
        ) == 0
        assert open(csv).readline().strip() == "theta,rho,x,y,t"

        sing = str(tmp_path / "sing.csv")
        assert cli.main(
            ["singular-set", "--surface", surface_file, "--out", sing,
             "--angles", "8"]
        ) == 0
        rows = open(sing).read().splitlines()[1:]
        assert len(rows) == 8
        assert all(abs(float(r.split(",")[1]) - 1.0) < 1e-8 for r in rows)

    def test_gauss_map_export(self, catenoid_bjorling_spec, tmp_path):
        out = str(tmp_path / "cat")
        cli.main(["solve-bjorling", "--spec", catenoid_bjorling_spec, "--out", out])
        gm = str(tmp_path / "gauss.csv")
        assert cli.main(
            ["gauss-map", "--surface", out + ".surface.txt", "--out", gm,
             "--grid", "8", "4", "--rho-range", "1.2", "2.0"]
        ) == 0
        rows = open(gm).read().splitlines()
        assert rows[0] == "theta,rho,region,nu_re,nu_im"
        th, rho, region, nu_re, nu_im = rows[1].split(",")
        assert region == "holo"
        z = float(rho) * np.exp(1j * float(th))
        assert abs(complex(float(nu_re), float(nu_im)) - z) < 1e-9

    def test_gauss_map_past_the_default_grid(self, lobe, tmp_path):
        # Anti-dominant points exist only at |z| > 2.
        surface_file = str(tmp_path / "lobe.surface.txt")
        fileio.save_surface(lobe, surface_file)
        gm = tmp_path / "gauss.csv"
        assert cli.main(["gauss-map", "--surface", surface_file, "--out", str(gm),
                         "--rho-range", "0.5", "2.5"]) == 0
        assert ",anti," in gm.read_text()

    def test_gauss_map_rejects_a_non_conformal_surface(self, catenoid, tmp_path, capsys):
        # The catenoid's planar part with zero height: w_z = 0 everywhere.
        surface_file = str(tmp_path / "flat.surface.txt")
        fileio.save_surface(
            MaximalSurface(catenoid.planar, HarmonicOnAnnulus.from_modes()), surface_file)
        gm = tmp_path / "gauss.csv"
        assert cli.main(["gauss-map", "--surface", surface_file, "--out", str(gm)]) == 2
        assert "not conformal" in capsys.readouterr().err
        assert not gm.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gauss-map", "--grid", "0", "4"], "--grid: must be a positive integer"),
            (["gauss-map", "--grid", "4", "0"], "--grid: must be a positive integer"),
            (["gauss-map", "--grid", "-2", "4"], "--grid: must be a positive integer"),
            (["gauss-map", "--rho-range", "2.0", "1.2"], "rho range must lie inside"),
            (["singular-set", "--angles", "0"], "--angles: must be a positive integer"),
            (["singular-set", "--angles", "-1"], "--angles: must be a positive integer"),
            (["sample", "--grid", "0", "4"], "--grid: must be a positive integer"),
            (["sample", "--grid", "-3", "4"], "--grid: must be a positive integer"),
        ],
        ids=["gauss-theta-0", "gauss-rho-0", "gauss-theta-negative", "gauss-range-reversed",
             "singular-angles-0", "singular-angles-negative", "sample-theta-0",
             "sample-theta-negative"],
    )
    def test_bad_grid_and_range_arguments_exit_2(self, catenoid, tmp_path, capsys,
                                                 argv, message):
        surface_file = str(tmp_path / "cat.surface.txt")
        fileio.save_surface(catenoid, surface_file)
        out = tmp_path / "out.csv"
        code = cli.main([*argv, "--surface", surface_file, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["singular-set", "--angles", "1000000000000"],
             "--angles: must be a positive integer at most 4096"),
            (["sample", "--grid", "64", "4097"], "--grid: must be a positive integer at most 4096"),
            (["gauss-map", "--grid", "4097", "8"], "--grid: must be a positive integer at most 4096"),
            (["gauss-map", "--grid", "4096", "4096"], "--grid: must have at most 262144 points"),
            (["sample", "--grid", "1024", "257"], "--grid: must have at most 262144 points"),
        ],
        ids=["singular-angles-huge", "sample-rho-too-large", "gauss-theta-too-large",
             "gauss-grid-too-large", "sample-grid-too-large"],
    )
    def test_counts_over_the_bound_are_usage_errors(self, tmp_path, capsys, monkeypatch,
                                                    argv, message):
        # argparse rejects the count before any file is read or array built.
        def refuse(path):
            raise AssertionError(f"read {path} with a count over the bound")

        monkeypatch.setattr(fileio, "load_surface", refuse)
        out = tmp_path / "out.csv"
        assert cli.main([*argv, "--surface", "unused.surface.txt", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_usage_errors_and_help_return_their_codes(self, capsys):
        assert cli.main(["gauss-map", "--out", "unused.csv"]) == 2
        assert "--surface" in capsys.readouterr().err
        assert cli.main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_one_parser_serves_a_sequence_of_calls(self, catenoid_curve_spec, tmp_path, capsys):
        out = str(tmp_path / "ring")
        calls = [["validate", "--spec", catenoid_curve_spec],
                 ["gauss-map", "--out", "unused.csv"],
                 ["interpolate", "--spec", catenoid_curve_spec, "--out", out,
                  "--bracket", "0.05", "20"]]

        def run(argv, fresh):
            if fresh:
                cli.build_parser.cache_clear()
            code = cli.main(argv)
            report = (tmp_path / "ring.report.json").read_bytes() if argv[0] == "interpolate" else b""
            return code, *capsys.readouterr(), report

        shared = [run(argv, fresh=False) for argv in calls]
        assert [result[0] for result in shared] == [0, 2, 0]
        assert shared == [run(argv, fresh=True) for argv in calls]
        assert cli.build_parser() is cli.build_parser()

    def test_interpolate_computes_each_residual_once(self, catenoid_curve_spec, tmp_path,
                                                     monkeypatch):
        from maxsurf import interpolation

        residual, calls = interpolation.scalar_residual, []
        monkeypatch.setattr(interpolation, "scalar_residual",
                            lambda curve, r0: calls.append(r0) or residual(curve, r0))
        assert cli.main(["interpolate", "--spec", catenoid_curve_spec, "--out",
                         str(tmp_path / "ring"), "--bracket", "0.05", "20"]) == 0
        # One for the root pair in the search, one in each build_surface.
        assert len(calls) == 3
        report = json.loads((tmp_path / "ring.report.json").read_text())
        curve = fileio.load_curve_spec(catenoid_curve_spec).as_curve()
        assert [s["residual"] for s in report["surfaces"]] == [
            residual(curve, r0) for r0 in report["roots"]]

    def test_gauss_map_evaluates_each_derivative_once_on_the_grid(self, catenoid, tmp_path,
                                                                  monkeypatch):
        surface_file = str(tmp_path / "cat.surface.txt")
        fileio.save_surface(catenoid, surface_file)
        loaded = []
        load = fileio.load_surface
        monkeypatch.setattr(fileio, "load_surface", lambda path: loaded.append(load(path)) or loaded[0])
        calls = []
        for name in ("d_z", "d_zbar"):
            method = getattr(HarmonicOnAnnulus, name)
            monkeypatch.setattr(HarmonicOnAnnulus, name, lambda self, z, m=method, n=name: calls.append(
                ("planar" if self is loaded[0].planar else "height", n, np.size(z))) or m(self, z))
        assert cli.main(["gauss-map", "--surface", surface_file, "--out",
                         str(tmp_path / "gauss.csv"), "--grid", "16", "8"]) == 0
        # Both regions of the catenoid are on the grid, and no point is
        # singular or at infinity: w_z once, on every point.
        assert calls == [("planar", "d_z", 16 * 8), ("planar", "d_zbar", 16 * 8),
                         ("height", "d_z", 16 * 8)]

    def test_gauss_map_blocks_bound_each_call(self, catenoid, tmp_path, monkeypatch):
        surface_file = str(tmp_path / "cat.surface.txt")
        fileio.save_surface(catenoid, surface_file)
        argv = ["gauss-map", "--surface", surface_file, "--grid", "16", "8", "--out"]
        assert cli.main([*argv, str(tmp_path / "one.csv")]) == 0
        modes = 2 * max(catenoid.planar.truncation, catenoid.height.truncation) + 1
        monkeypatch.setattr(maxsurf.surface, "_BATCH_ENTRIES", 5 * modes)
        sizes = []
        d_z = HarmonicOnAnnulus.d_z
        monkeypatch.setattr(HarmonicOnAnnulus, "d_z",
                            lambda self, z: sizes.append(np.size(z)) or d_z(self, z))
        assert cli.main([*argv, str(tmp_path / "blocks.csv")]) == 0
        # 26 blocks of at most 5 points give the one-block table.
        assert sizes.count(5) >= 25 and max(sizes) == 5
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_config_merging(self, tmp_path, monkeypatch, catenoid_curve_spec):
        env_cfg = write_json(tmp_path / "env.json", {"scan_points": 128})
        flag_cfg = write_json(tmp_path / "flag.json", {"residual_tol": 1e-6})
        monkeypatch.setenv("MAXSURF_CONFIG", env_cfg)
        config = cli._load_config(flag_cfg)
        assert config["scan_points"] == 128
        assert config["residual_tol"] == 1e-6
        assert config["truncation"] == cli.DEFAULT_CONFIG["truncation"]
        monkeypatch.setenv("MAXSURF_CONFIG", str(tmp_path / "missing.json"))
        assert cli.main(["validate", "--spec", catenoid_curve_spec]) == 3
        (tmp_path / "latin1.json").write_bytes(b'\xff\xfe{"scan_points": 128}')
        monkeypatch.setenv("MAXSURF_CONFIG", str(tmp_path / "latin1.json"))
        assert cli.main(["validate", "--spec", catenoid_curve_spec]) == 3

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"bracket": 5}, "bracket"),
            ({"bracket": [0.1, float("nan")]}, "bracket"),
            ({"scan_points": 2.5}, "scan_points"),
            ({"scan_points": "64"}, "scan_points"),
            ({"scan_points": 1}, "scan_points"),
            ({"truncation": True}, "truncation"),
            ({"residual_tol": None}, "residual_tol"),
            ({"constraint_tol": -1e-10}, "constraint_tol"),
            ({"scan_point": 64}, "scan_point"),
            ({"truncation": 10**12}, "truncation"),
            ({"grid_theta": 10**12}, "grid_theta"),
            ({"grid_rho": 4097}, "grid_rho"),
            ({"scan_points": 4097}, "scan_points"),
            ({"grid_theta": 4096, "grid_rho": 4096}, "grid_rho"),
        ],
        ids=["bracket-number", "bracket-nan", "count-fraction", "count-string",
             "count-too-small", "count-bool", "tol-null", "tol-negative", "unknown-key",
             "truncation-too-large", "grid-theta-huge", "grid-rho-too-large",
             "scan-points-too-large", "grid-too-large"],
    )
    def test_bad_config_values_exit_3(self, tmp_path, catenoid_curve_spec, capsys,
                                      override, key):
        config = write_json(tmp_path / "bad.json", override)
        code = cli.main(["--config", config, "interpolate", "--spec", catenoid_curve_spec,
                         "--out", str(tmp_path / "x")])
        assert code == 3
        assert f"{key!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.report.json").exists()

    def test_repeated_runs_are_byte_identical(self, catenoid_bjorling_spec, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out in (out_a, out_b):
            assert cli.main(
                ["solve-bjorling", "--spec", catenoid_bjorling_spec, "--out", out]
            ) == 0
        assert (tmp_path / "a.surface.txt").read_bytes() == \
            (tmp_path / "b.surface.txt").read_bytes()
        assert (tmp_path / "a.report.json").read_bytes() == \
            (tmp_path / "b.report.json").read_bytes()
        for out in (out_a, out_b):
            assert cli.main(
                ["singular-set", "--surface", out + ".surface.txt", "--out",
                 out + ".singular.csv", "--angles", "64"]
            ) == 0
        assert (tmp_path / "a.singular.csv").read_bytes() == \
            (tmp_path / "b.singular.csv").read_bytes()
        for out in (out_a, out_b):
            assert cli.main(
                ["gauss-map", "--surface", out + ".surface.txt", "--out",
                 out + ".gauss.csv", "--grid", "64", "32"]
            ) == 0
        assert (tmp_path / "a.gauss.csv").read_bytes() == \
            (tmp_path / "b.gauss.csv").read_bytes()

    def test_runtime_does_not_import_scipy(self, catenoid, tmp_path):
        surface_file = str(tmp_path / "cat.surface.txt")
        fileio.save_surface(catenoid, surface_file)
        code = (
            "import sys\n"
            "import maxsurf\n"
            "from maxsurf import cli\n"
            f"argv = ['singular-set', '--surface', {surface_file!r},"
            f" '--out', {str(tmp_path / 'sing.csv')!r}]\n"
            "assert cli.main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=src_env(), check=True)
        assert result.stdout.strip() == "[]"
        assert len((tmp_path / "sing.csv").read_text().splitlines()) == 1 + 64
