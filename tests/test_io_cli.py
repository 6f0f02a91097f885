"""File formats, the command-line interface, and determinism."""

import json
import math

import numpy as np
import pytest

from maxsurf import cli, fileio
from maxsurf.annulus import HarmonicOnAnnulus
from maxsurf.surface import MaximalSurface


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


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


class TestSurfaceFiles:
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


class TestCli:
    def test_validate_curve(self, catenoid_curve_spec, capsys):
        assert cli.main(["validate", "--spec", catenoid_curve_spec]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["spacelike_margin"] > 0.0

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
        "kind, defect",
        [
            pytest.param("surface", "shape 1 0.5 0 -0.5 0", id="unknown-tag"),
            pytest.param("surface", "planar 2 0.5", id="short-line"),
            pytest.param("surface", "planar 2 0.5 zero 0 0", id="non-numeric-field"),
            pytest.param("surface", "planar 2 nan 0 0 0", id="nan-coefficient"),
            pytest.param("surface", "planar 0 0 0 1 0", id="nonzero-b0"),
            pytest.param("surface", "planar.annulus 2 3", id="annulus-misses-unit-circle"),
            pytest.param("spec", {"planar": {"fourier": [["one", 1.0, 0.0]]}},
                         id="non-numeric-mode"),
            pytest.param("spec", {"planar": {"fourier": [[1, "x", 0.0]]}},
                         id="non-numeric-value"),
            pytest.param("spec", {"planar": {"fourier": [[1, float("nan"), 0.0]]}},
                         id="nan-value"),
            pytest.param("spec", {"expected_r0": "x"}, id="non-numeric-expected-r0"),
        ],
    )
    def test_malformed_inputs_exit_3(self, tmp_path, capsys, kind, defect):
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
            path.write_text(text + defect + "\n")
            argv = ["singular-set", "--surface", str(path),
                    "--out", str(tmp_path / "s.csv")]
        else:
            spec = {
                "kind": "curve",
                "planar": {"fourier": [[1, 1.0, 0.0]]},
                "height": {"fourier": [[0, 1.0, 0.0]]},
                **defect,
            }
            argv = ["validate", "--spec", write_json(tmp_path / "c.json", spec)]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith("parse error:")

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
