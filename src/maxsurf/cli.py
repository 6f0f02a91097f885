"""Command-line interface for the maximal-surface toolkit.

Exit codes: 0 success, 2 constraint or solver failure, 3 parse error,
4 no admissible radius found.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import bjorling, fileio, interpolation
from .annulus import DEFAULT_TRUNCATION, MAX_MODE, circle_angles, polar_grid
from .surface import (
    DegenerateSurfaceError,
    classify_point,
    gauss_map,
    grid_radii,
    point_blocks,
    singular_set,
)

EXIT_OK = 0
EXIT_CONSTRAINT = 2
EXIT_PARSE = 3
EXIT_NO_ROOT = 4

# Most points in a grid from a config (grid_theta x grid_rho) or a --grid
# flag; each count on its own is at most annulus.MAX_MODE.
MAX_GRID_POINTS = 1 << 18

DEFAULT_CONFIG = {
    "truncation": DEFAULT_TRUNCATION,
    "grid_theta": 64,
    "grid_rho": 16,
    "residual_tol": interpolation.RESIDUAL_TOL,
    "constraint_tol": bjorling.CONSTRAINT_TOL,
    "bracket": list(interpolation.DEFAULT_BRACKET),
    "scan_points": interpolation.SCAN_POINTS,
}


def _count(least: int):
    return (lambda value: type(value) is int and least <= value <= MAX_MODE,
            f"an integer in [{least}, {MAX_MODE}]")


_TOL = (lambda value: fileio.finite_number(value) and value > 0.0), "a positive number"
CONFIG_TYPES = {  # each key's test, and what the error says its value must be
    "truncation": (lambda value: type(value) is int and 1 <= value <= MAX_MODE,
                   f"an integer in [1, {MAX_MODE}]"),
    "grid_theta": _count(1), "grid_rho": _count(1),
    "scan_points": _count(2), "residual_tol": _TOL, "constraint_tol": _TOL,
    "bracket": (lambda value: type(value) is list and len(value) == 2
                and all(map(fileio.finite_number, value)), "two numbers"),
}


def _load_config(path_from_flag: str | None) -> dict:
    config = dict(DEFAULT_CONFIG)
    for path in (os.environ.get("MAXSURF_CONFIG"), path_from_flag):
        if not path:
            continue
        try:
            with open(path, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise fileio.SpecParseError(f"bad config {path}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise fileio.SpecParseError(f"config {path} must be a JSON object")
        for key, value in overrides.items():
            valid, kind = CONFIG_TYPES.get(key, (None, None))
            if not (valid and valid(value)):
                problem = f"must be {kind}" if valid else "is not a config key"
                raise fileio.SpecParseError(f"config {path}: {key!r} {problem}, got {value!r}")
        config.update(overrides)
        if config["grid_theta"] * config["grid_rho"] > MAX_GRID_POINTS:
            raise fileio.SpecParseError(
                f"config {path}: 'grid_theta' x 'grid_rho' must be at most "
                f"{MAX_GRID_POINTS} points, got {config['grid_theta']} x {config['grid_rho']}")
    return config


# -- subcommands ------------------------------------------------------------


def cmd_validate(args, config) -> int:
    spec = fileio.load_curve_spec(args.spec)
    if spec.kind == "bjorling":
        report = bjorling.validate(spec.as_bjorling(), tol=config["constraint_tol"])
        payload = {"kind": "bjorling", "label": spec.label, "validation": report.as_dict()}
        ok = report.passed
    else:
        curve = spec.as_curve()
        margin = interpolation.spacelike_margin(curve)
        ok = margin > interpolation.SPACELIKE_MARGIN
        payload = {
            "kind": "curve",
            "label": spec.label,
            "validation": {"spacelike_margin": margin, "passed": ok},
        }
    fileio.check_report(payload)  # before the file and stdout
    if args.out:
        fileio.write_report(args.out + ".report.json", payload)
    print(json.dumps(payload["validation"], sort_keys=True))
    return EXIT_OK if ok else EXIT_CONSTRAINT


def cmd_solve_bjorling(args, config) -> int:
    spec = fileio.load_curve_spec(args.spec)
    data = spec.as_bjorling()
    try:
        surface = bjorling.solve(
            data, truncation=config["truncation"], tol=config["constraint_tol"]
        )
    except (bjorling.BjorlingDataError, bjorling.SolverError,
            DegenerateSurfaceError) as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        if args.out:
            fileio.write_report(
                args.out + ".report.json",
                {"label": spec.label, "error": str(exc), "passed": False},
            )
        return EXIT_CONSTRAINT
    identities = bjorling.circle_identities_report(surface, data)
    curve_err, radial_err = bjorling.boundary_reproduction_errors(surface, data)
    radii = grid_radii(surface, config["grid_rho"])
    hz, hzb = surface.planar.d_polar(radii, config["grid_theta"])
    wz = surface.height.d_polar(radii, config["grid_theta"])[0]
    conf = float(np.max(np.abs(hz * np.conj(hzb) - wz**2)))
    fileio.save_surface(surface, args.out + ".surface.txt")
    fileio.write_report(
        args.out + ".report.json",
        {
            "label": spec.label,
            "circle_identities": identities.as_dict(),
            "boundary_error": curve_err,
            "radial_error": radial_err,
            "conformality_max": conf,
            "annulus": [surface.inner_radius,
                        None if not np.isfinite(surface.outer_radius)
                        else surface.outer_radius],
            "passed": True,
        },
    )
    return EXIT_OK


def cmd_interpolate(args, config) -> int:
    spec = fileio.load_curve_spec(args.spec)
    curve = spec.as_curve()
    margin = interpolation.spacelike_margin(curve)
    fileio.check_report({"spacelike_margin": margin})  # no search on an overflowed margin
    if margin <= interpolation.SPACELIKE_MARGIN:
        print(f"curve is not strictly spacelike (margin {margin:.3g})",
              file=sys.stderr)
        return EXIT_CONSTRAINT
    if args.r0 is not None:
        roots = [args.r0]
    else:
        bracket = tuple(args.bracket or config["bracket"])
        roots = interpolation.search_r0(
            curve,
            bracket=bracket,
            scan_points=config["scan_points"],
            residual_tol=config["residual_tol"],
        )
    surfaces = []
    for i, r0 in enumerate(roots):
        try:
            surface = interpolation.build_surface(
                curve, r0, residual_tol=config["residual_tol"]
            )
        except (interpolation.InterpolationError, bjorling.SolverError) as exc:
            print(f"r0 = {r0}: {exc}", file=sys.stderr)
            continue
        path = f"{args.out}.r0_{i}.surface.txt"
        fileio.save_surface(surface, path)
        surfaces.append({"r0": r0, "surface_file": os.path.basename(path),
                         "residual": surface.residual})
    fileio.write_report(
        args.out + ".report.json",
        {
            "label": spec.label,
            "spacelike_margin": margin,
            "roots": [s["r0"] for s in surfaces],
            "surfaces": surfaces,
            "passed": bool(surfaces),
        },
    )
    if not surfaces:
        print("no admissible radius found", file=sys.stderr)
        return EXIT_NO_ROOT
    return EXIT_OK


def _finite_singular_set(surface, n_angles: int, rho_range) -> list:
    """singular_set on n_angles rays; ValueError names the first point whose
    values are not finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        points = singular_set(surface, circle_angles(n_angles), tuple(rho_range))
    for p in points:
        if not all(map(math.isfinite, (p.theta, p.rho, p.residual))):
            raise ValueError(f"singular point theta = {p.theta:.17g}, rho = {p.rho:.17g} "
                             f"has residual {p.residual}: the surface is not finite there")
    return points


def cmd_sample(args, config) -> int:
    surface = fileio.load_surface(args.surface)
    n_theta, n_rho = args.grid
    rho_range = tuple(args.rho_range)
    if args.singular_sidecar:  # before any file is written
        points = _finite_singular_set(surface, n_theta, rho_range)
    if args.format == "mesh":
        fileio.export_mesh(surface, args.out, n_theta, n_rho, rho_range)
    else:
        fileio.export_point_cloud(surface, args.out, n_theta, n_rho, rho_range)
    if args.singular_sidecar:
        fileio.write_singular_csv(args.singular_sidecar, points)
    return EXIT_OK


def cmd_singular_set(args, config) -> int:
    surface = fileio.load_surface(args.surface)
    points = _finite_singular_set(surface, args.angles, args.rho_range)
    fileio.write_singular_csv(args.out, points)
    return EXIT_OK


def cmd_gauss_map(args, config) -> int:
    surface = fileio.load_surface(args.surface)
    thetas, radii = fileio.export_grid(surface, *args.grid, args.rho_range)
    regions, nus = [], []
    # Blocks bound the points x modes matrices; each gauss_map call reuses
    # its block's derivatives, and gives NaN at the singular points.
    for block in point_blocks(surface, polar_grid(radii, len(thetas)).ravel()):
        regions += [region.value for region in classify_point(surface, block)]
        nus.append(gauss_map(surface, block))
    nus = np.concatenate(nus)
    fileio.write_text(args.out, "theta,rho,region,nu_re,nu_im\n", (
        "%s,%s,%s,%.17g,%.17g\n", *fileio.grid_labels(thetas, radii), regions,
        nus.real, nus.imag))
    return EXIT_OK


# -- argument parsing -------------------------------------------------------


def _positive_int(text: str) -> int:
    """A grid or angle count; argparse reports a non-integer itself."""
    value = int(text)
    if not 1 <= value <= MAX_MODE:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer at most {MAX_MODE}, got {value}")
    return value


class _Grid(argparse.Action):
    """NTHETA NRHO: two counts with at most MAX_GRID_POINTS points together."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values[0] * values[1] > MAX_GRID_POINTS:
            raise argparse.ArgumentError(
                self, f"must have at most {MAX_GRID_POINTS} points, got {values[0]} x {values[1]}")
        setattr(namespace, self.dest, values)


@functools.cache  # one parser per process: add_argument builds help formatters
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxsurf",
        description="Construct, verify, and sample generalized maximal "
        "surfaces in Lorentz-Minkowski 3-space.",
    )
    parser.add_argument("--config", help="JSON config file (overrides defaults)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check curve / boundary-data constraints")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("solve-bjorling", help="solve the boundary-data problem")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_solve_bjorling)

    p = sub.add_parser("interpolate",
                       help="find radii and surfaces with a point singularity")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--r0", type=float)
    p.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"))
    p.set_defaults(fn=cmd_interpolate)

    p = sub.add_parser("sample", help="export a mesh or point cloud")
    p.add_argument("--surface", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=_positive_int, nargs=2, action=_Grid, default=[64, 32],
                   metavar=("NTHETA", "NRHO"))
    p.add_argument("--rho-range", type=float, nargs=2, default=[0.4, 2.5],
                   metavar=("LO", "HI"))
    p.add_argument("--format", choices=["mesh", "csv"], default="mesh")
    p.add_argument("--singular-sidecar",
                   help="also write singular circles to this CSV")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("singular-set", help="locate the singular set")
    p.add_argument("--surface", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--angles", type=_positive_int, default=64)
    p.add_argument("--rho-range", type=float, nargs=2, default=[0.4, 2.5],
                   metavar=("LO", "HI"))
    p.set_defaults(fn=cmd_singular_set)

    p = sub.add_parser("gauss-map", help="sample the Gauss map on a grid")
    p.add_argument("--surface", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=_positive_int, nargs=2, action=_Grid, default=[16, 8],
                   metavar=("NTHETA", "NRHO"))
    p.add_argument("--rho-range", type=float, nargs=2, default=[0.5, 2.0],
                   metavar=("LO", "HI"))
    p.set_defaults(fn=cmd_gauss_map)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return exc.code
    try:
        config = _load_config(args.config)
        return args.fn(args, config)
    except fileio.SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
