"""Command-line interface for the maximal-surface toolkit.

Exit codes: 0 success, 2 constraint or solver failure, 3 parse error,
4 no admissible radius found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bjorling, fileio, interpolation
from .annulus import DEFAULT_TRUNCATION
from .surface import (
    DegenerateSurfaceError,
    Region,
    classify_point,
    conformality_residual,
    gauss_map,
    grid_points,
    singular_set,
)

EXIT_OK = 0
EXIT_CONSTRAINT = 2
EXIT_PARSE = 3
EXIT_NO_ROOT = 4

DEFAULT_CONFIG = {
    "truncation": DEFAULT_TRUNCATION,
    "grid_theta": 64,
    "grid_rho": 16,
    "residual_tol": 1e-8,
    "constraint_tol": 1e-10,
    "bracket": [0.01, 100.0],
    "scan_points": 512,
}


def _load_config(path_from_flag: str | None) -> dict:
    config = dict(DEFAULT_CONFIG)
    for path in (os.environ.get("MAXSURF_CONFIG"), path_from_flag):
        if not path:
            continue
        try:
            with open(path, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise fileio.SpecParseError(f"bad config {path}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise fileio.SpecParseError(f"config {path} must be a JSON object")
        config.update(overrides)
    return config


def _spec(path: str) -> fileio.CurveSpec:
    return fileio.load_curve_spec(path)


# -- subcommands ------------------------------------------------------------


def cmd_validate(args, config) -> int:
    spec = _spec(args.spec)
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
    if args.out:
        fileio.write_report(args.out + ".report.json", payload)
    print(json.dumps(payload["validation"], sort_keys=True))
    return EXIT_OK if ok else EXIT_CONSTRAINT


def cmd_solve_bjorling(args, config) -> int:
    spec = _spec(args.spec)
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
    grid = grid_points(surface, config["grid_theta"], config["grid_rho"])
    conf = float(np.max(np.abs(conformality_residual(surface, grid))))
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
    spec = _spec(args.spec)
    curve = spec.as_curve()
    margin = interpolation.spacelike_margin(curve)
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
        except interpolation.InterpolationError as exc:
            print(f"r0 = {r0}: {exc}", file=sys.stderr)
            continue
        path = f"{args.out}.r0_{i}.surface.txt"
        fileio.save_surface(surface, path)
        surfaces.append({"r0": r0, "surface_file": os.path.basename(path),
                         "residual": interpolation.scalar_residual(curve, r0)})
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


def cmd_sample(args, config) -> int:
    surface = fileio.load_surface(args.surface)
    n_theta, n_rho = args.grid
    rho_range = tuple(args.rho_range)
    if args.format == "mesh":
        fileio.export_mesh(surface, args.out, n_theta, n_rho, rho_range)
    else:
        fileio.export_point_cloud(surface, args.out, n_theta, n_rho, rho_range)
    if args.singular_sidecar:
        thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
        points = singular_set(surface, thetas, rho_range)
        fileio.write_singular_csv(args.singular_sidecar, points)
    return EXIT_OK


def cmd_singular_set(args, config) -> int:
    surface = fileio.load_surface(args.surface)
    thetas = 2.0 * np.pi * np.arange(args.angles) / args.angles
    points = singular_set(surface, thetas, tuple(args.rho_range))
    fileio.write_singular_csv(args.out, points)
    return EXIT_OK


def cmd_gauss_map(args, config) -> int:
    surface = fileio.load_surface(args.surface)
    thetas = 2.0 * np.pi * np.arange(args.grid[0]) / args.grid[0]
    radii = np.geomspace(args.rho_range[0], args.rho_range[1], args.grid[1])
    lines = ["theta,rho,region,nu_re,nu_im"]
    for rho in radii:
        for th in thetas:
            z = rho * np.exp(1j * th)
            region = classify_point(surface, z)
            if region is Region.SINGULAR:
                lines.append(f"{th:.17g},{rho:.17g},singular,nan,nan")
                continue
            nu = gauss_map(surface, z)
            lines.append(
                f"{th:.17g},{rho:.17g},{region.value},{nu.real:.17g},{nu.imag:.17g}"
            )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


# -- argument parsing -------------------------------------------------------


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
    p.add_argument("--grid", type=int, nargs=2, default=[64, 32],
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
    p.add_argument("--angles", type=int, default=64)
    p.add_argument("--rho-range", type=float, nargs=2, default=[0.4, 2.5],
                   metavar=("LO", "HI"))
    p.set_defaults(fn=cmd_singular_set)

    p = sub.add_parser("gauss-map", help="sample the Gauss map on a grid")
    p.add_argument("--surface", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, nargs=2, default=[16, 8],
                   metavar=("NTHETA", "NRHO"))
    p.add_argument("--rho-range", type=float, nargs=2, default=[0.5, 2.0],
                   metavar=("LO", "HI"))
    p.set_defaults(fn=cmd_gauss_map)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
