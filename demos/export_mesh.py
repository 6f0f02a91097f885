"""Export a triangle mesh and a CSV point cloud of the elliptic catenoid,
with its singular circle as a CSV sidecar, using the file formats shared
with the CLI.

The same result is available from the command line:

    maxsurf solve-bjorling --spec catenoid.json --out cat
    maxsurf sample --surface cat.surface.txt --out cat.mesh \
        --grid 64 32 --singular-sidecar cat.singular.csv
    maxsurf sample --surface cat.surface.txt --out cat.csv \
        --grid 64 32 --format csv
"""

import tempfile
from pathlib import Path

from maxsurf.annulus import HarmonicOnAnnulus, circle_angles
from maxsurf.fileio import export_mesh, export_point_cloud, save_surface, write_singular_csv
from maxsurf.surface import MaximalSurface, singular_set

surface = MaximalSurface(
    HarmonicOnAnnulus.from_modes(holo={1: 0.5}, antiholo={1: -0.5}),
    HarmonicOnAnnulus.from_modes(log_coeff=1.0),
)

out = Path(tempfile.mkdtemp(prefix="maxsurf-demo-"))
save_surface(surface, str(out / "catenoid.surface.txt"))
export_mesh(surface, str(out / "catenoid.mesh.txt"), n_theta=64, n_rho=32)
export_point_cloud(surface, str(out / "catenoid.csv"), n_theta=64, n_rho=32)

points = singular_set(surface, circle_angles(64), (0.4, 2.5))
write_singular_csv(str(out / "catenoid.singular.csv"), points)

for name in ("catenoid.surface.txt", "catenoid.mesh.txt", "catenoid.csv",
             "catenoid.singular.csv"):
    path = out / name
    print(f"{path}  ({path.stat().st_size} bytes)")
print(f"singular circle: {len(points)} points, "
      f"rho in [{min(p.rho for p in points):.6f}, {max(p.rho for p in points):.6f}]")
