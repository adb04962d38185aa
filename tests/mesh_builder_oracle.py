"""Cell-by-cell reference for the mesh builders, for tests only.

The package's `mesh` builds each structured block as arrays: one vertex
grid and one quad-index grid per block, with shared vertices merged by
exact coordinates afterwards.  This builder adds one vertex, quad and
triangle at a time through a dictionary keyed by (x1, rho), and finds and
tags the boundary one edge at a time, which is slower but independent of
that bookkeeping.  `build_dumbbell_mesh` and `build_profile_mesh` here take
the same configs as their namesakes in `mesh` and return plain arrays
(vertices, triangles, boundary edges, tags); the vertices and triangles
must equal the package's bit for bit.  The classifier keeps the finer
split of the boundary into axis, inflow face, truncation (arcs and the far
tube end) and walls; every tag but `axis` is a Dirichlet edge of the
package's `fem.Discretization`.
"""

import math
from collections import Counter

import numpy as np

from dumbbell import mesh as M


class Builder:
    """Accumulates vertices (deduplicated by exact coordinates) and
    triangles from structured blocks."""

    def __init__(self):
        self.coords: list[tuple[float, float]] = []
        self.index: dict[tuple[float, float], int] = {}
        self.triangles: list[tuple[int, int, int]] = []

    def vertex(self, x: float, rho: float) -> int:
        if abs(rho) < M._SNAP:
            rho = 0.0
        key = (x, rho)
        idx = self.index.get(key)
        if idx is None:
            idx = len(self.coords)
            self.index[key] = idx
            self.coords.append(key)
        return idx

    def tri(self, a: int, b: int, c: int):
        (xa, ya), (xb, yb), (xc, yc) = (self.coords[a], self.coords[b],
                                        self.coords[c])
        area2 = (xb - xa) * (yc - ya) - (xc - xa) * (yb - ya)
        if area2 == 0.0:
            return
        if area2 < 0.0:
            b, c = c, b
        self.triangles.append((a, b, c))

    def quad(self, a: int, b: int, c: int, d: int):
        """Split quad a-b-c-d along its shorter diagonal."""
        (xa, ya), (xc, yc) = self.coords[a], self.coords[c]
        (xb, yb), (xd, yd) = self.coords[b], self.coords[d]
        if (xc - xa) ** 2 + (yc - ya) ** 2 <= (xd - xb) ** 2 + (yd - yb) ** 2:
            self.tri(a, b, c)
            self.tri(a, c, d)
        else:
            self.tri(a, b, d)
            self.tri(b, c, d)

    def add_tensor_block(self, xs, rhos):
        ids = [[self.vertex(float(x), float(r)) for r in rhos] for x in xs]
        for i in range(len(xs) - 1):
            for j in range(len(rhos) - 1):
                self.quad(ids[i][j], ids[i + 1][j],
                          ids[i + 1][j + 1], ids[i][j + 1])

    def add_polar_block(self, center, radii, theta_a, theta_b, n_theta):
        thetas = np.linspace(theta_a, theta_b, n_theta + 1)
        cos = np.cos(thetas)
        sin = np.sin(thetas)
        cos[np.abs(cos) < M._SNAP] = 0.0
        sin[np.abs(sin) < M._SNAP] = 0.0
        c = self.vertex(center, 0.0)
        rings = [[self.vertex(center + float(r * cos[j]), float(r * sin[j]))
                  for j in range(n_theta + 1)] for r in radii[1:]]
        for j in range(n_theta):
            self.tri(c, rings[0][j], rings[0][j + 1])
        for i in range(len(rings) - 1):
            for j in range(n_theta):
                self.quad(rings[i][j], rings[i + 1][j],
                          rings[i + 1][j + 1], rings[i][j + 1])

    def finish(self):
        return (np.asarray(self.coords, dtype=float),
                np.asarray(self.triangles, dtype=np.int64))


def classify(vertices, edges, centers, r_out, inflow_x=None,
             tube_trunc_x=None):
    tol = 1e-9
    tags = []
    for a, b in edges:
        pa, pb = vertices[a], vertices[b]
        if pa[1] == 0.0 and pb[1] == 0.0:
            tags.append("axis")
            continue
        if inflow_x is not None and abs(pa[0] - inflow_x) < tol \
                and abs(pb[0] - inflow_x) < tol:
            tags.append("inflow")
            continue
        if tube_trunc_x is not None and abs(pa[0] - tube_trunc_x) < tol \
                and abs(pb[0] - tube_trunc_x) < tol:
            tags.append("truncation")
            continue
        on_arc = False
        for c in centers:
            ra = math.hypot(pa[0] - c, pa[1])
            rb = math.hypot(pb[0] - c, pb[1])
            if abs(ra - r_out) < tol and abs(rb - r_out) < tol:
                on_arc = True
                break
        tags.append("truncation" if on_arc else "dirichlet_wall")
    return tags


def boundary_edges(triangles):
    """Edges that belong to a single triangle, smaller vertex first,
    sorted lexicographically."""
    counts = Counter(tuple(sorted((tri[k], tri[(k + 1) % 3])))
                     for tri in triangles.tolist() for k in range(3))
    return np.array(sorted(e for e, c in counts.items() if c == 1),
                    dtype=np.int64)


def build_dumbbell_mesh(cfg):
    cfg.validate()
    eps = cfg.eps
    h_rho = min(cfg.h0, eps / 8.0)
    rho_grid = M._graded_nodes(0.0, eps, h_rho, 0.5, cfg.levels,
                               grade_b=True, h_ref=cfg.h0)
    x_grid = M._graded_nodes(0.0, 1.0, min(cfg.h0, eps / 2.5), 0.5,
                             cfg.levels, grade_a=True, grade_b=True,
                             h_ref=cfg.h0)
    radii = M._disk_radii(cfg, rho_grid, r_fine=5.5)
    nt = M._n_theta(cfg)

    b = Builder()
    b.add_polar_block(0.0, radii, 0.5 * math.pi, math.pi, nt)
    b.add_tensor_block(x_grid, rho_grid)
    b.add_polar_block(1.0, radii, 0.0, 0.5 * math.pi, nt)
    vertices, triangles = b.finish()
    edges = boundary_edges(triangles)
    tags = classify(vertices, edges, centers=(0.0, 1.0), r_out=cfg.r_out)
    return vertices, triangles, edges, tags


def build_profile_mesh(kind, cfg):
    cfg.validate()
    nt = M._n_theta(cfg)
    b = Builder()
    inflow_x = None
    tube_trunc_x = None

    if kind in ("HalfPlus", "HalfMinus"):
        radii = np.concatenate([
            [0.0], M._radial_extension(0.0, cfg.r_out, cfg.h0, 0.5, 0,
                                       r_fine=5.5)[1:]])
        if kind == "HalfPlus":
            b.add_polar_block(1.0, radii, 0.0, 0.5 * math.pi, nt)
            centers = (1.0,)
        else:
            b.add_polar_block(0.0, radii, 0.5 * math.pi, math.pi, nt)
            centers = (0.0,)
    else:
        h_rho = min(cfg.h0, 1.0 / 8.0)
        rho_grid = M._graded_nodes(0.0, 1.0, h_rho, 0.5, cfg.levels,
                                   grade_b=True, h_ref=cfg.h0)
        radii = M._disk_radii(cfg, rho_grid, r_fine=5.5)
        if kind == "PhiDomain":
            x0 = 1.0 - 10.0
            x_grid = M._graded_nodes(x0, 1.0, cfg.h0, 0.5, cfg.levels,
                                     grade_b=True)
            b.add_tensor_block(x_grid, rho_grid)
            b.add_polar_block(1.0, radii, 0.0, 0.5 * math.pi, nt)
            centers = (1.0,)
            tube_trunc_x = x0
        else:
            x1 = 10.0
            x_grid = M._graded_nodes(0.0, x1, cfg.h0, 0.5, cfg.levels,
                                     grade_a=True)
            b.add_polar_block(0.0, radii, 0.5 * math.pi, math.pi, nt)
            b.add_tensor_block(x_grid, rho_grid)
            centers = (0.0,)
            inflow_x = x1

    vertices, triangles = b.finish()
    edges = boundary_edges(triangles)
    tags = classify(vertices, edges, centers, cfg.r_out,
                    inflow_x=inflow_x, tube_trunc_x=tube_trunc_x)
    return vertices, triangles, edges, tags
