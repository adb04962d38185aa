"""Meridian-plane triangulations of the dumbbell and its limit domains.

Every domain here is a solid of revolution about the x1-axis, so we mesh the
meridian half-plane (x1, rho), rho >= 0.  Five domain kinds are supported:

* ``dumbbell``      two truncated half-balls joined by the thin tube
                    [0,1] x [0, eps];
* ``PhiDomain``     right half-space plus the unit-radius tube running left
                    of x1 = 1 (truncated tube end, hemispherical far field);
* ``PhiHatDomain``  left half-space plus the unit-radius tube running right
                    of x1 = 0, with an inflow face at the far tube end;
* ``HalfPlus``      right half-space alone, wall at x1 = 1;
* ``HalfMinus``     left half-space alone, wall at x1 = 0.

Meshes are block structured: polar blocks for the truncated half-balls
(a fan around the center plus rings of quads split into triangles) and a
tensor-product block for the tube.  The tube's rho-grid is reused as the
innermost radial grid of the adjacent polar block, so the blocks share
vertices exactly and the merged mesh is conforming by construction.
Geometric grading (ratio q, depth L) is applied toward the re-entrant
junction corners.  Boundary edges are tagged geometrically after merging:
``axis``, ``truncation``, ``inflow``, ``dirichlet_wall``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "MeshConfig",
    "MeridianMesh",
    "build_dumbbell_mesh",
    "build_profile_mesh",
    "refine",
    "EdgeTable",
    "edge_table",
]

PROFILE_KINDS = ("PhiDomain", "PhiHatDomain", "HalfPlus", "HalfMinus")
BOUNDARY_TAGS = ("dirichlet_wall", "axis", "truncation", "inflow")

_SNAP = 1e-13


@dataclass(frozen=True)
class MeshConfig:
    """Build parameters shared by all domain kinds.

    h0: target element size away from corners and coarsening zones.
    q, levels: geometric grading ratio / depth toward re-entrant corners.
    r_out: truncation radius of the half-ball blocks.
    eps: dumbbell tube radius.
    tube_length: computational length of the unit-radius profile tubes.
    """

    h0: float = 0.15
    q: float = 0.5
    levels: int = 8
    r_out: float = 12.0
    eps: float = 0.2
    tube_length: float = 10.0
    dimension: int = 3

    def validate(self, need_eps: bool = False) -> None:
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"grading ratio q={self.q} outside (0, 1)")
        if self.levels < 0:
            raise ValueError("grading depth must be >= 0")
        if self.r_out <= 6.0:
            raise ValueError(
                f"r_out={self.r_out} too small: weight support reaches |x|=5, "
                "truncation must satisfy r_out > 6")
        if self.h0 <= 0:
            raise ValueError("h0 must be positive")
        if self.dimension < 3:
            raise ValueError("dimension must be >= 3")
        if need_eps and not (0.0 < self.eps < 0.5):
            raise ValueError(f"eps={self.eps} outside (0, 0.5)")
        if self.tube_length < 8.0:
            raise ValueError("tube_length must be >= 8 (far-field decay)")


class MeridianMesh:
    """Immutable conforming triangulation of a meridian domain.

    vertices: (n, 2) float array of (x1, rho); triangles: (m, 3) int array,
    positively oriented; edges/edge_tags: tagged boundary edges.
    """

    def __init__(self, vertices, triangles, edges, edge_tags, domain_kind,
                 params, level=0):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.edges = np.ascontiguousarray(edges, dtype=np.int64)
        self.edge_tags = np.asarray(edge_tags, dtype=object)
        self.domain_kind = str(domain_kind)
        self.params = dict(params)
        self.level = int(level)
        for arr in (self.vertices, self.triangles, self.edges):
            arr.setflags(write=False)
        self._validate()

    def _validate(self):
        v, t = self.vertices, self.triangles
        if np.any(v[:, 1] < -_SNAP):
            raise ValueError("vertex with negative rho")
        if np.any(self.signed_areas() <= 0.0):
            raise ValueError("non-positively-oriented triangle")
        bad = {tag for tag in self.edge_tags if tag not in BOUNDARY_TAGS}
        if bad:
            raise ValueError(f"unknown boundary tags {sorted(bad)}")

    # -- geometry queries ---------------------------------------------------

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    def edge_lengths(self, tag: str | None = None) -> np.ndarray:
        edges = self.edges if tag is None else self.tagged_edges(tag)
        d = self.vertices[edges[:, 1]] - self.vertices[edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    def tagged_edges(self, tag: str) -> np.ndarray:
        if tag not in BOUNDARY_TAGS:
            raise ValueError(f"unknown tag {tag!r}")
        mask = self.edge_tags == tag
        return self.edges[mask]

    def tagged_nodes(self, *tags: str) -> np.ndarray:
        """Sorted unique vertex indices on the given boundary tags."""
        picked = [self.tagged_edges(t).ravel() for t in tags]
        if not picked:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(picked))

    def min_angles(self) -> np.ndarray:
        """Minimum interior angle of each triangle, in degrees."""
        p = self.vertices[self.triangles]
        angles = np.empty((len(self.triangles), 3))
        for k in range(3):
            a = p[:, (k + 1) % 3] - p[:, k]
            b = p[:, (k + 2) % 3] - p[:, k]
            num = a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
            den = np.hypot(a[:, 0], a[:, 1]) * np.hypot(b[:, 0], b[:, 1])
            angles[:, k] = np.degrees(np.arccos(np.clip(num / den, -1, 1)))
        return angles.min(axis=1)

    def min_edge_per_triangle(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        out = np.full(len(self.triangles), np.inf)
        for k in range(3):
            d = p[:, (k + 1) % 3] - p[:, k]
            out = np.minimum(out, np.hypot(d[:, 0], d[:, 1]))
        return out


class EdgeTable(NamedTuple):
    """Undirected edges of a triangulation, numbered in order of first
    appearance (triangle by triangle, sides ab, bc, ca).

    edges: (E, 2) vertex pairs, smaller index first; side_edge: (T, 3)
    edge index of each triangle side; counts: (E,) adjacent triangles."""

    edges: np.ndarray
    side_edge: np.ndarray
    counts: np.ndarray

    def index(self, pairs) -> np.ndarray:
        """Edge indices of the given vertex pairs, in either orientation."""
        pairs = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
                        axis=1)
        n = int(self.edges.max()) + 1 if len(self.edges) else 1
        keys = self.edges[:, 0] * n + self.edges[:, 1]
        order = np.argsort(keys)
        pos = np.searchsorted(keys[order], pairs[:, 0] * n + pairs[:, 1])
        found = order[np.minimum(pos, len(order) - 1)]
        if not np.array_equal(self.edges[found], pairs):
            raise ValueError("vertex pair is not an edge of the triangulation")
        return found


def edge_table(triangles) -> EdgeTable:
    """Number the undirected edges of a triangle array (see EdgeTable)."""
    tri = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    nxt = tri[:, [1, 2, 0]]
    lo = np.minimum(tri, nxt).ravel()
    hi = np.maximum(tri, nxt).ravel()
    n = int(hi.max()) + 1 if len(hi) else 1
    _, first, inverse, counts = np.unique(
        lo * n + hi, return_index=True, return_inverse=True,
        return_counts=True)
    # np.unique numbers edges by key; renumber by first appearance
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    edges = np.stack([lo[first[order]], hi[first[order]]], axis=1)
    return EdgeTable(edges, rank[inverse].reshape(-1, 3), counts[order])


# ----------------------------------------------------------------------------
# 1D graded grids
# ----------------------------------------------------------------------------

def _graded_nodes(a: float, b: float, h: float, q: float, levels: int,
                  grade_a: bool = False, grade_b: bool = False,
                  h_ref: float | None = None) -> np.ndarray:
    """Partition [a, b] with target size h and geometric grading (ratio q,
    depth `levels`) toward the flagged ends.  Graded sizes are h_ref*q^k
    (h_ref defaults to h) so the corner size is h_ref*q^levels even when
    the local base size h is already finer.  Endpoints are exact."""
    span = b - a
    if span <= 0:
        raise ValueError("empty interval")
    href = h if h_ref is None else h_ref
    depth = levels
    while True:
        graded = [href * q ** k for k in range(depth, 0, -1)
                  if href * q ** k < h]
        sa = graded if grade_a else []
        sb = graded[::-1] if grade_b else []
        rem = span - sum(sa) - sum(sb)
        if rem > 0.5 * h or depth == 0:
            break
        depth -= 1
    if rem <= 0.25 * h:
        n = max(1, round(span / h))
        return np.linspace(a, b, n + 1)
    n_mid = max(1, round(rem / h))
    sizes = sa + [rem / n_mid] * n_mid + sb
    nodes = a + np.concatenate([[0.0], np.cumsum(sizes)])
    nodes[-1] = b
    return nodes


def _radial_extension(r_in: float, r_out: float, h: float, q: float,
                      levels: int, r_fine: float,
                      growth: float = 1.2) -> np.ndarray:
    """Radial nodes from r_in to r_out: graded just outside the corner
    radius r_in, uniform ~h up to r_fine, then geometric coarsening."""
    nodes = [r_in]
    for k in range(levels, 0, -1):
        nodes.append(nodes[-1] + h * q ** k)
    while nodes[-1] < min(r_fine, r_out) - 0.5 * h:
        nodes.append(nodes[-1] + h)
    dr = h
    while nodes[-1] < r_out - 0.55 * dr:
        dr = dr * growth
        nodes.append(min(nodes[-1] + dr, r_out))
    nodes[-1] = r_out
    if len(nodes) >= 2 and nodes[-1] - nodes[-2] < 0.25 * h:
        del nodes[-2]
    return np.asarray(nodes)


# ----------------------------------------------------------------------------
# Block assembly
# ----------------------------------------------------------------------------

class _Builder:
    """Accumulates vertices (deduplicated by exact coordinates) and
    triangles from structured blocks."""

    def __init__(self):
        self.coords: list[tuple[float, float]] = []
        self.index: dict[tuple[float, float], int] = {}
        self.triangles: list[tuple[int, int, int]] = []

    def vertex(self, x: float, rho: float) -> int:
        if abs(rho) < _SNAP:
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

    def add_tensor_block(self, xs: np.ndarray, rhos: np.ndarray):
        ids = [[self.vertex(float(x), float(r)) for r in rhos] for x in xs]
        for i in range(len(xs) - 1):
            for j in range(len(rhos) - 1):
                self.quad(ids[i][j], ids[i + 1][j],
                          ids[i + 1][j + 1], ids[i][j + 1])

    def add_polar_block(self, center: float, radii: np.ndarray,
                        theta_a: float, theta_b: float, n_theta: int):
        """Quarter-disk block: fan around (center, 0) plus ring quads.
        theta measured from the positive x1 direction."""
        thetas = np.linspace(theta_a, theta_b, n_theta + 1)
        cos = np.cos(thetas)
        sin = np.sin(thetas)
        cos[np.abs(cos) < _SNAP] = 0.0
        sin[np.abs(sin) < _SNAP] = 0.0
        if radii[0] != 0.0:
            raise ValueError("polar block radii must start at 0")
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


def _boundary_edges(triangles: np.ndarray):
    """Edges with one adjacent triangle, sorted lexicographically."""
    table = edge_table(triangles)
    bad = table.edges[table.counts > 2]
    if len(bad):
        raise ValueError("non-conforming edges shared by >2 triangles: "
                         f"{bad[:5].tolist()}")
    edges = table.edges[table.counts == 1]
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def _classify(vertices, edges, centers, r_out, inflow_x=None,
              tube_trunc_x=None):
    """Tag boundary edges geometrically.  centers: x1-coordinates of the
    polar-block centers present in this mesh."""
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


def _n_theta(cfg: MeshConfig) -> int:
    return max(6, int(math.ceil(0.5 * math.pi / (cfg.h0 / 2.0))))


def _disk_radii(cfg: MeshConfig, inner: np.ndarray, r_fine: float) -> np.ndarray:
    ext = _radial_extension(float(inner[-1]), cfg.r_out, cfg.h0, cfg.q,
                            cfg.levels, r_fine)
    return np.concatenate([inner, ext[1:]])


# ----------------------------------------------------------------------------
# Public builders
# ----------------------------------------------------------------------------

def build_dumbbell_mesh(cfg: MeshConfig) -> MeridianMesh:
    """Meridian mesh of the truncated dumbbell: half-ball of radius r_out
    left of x1=0, tube [0,1] x [0,eps], mirrored half-ball right of x1=1."""
    cfg.validate(need_eps=True)
    eps = cfg.eps
    h_rho = min(cfg.h0, eps / 8.0)
    rho_grid = _graded_nodes(0.0, eps, h_rho, cfg.q, cfg.levels,
                             grade_b=True, h_ref=cfg.h0)
    x_grid = _graded_nodes(0.0, 1.0, min(cfg.h0, eps / 2.5), cfg.q,
                           cfg.levels, grade_a=True, grade_b=True,
                           h_ref=cfg.h0)
    radii = _disk_radii(cfg, rho_grid, r_fine=5.5)
    nt = _n_theta(cfg)

    b = _Builder()
    b.add_polar_block(0.0, radii, 0.5 * math.pi, math.pi, nt)
    b.add_tensor_block(x_grid, rho_grid)
    b.add_polar_block(1.0, radii, 0.0, 0.5 * math.pi, nt)
    vertices, triangles = b.finish()
    edges = _boundary_edges(triangles)
    tags = _classify(vertices, edges, centers=(0.0, 1.0), r_out=cfg.r_out)
    params = {"eps": eps, "r_out": cfg.r_out, "tube_radius": eps,
              "tube_span": (0.0, 1.0), "h0": cfg.h0,
              "dimension": cfg.dimension}
    return MeridianMesh(vertices, triangles, edges, tags, "dumbbell", params)


def build_profile_mesh(kind: str, cfg: MeshConfig) -> MeridianMesh:
    """Mesh one of the four limit domains (see module docstring)."""
    cfg.validate()
    if kind not in PROFILE_KINDS:
        raise ValueError(f"unknown domain kind {kind!r}; "
                         f"expected one of {PROFILE_KINDS}")
    nt = _n_theta(cfg)
    b = _Builder()
    inflow_x = None
    tube_trunc_x = None
    params = {"r_out": cfg.r_out, "h0": cfg.h0, "dimension": cfg.dimension}

    if kind in ("HalfPlus", "HalfMinus"):
        radii = np.concatenate([
            [0.0], _radial_extension(0.0, cfg.r_out, cfg.h0, cfg.q, 0,
                                     r_fine=5.5)[1:]])
        if kind == "HalfPlus":
            b.add_polar_block(1.0, radii, 0.0, 0.5 * math.pi, nt)
            centers = (1.0,)
        else:
            b.add_polar_block(0.0, radii, 0.5 * math.pi, math.pi, nt)
            centers = (0.0,)
    else:
        h_rho = min(cfg.h0, 1.0 / 8.0)
        rho_grid = _graded_nodes(0.0, 1.0, h_rho, cfg.q, cfg.levels,
                                 grade_b=True, h_ref=cfg.h0)
        radii = _disk_radii(cfg, rho_grid, r_fine=5.5)
        if kind == "PhiDomain":
            # half-space right of x1=1 plus tube of radius 1 to its left;
            # far tube end truncated with homogeneous data
            x0 = 1.0 - cfg.tube_length
            x_grid = _graded_nodes(x0, 1.0, cfg.h0, cfg.q, cfg.levels,
                                   grade_b=True)
            b.add_tensor_block(x_grid, rho_grid)
            b.add_polar_block(1.0, radii, 0.0, 0.5 * math.pi, nt)
            centers = (1.0,)
            tube_trunc_x = x0
            params["tube_span"] = (x0, 1.0)
        else:
            # half-space left of x1=0 plus tube of radius 1 to its right;
            # data imposed on the inflow face at x1 = tube_length
            x1 = cfg.tube_length
            x_grid = _graded_nodes(0.0, x1, cfg.h0, cfg.q, cfg.levels,
                                   grade_a=True)
            b.add_polar_block(0.0, radii, 0.5 * math.pi, math.pi, nt)
            b.add_tensor_block(x_grid, rho_grid)
            centers = (0.0,)
            inflow_x = x1
            params["tube_span"] = (0.0, x1)
        params["tube_radius"] = 1.0

    vertices, triangles = b.finish()
    edges = _boundary_edges(triangles)
    tags = _classify(vertices, edges, centers, cfg.r_out,
                     inflow_x=inflow_x, tube_trunc_x=tube_trunc_x)
    return MeridianMesh(vertices, triangles, edges, tags, kind, params)


def refine(mesh: MeridianMesh) -> MeridianMesh:
    """Uniform red refinement: every triangle into 4 via edge midpoints;
    boundary edges split in place with tags inherited."""
    table = edge_table(mesh.triangles)
    v = mesh.vertices
    verts = np.vstack([v, 0.5 * (v[table.edges[:, 0]] + v[table.edges[:, 1]])])
    a, b, c = mesh.triangles.T
    mab, mbc, mca = (len(v) + table.side_edge).T
    tris = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca],
                    axis=1).reshape(-1, 3)
    m = len(v) + table.index(mesh.edges)
    new_edges = np.stack([mesh.edges[:, 0], m, m, mesh.edges[:, 1]],
                         axis=1).reshape(-1, 2)
    return MeridianMesh(verts, tris, new_edges, np.repeat(mesh.edge_tags, 2),
                        mesh.domain_kind, mesh.params, mesh.level + 1)
