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

    def tagged_edges(self, tag: str) -> np.ndarray:
        if tag not in BOUNDARY_TAGS:
            raise ValueError(f"unknown tag {tag!r}")
        mask = self.edge_tags == tag
        return self.edges[mask]


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

def _split_quads(xy: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Triangles (2 per quad, in quad order) of the quads a-b-c-d (rows of
    `quads`), each split along its shorter diagonal, a-c on a tie.  Ring
    quads of a polar block are isosceles trapezoids, whose diagonals tie in
    exact arithmetic, so the squares are libm pow, the rounding that picks
    those splits; x*x rounds differently often enough to flip some."""
    a, b, c, d = quads.T
    ac = np.float_power(xy[c] - xy[a], 2.0)
    bd = np.float_power(xy[d] - xy[b], 2.0)
    short_ac = (ac[:, 0] + ac[:, 1] <= bd[:, 0] + bd[:, 1])[:, None]
    first = np.where(short_ac, quads[:, [0, 1, 2]], quads[:, [0, 1, 3]])
    second = np.where(short_ac, quads[:, [0, 2, 3]], quads[:, [1, 2, 3]])
    return np.stack([first, second], axis=1).reshape(-1, 3)


def _orient(xy: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Drop the triangles of zero area and order the others positively."""
    pa, pb, pc = xy[tris[:, 0]], xy[tris[:, 1]], xy[tris[:, 2]]
    area2 = ((pb[:, 0] - pa[:, 0]) * (pc[:, 1] - pa[:, 1])
             - (pc[:, 0] - pa[:, 0]) * (pb[:, 1] - pa[:, 1]))
    tris = tris[area2 != 0.0]
    flip = area2[area2 != 0.0] < 0.0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def _quads(ids: np.ndarray) -> np.ndarray:
    """Corners a-b-c-d of the cells of a vertex-id grid (i, j), i outer:
    (i, j), (i+1, j), (i+1, j+1), (i, j+1)."""
    return np.stack([ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]],
                    axis=-1).reshape(-1, 4)


def _snapped(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """(n, 2) points (x1, rho), rho within _SNAP of the axis put on it."""
    xy = np.stack([x, rho], axis=-1).reshape(-1, 2)
    xy[np.abs(xy[:, 1]) < _SNAP, 1] = 0.0
    return xy


def _tensor_block(xs: np.ndarray, rhos: np.ndarray):
    """Vertices of the grid xs x rhos (x outer) and its triangles, in
    block-local vertex ids."""
    x, rho = np.meshgrid(xs, rhos, indexing="ij")
    xy = _snapped(x, rho)
    ids = np.arange(len(xy)).reshape(len(xs), len(rhos))
    return xy, _orient(xy, _split_quads(xy, _quads(ids)))


def _polar_block(center: float, radii: np.ndarray, theta_a: float,
                 theta_b: float, n_theta: int):
    """Quarter-disk block: the center, then ring by ring its vertices, and
    its triangles, the fan around (center, 0) first and then the ring quads
    ring by ring.  theta measured from the positive x1 direction."""
    thetas = np.linspace(theta_a, theta_b, n_theta + 1)
    cos = np.cos(thetas)
    sin = np.sin(thetas)
    cos[np.abs(cos) < _SNAP] = 0.0
    sin[np.abs(sin) < _SNAP] = 0.0
    if radii[0] != 0.0:
        raise ValueError("polar block radii must start at 0")
    r = radii[1:, None]
    xy = np.vstack([[center, 0.0], _snapped(center + r * cos, r * sin)])
    rings = 1 + np.arange(len(r) * (n_theta + 1)).reshape(len(r), -1)
    fan = np.stack([np.zeros(n_theta, dtype=np.int64), rings[0, :-1],
                    rings[0, 1:]], axis=1)
    tris = np.vstack([fan, _split_quads(xy, _quads(rings))])
    return xy, _orient(xy, tris)


def _merge(blocks):
    """One vertex and triangle array from blocks (xy, tris): vertices with
    equal (x1, rho) become one, numbered in order of first appearance."""
    xy = np.vstack([b[0] for b in blocks])
    offsets = np.cumsum([0] + [len(b[0]) for b in blocks[:-1]])
    tris = np.vstack([b[1] + off for b, off in zip(blocks, offsets)])
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    s = xy[order]
    new = np.r_[True, np.any(s[1:] != s[:-1], axis=1)]
    # each group's smallest index is its first appearance
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    by_first = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_first] = np.arange(len(first))
    ids = np.empty(len(xy), dtype=np.int64)
    ids[order] = rank[np.cumsum(new) - 1]
    return xy[first[by_first]], ids[tris]


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
    polar-block centers present in this mesh.  An edge takes the first tag
    that fits, in the order axis, inflow, tube truncation, truncation arc,
    and is a Dirichlet wall otherwise."""
    tol = 1e-9
    pa, pb = vertices[edges[:, 0]], vertices[edges[:, 1]]
    tags = np.full(len(edges), "dirichlet_wall", dtype=object)
    # the rules from last to first, so the first that fits is written last
    on_arc = np.zeros(len(edges), dtype=bool)
    for c in centers:
        on_arc |= ((np.abs(np.hypot(pa[:, 0] - c, pa[:, 1]) - r_out) < tol)
                   & (np.abs(np.hypot(pb[:, 0] - c, pb[:, 1]) - r_out) < tol))
    tags[on_arc] = "truncation"
    for x, tag in ((tube_trunc_x, "truncation"), (inflow_x, "inflow")):
        if x is not None:
            tags[(np.abs(pa[:, 0] - x) < tol) & (np.abs(pb[:, 0] - x) < tol)] = tag
    tags[(pa[:, 1] == 0.0) & (pb[:, 1] == 0.0)] = "axis"
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

    vertices, triangles = _merge([
        _polar_block(0.0, radii, 0.5 * math.pi, math.pi, nt),
        _tensor_block(x_grid, rho_grid),
        _polar_block(1.0, radii, 0.0, 0.5 * math.pi, nt)])
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
    inflow_x = None
    tube_trunc_x = None
    params = {"r_out": cfg.r_out, "h0": cfg.h0, "dimension": cfg.dimension}

    if kind in ("HalfPlus", "HalfMinus"):
        radii = np.concatenate([
            [0.0], _radial_extension(0.0, cfg.r_out, cfg.h0, cfg.q, 0,
                                     r_fine=5.5)[1:]])
        if kind == "HalfPlus":
            blocks = [_polar_block(1.0, radii, 0.0, 0.5 * math.pi, nt)]
            centers = (1.0,)
        else:
            blocks = [_polar_block(0.0, radii, 0.5 * math.pi, math.pi, nt)]
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
            blocks = [_tensor_block(x_grid, rho_grid),
                      _polar_block(1.0, radii, 0.0, 0.5 * math.pi, nt)]
            centers = (1.0,)
            tube_trunc_x = x0
            params["tube_span"] = (x0, 1.0)
        else:
            # half-space left of x1=0 plus tube of radius 1 to its right;
            # data imposed on the inflow face at x1 = tube_length
            x1 = cfg.tube_length
            x_grid = _graded_nodes(0.0, x1, cfg.h0, cfg.q, cfg.levels,
                                   grade_a=True)
            blocks = [_polar_block(0.0, radii, 0.5 * math.pi, math.pi, nt),
                      _tensor_block(x_grid, rho_grid)]
            centers = (0.0,)
            inflow_x = x1
            params["tube_span"] = (0.0, x1)
        params["tube_radius"] = 1.0

    vertices, triangles = _merge(blocks)
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
