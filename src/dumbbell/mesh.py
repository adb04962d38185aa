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
Geometric grading (ratio 1/2, depth L) is applied toward the re-entrant
junction corners.  A mesh is its vertices, triangles and N and stores no
boundary: `fem.Discretization.boundary_nodes` reads the boundary edges off
its own edge table and applies the one rule, ``axis`` when both ends have
rho = 0 (the symmetry axis, a natural boundary) and ``dirichlet`` otherwise.
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

_SNAP = 1e-13
# geometric grading ratio toward the re-entrant corners
_GRADE_Q = 0.5
# computational length of the unit-radius profile tubes: the tube modes
# decay like exp(-sqrt(lambda_1) |x1|), e^-24 over that length for N = 3
_TUBE_LENGTH = 10.0


@dataclass(frozen=True)
class MeshConfig:
    """Build parameters shared by all domain kinds.

    h0: target element size away from corners and coarsening zones.
    levels: grading depth toward re-entrant corners.
    r_out: truncation radius of the half-ball blocks.
    eps: dumbbell tube radius; the profile domains have none.
    """

    h0: float = 0.15
    levels: int = 8
    r_out: float = 12.0
    eps: float | None = None
    dimension: int = 3

    def validate(self) -> None:
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
        if self.eps is not None and not (0.0 < self.eps < 0.5):
            raise ValueError(f"eps={self.eps} outside (0, 0.5)")


class MeridianMesh:
    """Immutable conforming triangulation of a meridian domain.

    vertices: (n, 2) float array of (x1, rho); triangles: (m, 3) int array,
    positively oriented; dimension: N of the solid of revolution the
    meridian domain sweeps out.
    """

    def __init__(self, vertices, triangles, dimension):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.dimension = int(dimension)
        for arr in (self.vertices, self.triangles):
            arr.setflags(write=False)
        if np.any(self.vertices[:, 1] < -_SNAP):
            raise ValueError("vertex with negative rho")
        if np.any(self.signed_areas() <= 0.0):
            raise ValueError("non-positively-oriented triangle")
        self._edges = None

    @property
    def edges(self) -> "EdgeTable":
        """The mesh's EdgeTable, numbered by `edge_table` on first use; a
        mesh made by `refine` carries the one derived from its parent's."""
        if self._edges is None:
            self._edges = edge_table(self.triangles)
        return self._edges

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


class EdgeTable(NamedTuple):
    """Undirected edges of a triangulation, numbered in order of first
    appearance (triangle by triangle, sides ab, bc, ca).

    edges: (E, 2) vertex pairs, smaller index first; side_edge: (T, 3)
    edge index of each triangle side; counts: (E,) adjacent triangles."""

    edges: np.ndarray
    side_edge: np.ndarray
    counts: np.ndarray


def edge_table(triangles) -> EdgeTable:
    """Number the undirected edges of a triangle array (see EdgeTable); an
    edge of more than two triangles raises ValueError."""
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
    counts = counts[order]
    if np.any(counts > 2):
        raise ValueError("non-conforming edges shared by >2 triangles: "
                         f"{edges[counts > 2][:5].tolist()}")
    return EdgeTable(edges, rank[inverse].reshape(-1, 3), counts)


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


def _n_theta(cfg: MeshConfig) -> int:
    return max(6, int(math.ceil(0.5 * math.pi / (cfg.h0 / 2.0))))


def _disk_radii(cfg: MeshConfig, inner: np.ndarray, r_fine: float) -> np.ndarray:
    ext = _radial_extension(float(inner[-1]), cfg.r_out, cfg.h0, _GRADE_Q,
                            cfg.levels, r_fine)
    return np.concatenate([inner, ext[1:]])


# ----------------------------------------------------------------------------
# Public builders
# ----------------------------------------------------------------------------

def build_dumbbell_mesh(cfg: MeshConfig) -> MeridianMesh:
    """Meridian mesh of the truncated dumbbell: half-ball of radius r_out
    left of x1=0, tube [0,1] x [0,eps], mirrored half-ball right of x1=1."""
    cfg.validate()
    eps = cfg.eps
    if eps is None:
        raise ValueError("the dumbbell mesh needs a tube radius eps")
    h_rho = min(cfg.h0, eps / 8.0)
    rho_grid = _graded_nodes(0.0, eps, h_rho, _GRADE_Q, cfg.levels,
                             grade_b=True, h_ref=cfg.h0)
    x_grid = _graded_nodes(0.0, 1.0, min(cfg.h0, eps / 2.5), _GRADE_Q,
                           cfg.levels, grade_a=True, grade_b=True,
                           h_ref=cfg.h0)
    radii = _disk_radii(cfg, rho_grid, r_fine=5.5)
    nt = _n_theta(cfg)
    return MeridianMesh(*_merge([
        _polar_block(0.0, radii, 0.5 * math.pi, math.pi, nt),
        _tensor_block(x_grid, rho_grid),
        _polar_block(1.0, radii, 0.0, 0.5 * math.pi, nt)]), cfg.dimension)


def build_profile_mesh(kind: str, cfg: MeshConfig) -> MeridianMesh:
    """Mesh one of the four limit domains (see module docstring)."""
    cfg.validate()
    if kind not in PROFILE_KINDS:
        raise ValueError(f"unknown domain kind {kind!r}; "
                         f"expected one of {PROFILE_KINDS}")
    nt = _n_theta(cfg)
    if kind in ("HalfPlus", "HalfMinus"):
        radii = np.concatenate([
            [0.0], _radial_extension(0.0, cfg.r_out, cfg.h0, _GRADE_Q, 0,
                                     r_fine=5.5)[1:]])
        if kind == "HalfPlus":
            blocks = [_polar_block(1.0, radii, 0.0, 0.5 * math.pi, nt)]
        else:
            blocks = [_polar_block(0.0, radii, 0.5 * math.pi, math.pi, nt)]
    else:
        h_rho = min(cfg.h0, 1.0 / 8.0)
        rho_grid = _graded_nodes(0.0, 1.0, h_rho, _GRADE_Q, cfg.levels,
                                 grade_b=True, h_ref=cfg.h0)
        radii = _disk_radii(cfg, rho_grid, r_fine=5.5)
        if kind == "PhiDomain":
            # half-space right of x1=1 plus tube of radius 1 to its left
            x_grid = _graded_nodes(1.0 - _TUBE_LENGTH, 1.0, cfg.h0, _GRADE_Q,
                                   cfg.levels, grade_b=True)
            blocks = [_tensor_block(x_grid, rho_grid),
                      _polar_block(1.0, radii, 0.0, 0.5 * math.pi, nt)]
        else:
            # half-space left of x1=0 plus tube of radius 1 to its right
            x_grid = _graded_nodes(0.0, _TUBE_LENGTH, cfg.h0, _GRADE_Q,
                                   cfg.levels, grade_a=True)
            blocks = [_polar_block(0.0, radii, 0.5 * math.pi, math.pi, nt),
                      _tensor_block(x_grid, rho_grid)]
    return MeridianMesh(*_merge(blocks), cfg.dimension)


def _child_edges(parent: EdgeTable, triangles: np.ndarray,
                 nv: int) -> EdgeTable:
    """The EdgeTable of `refine`'s child, derived from the parent's in
    O(cells), without a sort: it equals `edge_table` of the child's
    triangles.

    Parent triangle t (a, b, c), with midpoints mab, mbc, mca of its sides
    0, 1, 2, gives children 4t..4t+3, whose first nine sides are in turn
    a-mab, mab-mca, mca-a, b-mbc, mbc-mab, mab-b, c-mca, mca-mbc, mbc-c
    (the fourth child's sides repeat the three interior ones).  The
    interior edges are new in t's block, and so are the two halves of a
    parent edge in the block of the first triangle that holds it; the
    child's edges are the new ones in that order, block by block."""
    se = parent.side_edge
    flat = se.ravel()
    # edges are numbered by first appearance, so a side holds its edge's
    # first appearance iff its number exceeds every number before it
    seen = np.maximum.accumulate(np.r_[-1, flat[:-1]])
    first = (flat > seen).reshape(-1, 3)
    # the nine sides' ends as columns of (a, b, c, mab, mbc, mca)
    corner = np.hstack([triangles, nv + se])
    v, w = (np.take(corner, cols, axis=1) for cols in _SLOT_ENDS)
    new = np.ones(v.shape, dtype=bool)
    new[:, _HALVES] = np.take(first, _HALF_SIDE, axis=1)
    at = np.flatnonzero(new)
    ids = np.zeros(v.shape, dtype=np.int64)
    ids.ravel()[at] = np.arange(len(at))
    # the half of parent edge e at its smaller end is half[2e], at its
    # larger half[2e + 1]; each is numbered in its first side's block
    e = np.take(se, _HALF_SIDE, axis=1)
    key = 2 * e + (np.take(v, _HALVES, axis=1)
                   > np.take(triangles, _HALF_OTHER, axis=1))
    fresh = np.take(new, _HALVES, axis=1)
    half = np.empty(2 * len(parent.edges), dtype=np.int64)
    half[key[fresh]] = np.take(ids, _HALVES, axis=1)[fresh]
    ids[:, _HALVES] = np.take(half, key)
    counts = np.full(v.shape, 2, dtype=parent.counts.dtype)
    counts[:, _HALVES] = np.take(parent.counts, e)
    v, w = np.take(v, at), np.take(w, at)
    return EdgeTable(np.stack([np.minimum(v, w), np.maximum(v, w)], axis=1),
                     np.take(ids, _CHILD_SIDES, axis=1).reshape(-1, 3),
                     np.take(counts, at))


# the nine new sides of a refined triangle's block (see _child_edges):
# their ends as columns of (a, b, c, mab, mbc, mca); the six halves among
# them, the parent side each halves and that side's other parent vertex;
# and the slot of every child side
_SLOT_ENDS = ((0, 3, 0, 1, 4, 1, 2, 5, 2), (3, 5, 5, 4, 3, 3, 5, 4, 4))
_HALVES = [0, 2, 3, 5, 6, 8]
_HALF_SIDE = [0, 2, 1, 0, 2, 1]
_HALF_OTHER = [1, 2, 2, 0, 0, 1]
_CHILD_SIDES = [0, 1, 2, 3, 4, 5, 6, 7, 8, 4, 7, 1]


def refine(mesh: MeridianMesh) -> MeridianMesh:
    """Uniform red refinement: every triangle into 4 via edge midpoints.
    The child carries its EdgeTable, derived from the parent's."""
    table = mesh.edges
    v = mesh.vertices
    verts = np.vstack([v, 0.5 * (v[table.edges[:, 0]] + v[table.edges[:, 1]])])
    a, b, c = mesh.triangles.T
    mab, mbc, mca = (len(v) + table.side_edge).T
    tris = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca],
                    axis=1).reshape(-1, 3)
    child = MeridianMesh(verts, tris, mesh.dimension)
    child._edges = _child_edges(table, mesh.triangles, len(v))
    return child
